"""Operators on the polynomial representation of the deformed algebra.

:class:`PolyRep` bundles a group G(r,p,n) with a parameter field and applies
the standard operators to sparse polynomials:

* ``x(i, f)`` -- multiplication by x_i,
* ``t(w, f)`` -- the group action,
* ``dunkl(i, f)`` -- y_i = kappa d/dx_i - sum_s c_s <alpha_s, y_i> (f - sf)/alpha_s,
* ``z(i, f)`` -- z_i = y_i x_i + c0 phi_i with phi_i the partial class sum,
* ``h(f)`` -- sum_i x_i y_i + sum_s c_s (1 - t_s),

together with exact divided differences and a relation checker.  Divided
differences are evaluated per monomial by the geometric-series expansion along
the reflecting line, which is always an exact division.  Monomial images of
y_i and z_i are memoized.  Summed over the r colors, the colored
transpositions of a pair of slots leave r c0 or nothing on each term of
y_i x^mu, so the images need no root of unity (``PolyRep._dunkl_mono``); the
class sum in z_i collapses the same way.

The relation checker proves on each monomial x^mu up to a degree, in this
order, t_w x_j = (w x_j) t_w for each reflection w and slot j and the x-side
formula of ``x_side_defects`` for |nu| = 1, then 2; at |nu| = 1 that is

    [y_i, x_j] = kappa delta_ij
                 - sum_s c_s <alpha_s, y_i> <x_j, alpha_s^vee> t_s.

It sweeps the monomials in degree order over rolling tables: per x^e, its
``y_images`` to degree 2 and t_w x^e per reflection.  The table of x^{mu+e_j}
is built when x^mu first reaches it and read again on its own turn, then
dropped, so each table is built once and at most two degrees are live.
The x-side right sides apply no group element: the reflections of a pair
of slots (or at one slot) send x^e to one monomial, up to a root of unity
fixed by a residue mod r, so ``PolyRep._x_side_plan`` keeps one weight per
residue and each term of y^ev f is scaled once.  Every relation and
commutator is checked by building its two sides and comparing them; their
difference is formed only for a failure record.
"""

from __future__ import annotations

from math import comb

from .cyclotomic import Cyc
from .groups import GroupElement, Reflection, check_group, reflections
from .polynomials import Poly, accumulate
from .scalars import GenericParameters

__all__ = ["PolyRep", "act_on_poly", "monomials_of_degree", "monomials_up_to",
           "require_relation_budget"]

# the most monomials the relation or commutator suite may check; G(2,1,3)
# at degree 12 checks 455 and its relation suite takes about 0.3 s
RELATION_MONOMIAL_BUDGET = 5_000


def act_on_poly(w: "GroupElement", f: "Poly") -> "Poly":
    """The colored-permutation action x^mu -> zeta^{<col,mu>} x^{w.mu}.

    Works in either scalar mode: coefficients are scaled through their own
    arithmetic. This is an algebra automorphism of the polynomial ring. w
    permutes exponent vectors injectively, so no two terms collide.
    """
    out: dict = {}
    for e, c in f.terms.items():
        k, nu = w.act_on_exponents(e)
        out[nu] = c.cmul(Cyc.root(w.r, k)) if k else c
    return Poly(f.n, out)


def monomials_of_degree(n: int, d: int):
    """All exponent vectors in Z_{>=0}^n of total degree d."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


def monomials_up_to(n: int, d: int):
    for k in range(d + 1):
        yield from monomials_of_degree(n, k)


def require_relation_budget(n: int, max_deg: int) -> int:
    """C(max_deg+n, n), the sum over d <= max_deg of the C(d+n-1, n-1)
    monomials of degree d that a suite checks; a ValueError when that is
    over ``RELATION_MONOMIAL_BUDGET``."""
    count = comb(max_deg + n, n)
    if count > RELATION_MONOMIAL_BUDGET:
        raise ValueError(
            f"the relation and commutator suites on {n} variables up to "
            f"degree {max_deg} check {count:,} monomials, over the budget "
            f"of {RELATION_MONOMIAL_BUDGET:,}")
    return count


def _dd_terms(mu, s: Reflection, l: int, r: int) -> list:
    """(x^mu - s x^mu)/alpha_s as (exponents, index) pairs; exact by the
    geometric series along the reflecting line.

    For a transposition, alpha_s = x_a - zeta^l x_b and the coefficient of
    index k is zeta^k for k < r and -zeta^(k - r) otherwise.  For a diagonal
    reflection the index is the residue e = mu_i mod r, and the one term is
    present only when l e != 0 mod r.  :func:`_dd_coefficient` maps an index
    to its coefficient.
    """
    if s.kind == "diagonal":
        e = mu[s.i] % r
        if (l * e) % r == 0:
            return []
        nu = list(mu)
        nu[s.i] -= 1
        return [(tuple(nu), e)]
    a, b = s.i, s.j
    ea, eb = mu[a], mu[b]
    out = []
    if ea > eb:
        for t in range(ea - eb):
            nu = list(mu)
            nu[a] = ea - 1 - t
            nu[b] = eb + t
            out.append((tuple(nu), (l * t) % r))
    else:
        for t in range(eb - ea):
            nu = list(mu)
            nu[a] = eb - 1 - t
            nu[b] = ea + t
            out.append((tuple(nu), r + (l * (ea - eb + t)) % r))
    return out


def _dd_coefficient(s: Reflection, k: int, r: int) -> Cyc:
    """The x-side coefficient of index k in :func:`_dd_terms`: +-zeta^k for
    a transposition, zeta^{l+1}(1 - zeta^{-l k}) for a diagonal of color l,
    where alpha_s = zeta^{-l-1} x_i."""
    if s.kind == "diagonal":
        return Cyc.root(r, s.l + 1) * (Cyc.one(r) - Cyc.root(r, -s.l * k))
    return Cyc.root(r, k) if k < r else -Cyc.root(r, k - r)


class PolyRep:
    """The polynomial representation of the rational Cherednik algebra of
    G(r,p,n), with either generic or specialized parameters."""

    def __init__(self, r: int, p: int, n: int, params=None, *,
                 fault_dunkl_sign: bool = False):
        check_group(r, p, n)
        self.r, self.p, self.n = r, p, n
        self.params = params if params is not None else GenericParameters(r, p)
        if self.params.r != r or self.params.p != p:
            raise ValueError("parameter field does not match the group")
        self.reflections: list[Reflection] = reflections(r, p, n)
        c0r = self._c0r = self.params.c0 * self.params.rational(r)
        # -r c0 and +r c0 for _dunkl_mono, swapped by the injected fault
        self._pair_coeffs = (c0r, -c0r) if fault_dunkl_sign else (-c0r, c0r)
        self._dunkl_memo: dict = {}
        self._z_memo: dict = {}
        self._x_plan = None
        #: Eigenvectors built by :func:`~cherednik.jack.jack_by_intertwiners`,
        #: keyed by composition; shared by every call on this representation.
        self.jack_cache: dict = {}
        #: Exchange images built by :func:`~cherednik.intertwiners.apply_sigma`,
        #: keyed by (slot, composition, fault flag), each with its input.
        self.sigma_cache: dict = {}

    # -- elementary operators ------------------------------------------------

    def one(self) -> Poly:
        return Poly.monomial((0,) * self.n, self.params.one)

    def x_poly(self, i: int) -> Poly:
        return Poly.monomial(tuple(int(t == i) for t in range(self.n)),
                             self.params.one)

    def x(self, i: int, f: Poly) -> Poly:
        return Poly(self.n, {e[:i] + (e[i] + 1,) + e[i + 1:]: c
                             for e, c in f.terms.items()})

    def t(self, w: GroupElement, f: Poly) -> Poly:
        """Group action: x^mu -> zeta^{<col,mu>} x^{w.mu}."""
        return act_on_poly(w, f)

    def divided_difference(self, f: Poly, s: Reflection) -> Poly:
        """(f - s f)/alpha_s, evaluated exactly term by term."""
        out: dict = {}
        for e, c in f.terms.items():
            accumulate(out, [(nu, c.cmul(_dd_coefficient(s, k, self.r)))
                             for nu, k in _dd_terms(e, s, s.l, self.r)])
        return Poly(self.n, out)

    # -- Dunkl operators ------------------------------------------------------

    def _dunkl_mono(self, i: int, mu: tuple[int, ...]) -> Poly:
        """y_i x^mu, memoized per (i, mu), with the colors summed out.

        kappa d/dx_i and the diagonal reflections put the z-eigenvalue
        kappa mu_i - (d_0 - d_{-mu_i}) on x^{mu - e_i}.  For j != i (j = i
        adds nothing), the r colored transpositions of (a, b) = (min(i, j),
        max(i, j)) weight x^nu, nu_a = hi - 1 - t and nu_b = lo + t for
        0 <= t < hi - lo with {lo, hi} = {mu_a, mu_b}, by zeta^{l m}, where
        m = t + [i = b], plus mu_a - mu_b if mu_a < mu_b.  Summed over l, r c0
        is left where m = 0 mod r, negated when (mu_a > mu_b) == (i = a) and
        again under the fault.  For n = 2 and even p, c0 covers two conjugacy
        classes (even and odd colors), so "generic" there means c_even = c_odd.
        """
        key = (i, mu)
        got = self._dunkl_memo.get(key)
        if got is not None:
            return got
        out: dict = {}
        if mu[i]:
            accumulate(out, [(mu[:i] + (mu[i] - 1,) + mu[i + 1:],
                              self.params.z_eigenvalue(mu[i] - 1, 0))])
        for j in range(self.n):
            a, b = min(i, j), max(i, j)
            down = mu[a] > mu[b]
            m = int(i == b) + (0 if down else mu[a] - mu[b])
            c = self._pair_coeffs[down != (i == a)]
            lo, hi = sorted((mu[a], mu[b]))
            nu = list(mu)
            for t in range(-m % self.r, hi - lo, self.r):
                nu[a], nu[b] = hi - 1 - t, lo + t
                accumulate(out, [(tuple(nu), c)])
        poly = Poly(self.n, out)
        self._dunkl_memo[key] = poly
        return poly

    def _apply_by_monomials(self, image, i: int, f: Poly) -> Poly:
        """Extend ``image(i, mu)``, a polynomial per monomial x^mu, linearly
        to f.

        When f is one monomial with coefficient ``params.one`` (by
        identity), the image itself is returned: the memoized monomial
        images are shared, and no caller mutates a ``Poly``.
        """
        terms = f.terms
        if len(terms) == 1:
            (e, c), = terms.items()
            if c is self.params.one:
                return image(i, e)
        out: dict = {}
        # inline: accumulate() per monomial image measured ~10% slower
        for e, c in terms.items():
            for nu, v in image(i, e).terms.items():
                w = c * v
                s = out.get(nu)
                s = w if s is None else s + w
                if s:
                    out[nu] = s
                else:
                    out.pop(nu, None)
        return Poly(self.n, out)

    def dunkl(self, i: int, f: Poly) -> Poly:
        """The commuting difference-differential action of y_i."""
        return self._apply_by_monomials(self._dunkl_mono, i, f)

    def y_images(self, f: Poly, d: int) -> dict:
        """y^ev f for every exponent vector ev with |ev| <= d, keyed by ev.

        Each entry is one Dunkl operator applied to the entry one degree
        lower: y^ev f = y_i (y^{ev - e_i} f) with i the last slot of ev.
        """
        out = {(0,) * self.n: f}
        for ev in monomials_up_to(self.n, d):
            if any(ev):
                i = max(t for t, e in enumerate(ev) if e)
                lower = ev[:i] + (ev[i] - 1,) + ev[i + 1:]
                out[ev] = self.dunkl(i, out[lower])
        return out

    # -- z operators and the grading element -----------------------------------

    def z_monomial(self, i: int, mu: tuple[int, ...]) -> Poly:
        """z_i x^mu, memoized per (i, mu)."""
        key = (i, mu)
        got = self._z_memo.get(key)
        if got is not None:
            return got
        poly = self._dunkl_mono(i, mu[:i] + (mu[i] + 1,) + mu[i + 1:])
        # c0 * phi_i, phi_i = sum_{j<i} sum_l t_{(ij)-reflection with color l};
        # on a monomial the color sum collapses to r * [mu_j = mu_i mod r]
        extra: dict = {}
        for j in range(i):
            if (mu[j] - mu[i]) % self.r == 0:
                nu = list(mu)
                nu[i], nu[j] = nu[j], nu[i]
                t = tuple(nu)
                s = extra.get(t)
                extra[t] = self._c0r if s is None else s + self._c0r
        if extra and self._c0r:  # at c0 = 0 they would be stored zeros
            poly = poly + Poly(self.n, extra)
        self._z_memo[key] = poly
        return poly

    def z(self, i: int, f: Poly) -> Poly:
        """z_i = y_i x_i + c0 phi_i; degree preserving, pairwise commuting."""
        return self._apply_by_monomials(self.z_monomial, i, f)

    def h(self, f: Poly) -> Poly:
        """h = sum_i x_i y_i + sum_s c_s (1 - t_s); the grading element."""
        out = Poly.zero(self.n)
        for i in range(self.n):
            out = out + self.x(i, self.dunkl(i, f))
        for s in self.reflections:
            out = out + (f - self.t(s.element, f)).scaled(
                s.coupling(self.params))
        return out

    # -- divided differences in the y-variables (for the x-side commutator) ----

    def _dd_y_mono(self, nu, s: Reflection):
        """(y^nu - s^{-1} y^nu)/alpha_s^vee as (exponents, Cyc) pairs."""
        r = self.r
        # a transposition s^{-1} = s maps y_a -> zeta^{-l} y_b, y_b -> zeta^{l}
        # y_a and alpha^vee = y_a - zeta^{-l} y_b: the x-side terms with
        # l -> -l.  A diagonal keeps its residue index.
        terms = _dd_terms(nu, s, -s.l, r)
        if s.kind == "transposition":
            return [(ev, _dd_coefficient(s, k, r)) for ev, k in terms]
        denom = Cyc.root(r, s.l + 1) - Cyc.root(r, 1)
        return [(ev, (Cyc.one(r) - Cyc.root(r, -s.l * e)) / denom)
                for ev, e in terms]

    def _x_side_plan(self) -> list:
        """Per y-monomial nu with 1 <= |nu| <= 2, in check order, and per
        slot j: entries (a, b, ev, weights), one per pair of slots a < b
        (b None for the diagonal reflections at slot a) and per ev of their
        ``_dd_y_mono(nu, s)``.

        Each reflection s of an entry sends x^e to one monomial, e with
        slots a and b swapped (or e itself), times zeta^{k_s rho}, where
        rho = e_a - e_b (or e_a) mod r and k_s is read off the action on
        x_a.  So weights[rho] = sum_s -c_s <alpha_s^vee, y_j> cy
        zeta^{k_s rho} over the entry's (s, cy), or None where that sum is
        0; an entry with no weight is dropped.

        Built on first use and kept on this representation: it depends only
        on the group, the parameters and ``_dd_y_mono``.
        """
        if self._x_plan is not None:
            return self._x_plan
        n, r, params = self.n, self.r, self.params
        # (s, k_s, -c_s), k_s from w.x_a = zeta^{k_s} x_{w(a)}
        refl = [(s, s.element.act_on_exponents(
                     tuple(int(t == s.i) for t in range(n)))[0],
                 -s.coupling(params)) for s in self.reflections]
        plan = []
        for nu in monomials_up_to(n, 2):
            if sum(nu) == 0:
                continue
            dds = [(s, k, neg_cs, self._dd_y_mono(nu, s))
                   for s, k, neg_cs in refl]
            slots = []
            for j in range(n):
                groups: dict = {}  # (a, b, ev) -> [(-c_s, lam, k_s)]
                for s, k, neg_cs, pairs in dds:
                    for ev, cy in pairs:
                        if lam := s.alpha_check[j] * cy:
                            groups.setdefault((s.i, s.j, ev), []).append(
                                (neg_cs, lam, k))
                entries = []
                for (a, b, ev), terms in groups.items():
                    weights = [sum((neg_cs.cmul(lam * Cyc.root(r, k * rho))
                                    for neg_cs, lam, k in terms),
                                   params.zero) or None
                               for rho in range(r)]
                    if any(weights):
                        entries.append((a, b, ev, weights))
                slots.append(entries)
            plan.append((nu, slots))
        self._x_plan = plan
        return plan

    def x_side_defects(self, yf: dict, yxf: list[dict]):
        """Yield ``(nu, j, defect)`` for 1 <= |nu| <= 2 and each slot j:
        every |nu| = 1 in (i, j) order for nu = e_i, then |nu| = 2.

        ``yf`` and ``yxf[j]`` are :meth:`y_images` of some f and of x_j f
        to degree 2. ``defect`` is [y^nu, x_j] f minus the dual commutator
        formula, zero iff it holds:

            y^nu x_j f = x_j y^nu f + kappa d(y^nu)/d(y_j) f
                         - sum_s c_s <alpha_s^vee, y_j> t_s(D_s y^nu f)

        with D_s y^nu = (y^nu - s^{-1} y^nu)/alpha_s^vee, the divided
        difference in the y's applied first and the group element after it.
        The sum over s is read off the plan: each term c x^e of y^ev f
        adds c * weights[rho] at the swapped exponent, once per entry, for
        all the reflections of a pair or a slot at once.  The right side is
        compared with the left side as a dict, and the difference is formed
        only when they differ.  The comparison is exact: every coefficient
        is in normal form (a reduced ``RatFunc`` with a monic denominator,
        or a canonical ``Cyc``) and a ``Poly`` stores no zeros.
        """
        n, r = self.n, self.r
        # kappa nu_j for nu_j = 1, 2
        kappa_nu = [None, self.params.kappa,
                    self.params.kappa * self.params.rational(2)]
        for nu, slots in self._x_side_plan():
            for j, entries in enumerate(slots):
                # x_j y^nu f + kappa nu_j y^(nu - e_j) f
                rhs = self.x(j, yf[nu]).terms
                if nu[j]:
                    k = kappa_nu[nu[j]]
                    dn = nu[:j] + (nu[j] - 1,) + nu[j + 1:]
                    accumulate(rhs, [(e, c * k)
                                     for e, c in yf[dn].terms.items()])
                # - sum_s c_s <alpha_s^vee, y_j> t_s(D_s y^nu f)
                for a, b, ev, weights in entries:
                    images = []
                    for e, c in yf[ev].terms.items():
                        if b is None:
                            w = weights[e[a] % r]
                        else:
                            w = weights[(e[a] - e[b]) % r]
                            e = e[:a] + (e[b],) + e[a + 1:b] + (e[a],) \
                                + e[b + 1:]
                        if w is not None:
                            images.append((e, c * w))
                    accumulate(rhs, images)
                lhs = yxf[j][nu]
                yield nu, j, (Poly(n, {}) if lhs.terms == rhs
                              else lhs - Poly(n, rhs))

    # -- relation checking ------------------------------------------------------

    def _first_failure(self, max_deg: int, check_mono) -> dict:
        """Run ``check_mono`` on each monomial of degree <= max_deg in turn;
        return the first failure it reports, or the pass record."""
        count = require_relation_budget(self.n, max_deg)
        group = [self.r, self.p, self.n]
        for mu in monomials_up_to(self.n, max_deg):
            res = check_mono(mu)
            if res is not None:
                return {"status": "fail", "group": group, **res}
        return {"status": "pass", "group": group, "max_degree": max_deg,
                "monomials": count}

    def check_relations(self, max_deg: int) -> dict:
        """Check t_w x_j = (w x_j) t_w, [y_i, x_j] and the |nu| = 2 x-side
        formula on x^mu, |mu| <= max_deg, in the order and from the rolling
        tables of the module docstring; the first failure or a pass."""
        n, one = self.n, self.params.one
        moves = [(s.element, [self.x_poly(jj).scaled(self.params.zeta(k))
                              for k, jj in map(s.element.x_image, range(n))])
                 for s in self.reflections]  # w and each w x_j
        tables: dict = {}

        def table(e):
            f = Poly.monomial(e, one)
            return self.y_images(f, 2), [self.t(w, f) for w, _ in moves]

        def failure(mu):
            ym, tm = tables.pop(mu, None) or table(mu)  # x^0 has none yet
            ups = [mu[:j] + (mu[j] + 1,) + mu[j + 1:] for j in range(n)]
            yxm = [tables.get(e) or tables.setdefault(e, table(e))
                   for e in ups]
            for a, (w, wx) in enumerate(moves):
                for j in range(n):
                    if yxm[j][1][a] != wx[j] * tm[a]:
                        return {"relation": "t_w x = (wx) t_w",
                                "w": str(w), "j": j, "mu": list(mu)}
            for nu, j, defect in self.x_side_defects(
                    ym, [y for y, _ in yxm]):
                if defect and sum(nu) == 1:
                    return {"relation": "y_i x_j commutator",
                            "i": nu.index(1), "j": j, "mu": list(mu),
                            "defect": str(defect)}
                if defect:
                    return {"relation": "x-side commutator",
                            "y_monomial": list(nu), "j": j, "mu": list(mu),
                            "defect": str(defect)}
            return None

        return self._first_failure(max_deg, failure)

    def commutator_report(self, max_deg: int) -> dict:
        """Check [y_i,y_j] = 0 and [z_i,z_j] = 0 on monomials of degree
        <= max_deg."""
        return self._first_failure(max_deg, self._commutator_failure)

    def _commutator_failure(self, mu: tuple[int, ...]) -> dict | None:
        """The first pair i < j whose y or z operators fail to commute on
        x^mu, or None.  The two orders are compared as polynomials, which
        is exact (see :meth:`x_side_defects`); the defect a - b is built
        only for the failure record.  The inner images y_i x^mu and
        z_i x^mu are built once per i, and none for n = 1."""
        if self.n == 1:
            return None
        m = Poly.monomial(mu, self.params.one)
        ym = [self.dunkl(i, m) for i in range(self.n)]
        zm = [self.z(i, m) for i in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                a, b = self.dunkl(i, ym[j]), self.dunkl(j, ym[i])
                if a != b:
                    return {"commutator": "[y_i,y_j]", "i": i, "j": j,
                            "mu": list(mu), "defect": str(a - b)}
                a, b = self.z(i, zm[j]), self.z(j, zm[i])
                if a != b:
                    return {"commutator": "[z_i,z_j]", "i": i, "j": j,
                            "mu": list(mu), "defect": str(a - b)}
        return None
