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
y_i and z_i are memoized.  Each term's coefficient in y_i x^mu depends only
on the reflection and an index (a root power with a sign, or the residue of
an exponent mod r), so ``PolyRep`` tabulates -c_s <alpha_s, y_i> times each
such coefficient once, and a monomial image needs no scalar product.

The relation checker builds, per monomial x^mu, one table of the images
y^ev x^mu and y^ev x_j x^mu for |ev| <= 2 (``y_images``), each entry one
Dunkl operator away from an entry of lower degree, and reads every check
from it.  In the x-side check the moved divided difference t_s(acc) for a
given y-monomial and reflection does not depend on the slot j, so it is
built once per (nu, s).  Each (nu, j) defect goes into one dict: the
reflections of a class are summed with their cyclotomic weights
<alpha_s^vee, y_j> and scaled by the class's c_s once, the y-side
coefficients are tabulated once per representation, and scales by +-1 are
skipped (see README, Performance notes).
"""

from __future__ import annotations

from math import comb

from .cyclotomic import Cyc
from .groups import GroupElement, Reflection, reflections
from .polynomials import Poly, accumulate
from .scalars import GenericParameters

__all__ = ["PolyRep", "act_on_poly", "monomials_of_degree", "monomials_up_to",
           "require_relation_budget"]

# the most monomials the relation or commutator suite may check; G(2,1,3)
# at degree 12 checks 455 and its relation suite takes about 1.6 s
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


def _scaled(terms: dict, cy: Cyc, sign: int):
    """The items of ``terms`` times cy; sign is +-1 when cy = +-1, which
    skips the scale, and 0 otherwise."""
    if sign == 1:
        return terms.items()
    if sign == -1:
        return [(e, -c) for e, c in terms.items()]
    return [(e, c.cmul(cy)) for e, c in terms.items()]


class PolyRep:
    """The polynomial representation of the rational Cherednik algebra of
    G(r,p,n), with either generic or specialized parameters."""

    def __init__(self, r: int, p: int, n: int, params=None, *,
                 fault_dunkl_sign: bool = False):
        if r < 1 or n < 1 or r % p:
            raise ValueError(f"invalid group parameters ({r},{p},{n})")
        self.r, self.p, self.n = r, p, n
        self.params = params if params is not None else GenericParameters(r, p)
        if self.params.r != r or self.params.p != p:
            raise ValueError("parameter field does not match the group")
        self.reflections: list[Reflection] = reflections(r, p, n)
        # per slot i, each reflection with <alpha_s, y_i> != 0 and its table:
        # index k of _dd_terms -> -c_s <alpha_s, y_i> _dd_coefficient(s, k).
        # The injected fault flips the sign on the transpositions.  A table
        # depends only on the class of s and alpha_s[i], so those share it.
        self._dunkl_tables: list[list[tuple[Reflection, list]]] = []
        shared: dict = {}
        for i in range(n):
            lst = []
            for s in self.reflections:
                a = s.alpha[i]
                if not a:
                    continue
                table = shared.get((s.cclass, a))
                if table is None:
                    factor = s.coupling(self.params)
                    if not (fault_dunkl_sign and s.kind == "transposition"):
                        factor = -factor
                    if s.kind == "transposition":
                        table = [factor.cmul(a * _dd_coefficient(s, k, r))
                                 for k in range(2 * r)]
                    else:
                        table = [factor.cmul(a * _dd_coefficient(s, e, r))
                                 if (s.l * e) % r else None
                                 for e in range(r)]
                    shared[s.cclass, a] = table
                lst.append((s, table))
            self._dunkl_tables.append(lst)
        self._c0r = self.params.c0 * self.params.rational(r)
        self._dunkl_memo: dict = {}
        self._z_memo: dict = {}
        self._x_plan = None
        #: Eigenvectors built by :func:`~cherednik.jack.jack_by_intertwiners`,
        #: keyed by composition; shared by every call on this representation.
        self.jack_cache: dict = {}

    # -- elementary operators ------------------------------------------------

    def one(self) -> Poly:
        return Poly.monomial((0,) * self.n, self.params.one)

    def x_poly(self, i: int) -> Poly:
        e = [0] * self.n
        e[i] = 1
        return Poly.monomial(tuple(e), self.params.one)

    def x(self, i: int, f: Poly) -> Poly:
        out = {}
        for e, c in f.terms.items():
            t = list(e)
            t[i] += 1
            out[tuple(t)] = c
        return Poly(self.n, out)

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
        key = (i, mu)
        got = self._dunkl_memo.get(key)
        if got is not None:
            return got
        out: dict = {}
        if mu[i]:
            nu = list(mu)
            nu[i] -= 1
            accumulate(out, [(tuple(nu), self.params.kappa * mu[i])])
        r = self.r
        for s, table in self._dunkl_tables[i]:
            terms = _dd_terms(mu, s, s.l, r)
            if terms:
                accumulate(out, [(nu, table[k]) for nu, k in terms])
        poly = Poly(self.n, out)
        self._dunkl_memo[key] = poly
        return poly

    def _apply_by_monomials(self, image, i: int, f: Poly) -> Poly:
        """Extend ``image(i, mu)``, a polynomial per monomial x^mu, linearly
        to f."""
        out: dict = {}
        # inline: accumulate() per monomial image measured ~10% slower
        for e, c in f.terms.items():
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
            slots = [t for t, e in enumerate(ev) if e]
            if not slots:
                continue
            i = slots[-1]
            lower = list(ev)
            lower[i] -= 1
            out[ev] = self.dunkl(i, out[tuple(lower)])
        return out

    # -- z operators and the grading element -----------------------------------

    def z_monomial(self, i: int, mu: tuple[int, ...]) -> Poly:
        """z_i x^mu, memoized per (i, mu)."""
        key = (i, mu)
        got = self._z_memo.get(key)
        if got is not None:
            return got
        up = list(mu)
        up[i] += 1
        poly = self._dunkl_mono(i, tuple(up))
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
        if extra:
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
        """Per y-monomial nu with 1 <= |nu| <= 2, in check order: each
        conjugacy class's coupling constant and, per reflection s of the
        class with a nonzero y-side divided difference, the group element,
        the ``_dd_y_mono(nu, s)`` pairs and the weights <alpha_s^vee, y_j>
        per slot j (None where zero).  Each scale factor is stored as
        ``(cy, sign)``, with sign +-1 when cy = +-1 and 0 otherwise.

        Built on first use and kept on this representation: it depends only
        on the group, the parameters and ``_dd_y_mono``.
        """
        if self._x_plan is not None:
            return self._x_plan
        one = Cyc.one(self.r)

        def tag(cy):
            return cy, (1 if cy == one else -1 if cy == -one else 0)

        plan = []
        for nu in monomials_up_to(self.n, 2):
            if sum(nu) == 0:
                continue
            classes: dict = {}
            for s in self.reflections:
                pairs = [(ev, *tag(cy)) for ev, cy in self._dd_y_mono(nu, s)]
                if not pairs:
                    continue
                weights = [tag(b) if b else None for b in s.alpha_check]
                cls = classes.get(s.cclass)
                if cls is None:
                    cls = classes[s.cclass] = (s.coupling(self.params), [])
                cls[1].append((s.element, pairs, weights))
            plan.append((nu, list(classes.values())))
        self._x_plan = plan
        return plan

    def x_side_defects(self, yf: dict, yxf: list[dict]):
        """Yield ``(nu, j, defect)`` for 1 <= |nu| <= 2 and each slot j, in
        the order the relation check visits them.

        ``yf`` and ``yxf[j]`` are :meth:`y_images` of some f and of x_j f
        to degree 2. ``defect`` is [y^nu, x_j] f minus the dual commutator
        formula, zero iff it holds:

            [y^nu, x_j] f = kappa d(y^nu)/d(y_j) f
                            - sum_s c_s <alpha_s^vee, y_j> t_s(D_s y^nu f)

        with D_s y^nu = (y^nu - s^{-1} y^nu)/alpha_s^vee, the divided
        difference in the y's applied first and the group element after it.
        The moved divided difference t_s(D_s y^nu f) does not depend on j,
        so it is built once per (nu, s).  Per (nu, j) the reflections of one
        class are summed with their cyclotomic weights and the sum is scaled
        by the class's c_s once; every scale by +-1 is skipped.
        """
        n = self.n
        # -kappa nu_j for nu_j = 1, 2
        kappa_nu = [None, -self.params.kappa,
                    self.params.kappa * self.params.rational(-2)]
        for nu, classes in self._x_side_plan():
            moved = []
            for cs, members in classes:
                group = []
                for w, pairs, weights in members:
                    acc: dict = {}
                    for ev, cy, sign in pairs:
                        accumulate(acc, _scaled(yf[ev].terms, cy, sign))
                    if acc:
                        group.append((self.t(w, Poly(n, acc)).terms,
                                      weights))
                if group:
                    moved.append((cs, group))
            for j in range(n):
                # y^nu x_j f - x_j y^nu f
                out = accumulate(dict(yxf[j][nu].terms), [
                    (e[:j] + (e[j] + 1,) + e[j + 1:], -c)
                    for e, c in yf[nu].terms.items()])
                # - kappa nu_j y^(nu - e_j) f
                if nu[j]:
                    k = kappa_nu[nu[j]]
                    dn = nu[:j] + (nu[j] - 1,) + nu[j + 1:]
                    accumulate(out, [(e, c * k)
                                     for e, c in yf[dn].terms.items()])
                # + c_s sum_{s in the class} <alpha_s^vee, y_j> t_s(...)
                for cs, group in moved:
                    tot: dict = {}
                    for terms, weights in group:
                        if weights[j] is not None:
                            accumulate(tot, _scaled(terms, *weights[j]))
                    accumulate(out, [(e, c * cs) for e, c in tot.items()])
                yield nu, j, Poly(n, out)

    # -- relation checking ------------------------------------------------------

    def _conj_transpositions(self, i: int, j: int) -> list[GroupElement]:
        """The r elements conjugating the (i j) transposition by colors at i."""
        return [GroupElement.colored_transposition(self.r, self.n, i, j, l)
                for l in range(self.r)]

    def _first_failure(self, max_deg: int, check_mono) -> dict:
        """Run ``check_mono`` on each monomial of degree <= max_deg in turn;
        return the first failure it reports, or the pass record."""
        require_relation_budget(self.n, max_deg)
        group = [self.r, self.p, self.n]
        monos = list(monomials_up_to(self.n, max_deg))
        for mu in monos:
            res = check_mono(mu)
            if res is not None:
                return {"status": "fail", "group": group, **res}
        return {"status": "pass", "group": group, "max_degree": max_deg,
                "monomials": len(monos)}

    def check_relations(self, max_deg: int) -> dict:
        """Verify the defining commutation relations on all monomials of
        degree <= max_deg; report the first failure with a witness."""
        return self._first_failure(max_deg, self._relation_failure)

    def _relation_failure(self, mu: tuple[int, ...]) -> dict | None:
        """The first defining relation that fails on x^mu, or None."""
        n, r = self.n, self.r
        # the scalars of the right-hand sides, built once per monomial:
        # c_t (1 - zeta^{-t}) per diagonal color t, c_0 zeta^{-l} per l
        diag_cfs = [(t, self.params.c(t).cmul(Cyc.one(r) - Cyc.root(r, -t)))
                    for t in range(1, r) if not t % self.p]
        c0_roots = [self.params.c0.cmul(Cyc.root(r, -l)) for l in range(r)]
        m = Poly.monomial(mu, self.params.one)
        ym = self.y_images(m, 2)
        yxm = [self.y_images(self.x(j, m), 2) for j in range(n)]
        for i in range(n):
            e_i = tuple(1 if t == i else 0 for t in range(n))
            for j in range(n):
                lhs = yxm[j][e_i] - self.x(j, ym[e_i])
                if i == j:
                    rhs = m.scaled(self.params.kappa)
                    for t, cf in diag_cfs:
                        w = GroupElement.diagonal(r, n, i, t)
                        rhs = rhs - self.t(w, m).scaled(cf)
                    for jj in range(n):
                        if jj == i:
                            continue
                        for w in self._conj_transpositions(i, jj):
                            rhs = rhs - self.t(w, m).scaled(self.params.c0)
                else:
                    rhs = Poly.zero(n)
                    for l, w in enumerate(self._conj_transpositions(i, j)):
                        rhs = rhs + self.t(w, m).scaled(c0_roots[l])
                if lhs != rhs:
                    return {"relation": "y_i x_j commutator", "i": i,
                            "j": j, "mu": list(mu),
                            "defect": str(lhs - rhs)}
        for s in self.reflections:
            w = s.element
            for j in range(n):
                k, jj = w.x_image(j)
                wx = Poly.monomial(
                    tuple(1 if t == jj else 0 for t in range(n)),
                    self.params.zeta(k))
                if self.t(w, self.x(j, m)) != wx * self.t(w, m):
                    return {"relation": "t_w x = (wx) t_w", "w": str(w),
                            "j": j, "mu": list(mu)}
        for nu, j, defect in self.x_side_defects(ym, yxm):
            if defect:
                return {"relation": "x-side commutator",
                        "y_monomial": list(nu), "j": j,
                        "mu": list(mu), "defect": str(defect)}
        return None

    def commutator_report(self, max_deg: int) -> dict:
        """Check [y_i,y_j] = 0 and [z_i,z_j] = 0 on monomials of degree
        <= max_deg."""
        return self._first_failure(max_deg, self._commutator_failure)

    def _commutator_failure(self, mu: tuple[int, ...]) -> dict | None:
        """The first pair i < j whose y or z operators fail to commute on
        x^mu, or None."""
        m = Poly.monomial(mu, self.params.one)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                d = self.dunkl(i, self.dunkl(j, m)) \
                    - self.dunkl(j, self.dunkl(i, m))
                if d:
                    return {"commutator": "[y_i,y_j]", "i": i, "j": j,
                            "mu": list(mu), "defect": str(d)}
                d = self.z(i, self.z(j, m)) - self.z(j, self.z(i, m))
                if d:
                    return {"commutator": "[z_i,z_j]", "i": i, "j": j,
                            "mu": list(mu), "defect": str(d)}
        return None
