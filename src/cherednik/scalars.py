"""The coefficient field of the deformed algebra.

Two modes behind one arithmetic interface:

* generic -- rational functions in the deformation parameters k (the symbol
  kappa prints as ``k``), ``c0`` and ``d1``, ..., ``d{r/p-1}``, with
  coefficients in Q(zeta_r).  ``d0`` is never stored: it is eliminated via
  d0 = -(d1 + ... + d_{r/p-1}), and d-indices are folded mod r/p at every
  boundary, so arbitrary integer indices (d_{-mu_i-1} and friends) are fine.
* specialized -- plain Q(zeta_r) values attached to a :class:`ParamPoint`.

An ``MPoly`` prints through ``polynomials.render_terms``, the package's one
renderer of a sum, as ``k*c0^2 + (-1 - z)*d1``; a :class:`RatFunc` prints as
``(num)/(den)``.

A generic value computes on Python integers.  Its normal form is
n / (k * rest * F_1^m_1 * ... * F_s^m_s):

* n is an integer polynomial: each exponent tuple carries one more slot,
  last, for the power of zeta (below phi(r)), so Q(zeta_r) is carried as
  integer coordinates in the reduced basis, and a product is folded back
  below phi(r) with ``cyclotomic._ctx``'s rows of x^z;
* k > 0 is an integer coprime to the gcd of n's coefficients;
* each F is a primitive linear form with rational coordinates: integers
  of gcd 1, none on a power of zeta, with a positive integer graded-lex
  lead;
* the rest, most often absent, is any other factor: of degree 2 or more,
  or linear with a root-of-unity coordinate.  It is normalized as a form
  is, once its lead coefficient is made rational by multiplying by the
  product of its Galois conjugates.

That form is canonical, so equality is structural; it makes eigenvalue
comparisons decidable, which the eigenbasis construction relies on.  The
forms and rests are interned (:class:`_Factor`), so dicts key them by
identity, and a denominator's multiset of them (:class:`_Split`) is
interned too.  ``num``, ``den`` and the printed text, the gcd-reduced
numerator and the monic denominator with ``Cyc`` coefficients, are views
built when something reads them: printing, ``specialize``, the parser and
the tests.  A rest meets other polynomials through the general gcd
:func:`mp_gcd`, on those views; that boundary is rare (the intertwiner
suite, the parser).

The eigenbasis and the intertwiners divide only by weight differences, which
are linear forms in k, c0 and the d_j with rational coefficients.  Values
reduce by trial division by the forms, since a numerator that no form
divides is coprime to their product.  Each form L x_v + g carries its plan
(v, L and the terms of g), so multiplying by it (:func:`_times`) shifts in
x_v and adds the g-terms, and dividing by it (:func:`_div_linear`) is
synthetic division in x_v.  Gauss's lemma makes the quotient of an integer
polynomial by a rational form integral, so the division stops at the first
quotient coefficient that L does not divide.  A product sheds each
numerator against the other operand's forms and rest (:func:`_mul_split`).
A sum, and a sum of products such as a residual of the eigenbasis solve
(one call of ``params.dot``), go through one kernel, :func:`_lcm_sum`:
every term over the lcm of the forms and of the rests, the numerators
added once, the sum trial-divided once by the lcm's forms and reduced once
against its rest.  At a specialized point ``dot`` is the plain sum, and
the scalars are ``Cyc`` values.

Each :class:`GenericParameters` owns its :class:`ParamRing`, which interns
the field's polynomial values (denominator 1): one value per numerator and
k, for its generators, constants, every polynomial sum, product, negation
and scaling, and every fraction whose denominator cancels.
The relation checks repeat these operations on a few hundred values tens
of thousands of times, so the ring memoizes them keyed by the operands'
ids, and a repeat hashes and compares no terms.  The keys hold ids of
interned values only, which the intern table keeps alive, so no id is
reused while a key holds it; any other operand misses, is interned and is
looked up again.  So ``+`` and ``*`` of two ``RatFunc`` values look up
their ids first, before any coercion or test of the splits: a hit means
both are live interned values of this ring, and every miss, a value of
another ring among them, takes the full path.  The tables live and die
with the field, so every job starts cold.  Fractions are not memoized:
memoizing them too raised the peak memory of the ``jack`` jobs by half,
with no measured speed-up.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .cyclotomic import Cyc, _ctx, _cyc
from .groups import check_group
from .polynomials import SparseTerms, _key, accumulate
from .value import Value

__all__ = [
    "MPoly", "RatFunc", "ParamRing",
    "GenericParameters", "SpecializedParameters", "ParamPoint",
    "PoleError", "d_from_c", "c_from_d", "specialize",
]


class PoleError(ArithmeticError):
    """Specialization hit a zero of the denominator."""

    def __init__(self, factor: str, point: "ParamPoint"):
        self.factor = factor
        self.point = point
        super().__init__(f"denominator ({factor}) vanishes at {point}")


# ---------------------------------------------------------------------------
# polynomial ring over Q(zeta_r)
# ---------------------------------------------------------------------------


class ParamRing:
    """Context for polynomials in named variables over Q(zeta_r), with the
    intern table and memos of its polynomial values (see the module
    docstring).  Rings with the same ``r`` and ``names`` are equal, so their
    values mix."""

    # Every table of the ring.  The intern table comes last, so clearing in
    # this order empties the memos before the values their keys name can go.
    MEMOS = ("sums", "products", "negations", "scalings", "interned")

    __slots__ = ("r", "names", "nvars", "czero", "cone", "phi", "rows",
                 "origin", "unit") + MEMOS

    def __init__(self, r: int, names: tuple[str, ...]):
        self.r = r
        self.names = names
        self.nvars = len(names)
        self.czero = Cyc.zero(r)
        self.cone = Cyc.one(r)
        self.phi, self.rows, _ = _ctx(r)
        # the exponent of 1, with the slot of zeta's power last
        self.origin = (0,) * (self.nvars + 1)
        self.unit = {self.origin: 1}
        for name in self.MEMOS:
            setattr(self, name, {})

    def intern(self, num: dict, k: int = 1) -> "RatFunc":
        """The ring's one polynomial value num / k (in normal form)."""
        key = (frozenset(num.items()), k)
        got = self.interned.get(key)
        if got is None:
            got = self.interned[key] = _rf(self, num, k, _NO_SPLIT)
        return got

    def memo_miss(self, memo: dict, op, a: "RatFunc", b=None) -> "RatFunc":
        """``op`` of a (and of b, a value or a Cyc), a numerator and its k,
        as an interned value, stored in ``memo`` under the interned
        operands' ids."""
        a = self.intern(a.n, a.k)
        if b is None:
            key, args = id(a), (a,)
        elif isinstance(b, RatFunc):
            b = self.intern(b.n, b.k)
            key, args = (id(a), id(b)), (a, b)
        else:
            key, args = (id(a), b), (a, b)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self.intern(*op(*args))
        return got

    def __eq__(self, other):
        return isinstance(other, ParamRing) and \
            (self.r, self.names) == (other.r, other.names)

    def __hash__(self):
        return hash((self.r, self.names))

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {(0,) * self.nvars: self.cone})

    def __repr__(self):
        return f"ParamRing(r={self.r}, names={self.names})"


class MPoly(SparseTerms):
    """Sparse multivariate polynomial over Q(zeta_r); no zero terms stored.
    ``+``, ``-`` and ``*`` (by an MPoly, or by a Cyc through ``scaled``)
    are the loops of :class:`~cherednik.polynomials.SparseTerms`."""

    __slots__ = ("ring",)

    def __init__(self, ring: ParamRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def _like(self, terms: dict) -> "MPoly":
        return MPoly(self.ring, terms)

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return not any(e) and c == self.ring.cone

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Cyc:
        if self.is_zero():
            return self.ring.czero
        (e, c), = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def lead(self) -> tuple[tuple[int, ...], Cyc]:
        e = max(self.terms, key=_key)
        return e, self.terms[e]

    def variables(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    out.add(i)
        return out

    def evaluate(self, vals: Sequence[Cyc]) -> Cyc:
        if len(vals) != self.ring.nvars:
            raise ValueError(f"expected {self.ring.nvars} values, got {len(vals)}")
        out = self.ring.czero
        for e, c in self.terms.items():
            for v, x in zip(vals, e):
                if x:
                    c = c * v ** x
            out = out + c
        return out

    def divexact(self, other: "MPoly"):
        """Quotient if ``other`` divides exactly, else None."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.terms)
        de, dc = other.lead()
        dcinv = dc.inverse()
        quot: dict = {}
        while rem:
            e = max(rem, key=_key)
            c = rem[e]
            qe = tuple(a - b for a, b in zip(e, de))
            if any(x < 0 for x in qe):
                return None
            qc = c * dcinv
            quot[qe] = qc
            for oe, oc in other.terms.items():
                t = tuple(a + b for a, b in zip(qe, oe))
                s = rem.get(t)
                s = -qc * oc if s is None else s - qc * oc
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return MPoly(self.ring, quot)

    def monic(self) -> "MPoly":
        if self.is_zero():
            return self
        _, c = self.lead()
        if c == self.ring.cone:
            return self
        return self.scaled(c.inverse())

    SPACED = False

    def _mono(self, e: tuple[int, ...]) -> str:
        names = self.ring.names
        return "*".join(names[i] if x == 1 else f"{names[i]}^{x}"
                        for i, x in enumerate(e) if x)


MPoly.space = MPoly.ring  # the operands' space, which the core compares


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS; coefficients live in the field Q(zeta_r))
# ---------------------------------------------------------------------------


def _split(p: MPoly, v: int) -> dict[int, MPoly]:
    """View p as univariate in variable v with MPoly coefficients (v-free)."""
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        d = e[v]
        e0 = e[:v] + (0,) + e[v + 1:]
        out.setdefault(d, {})[e0] = c
    return {d: MPoly(p.ring, t) for d, t in out.items()}

def _join(parts: dict[int, MPoly], v: int, ring: ParamRing) -> MPoly:
    out: dict = {}
    for d, coeff in parts.items():
        for e, c in coeff.terms.items():
            out[e[:v] + (d,) + e[v + 1:]] = c
    return MPoly(ring, out)


def _prem(f: dict[int, MPoly], g: dict[int, MPoly], ring) -> dict[int, MPoly]:
    """Pseudo-remainder of univariate-with-poly-coefficient representations."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        nr: dict[int, MPoly] = {}
        for d, c in r.items():
            if d == dr:
                continue
            nr[d] = c * lg
        for d, c in g.items():
            if d == dg:
                continue
            t = nr.get(d + dr - dg, ring.zero()) - c * lr
            if t.is_zero():
                nr.pop(d + dr - dg, None)
            else:
                nr[d + dr - dg] = t
        r = nr
    return r


def mp_gcd(f: MPoly, g: MPoly) -> MPoly:
    """gcd over Q(zeta_r), normalized monic in graded-lex order."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    ring = f.ring
    vs = f.variables() | g.variables()
    if not vs:
        return ring.one()
    v = max(vs)
    fu, gu = _split(f, v), _split(g, v)
    only_v = all(c.is_constant() for c in fu.values()) and \
        all(c.is_constant() for c in gu.values())
    if only_v:
        a = {d: c.constant_value() for d, c in fu.items()}
        b = {d: c.constant_value() for d, c in gu.items()}
        while b:
            db = max(b)
            if max(a, default=-1) < db:
                a, b = b, a
                continue
            # a monic divisor keeps the remainders' coefficients from growing
            inv = b[db].inverse()
            b = {d: c * inv for d, c in b.items()}
            while a and max(a) >= db:
                da = max(a)
                q = a.pop(da)
                for d, c in b.items():
                    if d == db:
                        continue
                    t = a.get(d + da - db, ring.czero) - q * c
                    if t:
                        a[d + da - db] = t
                    else:
                        a.pop(d + da - db, None)
            a, b = b, a
        e0 = [0] * ring.nvars
        out: dict = {}
        for d, c in a.items():
            e0v = list(e0)
            e0v[v] = d
            out[tuple(e0v)] = c
        return MPoly(ring, out).monic()

    def content(parts: dict[int, MPoly]) -> MPoly:
        c = ring.zero()
        for coeff in parts.values():
            c = mp_gcd(c, coeff)
            if c.is_one():
                break
        return c

    cf, cg = content(fu), content(gu)
    cont = mp_gcd(cf, cg)
    f1 = {d: c.divexact(cf) for d, c in fu.items()}
    g1 = {d: c.divexact(cg) for d, c in gu.items()}
    a, b = f1, g1
    if max(a) < max(b):
        a, b = b, a
    while b and max(b) > 0:
        rr = _prem(a, b, ring)
        if rr:
            cr = content(rr)
            rr = {d: c.divexact(cr) for d, c in rr.items()}
        a, b = b, rr
    if b:  # remainder of v-degree 0: gcd carries no v, only the content part
        return cont.monic()
    return (_join(a, v, ring) * cont).monic()


# ---------------------------------------------------------------------------
# integer polynomials: the arithmetic of the generic field
# ---------------------------------------------------------------------------


def _fold(terms: dict, ring: ParamRing) -> dict:
    """terms with each zeta power z >= phi(r) written in the reduced basis
    by ``cyclotomic._ctx``'s row of x^z; no zero is kept."""
    phi, rows = ring.phi, ring.rows
    high = [e for e in terms if e[-1] >= phi]
    for e in high:
        c = terms.pop(e)
        base = e[:-1]
        accumulate(terms, ((base + (m,), c * t)
                           for m, t in enumerate(rows[e[-1]]) if t))
    return terms


def _nonzero(terms: dict) -> dict:
    """terms without its zero coefficients."""
    if 0 in terms.values():
        return {e: c for e, c in terms.items() if c}
    return terms


def _product(a: dict, b: dict, ring: ParamRing) -> dict:
    """The product of two integer polynomials."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    out = _nonzero(out)
    return _fold(out, ring) if ring.phi > 1 else out


def _reduced(terms: dict, k: int) -> tuple[dict, int]:
    """terms / k with their common factor cancelled (k > 0)."""
    if k != 1:
        g = gcd(k, *terms.values())
        if g != 1:
            return {e: c // g for e, c in terms.items()}, k // g
    return terms, k


def _ints(p: MPoly) -> tuple[dict, int]:
    """(terms, L) with p = terms / L, L > 0 least."""
    den = lcm(*(c.den for c in p.terms.values())) if p.terms else 1
    out = {}
    for e, c in p.terms.items():
        s = den // c.den
        for z, a in enumerate(c.num):
            if a:
                out[e + (z,)] = a * s
    return out, den


def _mpoly(ring: ParamRing, terms: dict, den: int = 1) -> MPoly:
    """The MPoly view of terms / den, with Cyc coefficients."""
    coords: dict = {}
    for e, c in terms.items():
        row = coords.get(e[:-1])
        if row is None:
            row = coords[e[:-1]] = [0] * ring.phi
        row[e[-1]] = c
    return MPoly(ring, {e: _cyc(ring.r, tuple(row), den)
                        for e, row in coords.items()})


def _conjugates(c: dict, ring: ParamRing) -> dict:
    """The product of the Galois conjugates zeta -> zeta^j (j a unit mod r,
    j != 1) of the constant c, so that c times it is the rational norm."""
    r = ring.r
    out = ring.unit
    for j in range(2, r):
        if gcd(j, r) == 1:  # z -> z j mod r is one-to-one
            out = _product(out, _fold({e[:-1] + (e[-1] * j % r,): a
                                       for e, a in c.items()}, ring), ring)
    return out


class _Factor:
    """A primitive polynomial over Z[zeta_r] (coordinate gcd 1) whose
    graded-lex lead coefficient is a positive integer: a linear form of a
    denominator, or a rest.  Interned by ring and terms, so dicts key it by
    identity.  A linear form L x_v + g, x_v its lead, has only rational
    coordinates and carries its plan (v, L, the terms of g); every other
    factor has the plan None."""

    __slots__ = ("ring", "terms", "plan", "_poly", "__weakref__")

    def poly(self) -> MPoly:
        """The factor as a monic MPoly."""
        if self._poly is None:
            terms = self.terms
            lead = max((e[:-1] for e in terms), key=_key) + (0,)
            self._poly = _mpoly(self.ring, terms, terms[lead])
        return self._poly


_FACTORS = weakref.WeakValueDictionary()  # (r, names, terms) -> _Factor


def _factor(ring: ParamRing, terms: dict):
    """(F, u, g) with terms = F g / u: F the interned primitive factor (None
    for a constant), u a constant with integer coordinates, g > 0.

    A rational polynomial divides by its content and takes the sign of its
    lead.  Otherwise the lead coefficient c is made rational by the product
    u of its conjugates, and c u = N(c) is the norm.  F is a linear form,
    with its plan, when it has degree 1 and only rational coordinates."""
    nv = ring.nvars
    lead = max((e[:nv] for e in terms), key=_key)
    if all(not e[nv] for e in terms):
        u, prim = ring.unit, terms
    else:
        u = _conjugates({ring.origin[:nv] + e[nv:]: c
                         for e, c in terms.items() if e[:nv] == lead}, ring)
        prim = _product(terms, u, ring)
    g = gcd(*prim.values())
    if prim[lead + (0,)] < 0:
        g = -g
        u = {e: -c for e, c in u.items()}
    prim = {e: c // g for e, c in prim.items()}
    g = abs(g)
    if not any(lead):
        return None, u, g
    key = (ring.r, ring.names, frozenset(prim.items()))
    f = _FACTORS.get(key)
    if f is None:
        f = _FACTORS[key] = object.__new__(_Factor)
        f.ring, f.terms, f._poly, f.plan = ring, prim, None, None
        if sum(lead) == 1 and all(not e[nv] for e in prim):
            top = lead + (0,)
            f.plan = (lead.index(1), prim[top],
                      tuple((e, c) for e, c in prim.items() if e != top))
    return f, u, g


def _div_linear(p: dict, f: _Factor):
    """p / f for the linear form f, or None when f does not divide p.

    f = L x_v + g with g free of x_v, so this is synthetic division in x_v,
    from the top x_v-degree down; the x_v-free remainder must vanish.  f has
    rational coordinates and leaves p's zeta slot alone, so Gauss's lemma
    makes the quotient of an integer polynomial integral, and a quotient
    coefficient that L does not divide ends the division."""
    if not p:
        return p
    v, lead, g = f.plan
    # p(x_v = -g/L) = p when p is free of x_v, and a single term has only
    # variables for linear factors
    if all(not e[v] for e in p) or (len(p) == 1 and g):
        return None
    layers: dict[int, dict] = {}
    for e, c in p.items():
        layers.setdefault(e[v], {})[e] = c
    quot: dict = {}
    for d in range(max(layers), 0, -1):
        layer = layers.pop(d, None)
        if not layer:
            continue
        below = layers.setdefault(d - 1, {})
        for e, c in layer.items():
            if lead != 1:
                c, rem = divmod(c, lead)
                if rem:
                    return None
            qe = e[:v] + (d - 1,) + e[v + 1:]
            quot[qe] = c
            for ge, gc in g:
                t = tuple(map(add, qe, ge))
                below[t] = below.get(t, 0) - c * gc
        layers[d - 1] = _nonzero(below)
    if layers.get(0):
        return None
    return quot


def _times(p: dict, forms: dict) -> dict:
    """p times the product of f^k for f, k in forms.  Each factor
    L x_v + g shifts p up in x_v, scales it by L and adds p times each term
    of g."""
    for f, k in forms.items():
        v, lead, g = f.plan
        for _ in range(k):
            out = {e[:v] + (e[v] + 1,) + e[v + 1:]: c * lead
                   for e, c in p.items()}
            get = out.get
            for ge, gc in g:
                for e, c in p.items():
                    t = tuple(map(add, e, ge))
                    out[t] = get(t, 0) + c * gc
            p = _nonzero(out)
    return p


def _adjust(base: dict, more: dict, less: dict) -> dict:
    """The multiset base + more - less."""
    out = dict(base)
    for f, m in more.items():
        out[f] = out.get(f, 0) + m
    for f, k in less.items():
        if out[f] == k:
            del out[f]
        else:
            out[f] -= k
    return out


def _strip(num: dict, forms: dict, skip: dict):
    """Divide num by each factor of forms outside skip, as often as it goes
    up to the factor's multiplicity: (num / the factors taken, the factors
    taken)."""
    off = {}
    for f, m in forms.items():
        if f in skip:
            continue
        k = 0
        while k < m:
            got = _div_linear(num, f)
            if got is None:
                break
            num = got
            k += 1
        if k:
            off[f] = k
    return num, off


def _shed(num: dict, rest, ring: ParamRing):
    """(n, s, t) with num / rest = n / (s t): num and the factor rest (None
    for 1) divided by their gcd, t the raw terms left of rest (None for 1).
    No gcd is sought without a rest, or for a constant num, which is a
    unit."""
    if rest is None:
        return num, 1, None
    if all(not any(e[:-1]) for e in num):
        return num, 1, rest.terms
    p = _mpoly(ring, num)
    g = mp_gcd(p, rest.poly())
    if g.is_one():
        return num, 1, rest.terms
    (n, ln), (t, lt) = (_ints(p.divexact(g)),
                        _ints(_mpoly(ring, rest.terms).divexact(g)))
    return {e: c * lt for e, c in n.items()}, ln, t


class _Split:
    """A denominator as ``rest`` times linear forms: ``forms`` maps each
    form (a :class:`_Factor` with a plan) to its multiplicity, and ``rest``
    is a factor with no known factor that is not a form (of degree 2 or
    more, or linear with a root-of-unity coordinate), or None (1).  Splits
    are interned while some value holds them, so equal denominators are
    one object.  The expanded product, its lead, the MPoly view and
    ``text``, the printed monic ``den``, are built on first use."""

    __slots__ = ("forms", "rest", "_terms", "_lead", "_den", "text",
                 "__weakref__")

    def __init__(self, forms: dict, rest):
        self.forms = forms
        self.rest = rest
        self._terms = self._den = self.text = None

    def terms(self, ring: ParamRing) -> dict:
        """The expanded integer denominator."""
        if self._terms is None:
            terms = _times(self.rest.terms if self.rest else
                           {ring.origin: 1}, self.forms)
            top = max((e[:-1] for e in terms), key=_key)
            self._terms, self._lead = terms, terms[top + (0,)]
        return self._terms

    def view(self, ring: ParamRing) -> MPoly:
        """The denominator as a monic MPoly."""
        if self._den is None:
            self._den = _mpoly(ring, self.terms(ring), self._lead)
        return self._den


_NO_SPLIT = _Split({}, None)  # den = 1
_NO_SPLIT._terms, _NO_SPLIT._lead = {}, 1
_SPLITS = weakref.WeakValueDictionary()  # (frozenset of forms, rest) -> _Split


def _make(ring: ParamRing, num: dict, k: int, forms: dict, rest=None):
    """The value num / (k rest forms), num coprime to the denominator.
    ``rest`` is a raw integer polynomial (None for 1); it is brought to its
    factor, which joins the forms when it is a linear form.  The ring's
    interned value when there is no denominator; zero is the interned
    zero."""
    if rest is not None:
        f, u, g = _factor(ring, rest)
        if u != ring.unit:
            num = _product(num, u, ring)
        k *= g
        rest = f
        if f is not None and f.plan:
            forms, rest = _adjust(forms, {f: 1}, {}), None
    if not num:
        return ring.intern({}, 1)
    num, k = _reduced(num, k)
    if not forms and rest is None:
        return ring.intern(num, k)
    key = (frozenset(forms.items()), rest)
    split = _SPLITS.get(key)
    if split is None:
        split = _SPLITS[key] = _Split(forms, rest)
    return _rf(ring, num, k, split)


def _rf(ring: ParamRing, num: dict, k: int, split: _Split) -> "RatFunc":
    """A RatFunc from parts already in normal form."""
    out = object.__new__(RatFunc)
    out.ring, out.n, out.k, out.split = ring, num, k, split
    return out


def _mul_split(a: "RatFunc", b: "RatFunc") -> "RatFunc":
    """a * b: each numerator sheds the other's forms by trial division (a
    reduced numerator has none of its own) and what it shares with the
    other's rest by :func:`_shed`."""
    ring = a.ring
    if not a.n or not b.n:
        return ring.intern({}, 1)
    sa, sb = a.split, b.split
    na, off_b = _strip(a.n, sb.forms, sa.forms)
    nb, off_a = _strip(b.n, sa.forms, sb.forms)
    k = a.k * b.k
    rest = None
    if sa.rest is not None or sb.rest is not None:
        na, s, rb = _shed(na, sb.rest, ring)
        nb, t, ra = _shed(nb, sa.rest, ring)
        k *= s * t
        rest = rb if ra is None else ra if rb is None else \
            _product(ra, rb, ring)
    return _make(ring, _product(na, nb, ring), k,
                 _adjust(sa.forms, sb.forms, {**off_a, **off_b}), rest)


def _lcm_sum(terms, ring: ParamRing):
    """The sum of num / (k rest forms) over the (num, k, forms, rest)
    terms, over one common denominator; None when the sum is zero.

    The lcm takes each linear form as often as the term that has it most
    often, and the lcm of the rests, by ``mp_gcd`` where two differ.  Each
    numerator is scaled up to the lcm, the numerators are added once, and
    the sum is trial-divided by the lcm's forms once.  A linear form is
    prime, so a form that stops dividing is coprime to the sum.  Then the
    sum sheds what it shares with the lcm's rest, and the quotient over
    what is left of the lcm is reduced.
    """
    forms: dict = {}
    rest = None
    for _, _, fs, r in terms:
        for f, m in fs.items():
            if m > forms.get(f, 0):
                forms[f] = m
        if r is not None and r is not rest:
            if rest is None:
                rest = r
            else:
                p, q = rest.poly(), r.poly()
                rest = _factor(ring, _ints(p * q.divexact(mp_gcd(p, q)))[0])[0]
    if rest is not None:  # each term over the lcm of the rests
        over = []
        for num, k, fs, r in terms:
            if r is not rest:  # r q = lq rest
                q, lq = (rest.terms, 1) if r is None else _ints(
                    _mpoly(ring, rest.terms).divexact(_mpoly(ring, r.terms)))
                num, k = _product(num, q, ring), k * lq
            over.append((num, k, fs, rest))
        terms = over
    top = lcm(*(k for _, k, _, _ in terms))
    acc: dict = {}
    get = acc.get
    for num, k, fs, _ in terms:
        s = top // k
        if s != 1:
            num = {e: c * s for e, c in num.items()}
        num = _times(num, {f: m - fs.get(f, 0) for f, m in forms.items()
                           if m != fs.get(f, 0)})
        for e, c in num.items():
            acc[e] = get(e, 0) + c
    acc = _nonzero(acc)
    if not acc:
        return None
    num, off = _strip(acc, forms, {})
    num, t, rest = _shed(num, rest, ring)
    return _make(ring, num, top * t, _adjust(forms, {}, off), rest)


def _dot(pairs, field: "GenericParameters") -> "RatFunc":
    """The sum of a * b over pairs of values: :func:`_lcm_sum` of the terms
    (a's times b's numerator, k and forms, the product of their rests).
    The field's ``one`` multiplies nothing."""
    one, ring = field.one, field.ring
    terms = []
    for a, b in pairs:
        if not a.n or not b.n:
            continue
        sa, sb = a.split, b.split
        fa, fb = sa.forms, sb.forms
        num = b.n if a is one else a.n if b is one else \
            _product(a.n, b.n, ring)
        k = a.k * b.k
        rest = sa.rest or sb.rest
        if sa.rest is not None and sb.rest is not None:
            rest, u, g = _factor(ring, _product(sa.rest.terms, sb.rest.terms,
                                                ring))
            num, k = _product(num, u, ring), k * g
        terms.append((num, k, _adjust(fa, fb, {}) if fa and fb else fa or fb,
                      rest))
    return _lcm_sum(terms, ring) or field.zero


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def _sum(a: "RatFunc", b: "RatFunc") -> tuple[dict, int]:
    """The numerator and k of the sum of two polynomial values."""
    top = lcm(a.k, b.k)
    s, t = top // a.k, top // b.k
    out = {e: c * s for e, c in a.n.items()}
    return _reduced(accumulate(out, ((e, c * t) for e, c in b.n.items())),
                    top)


def _negated(a: "RatFunc") -> tuple[dict, int]:
    return {e: -c for e, c in a.n.items()}, a.k


def _times_poly(a: "RatFunc", b: "RatFunc") -> tuple[dict, int]:
    return _reduced(_product(a.n, b.n, a.ring), a.k * b.k)


def _scaled(a: "RatFunc", c: Cyc) -> tuple[dict, int]:
    """The numerator and k of a times the nonzero Cyc c."""
    return _reduced(_product(a.n, _coords(a.ring, c), a.ring), a.k * c.den)


def _coords(ring: ParamRing, c: Cyc) -> dict:
    """The numerator of the constant c: its integer coordinates."""
    return {ring.origin[:-1] + (z,): a for z, a in enumerate(c.num) if a}


def _const(ring: ParamRing, c: Cyc) -> "RatFunc":
    """The ring's interned value of the constant c."""
    return ring.intern(_coords(ring, c), c.den)


class RatFunc:
    """n / (k times the denominator) over Z[zeta_r][params]: n an integer
    polynomial, k > 0 coprime to its coefficients, and the denominator the
    product that ``split`` (a :class:`_Split`) writes as a rest times
    primitive linear forms.  ``split`` is ``_NO_SPLIT`` exactly when the
    denominator is 1, so ``+`` and ``*`` spot two polynomials by identity
    and take the ring's memos.  Otherwise ``+`` is :func:`_lcm_sum` of the
    two operands and ``*`` is :func:`_mul_split`, which also builds
    ``RatFunc(num, den)`` as num times 1/den.  ``num`` and ``den``, the
    gcd-reduced numerator and monic denominator with Cyc coefficients, are
    views built when read.
    """

    __slots__ = ("ring", "n", "k", "split")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        ring = den.ring
        (n, ln), (d, ld) = _ints(num), _ints(den)
        v = _mul_split(_make(ring, n, ln, {}),
                       _make(ring, {ring.origin: ld}, 1, {}, d))
        self.ring, self.n, self.k, self.split = v.ring, v.n, v.k, v.split

    @property
    def num(self) -> MPoly:
        """The numerator over the monic denominator, built when read."""
        self.split.terms(self.ring)  # sets the lead of the denominator
        return _mpoly(self.ring, self.n, self.k * self.split._lead)

    @property
    def den(self) -> MPoly:
        """The monic denominator, built when read."""
        if self.split is _NO_SPLIT:
            return self.ring.one()
        return self.split.view(self.ring)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            ring = other.ring
            if ring is not self.ring and ring != self.ring:
                raise ValueError("mixed parameter rings")
            return other
        if isinstance(other, Cyc):
            return _const(self.ring, other)
        if isinstance(other, (int, Fraction)):
            return _const(self.ring, Cyc.from_rational(self.ring.r, other))
        return None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        ring = self.ring
        if type(other) is RatFunc:  # a hit needs no coercion (module doc)
            got = ring.sums.get((id(self), id(other)))
            if got is not None:
                return got
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.split is _NO_SPLIT and o.split is _NO_SPLIT:
            return ring.memo_miss(ring.sums, _sum, self, o)
        s, t = self.split, o.split
        return _lcm_sum(((self.n, self.k, s.forms, s.rest),
                         (o.n, o.k, t.forms, t.rest)), ring) \
            or ring.intern({}, 1)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        if self.split is _NO_SPLIT:
            got = ring.negations.get(id(self))
            return ring.memo_miss(ring.negations, _negated, self) \
                if got is None else got
        return _rf(ring, *_negated(self), self.split)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        ring = self.ring
        if type(other) is RatFunc:
            got = ring.products.get((id(self), id(other)))
            if got is not None:
                return got
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.split is _NO_SPLIT and o.split is _NO_SPLIT:
            return ring.memo_miss(ring.products, _times_poly, self, o)
        return _mul_split(self, o)

    __rmul__ = __mul__

    def cmul(self, c: Cyc) -> "RatFunc":
        """Fast scale by a cyclotomic unit (or zero)."""
        ring = self.ring
        if not c or not self.n:
            return ring.intern({}, 1)
        if self.split is _NO_SPLIT:
            got = ring.scalings.get((id(self), c))
            return ring.memo_miss(ring.scalings, _scaled, self, c) \
                if got is None else got
        return _rf(ring, *_scaled(self, c), self.split)

    def inverse(self) -> "RatFunc":
        if not self.n:
            raise ZeroDivisionError("inverse of zero rational function")
        ring = self.ring
        den = self.split.terms(ring) if self.split is not _NO_SPLIT \
            else {ring.origin: 1}
        return _make(ring, {e: c * self.k for e, c in den.items()}, 1, {},
                     self.n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        out = self.ring.intern(self.ring.unit)
        base = self.inverse() if n < 0 else self
        n = abs(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates ------------------------------------------------------------

    def __bool__(self):
        return bool(self.n)

    def is_zero(self) -> bool:
        return not self.n

    def __eq__(self, other):
        if self is other:
            return True
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s, t = self.split, o.split
        if s is t:
            return self.k == o.k and self.n == o.n
        # denominators of forms alone are equal only as one split; a rest
        # may expand to a product of forms
        if s.rest is None and t.rest is None:
            return False
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        split = self.split
        if split is _NO_SPLIT:
            return str(self.num)
        if split.text is None:
            split.text = str(self.den)
        return f"({self.num})/({split.text})"

    def __repr__(self):
        return f"RatFunc({self})"


# ---------------------------------------------------------------------------
# parameter fields
# ---------------------------------------------------------------------------


def _c_value(r: int, p: int, l: int, d):
    """c_l = (p/r) sum_{j=0}^{r/p-1} zeta^{-lj} d_j for l != 0 mod r; zero
    unless p divides l.

    ``d(j)`` is d_j, a Cyc or a RatFunc; both scale through ``cmul``.
    """
    l %= r
    if l == 0:
        raise ValueError("c_l is defined for l != 0 mod r")
    if l % p:
        return d(0).cmul(Cyc.zero(r))
    scale = Cyc.from_rational(r, p, r)
    out = d(0).cmul(scale)
    for j in range(1, r // p):
        out = out + d(j).cmul(scale * Cyc.root(r, -l * j))
    return out


class _Field:
    """The scalars both parameter modes build from ``embed`` of a Cyc."""

    def zeta(self, k: int):
        return self.embed(Cyc.root(self.r, k))

    def rational(self, a, b=1):
        return self.embed(Cyc.from_rational(self.r, a, b))

    @cached_property
    def zero(self):
        return self.embed(Cyc.zero(self.r))

    @cached_property
    def one(self):
        return self.embed(Cyc.one(self.r))

    def dot(self, pairs):
        """The sum of a * b over the pairs (a, b)."""
        out = self.zero
        for a, b in pairs:
            out = out + a * b
        return out

    def z_eigenvalue(self, m: int, v: int):
        """kappa(m+1) - (d_0 - d_{-m-1}) - r v c0, memoized on (m, v): the
        z_i eigenvalue of a composition with mu_i = m and v[i] = v."""
        got = self._z.get((m, v))
        if got is None:
            got = self._z[m, v] = self.kappa * self.rational(m + 1) \
                - (self.d(0) - self.d(-m - 1)) \
                - self.c0 * self.rational(self.r * v)
        return got

    @cached_property
    def _z(self) -> dict:
        return {}


def _param_names(m: int) -> tuple[str, ...]:  # the ring with m d-values
    return ("k", "c0") + tuple(f"d{j}" for j in range(1, m + 1))


class GenericParameters(_Field):
    """Symbolic parameters k, c0, d1..d_{r/p-1} for G(r,p,n)."""

    specialized = False

    def __init__(self, r: int, p: int):
        check_group(r, p)
        self.r = r
        self.p = p
        m = r // p - 1
        ring = self.ring = ParamRing(r, _param_names(m))
        gens = [ring.origin[:v] + (1,) + ring.origin[v + 1:]
                for v in range(ring.nvars)]
        self.kappa, self.c0, *ds = (ring.intern({e: 1}) for e in gens)
        self._d = [ring.intern({e: -1 for e in gens[2:]})] + ds
        self._c: dict[int, RatFunc] = {}

    def __del__(self):
        # the memos refer back to the ring: clearing them frees the ring
        # with its last value, not at the next cyclic garbage collection.
        # The names are read through the ring, since the module's globals
        # may already be None when this runs at interpreter exit.
        if hasattr(self, "ring"):  # not if __init__ raised
            for name in self.ring.MEMOS:
                getattr(self.ring, name).clear()

    def d(self, j: int) -> RatFunc:
        return self._d[j % (self.r // self.p)]

    def c(self, l: int) -> RatFunc:
        """c_l for 1 <= l <= r-1 (mod r); zero unless p divides l."""
        got = self._c.get(l % self.r)
        if got is None:
            got = self._c[l % self.r] = _c_value(self.r, self.p, l, self.d)
        return got

    def embed(self, c: Cyc) -> RatFunc:
        return _const(self.ring, c)

    def dot(self, pairs) -> RatFunc:
        """The sum of a * b over the pairs (a, b), built by :func:`_dot`."""
        return _dot(pairs, self)

    def __repr__(self):
        return f"GenericParameters(r={self.r}, p={self.p})"


class ParamPoint(Value):
    """An exact specialization (kappa, c0, d1..d_{r/p-1})."""

    r: int
    p: int
    kappa: Cyc
    c0: Cyc
    d: tuple[Cyc, ...]

    def __init__(self, *fields):
        super().__init__(*fields)
        check_group(self.r, self.p)
        if len(self.d) != self.r // self.p - 1:
            raise ValueError(
                f"expected {self.r // self.p - 1} d-values, got {len(self.d)}")
        # d_0 = -(d_1 + ... + d_{r/p-1}), built once; not a field
        self._d0 = -sum(self.d, Cyc.zero(self.r))

    @classmethod
    def make(cls, r: int, p: int, kappa, c0, d=()) -> "ParamPoint":
        check_group(r, p)  # before the values are read in Q(zeta_r)
        return cls(r, p, _as_cyc(r, kappa), _as_cyc(r, c0),
                   tuple(_as_cyc(r, v) for v in d))

    @classmethod
    def from_c(cls, r: int, p: int, kappa, c0, cdiag: Sequence = ()) -> "ParamPoint":
        """Build from the conjugacy-class parameters c_p, c_{2p}, ..., c_{r-p}."""
        return cls.make(r, p, kappa, c0, d_from_c(r, p, cdiag)[1:])

    def d_value(self, j: int) -> Cyc:
        j %= self.r // self.p
        return self.d[j - 1] if j else self._d0

    def c_value(self, l: int) -> Cyc:
        return _c_value(self.r, self.p, l, self.d_value)

    def __str__(self):
        ds = ", ".join(f"d{j + 1}={v}" for j, v in enumerate(self.d))
        body = f"k={self.kappa}, c0={self.c0}"
        tail = f", {ds})" if ds else ")"
        return f"ParamPoint(r={self.r}, p={self.p}, {body}{tail}"


class SpecializedParameters(_Field):
    """Parameter interface bound to an exact point; scalars are Cyc values."""

    specialized = True

    def __init__(self, point: ParamPoint):
        self.point = point
        self.r = point.r
        self.p = point.p
        self.kappa = point.kappa
        self.c0 = point.c0

    def d(self, j: int) -> Cyc:
        return self.point.d_value(j)

    def c(self, l: int) -> Cyc:
        return self.point.c_value(l)

    def embed(self, c: Cyc) -> Cyc:
        return c

    def __repr__(self):
        return f"SpecializedParameters({self.point})"


# ---------------------------------------------------------------------------
# reparametrization d_j = sum_l zeta^{lj} c_l and friends
# ---------------------------------------------------------------------------


def _as_cyc(r: int, v) -> Cyc:
    return v if isinstance(v, Cyc) else Cyc.from_rational(r, v)


def d_from_c(r: int, p: int, cvals: Sequence) -> list[Cyc]:
    """d_j = sum_{l=1}^{r-1} zeta^{lj} c_l for j = 0..r/p-1.

    ``cvals`` lists c_p, c_{2p}, ..., c_{r-p}; all other c_l vanish.
    """
    check_group(r, p)
    m = r // p
    if len(cvals) != m - 1:
        raise ValueError(f"expected {m - 1} c-values, got {len(cvals)}")
    cs = [_as_cyc(r, v) for v in cvals]
    out = []
    for j in range(m):
        s = Cyc.zero(r)
        for t, cl in enumerate(cs, start=1):
            s = s + Cyc.root(r, t * p * j) * cl
        out.append(s)
    return out


def c_from_d(r: int, p: int, dvals: Sequence) -> list[Cyc]:
    """c_l = (1/r) sum_{j=0}^{r-1} zeta^{-lj} d_j for l = p, 2p, ..., r-p.

    ``dvals`` lists d_0..d_{r/p-1}; d is r/p-periodic in j.
    """
    check_group(r, p)
    m = r // p
    ds = [_as_cyc(r, v) for v in dvals]
    if len(ds) != m:
        raise ValueError(f"expected {m} d-values, got {len(ds)}")
    return [_c_value(r, p, t * p, ds.__getitem__) for t in range(1, m)]


def specialize(s, point: ParamPoint) -> Cyc:
    """Exact substitution of the point into a scalar; poles raise PoleError.
    A scalar of another field (another r, or other variables than k, c0,
    d1..d_{r/p-1}) raises ``ValueError``."""
    if isinstance(s, Cyc):
        if s.r != point.r:
            raise ValueError("cyclotomic order mismatch")
        return s
    ring = s.ring
    if ring.r != point.r or ring.names != _param_names(len(point.d)):
        raise ValueError(f"a scalar over {ring.names} of Q(zeta_{ring.r}) "
                         f"cannot be specialized at {point}")
    vals = (point.kappa, point.c0) + point.d
    den = s.den.evaluate(vals)
    if not den:
        raise PoleError(str(s.den), point)
    num = s.num.evaluate(vals)
    return num / den
