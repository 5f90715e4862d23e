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

Rational functions are kept gcd-reduced with the denominator normalized to
leading coefficient 1 (graded-lex), so equality is structural.  That makes
eigenvalue comparisons decidable, which the eigenbasis construction relies on.

The eigenbasis and the intertwiners divide only by weight differences, which
are linear forms.  A :class:`RatFunc` keeps its denominator split as a rest
times the monic linear forms it knows of; the rest, a factor of degree 2
or more such as the inverse of a nonlinear numerator brings, is most often
absent.  Values reduce by trial division by the forms, since a numerator
that no form divides is coprime to their product, and by the general gcd
:func:`mp_gcd` against the rest alone.  A product sheds each numerator
against the other operand's forms and rest (:func:`_mul_split`).  A sum,
and a sum of products such as a residual of the eigenbasis solve (one call
of ``params.dot``), go through one kernel, :func:`_lcm_sum`: every term
over the lcm of the forms and of the rests, the numerators added once, the
sum trial-divided once by the lcm's forms and reduced once against its
rest.  Every way gives the same canonical form.  At a specialized point
``dot`` is the plain sum.  Each
monic linear form x_v + g carries its plan, v and the terms of g, built the
first time it is used (:func:`_plan`): multiplying by the form
(:func:`_times`) shifts in x_v and adds the g-terms, and dividing by it
(:func:`_div_linear`) reads the plan instead of finding the form's leading
term on every try.

Each :class:`GenericParameters` owns its :class:`ParamRing`, which interns
the field's polynomial values (denominator 1): one value per numerator, for
its generators, constants, every polynomial sum, product, negation and
scaling, and every fraction whose denominator cancels (:func:`_factored`).
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
from operator import add

from .cyclotomic import Cyc
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

    __slots__ = ("r", "names", "nvars", "czero", "cone") + MEMOS

    def __init__(self, r: int, names: tuple[str, ...]):
        self.r = r
        self.names = names
        self.nvars = len(names)
        self.czero = Cyc.zero(r)
        self.cone = Cyc.one(r)
        for name in self.MEMOS:
            setattr(self, name, {})

    def intern(self, num: "MPoly") -> "RatFunc":
        """The ring's one polynomial value with numerator ``num``."""
        got = self.interned.get(num)
        if got is None:
            got = self.interned[num] = _polynomial(num)
        return got

    def memo_miss(self, memo: dict, op, a: "RatFunc", b=None) -> "RatFunc":
        """``op`` of a's numerator (and b's, or the Cyc b) as an interned
        value, stored in ``memo`` under the interned operands' ids."""
        a = self.intern(a.num)
        if b is None:
            key, args = id(a), (a.num,)
        elif isinstance(b, RatFunc):
            b = self.intern(b.num)
            key, args = (id(a), id(b)), (a.num, b.num)
        else:
            key, args = (id(a), b), (a.num, b)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self.intern(op(*args))
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

    def const(self, c: Cyc) -> "MPoly":
        if not c:
            return MPoly(self, {})
        return MPoly(self, {(0,) * self.nvars: c})

    def gen(self, i: int) -> "MPoly":
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): self.cone})

    def __repr__(self):
        return f"ParamRing(r={self.r}, names={self.names})"


class MPoly(SparseTerms):
    """Sparse multivariate polynomial over Q(zeta_r); no zero terms stored.
    ``+``, ``-`` and ``*`` (by an MPoly, or by a Cyc through ``scaled``)
    are the loops of :class:`~cherednik.polynomials.SparseTerms`."""

    __slots__ = ("ring", "plan")

    def __init__(self, ring: ParamRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self.plan = None  # set by _plan on a monic linear form

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
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """num/den over Q(zeta_r)[params], gcd-reduced, den monic (graded-lex).

    ``split`` (a :class:`_Split`) writes ``den`` as a rest with no known
    factor times monic linear forms.  It is ``_NO_SPLIT`` exactly when
    ``den`` is 1, so ``+`` and ``*`` spot two polynomials by identity and
    take the ring's memos.  Otherwise ``+`` is :func:`_lcm_sum` of the two
    operands and ``*`` is :func:`_mul_split`, which reduces each numerator
    against the other operand's forms by trial division and against its
    rest by ``mp_gcd``.
    """

    __slots__ = ("num", "den", "split")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = mp_gcd(num, den)
            if not g.is_one():
                num, den = num.divexact(g), den.divexact(g)
        num, den = _normal_form(num, den)
        self.num = num
        self.den = den
        self.split = _intern({}, den, den.ring)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            ring = other.num.ring
            if ring is not self.num.ring and ring != self.num.ring:
                raise ValueError("mixed parameter rings")
            return other
        ring = self.num.ring
        if isinstance(other, Cyc):
            return ring.intern(ring.const(other))
        if isinstance(other, (int, Fraction)):
            return ring.intern(ring.const(Cyc.from_rational(ring.r, other)))
        return None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        ring = self.num.ring
        if type(other) is RatFunc:  # a hit needs no coercion (module doc)
            got = ring.sums.get((id(self), id(other)))
            if got is not None:
                return got
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.split is _NO_SPLIT and o.split is _NO_SPLIT:
            return ring.memo_miss(ring.sums, MPoly.__add__, self, o)
        s, t = self.split, o.split
        return _lcm_sum(((self.num, s.forms, s.rest), (o.num, t.forms, t.rest)),
                        ring) or ring.intern(ring.zero())

    __radd__ = __add__

    def __neg__(self):
        if self.split is _NO_SPLIT:
            ring = self.num.ring
            got = ring.negations.get(id(self))
            return ring.memo_miss(ring.negations, MPoly.__neg__, self) \
                if got is None else got
        return _rf(-self.num, self.den, self.split)

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
        ring = self.num.ring
        if type(other) is RatFunc:
            got = ring.products.get((id(self), id(other)))
            if got is not None:
                return got
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.split is _NO_SPLIT and o.split is _NO_SPLIT:
            return ring.memo_miss(ring.products, MPoly.__mul__, self, o)
        return _mul_split(self, o)

    __rmul__ = __mul__

    def cmul(self, c: Cyc) -> "RatFunc":
        """Fast scale by a cyclotomic unit (or zero)."""
        if self.split is _NO_SPLIT:
            ring = self.num.ring
            got = ring.scalings.get((id(self), c))
            return ring.memo_miss(ring.scalings, MPoly.scaled, self, c) \
                if got is None else got
        if not c:
            return self.num.ring.intern(self.num.ring.zero())
        return _rf(self.num.scaled(c), self.den, self.split)

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        num, den = _normal_form(self.den, self.num)
        return _rf(num, den, _intern({}, den, den.ring))

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
        out = _polynomial(self.num.ring.one())
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
        return bool(self.num.terms)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if self is other:
            return True
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        split = self.split
        if split.text is None:
            split.text = str(self.den)
        return f"({self.num})/({split.text})"

    def __repr__(self):
        return f"RatFunc({self})"


class _Split:
    """A monic denominator ``den`` as ``rest`` times monic linear forms:
    ``forms`` maps each form to its multiplicity, and ``rest`` is a monic
    polynomial of degree 2 or more with no known factor, or None (1).
    Splits are interned while some value holds them, so equal denominators
    share one expanded polynomial, multiplied out once, and ``text``, the
    printed ``den``, rendered on first use."""

    __slots__ = ("forms", "rest", "den", "text", "__weakref__")

    def __init__(self, forms: dict, rest, den):
        self.forms = forms
        self.rest = rest
        self.den = den
        self.text = None


_NO_SPLIT = _Split({}, None, None)  # den = 1
_SPLITS = weakref.WeakValueDictionary()  # (frozenset of forms, rest) -> _Split


def _intern(forms: dict, rest, ring: ParamRing) -> _Split:
    """The split of rest (None for 1) times the forms.  A rest of degree 1
    is one more form, and one of degree 0 is 1."""
    if rest is not None and rest.degree() < 2:
        if rest.degree() == 1:
            forms = _adjust(forms, {rest: 1}, {})
        rest = None
    if not forms and rest is None:
        return _NO_SPLIT
    key = (frozenset(forms.items()), rest)
    got = _SPLITS.get(key)
    if got is None:
        got = _SPLITS[key] = _Split(forms, rest,
                                    _times(rest or ring.one(), forms))
    return got


def _rf(num: MPoly, den: MPoly, split) -> RatFunc:
    """A RatFunc from parts already in normal form, with den's split."""
    out = object.__new__(RatFunc)
    out.num = num
    out.den = den
    out.split = split
    return out


def _polynomial(num: MPoly) -> RatFunc:
    return _rf(num, num.ring.one(), _NO_SPLIT)


def _factored(num: MPoly, forms: dict, rest=None) -> RatFunc:
    """num over rest times the product of forms, which num is coprime to;
    the ring's interned value of num when there is no denominator."""
    split = _intern(forms, rest, num.ring)
    if split is _NO_SPLIT:
        return num.ring.intern(num)
    return _rf(num, split.den, split)


def _normal_form(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """Scale coprime num/den so den is monic; zero becomes 0/1."""
    if num.is_zero():
        return num, den.ring.one()
    _, lc = den.lead()
    if lc != den.ring.cone:
        inv = lc.inverse()
        num, den = num.scaled(inv), den.scaled(inv)
    return num, den


def _plan(f: MPoly) -> tuple:
    """The monic linear form f = x_v + g as (v, the terms of g), stored on f
    the first time it is asked for, so it lives and dies with f."""
    lead, _ = f.lead()
    f.plan = (lead.index(1),
              tuple((e, c) for e, c in f.terms.items() if e != lead))
    return f.plan


def _div_linear(p: MPoly, f: MPoly):
    """p / f for a monic linear form f, or None when f does not divide p.

    f = x_v + g with g free of x_v, so this is synthetic division in x_v,
    from the top x_v-degree down; the x_v-free remainder must vanish.
    """
    if not p.terms:
        return p
    v, g = f.plan or _plan(f)
    # p(x_v = -g) = p when p is free of x_v, and a single term has only
    # variables for linear factors
    if all(not e[v] for e in p.terms) or (len(p.terms) == 1 and g):
        return None
    layers: dict[int, dict] = {}
    for e, c in p.terms.items():
        layers.setdefault(e[v], {})[e] = c
    quot: dict = {}
    for d in range(max(layers), 0, -1):
        layer = layers.pop(d, None)
        if not layer:
            continue
        below = layers.setdefault(d - 1, {})
        for e, c in layer.items():
            qe = e[:v] + (d - 1,) + e[v + 1:]
            quot[qe] = c
            for ge, gc in g:
                t = tuple(map(add, qe, ge))
                s = below.get(t)
                s = -(c * gc) if s is None else s - c * gc
                if s:
                    below[t] = s
                else:
                    below.pop(t, None)
    if layers.get(0):
        return None
    return MPoly(p.ring, quot)


def _times(p: MPoly, forms: dict) -> MPoly:
    """p times the product of f^k for f, k in forms.  Each factor x_v + g
    shifts p up in x_v and adds p times each term of g."""
    for f, k in forms.items():
        v, g = f.plan or _plan(f)
        for _ in range(k):
            terms = p.terms
            out = {e[:v] + (e[v] + 1,) + e[v + 1:]: c for e, c in terms.items()}
            for ge, gc in g:
                accumulate(out, ((tuple(map(add, e, ge)), c * gc)
                                 for e, c in terms.items()))
            p = MPoly(p.ring, out)
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


def _strip(num: MPoly, forms: dict, skip: dict) -> tuple[MPoly, dict]:
    """Divide num by each factor of forms outside skip, as often as it goes
    up to the factor's multiplicity; the quotient and the factors taken."""
    off = {}
    for f, m in forms.items():
        if f in skip:
            continue
        k = 0
        while k < m:
            q = _div_linear(num, f)
            if q is None:
                break
            num = q
            k += 1
        if k:
            off[f] = k
    return num, off


def _shed(num: MPoly, rest):
    """num and rest (None for 1) divided by their gcd.  No gcd is sought
    without a rest, or for a constant num, which is a unit."""
    if rest is None or num.is_constant():
        return num, rest
    g = mp_gcd(num, rest)
    if g.is_one():
        return num, rest
    return num.divexact(g), rest.divexact(g)


def _rest_product(a, b):
    """The product of two rests, None standing for 1."""
    return b if a is None else a if b is None else a * b


def _mul_split(a: RatFunc, b: RatFunc) -> RatFunc:
    """a * b: each numerator sheds the other's forms by trial division (a
    reduced numerator has none of its own) and what it shares with the
    other's rest by :func:`_shed`."""
    if a.num.is_zero() or b.num.is_zero():
        return a.num.ring.intern(a.num.ring.zero())
    sa, sb = a.split, b.split
    na, off_b = _strip(a.num, sb.forms, sa.forms)
    nb, off_a = _strip(b.num, sa.forms, sb.forms)
    na, rb = _shed(na, sb.rest)
    nb, ra = _shed(nb, sa.rest)
    return _factored(na * nb, _adjust(sa.forms, sb.forms, {**off_a, **off_b}),
                     _rest_product(ra, rb))


def _lcm_sum(terms, ring: ParamRing):
    """The sum of num / (rest * product of forms) over the (num, forms, rest)
    terms, over one common denominator; None when the sum is zero.

    The lcm takes each linear form as often as the term that has it most
    often, and the lcm of the rests, by ``mp_gcd`` where two differ.  Each
    numerator is scaled up to the lcm, the numerators are added once, and
    the sum is trial-divided by the lcm's forms once.  A linear form is
    prime, so a form that stops dividing is coprime to the sum.  Then the
    sum sheds what it shares with the lcm's rest, and the quotient over
    what is left of the lcm is reduced.
    """
    lcm: dict = {}
    rest = None
    for _, forms, r in terms:
        for f, m in forms.items():
            if m > lcm.get(f, 0):
                lcm[f] = m
        if r is not None and r != rest:
            rest = r if rest is None else rest * r.divexact(mp_gcd(rest, r))
    acc: dict = {}
    for num, forms, r in terms:
        if r != rest:
            num = num * (rest if r is None else rest.divexact(r))
        accumulate(acc, _times(num, _adjust(lcm, {}, forms)).terms.items())
    if not acc:
        return None
    num, off = _strip(MPoly(ring, acc), lcm, {})
    num, rest = _shed(num, rest)
    return _factored(num, _adjust(lcm, {}, off), rest)


def _dot(pairs, field: "GenericParameters") -> RatFunc:
    """The sum of a * b over pairs of values: :func:`_lcm_sum` of the terms
    (a.num * b.num, the forms of a.den * b.den, the product of their rests).
    The field's ``one`` multiplies nothing."""
    one = field.one
    terms = []
    for a, b in pairs:
        if not a.num.terms or not b.num.terms:
            continue
        sa, sb = a.split, b.split
        fa, fb = sa.forms, sb.forms
        terms.append((b.num if a is one else a.num if b is one
                      else a.num * b.num,
                      _adjust(fa, fb, {}) if fa and fb else fa or fb,
                      _rest_product(sa.rest, sb.rest)))
    return _lcm_sum(terms, field.ring) or field.zero


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
        self.ring = ParamRing(r, _param_names(m))
        self.kappa = self.ring.intern(self.ring.gen(0))
        self.c0 = self.ring.intern(self.ring.gen(1))
        dpolys = [self.ring.gen(2 + j) for j in range(m)]
        d0 = -sum(dpolys, self.ring.zero())
        self._d = [self.ring.intern(q) for q in [d0] + dpolys]
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
        return self.ring.intern(self.ring.const(c))

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
    ring = s.num.ring
    if ring.r != point.r or ring.names != _param_names(len(point.d)):
        raise ValueError(f"a scalar over {ring.names} of Q(zeta_{ring.r}) "
                         f"cannot be specialized at {point}")
    vals = (point.kappa, point.c0) + point.d
    den = s.den.evaluate(vals)
    if not den:
        raise PoleError(str(s.den), point)
    num = s.num.evaluate(vals)
    return num / den
