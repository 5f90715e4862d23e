"""The generic field's kernels on ``Cyc`` coefficients, kept as test oracles.

``scalars`` computes on integer polynomials (a numerator, a positive integer
k and primitive rational linear forms); these are the kernels it replaced,
which worked on :class:`~cherednik.scalars.MPoly` values with ``Cyc``
coefficients: a value is ``(num, forms, rest)``, the numerator over the
monic denominator ``rest`` (an MPoly, or None for 1) times the monic linear
forms of ``forms`` with their multiplicities.  :func:`parts` reads a
``RatFunc`` this way, and :func:`den` expands the denominator.

This module is not ``tests/oracles.py``, which ``bench/run.py`` imports
before its timed passes.
"""

from __future__ import annotations

from operator import add

from cherednik.polynomials import accumulate
from cherednik.scalars import MPoly, mp_gcd


def parts(x) -> tuple:
    """(num, forms, rest) of a RatFunc, with monic MPoly forms and rest."""
    split = x.split
    rest = split.rest.poly() if split.rest is not None else None
    return x.num, {f.poly(): m for f, m in split.forms.items()}, rest


def plan(f: MPoly) -> tuple:
    """The monic linear form f = x_v + g as (v, the terms of g)."""
    lead, _ = f.lead()
    return lead.index(1), tuple((e, c) for e, c in f.terms.items()
                                if e != lead)


def div_linear(p: MPoly, f: MPoly):
    """p / f for a monic linear form f, or None when f does not divide p,
    by synthetic division in x_v from the top x_v-degree down."""
    if not p.terms:
        return p
    v, g = plan(f)
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


def times(p: MPoly, forms: dict) -> MPoly:
    """p times the product of f^k for f, k in forms: a shift in x_v plus
    the g-terms for each factor x_v + g."""
    for f, k in forms.items():
        v, g = plan(f)
        for _ in range(k):
            terms = p.terms
            out = {e[:v] + (e[v] + 1,) + e[v + 1:]: c for e, c in terms.items()}
            for ge, gc in g:
                accumulate(out, ((tuple(map(add, e, ge)), c * gc)
                                 for e, c in terms.items()))
            p = MPoly(p.ring, out)
    return p


def adjust(base: dict, more: dict, less: dict) -> dict:
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


def strip(num: MPoly, forms: dict, skip: dict) -> tuple[MPoly, dict]:
    """Divide num by each factor of forms outside skip, as often as it goes
    up to the factor's multiplicity; the quotient and the factors taken."""
    off = {}
    for f, m in forms.items():
        if f in skip:
            continue
        k = 0
        while k < m:
            q = div_linear(num, f)
            if q is None:
                break
            num = q
            k += 1
        if k:
            off[f] = k
    return num, off


def _shed(num: MPoly, rest):
    if rest is None or num.is_constant():
        return num, rest
    g = mp_gcd(num, rest)
    if g.is_one():
        return num, rest
    return num.divexact(g), rest.divexact(g)


def _product(a, b):
    return b if a is None else a if b is None else a * b


def _normal(num: MPoly, forms: dict, rest):
    """(num, forms, rest) with the rest monic, a linear rest with rational
    coordinates one more form and a constant rest folded into num."""
    if rest is not None:
        _, lc = rest.lead()
        num, rest = num.scaled(lc.inverse()), rest.monic()
        if rest.degree() == 1 and all(c.is_rational()
                                      for c in rest.terms.values()):
            forms, rest = adjust(forms, {rest: 1}, {}), None
        elif rest.degree() == 0:
            rest = None
    if num.is_zero():
        return num, {}, None
    return num, forms, rest


def mul_split(a: tuple, b: tuple) -> tuple:
    """a * b: each numerator sheds the other's forms by trial division and
    what it shares with the other's rest by ``mp_gcd``."""
    (na, fa, ra), (nb, fb, rb) = a, b
    if na.is_zero() or nb.is_zero():
        return na.ring.zero(), {}, None
    na, off_b = strip(na, fb, fa)
    nb, off_a = strip(nb, fa, fb)
    na, rb = _shed(na, rb)
    nb, ra = _shed(nb, ra)
    return _normal(na * nb, adjust(fa, fb, {**off_a, **off_b}),
                   _product(ra, rb))


def lcm_sum(terms: list, ring) -> tuple:
    """The sum of the (num, forms, rest) terms over one common
    denominator: the lcm of the forms and of the rests, the numerators
    added once, trial-divided by the lcm's forms and reduced against the
    lcm's rest."""
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
        accumulate(acc, times(num, adjust(lcm, {}, forms)).terms.items())
    if not acc:
        return ring.zero(), {}, None
    num, off = strip(MPoly(ring, acc), lcm, {})
    num, rest = _shed(num, rest)
    return _normal(num, adjust(lcm, {}, off), rest)


def den(forms: dict, rest, ring) -> MPoly:
    """The expanded monic denominator."""
    return times(rest if rest is not None else ring.one(), forms)
