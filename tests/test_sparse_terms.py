"""The sparse-polynomial core shared by ``Poly`` and ``MPoly``, and the sums
of ``RatFunc`` values whose denominators have a rest with no known factor.

The per-class loops that the shared core replaced are restated below as
oracles, and the core must give the same terms on polynomials with ``Cyc``
and with ``RatFunc`` coefficients and on ``MPoly`` values, sums that cancel
to zero included.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from cherednik import (
    Cyc, GenericParameters, MPoly, Poly, RatFunc, parse_poly,
)
from cherednik.polynomials import SparseTerms, accumulate
from test_scalars import _assert_split

# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------


def _lift(a, b):
    return b if isinstance(b, Poly) else Poly.monomial((0,) * a.n, b)


def poly_add(a, b):
    return Poly(a.n, accumulate(dict(a.terms), _lift(a, b).terms.items()))


def poly_sub(a, b):
    out = dict(a.terms)
    for e, c in _lift(a, b).terms.items():
        s = out.get(e)
        s = -c if s is None else s - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Poly(a.n, out)


def poly_neg(a):
    return Poly(a.n, {e: -c for e, c in a.terms.items()})


def poly_scaled(a, s):
    if not s:
        return Poly(a.n, {})
    return Poly(a.n, {e: c * s for e, c in a.terms.items()})


def poly_mul(a, b):
    if not isinstance(b, Poly):
        return poly_scaled(a, b)
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly(a.n, out)


def mpoly_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return MPoly(a.ring, out)


def mpoly_neg(a):
    return MPoly(a.ring, {e: -c for e, c in a.terms.items()})


def mpoly_sub(a, b):
    return mpoly_add(a, mpoly_neg(b))


def mpoly_mul(a, b):
    x, y = a.terms, b.terms
    if not x or not y:
        return MPoly(a.ring, {})
    if len(x) > len(y):
        x, y = y, x
    out: dict = {}
    for ea, ca in x.items():
        for eb, cb in y.items():
            e = tuple(map(int.__add__, ea, eb))
            c = ca * cb
            s = out.get(e)
            if s is None:
                if c:
                    out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return MPoly(a.ring, out)


def mpoly_scaled(a, c):  # the replaced MPoly.mul_cyc
    if not c:
        return MPoly(a.ring, {})
    return MPoly(a.ring, {e: v * c for e, v in a.terms.items()})


# ---------------------------------------------------------------------------
# random operands
# ---------------------------------------------------------------------------


def _cyc(rng, r):
    out = Cyc.zero(r)
    for _ in range(rng.randint(1, 2)):
        out = out + Cyc.root(r, rng.randrange(r)) * Cyc.from_rational(
            r, rng.randint(-3, 3), rng.randint(1, 3))
    return out


def _ratfunc(rng, par):
    k, c0 = par.kappa, par.c0
    atoms = [par.one, k, c0, par.rational(-2, 3), par.zeta(1),
             par.one / (k - c0), c0 / (k + par.rational(1, 2)),
             par.one / (k * k + c0), (k - c0) / (k * c0 + par.one)]
    return rng.choice(atoms) * par.rational(rng.randint(-2, 2))


def _terms(rng, nvars, deg, count, coeff):
    """count random terms; a zero coefficient is left out, as every
    constructor of both classes does."""
    out = {}
    for _ in range(count):
        c = coeff()
        if c:
            out[tuple(rng.randint(0, deg) for _ in range(nvars))] = c
    return out


def _poly_cases(seed, coeff_of):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, b = (Poly(n, _terms(rng, n, 2, rng.randint(0, 5),
                               lambda: coeff_of(rng))) for _ in range(2))
        yield a, b
        yield a, poly_neg(a)  # a + b cancels to zero
        yield a, poly_add(a, b)  # a - b keeps only -b


def _same(got, want):
    assert type(got) is type(want)
    assert got.terms == want.terms
    assert all(got.terms.values())


def _check_poly(a, b, scalar):
    _same(a + b, poly_add(a, b))
    _same(a - b, poly_sub(a, b))
    _same(-a, poly_neg(a))
    _same(a * b, poly_mul(a, b))
    _same(a * scalar, poly_mul(a, scalar))
    _same(scalar * a, poly_scaled(a, scalar))
    _same(a + scalar, poly_add(a, scalar))
    _same(scalar + a, poly_add(a, scalar))
    _same(scalar - a, poly_sub(_lift(a, scalar), a))
    assert (a + b).n == a.n and (a * b).n == a.n
    assert (a - a).is_zero() and not (a + poly_neg(a))
    assert a.degree() == max((sum(e) for e in a.terms), default=0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_poly_with_cyc_coefficients_matches_the_replaced_loops(r):
    rng = random.Random(r)
    for a, b in _poly_cases(100 + r, lambda g: _cyc(g, r)):
        _check_poly(a, b, rng.choice([Cyc.zero(r), _cyc(rng, r)]))


@pytest.mark.parametrize("r,p", [(1, 1), (2, 1), (3, 3)])
def test_poly_with_ratfunc_coefficients_matches_the_replaced_loops(r, p):
    par = GenericParameters(r, p)
    rng = random.Random(r + p)
    for a, b in _poly_cases(200 + r, lambda g: _ratfunc(g, par)):
        _check_poly(a, b, rng.choice([par.zero, _ratfunc(rng, par)]))


@pytest.mark.parametrize("r,p", [(1, 1), (2, 1), (4, 2)])
def test_mpoly_matches_the_replaced_loops(r, p):
    ring = GenericParameters(r, p).ring
    rng = random.Random(300 + r)
    for _ in range(60):
        a = MPoly(ring, _terms(rng, ring.nvars, 2, rng.randint(0, 5),
                               lambda: _cyc(rng, r)))
        b = MPoly(ring, _terms(rng, ring.nvars, 2, rng.randint(0, 5),
                               lambda: _cyc(rng, r)))
        for x, y in [(a, b), (a, mpoly_neg(a)), (a, mpoly_add(a, b))]:
            _same(x + y, mpoly_add(x, y))
            _same(x - y, mpoly_sub(x, y))
            _same(-x, mpoly_neg(x))
            _same(x * y, mpoly_mul(x, y))
            _same(x * y, y * x)
            assert (x + y).ring is ring
        c = rng.choice([Cyc.zero(r), _cyc(rng, r)])
        _same(a.scaled(c), mpoly_scaled(a, c))
        assert (a - a).is_zero() and not (a + mpoly_neg(a))
        assert a.degree() == max((sum(e) for e in a.terms), default=0)


def test_poly_and_mpoly_are_siblings_on_one_core():
    assert issubclass(Poly, SparseTerms) and issubclass(MPoly, SparseTerms)
    assert not issubclass(MPoly, Poly) and not issubclass(Poly, MPoly)
    shared = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__",
              "is_zero", "__bool__", "degree", "scaled", "sorted_terms",
              "__str__", "__repr__")
    assert not set(shared) & set(vars(MPoly))
    for name in shared:
        assert getattr(MPoly, name) is getattr(SparseTerms, name)
    assert Poly.__eq__ is SparseTerms.__eq__
    # each hashes its terms its own way
    assert "__hash__" in vars(Poly) and "__hash__" in vars(MPoly)
    # Poly binds the traced entries in its own dict, to the shared loops
    assert vars(Poly)["__add__"] is vars(Poly)["__radd__"] \
        is SparseTerms.__add__
    assert vars(Poly)["__mul__"] is SparseTerms.__mul__
    assert vars(Poly)["__rmul__"] is SparseTerms.scaled


def test_arithmetic_across_ranks_is_refused():
    par = GenericParameters(2, 1)
    a, b = parse_poly("x1 + x2", 2, par), parse_poly("x3", 3, par)
    for left, right in ((a, b), (b, a)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="mixed ranks"):
                op(left, right)
    # MPoly values combine within one ring; equal rings are one space
    x, y = GenericParameters(2, 1).kappa.num, GenericParameters(4, 1).kappa.num
    with pytest.raises(ValueError, match="mixed ranks"):
        x + y
    assert (x * par.kappa.num).ring == par.ring


# ---------------------------------------------------------------------------
# sums whose denominators have a rest with no known factor
# ---------------------------------------------------------------------------


def _unsplit_pool():
    """A field, values whose denominators are all rest (each of degree 2
    or more), values whose denominators are products of linear forms, and
    pairs whose rests cancel down to a linear form or to 1."""
    par = GenericParameters(2, 1)
    k, c0, d1, one = par.kappa, par.c0, par.d(1), par.one
    sq = (k * k - c0 * c0).num
    unsplit = [one / (k * k + c0), (k + d1) / (k * c0 + one),
               RatFunc((k + one).num, sq), RatFunc((-c0 - one).num, sq),
               RatFunc((c0 - k).num, (k * k * c0 + d1).num)]
    split = [par.zero, one, k, one / (k - c0), c0 / (k + c0) / (k - d1),
             (k + d1) / (k + c0) / (k + c0)]
    return par, unsplit, split


def test_unsplit_sums_are_reduced_and_split_exactly_when_linear():
    par, unsplit, split = _unsplit_pool()
    assert all(u.split.rest == u.den and not u.split.forms for u in unsplit)
    assert all(s.split.rest is None for s in split)
    pairs = list(itertools.combinations_with_replacement(unsplit, 2)) \
        + [(u, s) for u in unsplit for s in split]
    sums = [a + b for a, b in pairs] + [b + a for a, b in pairs]
    for (a, b), got in zip(pairs + [(b, a) for a, b in pairs], sums,
                           strict=True):
        want = RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
        assert (got.num, got.den) == (want.num, want.den)
        _assert_split(got)
        # the sum's rest is what is left of the operands' rests
        rests = [x.split.rest for x in (a, b) if x.split.rest is not None]
        rests = rests[0] * rests[1] if len(rests) == 2 else rests[0]
        rest = got.split.rest
        assert rest is None or rests.divexact(rest) is not None, str(got)
        assert got - b == a
    # (k + 1) + (-c0 - 1) over k^2 - c0^2 reduces to 1/(k + c0): the rest
    # left is linear, so it is a form
    linear = unsplit[2] + unsplit[3]
    assert linear == par.one / (par.kappa + par.c0)
    _assert_split(linear, forms_only=True)
    assert linear.den.degree() == 1
    zero = unsplit[0] - unsplit[0]
    assert zero.is_zero() and zero.den.is_one()


def test_unsplit_sums_against_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    _, unsplit, split = _unsplit_pool()

    def expr(text):
        return sympy.sympify(text.replace("^", "**"))

    for a, b in itertools.product(unsplit, unsplit + split):
        got = a + b
        num, den = expr(str(got.num)), expr(str(got.den))
        assert sympy.cancel(num / den - expr(str(a)) - expr(str(b))) == 0
        assert sympy.gcd(num, den).is_number
        degree = max(map(sum, sympy.Poly(den).monoms()))
        _assert_split(got)
        rest = got.split.rest
        assert degree == sum(got.split.forms.values()) + (
            0 if rest is None else rest.degree())


def test_an_unsplit_sum_with_fraction_operands():
    par, unsplit, _ = _unsplit_pool()
    u = unsplit[0]
    assert u + 1 == u + par.one and 1 + u == u + par.one
    assert u + Fraction(1, 2) == u + par.rational(1, 2)
