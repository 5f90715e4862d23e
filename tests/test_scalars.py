"""Parameter scalars: rational functions, the d/c reparametrization,
specialization, and canonical forms."""

import contextlib
import functools
import io
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import scalar_kernels
from cherednik import (
    Cyc, GenericParameters, ParamPoint, PoleError, RatFunc,
    SpecializedParameters, c_from_d, d_from_c, specialize, weight_of,
)
from cherednik import scalars as scalar_layer
from cherednik.cli import main
from cherednik.operators import monomials_of_degree
from cherednik.parsing import parse_scalar
from cherednik.reptheory import gordon_point


def test_d_from_c_rank_two():
    c = Fraction(7, 3)
    d = d_from_c(2, 1, [c])
    assert d == [Cyc.from_rational(2, 7, 3), Cyc.from_rational(2, -7, 3)]


def test_d_from_c_zero():
    assert all(not v for v in d_from_c(4, 1, [0, 0, 0]))


def test_d_from_c_r4_p2_brute_force():
    # only c_2 is present; d_j = zeta^{2j} c_2, folded mod r/p = 2
    c = Fraction(5)
    expected = [Cyc.root(4, 2 * j) * Cyc.from_rational(4, 5) for j in range(2)]
    got = d_from_c(4, 2, [c])
    assert got == expected
    assert not (got[0] + got[1])  # d_0 + d_1 = 0


def test_c_d_roundtrip():
    for (r, p) in [(2, 1), (3, 1), (4, 1), (4, 2), (6, 2), (6, 3)]:
        cs = [Fraction(k + 1, 2) for k in range(r // p - 1)]
        ds = d_from_c(r, p, cs)
        back = c_from_d(r, p, ds)
        assert back == [Cyc.from_rational(r, v) for v in cs]


def test_d_periodicity_and_zero_sum():
    for (r, p) in [(2, 1), (4, 1), (4, 2), (6, 2)]:
        par = GenericParameters(r, p)
        m = r // p
        for j in range(-2 * m, 2 * m):
            assert par.d(j) == par.d(j % m)
        total = par.zero
        for j in range(m):
            total = total + par.d(j)
        assert total.is_zero()


def test_c_vanishes_off_multiples():
    par = GenericParameters(6, 3)
    assert par.c(1).is_zero() and par.c(2).is_zero()
    assert not par.c(3).is_zero()
    with pytest.raises(ValueError):
        par.c(0)


def test_specialize_examples():
    par = GenericParameters(2, 1)
    pt = ParamPoint.make(2, 1, 1, 1, [Fraction(1, 3)])
    assert specialize(par.kappa, pt) == Cyc.one(2)
    with pytest.raises(PoleError) as err:
        specialize(par.c0 / (par.kappa - par.c0),
                   ParamPoint.make(2, 1, 1, 1, [0]))
    assert "k - c0" in str(err.value)


def test_specialize_refuses_a_scalar_of_another_field():
    # a point of G(4,2) has one d-value; G(4,1)'s ring has d1, d2, d3, and
    # G(2,1)'s ring the same names over another r
    pt = ParamPoint.make(4, 2, 1, Fraction(1, 3), [5])
    g41, g21 = GenericParameters(4, 1), GenericParameters(2, 1)
    for s in (g41.d(3), g41.d(2) + g41.d(3), g41.kappa, g21.kappa):
        with pytest.raises(ValueError, match="cannot be specialized"):
            specialize(s, pt)
    with pytest.raises(ValueError, match="expected 5 values, got 3"):
        g41.kappa.num.evaluate((pt.kappa, pt.c0) + pt.d)
    g42 = GenericParameters(4, 2)
    assert specialize(g42.kappa + g42.d(1), pt) == Cyc.from_rational(4, 6)


def test_specialize_gordon_d_difference():
    # d_0 - d_{-1} at the Gordon point of G(2,1,2) equals c_1 (1 - zeta^{-1})
    par = GenericParameters(2, 1)
    pt = gordon_point(2, 1, 2)
    val = specialize(par.d(0) - par.d(-1), pt)
    c1 = pt.c_value(1)
    assert val == c1 * (Cyc.one(2) - Cyc.root(2, -1))
    assert val == Cyc.from_rational(2, 5, 2)
    # numerical shadow of the same identity
    assert abs(complex(val) - 2.5) < 1e-9


@st.composite
def scalars(draw, par):
    # the last atom has a factored denominator (a linear form), the one
    # before a denominator that is all rest (no known factor)
    atoms = [par.kappa, par.c0, par.d(1), par.one, par.rational(2),
             par.rational(-1, 3), par.zeta(1),
             par.one / (par.kappa * par.kappa + par.c0),
             par.c0 / (par.kappa - par.c0)]
    val = draw(st.sampled_from(atoms))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["+", "*", "-"]))
        other = draw(st.sampled_from(atoms))
        val = {"+": val + other, "*": val * other, "-": val - other}[op]
    return val


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_ratfunc_field_axioms(data):
    par = GenericParameters(4, 2)
    a = data.draw(scalars(par))
    b = data.draw(scalars(par))
    c = data.draw(scalars(par))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == par.one
        assert (b / a) * a == b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_no_split_exactly_when_the_denominator_is_one(data):
    # + and * take the polynomial fast path on split is _NO_SPLIT alone
    par = GenericParameters(4, 2)
    a = data.draw(scalars(par))
    b = data.draw(scalars(par))
    c = data.draw(st.sampled_from([Cyc.zero(4), Cyc.one(4), Cyc.root(4, 1),
                                   Cyc.from_rational(4, -2, 3)]))
    results = [a, b, a + b, a - b, a * b, -a, a.cmul(c), a + 1, 2 * b,
               RatFunc(a.num, b.den), RatFunc(a.num * b.num, a.den)]
    if b:
        results += [a / b, b.inverse(), a * b.inverse() * b,
                    RatFunc(a.den, b.num)]
    for f in results:
        assert (f.split is scalar_layer._NO_SPLIT) == f.den.is_one(), repr(f)


def test_gcd_canonical_form():
    par = GenericParameters(2, 1)
    f = par.kappa - par.c0
    g = par.kappa + par.c0 + par.one
    h = par.c0 * par.c0 - par.kappa
    assert (f * g) / (f * h) == g / h
    # denominator normalized: equality is structural
    lhs = (f * g) / (f * h)
    rhs = g / h
    assert lhs.num == rhs.num and lhs.den == rhs.den
    assert hash(lhs) == hash(rhs)


def test_two_modes_one_interface():
    pt = gordon_point(2, 1, 2)
    sp = SpecializedParameters(pt)
    val = sp.kappa * sp.rational(3) - sp.c0
    assert val == Cyc.from_rational(2, 3) - Cyc.from_rational(2, 5, 4)
    assert sp.c(1) == Cyc.from_rational(2, 5, 4)
    assert sp.d(0) - sp.d(-1) == Cyc.from_rational(2, 5, 2)


def test_parse_print_roundtrip_scalars():
    par = GenericParameters(3, 1)
    samples = [
        par.kappa,
        par.c0 * par.rational(-2) + par.one,
        (par.kappa - par.c0) / (par.kappa + par.d(2)),
        par.zeta(1) * par.kappa - par.d(1) * par.d(2),
        par.zero,
        (par.kappa * par.kappa - par.one) / (par.c0 * par.c0 * par.c0),
    ]
    for s in samples:
        assert parse_scalar(str(s), par) == s


def test_param_point_validation():
    with pytest.raises(ValueError):
        ParamPoint.make(4, 3, 1, 1, [])
    with pytest.raises(ValueError):
        ParamPoint.make(4, 2, 1, 1, [1, 2])  # wrong d length


def test_point_c_values_match_generic():
    pt = gordon_point(4, 2, 2)
    par = GenericParameters(4, 2)
    for l in (2,):
        assert specialize(par.c(l), pt) == pt.c_value(l)
    assert pt.c_value(1) == Cyc.zero(4)


def _d_point(r, p):
    """A point whose d_j are distinct and, for r > 2, irrational."""
    ds = [Cyc.root(r, j) + Cyc.from_rational(r, j + 2, 3)
          for j in range(1, r // p)]
    return ParamPoint.make(r, p, 1, Fraction(1, 5), ds)


@pytest.mark.parametrize("r,p", [(r, p) for r in range(1, 7)
                                 for p in range(1, r + 1) if r % p == 0])
def test_c_from_d_matches_the_summation_oracle(r, p):
    gen = GenericParameters(r, p)
    point = _d_point(r, p)
    czero = Cyc.zero(r)
    for l in range(-r + 1, 2 * r):
        if l % r == 0:
            with pytest.raises(ValueError):
                gen.c(l)
            with pytest.raises(ValueError):
                point.c_value(l)
            continue
        expected = oracles.c_from_d_sum(r, p, l, point.d_value, czero)
        assert gen.c(l) == oracles.c_from_d_sum(r, p, l, gen.d, gen.zero)
        assert gen.c(l) is gen.c(l + r)  # one memo entry per class
        assert specialize(gen.c(l), point) == expected
        assert point.c_value(l) == expected
    ds = [point.d_value(j) for j in range(r // p)]
    assert c_from_d(r, p, ds) == [
        oracles.c_from_d_sum(r, p, t * p, ds.__getitem__, czero)
        for t in range(1, r // p)]


@pytest.mark.parametrize("r,p", [(1, 1), (2, 1), (6, 2), (12, 1)])
def test_d0_is_built_once_per_point(r, p):
    point = _d_point(r, p)
    d0 = point.d_value(0)
    assert d0 == -sum(point.d, Cyc.zero(r))
    for j in range(0, 3 * r, r // p):
        assert point.d_value(j) is d0
    assert point.d_value(-r) is d0


def test_ratfunc_normal_form_is_pinned():
    # (str(num), str(den)) as the package printed them before the normal
    # form had one definition
    par = GenericParameters(3, 1)
    ring = par.ring
    k, c0, d1 = par.kappa.num, par.c0.num, par.d(1).num
    two, z = par.rational(2).num, par.zeta(1).num
    a = RatFunc(ring.one(), k * (k + c0))
    cases = [
        (RatFunc(ring.zero(), k * two + c0), ("0", "1")),
        (RatFunc(k + c0, k * two + c0), ("1/2*k + 1/2*c0", "k + 1/2*c0")),
        (RatFunc(k * two + c0, d1 + k).inverse(),
         ("1/2*k + 1/2*d1", "k + 1/2*c0")),
        (RatFunc(z * k + c0, ring.one()).inverse(),
         ("(-1 - z)", "k + (-1 - z)*c0")),
        (a - a, ("0", "1")),
        (a + a, ("2", "k^2 + k*c0")),
        (RatFunc(ring.zero(), ring.one()) * RatFunc(ring.one(), k),
         ("0", "1")),
    ]
    for f, pinned in cases:
        assert (str(f.num), str(f.den)) == pinned


# ---------------------------------------------------------------------------
# factored denominators against the general gcd path
# ---------------------------------------------------------------------------


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    real = scalar_layer.mp_gcd

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(scalar_layer, "mp_gcd", counting)
    return calls


def _weight_differences(r, p, n, count=5):
    """Distinct nonzero z-weight differences of compositions of size 3."""
    par = GenericParameters(r, p)
    zs = [weight_of(mu, par).zvals for mu in monomials_of_degree(n, 3)]
    out = []
    for a, b in itertools.combinations(zs, 2):
        for x, y in zip(a, b):
            if x != y and x - y not in out:
                out.append(x - y)
    return par, out[:count]


def _factored_pool(par, diffs):
    """Quotients by weight differences, one division per factor (as the
    eigenbasis divides): single, two distinct and repeated factors, and
    numerators that share a factor with another value."""
    k, c0 = par.kappa, par.c0
    pool = []
    for j, d in enumerate(diffs):
        e = diffs[j - 1]
        pool += [par.one / d, (k + par.rational(j)) / d / e,
                 (c0 - par.rational(1, j + 2)) / d / d, e / d, d * k]
    return pool


def _oracle(num, den):
    return RatFunc(num, den)  # reduced by mp_gcd


def _assert_same(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    assert str(got) == str(want)


def _assert_normal(f):
    """f = n / (k den): k > 0 and coprime to the coefficients of n, no zero
    stored, every zeta power below phi(r)."""
    ring = f.ring
    assert f.k > 0 and math.gcd(f.k, *f.n.values()) == 1
    assert all(c and e[-1] < ring.phi and len(e) == ring.nvars + 1
               for e, c in f.n.items())
    assert (f.split is scalar_layer._NO_SPLIT) == (not f.split.forms
                                                   and f.split.rest is None)


def _assert_factor(g):
    """g is the interned primitive factor of its terms: integer coordinates
    with gcd 1 and a positive integer graded-lex lead."""
    terms = g.terms
    lead = max((e[:-1] for e in terms), key=lambda e: (sum(e), e))
    assert math.gcd(*terms.values()) == 1 and terms[lead + (0,)] > 0
    assert all(e[:-1] != lead or e[-1] == 0 for e in terms)
    assert scalar_layer._factor(g.ring, terms)[0] is g


def _rational_linear(g):
    """Whether the factor g is a linear form with rational coordinates."""
    poly = g.poly()
    return poly.degree() == 1 and all(c.is_rational()
                                      for c in poly.terms.values())


def _assert_split(f, forms_only=False):
    """f.split writes f.den as its rest times a multiset of primitive
    linear forms, each rational and with its plan; the rest is None (1), or
    a factor without a plan that is not a rational linear form, and with
    ``forms_only`` it is None.  f is in normal form."""
    _assert_normal(f)
    rest = f.split.rest
    assert rest is None or (rest.plan is None and not _rational_linear(rest))
    assert rest is None or not forms_only
    prod = f.ring.one() if rest is None else rest.poly()
    for g in [rest] if rest is not None else []:
        _assert_factor(g)
    for g, m in f.split.forms.items():
        _assert_factor(g)
        assert g.plan is not None and _rational_linear(g) and m > 0
        for _ in range(m):
            prod = prod * g.poly()
    assert prod == f.den


@pytest.mark.parametrize("group", [(1, 1, 4), (2, 1, 3), (3, 3, 3)])
def test_factored_path_matches_the_gcd_path(group, gcd_calls):
    par, diffs = _weight_differences(*group)
    pool = _factored_pool(par, diffs)
    for f in pool:
        _assert_split(f, forms_only=True)
    pairs = list(itertools.combinations_with_replacement(pool, 2))
    sums = [a + b for a, b in pairs]
    products = [a * b for a, b in pairs]
    quotients = [a / d for a in pool for d in diffs]
    assert gcd_calls == []
    want = [_oracle(a.num * b.den + b.num * a.den, a.den * b.den)
            for a, b in pairs]
    want += [_oracle(a.num * b.num, a.den * b.den) for a, b in pairs]
    want += [_oracle(a.num, a.den * d.num) for a in pool for d in diffs]
    for got, w in zip(sums + products + quotients, want, strict=True):
        _assert_split(got, forms_only=True)
        _assert_same(got, w)


def test_factored_path_cancels_and_falls_back(gcd_calls):
    par = GenericParameters(2, 1)
    k, c0, one = par.kappa, par.c0, par.one
    f, g = k - c0, k + par.d(1)
    got = [
        # repeated factors
        f ** -3 * f ** 2, k / f / f - c0 / f / f, one / f / f / g * (f * g),
        # full cancellation and zero sums
        one / f / g * (f * g), one / f + one / g - (f + g) / f / g,
        k / f - k / f,
    ]
    assert gcd_calls == []
    want = [_oracle(one.num, f.num)] * 3 + [one, par.zero, par.zero]
    for x, w in zip(got, want, strict=True):
        _assert_split(x, forms_only=True)
        _assert_same(x, w)
    # with an operand that has a rest, a product sheds the forms by trial
    # division and meets the rest by mp_gcd only with a non-constant
    # numerator (here 1); a sum meets the lcm's rest by mp_gcd once, after
    # the forms are stripped
    a, b = one / (k * k + c0), one / f
    assert a.split.rest.poly() == a.den and not a.split.forms
    gcd_calls.clear()
    got = [a * b, b * a, b / a]
    assert gcd_calls == []
    with _top_gcd_calls() as calls:
        got.append(a + b)
    assert [rest for _, rest in calls] == [a.den]
    want = [_oracle(a.num * b.num, a.den * b.den)] * 2 + [
        _oracle(b.num * a.den, b.den * a.num),
        _oracle(a.num * b.den + b.num * a.den, a.den * b.den)]
    for x, w in zip(got, want, strict=True):
        _assert_same(x, w)
    for x in (got[0], got[3]):
        _assert_split(x)
        assert x.split.rest.poly() == a.den
        assert {g.poly(): m for g, m in x.split.forms.items()} == {f.num: 1}
    _assert_split(got[2], forms_only=True)


@pytest.mark.parametrize("group", [(1, 1, 4), (2, 1, 3)])
def test_factored_path_against_sympy_cancel(group):
    sympy = pytest.importorskip("sympy")
    par, diffs = _weight_differences(*group, count=2)
    pool = _factored_pool(par, diffs)

    def expr(text):
        return sympy.sympify(text.replace("^", "**"))

    for a, b in itertools.combinations(pool, 2):
        x, y = expr(str(a)), expr(str(b))
        for got, want in [(a + b, x + y), (a * b, x * y)]:
            num, den = expr(str(got.num)), expr(str(got.den))
            assert sympy.cancel(num / den - want) == 0
            assert sympy.gcd(num, den).is_number
    for a in pool:
        for d in diffs:
            got = a / d
            num, den = expr(str(got.num)), expr(str(got.den))
            assert sympy.cancel(num / den - expr(str(a)) / expr(str(d))) == 0
            assert sympy.gcd(num, den).is_number


# ---------------------------------------------------------------------------
# products with one operand whose denominator is all rest
# ---------------------------------------------------------------------------


def _mul_by_gcds(a, b):
    """a * b by the replaced general branch of ``RatFunc.__mul__``: each
    numerator against the other denominator by ``mp_gcd``, then the split
    that shows on the product's denominator."""
    g1 = scalar_layer.mp_gcd(a.num, b.den)
    g2 = scalar_layer.mp_gcd(b.num, a.den)
    num = a.num.divexact(g1) * b.num.divexact(g2)
    den = a.den.divexact(g2) * b.den.divexact(g1)
    return RatFunc(num, den)


@contextlib.contextmanager
def _top_gcd_calls():
    """The top-level ``mp_gcd`` calls made inside the block (not the ones
    mp_gcd makes itself)."""
    calls = []
    depth = 0
    real = scalar_layer.mp_gcd

    def counting(f, g):
        nonlocal depth
        if not depth:
            calls.append((f, g))
        depth += 1
        try:
            return real(f, g)
        finally:
            depth -= 1

    scalar_layer.mp_gcd = counting
    try:
        yield calls
    finally:
        scalar_layer.mp_gcd = real


def _exchange_factor(par, delta, pi):
    """1 - (c0 pi/delta)^2, built as ``verify_braid_and_quadratic`` does."""
    q = par.c0 * par.rational(pi) / delta
    return par.one - q * q


@functools.cache
def _mixed_pool(group):
    """A field, values whose denominators are products of linear forms,
    and values whose denominators are all rest: 1/(k^2 + c0),
    (k + 1)/(k^2 - c0^2) and inverses of exchange factors."""
    par, diffs = _weight_differences(*group, count=3)
    k, c0, one = par.kappa, par.c0, par.one
    split = _factored_pool(par, diffs) + [
        par.zero, one, par.zeta(1), k, _exchange_factor(par, diffs[0], 2)]
    unsplit = [one / (k * k + c0), _oracle((k + one).num, (k * k - c0 * c0).num)]
    unsplit += [lead.inverse() for lead in
                (_exchange_factor(par, d, group[0]) for d in diffs) if lead]
    return par, split, unsplit


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 1, 4), (2, 1, 3), (3, 3, 3)]), st.data())
def test_products_with_one_unknown_split_match_the_gcd_path(group, data):
    par, split, unsplit = _mixed_pool(group)
    a, u = data.draw(st.sampled_from(split)), data.draw(st.sampled_from(unsplit))
    assert a.split.rest is None and u.split.rest.poly() == u.den
    with _top_gcd_calls() as calls:
        for x, y in ((a, u), (u, a)):
            calls.clear()
            got = x * y
            # only a's numerator meets u's rest by mp_gcd, and not when it
            # is a unit
            assert len(calls) <= (0 if a.num.is_constant() else 1)
            _assert_same(got, _oracle(x.num * y.num, x.den * y.den))
            _assert_same(got, _mul_by_gcds(x, y))
            _assert_split(got)
            # the product's rest is what is left of u's
            rest = got.split.rest
            assert rest is None or u.den.divexact(rest.poly()) is not None
        quotients = [(a, u)] + ([(u, a)] if a else [])
        for x, y in quotients:
            got = x / y
            _assert_same(got, _oracle(x.num * y.den, x.den * y.num))
            _assert_same(got, _mul_by_gcds(x, y.inverse()))
            _assert_split(got)


def test_a_product_whose_unknown_factor_cancels_comes_back_split():
    par, diffs = _weight_differences(2, 1, 3, count=2)
    k, c0, one = par.kappa, par.c0, par.one
    d, e = diffs
    u = _oracle((k + one).num, (k * k - c0 * c0).num)
    lead = _exchange_factor(par, d, 2)
    assert u.split.rest.poly() == u.den and not u.split.forms
    assert lead.inverse().split.rest.poly() == lead.inverse().den
    cases = [
        ((k - c0) * (k + c0) / d, u),     # all of u's denominator cancels
        ((k - c0) / d / e, u),            # a linear form k + c0 is left
        (lead, lead.inverse()),           # 1
        (lead * e / d, lead.inverse()),   # e/d
        ((k + c0) / (k - c0), u),         # k - c0 is left, and doubles
    ]
    with _top_gcd_calls() as calls:
        for a, b in cases:
            for x, y in ((a, b), (b, a)):
                calls.clear()
                got = x * y
                assert len(calls) <= 1
                _assert_split(got, forms_only=True)
                _assert_same(got, _oracle(x.num * y.num, x.den * y.den))
                _assert_same(got, _mul_by_gcds(x, y))
    assert (lead * lead.inverse()).split is scalar_layer._NO_SPLIT


# ---------------------------------------------------------------------------
# params.dot: sums of products over one common denominator
# ---------------------------------------------------------------------------


@functools.cache
def _dot_pool(group):
    """A field, its pool of values whose denominators are products of
    linear forms, and a value whose denominator is all rest."""
    par, diffs = _weight_differences(*group, count=3)
    d0, d1 = diffs[:2]
    pool = _factored_pool(par, diffs) + [
        par.zero, par.one, par.zeta(1), par.kappa, -(par.c0 + par.kappa),
        d0 * d1, par.one / d0 / d0 / d1, (d0 - d1) / d0 / d0]
    return par, pool, par.one / (par.kappa * par.kappa + par.c0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_dot_matches_the_pairwise_sum(data):
    par, pool, unknown = _dot_pool(
        data.draw(st.sampled_from([(1, 1, 4), (2, 1, 3), (3, 3, 3)])))
    value = st.sampled_from(pool)
    pairs = data.draw(st.lists(st.tuples(value, value), max_size=6))
    # cancel some products exactly: all of them gives a zero sum
    if pairs:
        pairs += [(-a, b) for a, b in
                  data.draw(st.lists(st.sampled_from(pairs), max_size=3))]
    has_unknown = data.draw(st.booleans())
    if has_unknown:
        pairs.append((data.draw(value), unknown))
    pairs = data.draw(st.permutations(pairs))
    got = par.dot(pairs)
    _assert_same(got, oracles.dot_pairwise(par, pairs))
    _assert_same(got, _oracle(got.num, got.den))  # reduced
    _assert_split(got, forms_only=not has_unknown)


def test_dot_meets_only_the_rests_by_gcd():
    # seven pairs over G(2,1)'s field, one with the rest k^2 + c0 and the
    # others with powers of k - 2 d1 and c0: the sum is formed over the lcm
    # of the forms and of the rests, so mp_gcd sees the rest alone, never
    # the expanded lcm of every denominator
    par, pool, unknown = _dot_pool((2, 1, 3))
    pairs = [(pool[10], pool[7]), (pool[21], pool[3]), (pool[0], pool[3]),
             (pool[20], pool[8]), (pool[7], pool[7]), (pool[21], unknown),
             (pool[18], pool[21])]
    with _top_gcd_calls() as calls:
        got = par.dot(pairs)
    assert calls and all(rest.degree() <= 2 for _, rest in calls)
    _assert_same(got, oracles.dot_pairwise(par, pairs))
    _assert_split(got)
    assert got.split.rest.poly() == unknown.den


def test_dot_cancels_without_gcd(gcd_calls):
    par = GenericParameters(2, 1)
    k, c0, one = par.kappa, par.c0, par.one
    f, g = k - c0, k + par.d(1)
    cases = [
        ([], par.zero),
        ([(one / f, f)], one),
        ([(k / f, one), (-c0 / f, one)], one),  # the sum sheds f
        ([(one / f / f, g), (one / f / g, f * g)], g / f / f + one),
        ([(one / f, g / f), (-g / f, one / f)], par.zero),
        ([(one / f / g, f), (one / g, one)], (one + one) / g),
    ]
    got = [par.dot(pairs) for pairs, _ in cases]
    assert gcd_calls == []
    for x, (pairs, want) in zip(got, cases, strict=True):
        _assert_split(x, forms_only=True)
        _assert_same(x, want)
        _assert_same(x, oracles.dot_pairwise(par, pairs))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 3)),
    st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 3))),
    max_size=6))
def test_specialized_dot_is_the_pairwise_sum(raw):
    par = SpecializedParameters(ParamPoint.make(4, 2, 1, Fraction(1, 2),
                                                [Fraction(1, 3)]))
    pairs = [tuple(Cyc.from_rational(4, a, b) * Cyc.root(4, k)
                   for a, b, k in pair) for pair in raw]
    assert par.dot(pairs) == oracles.dot_pairwise(par, pairs)


@st.composite
def _mpolys(draw, ring, max_terms=4):
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    coeffs = st.sampled_from([Cyc.from_rational(ring.r, v) for v in
                              (1, -1, 2, Fraction(-1, 3))]
                             + [Cyc.root(ring.r, 1)])
    return scalar_layer.MPoly(ring, draw(st.dictionaries(
        exps, coeffs, min_size=1, max_size=max_terms)))


@st.composite
def _linear_forms(draw, ring):
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=ring.nvars + 1,
                           max_size=ring.nvars + 1))
    if not any(coeffs[1:]):
        coeffs[1] = 1
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = tuple(int(j == i - 1) for j in range(ring.nvars))
            terms[e] = Cyc.from_rational(ring.r, c)
    return scalar_layer.MPoly(ring, terms).monic()


_DIV_RING = GenericParameters(3, 1).ring


def _form(f):
    """The interned factor of the monic linear form f (an MPoly)."""
    got, _, _ = scalar_layer._factor(f.ring, scalar_layer._ints(f)[0])
    assert got.poly() == f
    return got


def _div_linear(q, f):
    """q / f for MPoly values by ``scalars._div_linear`` on q's integer
    numerator and f's factor L x_v + g = L f, or None."""
    form = _form(f)
    num, den = scalar_layer._ints(q)
    quot = scalar_layer._div_linear(num, form)  # num = (L f) quot
    if quot is None:
        return None
    return scalar_layer._mpoly(q.ring, {e: c * form.plan[1]
                                        for e, c in quot.items()}, den)


def _times(p, forms):
    """p times the product of f^k for monic MPoly forms f by
    ``scalars._times`` on integers."""
    num, den = scalar_layer._ints(p)
    factors = {_form(f): k for f, k in forms.items()}
    got = scalar_layer._times(num, factors)
    for f, k in factors.items():
        den *= f.plan[1] ** k
    return scalar_layer._mpoly(p.ring, got, den)


def _product_outside_the_kernel(p, f):
    """p * f with each coefficient multiplied and summed as a
    ``FractionCyc``, so no ``Cyc`` kernel computes it."""
    out = {}
    for e, c in p.terms.items():
        for g, b in f.terms.items():
            t = tuple(map(sum, zip(e, g)))
            out[t] = out.get(t, 0) + (oracles.FractionCyc(c.r, (
                Fraction(a, c.den) for a in c.num)) * oracles.FractionCyc(
                b.r, (Fraction(a, b.den) for a in b.num)))
    return scalar_layer.MPoly(p.ring, {e: Cyc(p.ring.r, c.co)
                                       for e, c in out.items() if c})


def _non_rational_quotient_case():
    """(f, p, single) whose quotients have the coefficient (2 + zeta)/2,
    stored as the numerator (2, 1) over 2: gcd(2, 1, 2) = 1, but
    gcd(2, 2) = 2 does not divide 1."""
    one, c = Cyc.one(3), Cyc(3, [1, Fraction(1, 2)])
    x = [tuple(int(j == i) for j in range(_DIV_RING.nvars)) for i in range(2)]
    return (scalar_layer.MPoly(_DIV_RING, {x[0]: one, x[1]: one}),
            scalar_layer.MPoly(_DIV_RING, {x[0]: c, x[1]: one}),
            scalar_layer.MPoly(_DIV_RING, {x[1]: c}))


# derandomized, with a pinned case whose coefficients are not rational; the
# products divided are also formed outside the Cyc kernel, which would
# otherwise compute both sides of each comparison
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_linear_forms(_DIV_RING), _mpolys(_DIV_RING),
       _mpolys(_DIV_RING, max_terms=1))
@example(*_non_rational_quotient_case())
def test_div_linear_shortcuts_agree_with_synthetic_division(f, p, single):
    for q in (p, p * f, single, single * f, f):
        got = _div_linear(q, f)
        assert got == oracles.div_linear_synthetic(q, f)
        assert got == scalar_kernels.div_linear(q, f)
        assert got == q.divexact(f)
    for q in (p, single):
        product = _product_outside_the_kernel(q, f)
        assert product == q * f
        assert _div_linear(product, f) == q


def _times_by_products(p, forms):
    """p times the product of f^k for f, k in forms: the body of
    ``scalars._times`` before it read each form's plan."""
    for f, k in forms.items():
        for _ in range(k):
            p = p * f
    return p


@st.composite
def _times_cases(draw):
    """(p, forms): a polynomial and forms with powers, over G(r,1)'s ring."""
    ring = GenericParameters(draw(st.sampled_from([1, 3, 4])), 1).ring
    p = draw(_mpolys(ring))
    forms = {draw(_linear_forms(ring)): draw(st.integers(1, 3))
             for _ in range(draw(st.integers(1, 3)))}
    return p, forms


def _unequal_denominators_case():
    """-(k^2 + k c0)/3 times (k + c0/2)^2 at r = 1: its products add
    thirds to sixths and twelfths, whose sums must come back reduced."""
    ring = GenericParameters(1, 1).ring
    third = Cyc.from_rational(1, Fraction(-1, 3))
    p = scalar_layer.MPoly(ring, {(2, 0): third, (1, 1): third})
    form = scalar_layer.MPoly(ring, {(1, 0): Cyc.one(1),
                                     (0, 1): Cyc.from_rational(1, 2)}).monic()
    return p, {form: 2}


# derandomized, with a pinned case that adds unequal rational denominators:
# the phi(r) = 1 add is checked the same way in every run
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_times_cases())
@example(_unequal_denominators_case())
def test_times_by_plan_matches_repeated_products(case):
    p, forms = case
    ring = p.ring
    got = _times(p, forms)
    assert got == _times_by_products(p, forms)
    assert got == scalar_kernels.times(p, forms)
    assert all(c for c in got.terms.values())
    # the interned forms' plans serve a second call and a zero
    assert _times(p, forms) == got
    assert _times(ring.zero(), forms) == ring.zero()


def test_each_form_keeps_its_own_plan():
    par = GenericParameters(2, 1)
    f = (par.kappa + par.c0 * 2 + 1).num  # x_v = k, g = 2 c0 + 1
    g = (par.c0 + par.d(1)).num  # x_v = c0, g = d1
    form = _form(f)
    assert _form(f) is form  # interned, with the plan built once
    assert form.plan[:2] == (0, 1) and dict(form.plan[2]) == {
        (0, 1, 0, 0): 2, (0, 0, 0, 0): 1}
    # a plan answers for its own form only: dividing by g after f, and by f
    # after g, each reads the right one
    for a, b in ((f, g), (g, f), (f, f)):
        assert _div_linear(a * b, b) == a
        assert _div_linear(a * b, a) == b
        assert _times(a, {b: 2}) == a * b * b
    assert _form(g).plan == (1, 1, (((0, 0, 1, 0), 1),))


DIV_LINEAR_CASES = [
    # (numerator, form): single-variable forms, a form with a constant term
    ("k^2 - 1", "k + 1"), ("k^2 - 1", "k - 1"), ("k^3", "k"),
    ("c0^2*k - k", "c0 + 1"), ("k*c0 + c0", "k + 1"),
    # not divisible
    ("k^2 + 1", "k + 1"), ("c0", "k + 1"), ("k", "k + 1"), ("2", "k"),
    ("k*c0", "k + c0"), ("k^2*c0 + 1", "k"), ("c0^2 + k", "c0 + k"),
]


@pytest.mark.parametrize("num,form", DIV_LINEAR_CASES)
def test_div_linear_cases_match_synthetic_division(num, form):
    par = GenericParameters(2, 1)
    p = parse_scalar(num, par).num
    f = parse_scalar(f"1/({form})", par).den
    got = _div_linear(p, f)
    assert got == oracles.div_linear_synthetic(p, f) == p.divexact(f)
    assert got == scalar_kernels.div_linear(p, f)
    assert _div_linear(p * f, f) == p


# ---------------------------------------------------------------------------
# the per-field intern table and memos of polynomial values
# ---------------------------------------------------------------------------


class _NeverStores(dict):
    """A memo that forgets every entry, so each operation is computed."""

    def __setitem__(self, key, value):
        pass


class _CountingMemo(dict):
    """A memo that counts its stores, one per miss."""

    def __init__(self):
        super().__init__()
        self.stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


TABLES = scalar_layer.ParamRing.MEMOS


def _tables(ring):
    return [getattr(ring, name) for name in TABLES]


def _install_memos(monkeypatch, memo_type):
    """Give every ring built from now on a fresh ``memo_type`` for each of
    its tables, the intern table included; returns the list those rings
    are appended to."""
    rings = []
    init = scalar_layer.ParamRing.__init__

    def patched(self, *args):
        init(self, *args)
        for name in TABLES:
            setattr(self, name, memo_type())
        rings.append(self)

    monkeypatch.setattr(scalar_layer.ParamRing, "__init__", patched)
    return rings


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


MEMO_JOBS = [
    ["verify", "--group", "2,1,3", "--max-deg", "6", "--json"],
    ["verify", "--group", "3,1,2", "--max-deg", "6", "--json"],
    ["verify", "--group", "2,1,3", "--max-deg", "3", "--suite", "relations",
     "--inject-fault", "dunkl-sign", "--json"],
]


@pytest.mark.parametrize("argv", MEMO_JOBS,
                         ids=["verify-213", "verify-312", "dunkl-sign-213"])
def test_memo_free_runs_print_the_same_bytes(monkeypatch, argv):
    memoized = _run(argv)
    rings = _install_memos(monkeypatch, _NeverStores)
    assert _run(argv) == memoized
    assert rings and not any(any(_tables(ring)) for ring in rings)


def test_each_field_starts_cold():
    a = GenericParameters(2, 1)
    assert a.ring.sums == {} and a.ring.products == {}
    a.kappa * a.c0 + a.kappa
    assert len(a.ring.sums) == len(a.ring.products) == 1
    b = GenericParameters(2, 1)
    assert b.ring.sums == {} and b.ring.products == {}
    # the memos go with their field
    ring = a.ring
    del a
    assert ring.sums == {} and ring.products == {}


def test_a_field_dropped_at_interpreter_exit_empties_its_tables(monkeypatch):
    # at interpreter exit the module's globals may already be None
    a = GenericParameters(2, 1)
    a.kappa * a.c0 + a.kappa
    assert all(_tables(a.ring)[:2])
    monkeypatch.setattr(scalar_layer, "ParamRing", None)
    a.__del__()
    assert not any(_tables(a.ring))


def test_a_dropped_field_leaves_every_table_empty():
    a = GenericParameters(3, 1)
    x = (a.kappa - a.c0).cmul(Cyc.root(3, 1)) * a.d(1) + 2
    x / (a.c0 + a.d(2)) + a.kappa
    assert all(_tables(a.ring))
    ring = a.ring
    del a
    assert not any(_tables(ring))
    # a value that outlives its field still computes, and refills the tables
    assert x * x - x * x == 0 and ring.interned


def test_equal_polynomials_of_one_field_are_one_object():
    par = GenericParameters(3, 1)
    a, b, c = par.kappa + 1, par.c0.cmul(Cyc.root(3, 1)), par.d(1) - par.d(2)
    assert (a + b) * c is a * c + b * c
    assert a - b is -(b - a) is a + (-1) * b
    assert (a * b).cmul(Cyc.root(3, 2)) is a.cmul(Cyc.root(3, 2)) * b
    assert a - a is par.zero and (a - a) * c is par.zero
    # a polynomial reached through a fraction is the interned value too
    through = c * c / c
    assert through is c and through * 1 is c
    # a polynomial built outside the ring's arithmetic is not interned, but
    # meets the interned one in every memo
    ring = par.ring
    outside = RatFunc(a.num + b.num, ring.one())
    assert outside is not a + b and outside == a + b
    assert outside * c is (a + b) * c and -outside is -(a + b)
    assert outside.cmul(Cyc.root(3, 1)) is (a + b).cmul(Cyc.root(3, 1))
    assert hash(outside) == hash(a + b)


def test_a_zero_result_is_the_interned_zero():
    # a sum that cancels, a product with a zero operand and a scaling by a
    # zero Cyc, each on a fraction, the one path per operation that skips
    # the ring's memos
    par = GenericParameters(2, 1)
    a = par.kappa / par.c0
    assert a + (-a) is par.zero
    assert a * par.zero is par.zero and par.zero * a is par.zero
    assert a.cmul(Cyc.zero(2)) is par.zero


def test_the_id_of_a_dropped_operand_never_hits():
    # values built outside the ring's arithmetic are not interned; each
    # batch is dropped before the next is built, so their ids get reused
    par = GenericParameters(2, 1)
    ring = par.ring
    for lo in range(2, 200, 40):
        batch = [RatFunc(par.rational(v).num, ring.one())
                 for v in range(lo, lo + 40)]
        for v, x in enumerate(batch, start=lo):
            assert str(x * par.kappa + x) == f"{v}*k + {v}"
            assert str(-x) == str(x.cmul(Cyc.from_rational(2, -1))) == f"-{v}"
        del batch


def test_fractions_stay_out_of_the_tables():
    par = GenericParameters(2, 1)
    x = par.kappa / (par.c0 + par.d(1))
    # x - x is the field's interned zero, a polynomial: intern it first
    zero = par.zero
    sizes = [len(t) for t in _tables(par.ring)]
    for y in (x + x, x * x, -x, x.cmul(Cyc.root(2, 1)), x * par.kappa, x - x):
        assert y.split is not scalar_layer._NO_SPLIT or y is zero
    assert [len(t) for t in _tables(par.ring)] == sizes


def test_a_repeated_job_misses_as_often_as_the_first(monkeypatch):
    rings = _install_memos(monkeypatch, _CountingMemo)
    misses = []
    for _ in range(2):
        rings.clear()
        assert _run(MEMO_JOBS[1])[0] == 0
        misses.append([tuple(t.stores for t in _tables(ring))
                       for ring in rings])
    # one field for the operator suites, one for the intertwiners; every
    # table stores in at least one of them (the intertwiners' field makes
    # no scaling by a root of unity, since the Dunkl images need none)
    assert len(misses[0]) == 2
    assert all(any(stores) for stores in zip(*misses[0]))
    assert misses[0] == misses[1]


def test_values_of_two_fields_of_one_group_mix():
    a, b = GenericParameters(3, 1), GenericParameters(3, 1)
    assert a.ring is not b.ring and a.ring == b.ring
    assert a.kappa == b.kappa and hash(a.kappa) == hash(b.kappa)
    s = a.kappa / (a.c0 + a.d(1)) + b.c0 * b.d(2)
    t = b.c0 * b.d(2) + b.kappa / (b.c0 + b.d(1))
    assert s == t and s - t == a.zero
    assert a.kappa + b.c0 == b.kappa + a.c0 != a.kappa
    assert parse_scalar(str(s), a) == parse_scalar(str(s), b) == s
    # G(2,1) and G(4,2) name the same parameters over different fields
    other = GenericParameters(2, 1).kappa
    assert other.num != GenericParameters(4, 2).kappa.num
    with pytest.raises(ValueError, match="mixed parameter rings"):
        a.kappa + other


def test_memo_hits_keep_each_operation_apart():
    # a sum, a product and a difference of the same two interned operands
    # are three memo entries; a hit on one is never read by another
    par = GenericParameters(3, 1)
    k, c = par.kappa, par.c0
    s = k + c
    p = k * c
    assert s.num == k.num + c.num and p.num == k.num * c.num
    assert k * c is p and k + c is s and (k * c) + c is p + c
    assert c * k is p and c + k is s
    assert k - c != s and (k - c).num == k.num - c.num


def test_mixed_rings_raise_after_their_memos_are_warm():
    a, b = GenericParameters(3, 1), GenericParameters(2, 1)
    for x in (a.kappa, a.c0 + a.kappa, a.kappa / a.c0):
        for y in (b.kappa, b.c0 * b.c0, b.kappa / (b.c0 + 1)):
            assert x + x == x + x and y * y == y * y  # warm both rings
            for op in (operator.add, operator.mul, operator.sub):
                with pytest.raises(ValueError, match="mixed parameter rings"):
                    op(x, y)
                with pytest.raises(ValueError, match="mixed parameter rings"):
                    op(y, x)


def test_dot_of_polynomials_returns_the_interned_value():
    par = GenericParameters(2, 1)
    k, c, one = par.kappa, par.c0, par.one
    got = par.dot([(k, c), (one, k), (c, c)])
    assert got is par.ring.intern(got.n, got.k)
    assert got is k * c + k + c * c
    # a sum of fractions over one denominator that cancels to a polynomial
    den = k - c
    a, b = (k * k) / den, (-(c * c)) / den
    assert a.den == b.den and not a.den.is_one()
    total = a + b
    assert total is k + c
    assert par.dot([(k, one / den), (-c, one / den)]) is one
