"""The integer kernels of the generic field against the ``Cyc``-coefficient
kernels they replaced (``tests/scalar_kernels.py``) and against pairwise
``+`` and ``*`` through the gcd path, on drawn values of every field with
r in {1, 2, 3, 4, 6}: nonzero zeta coordinates, linear factors with a
root-of-unity coordinate (rests, like those of degree 2 or more), zero and
full cancellation.  Every result is in normal form and prints as the
oracle's value does."""

import contextlib
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_kernels
from cherednik import Cyc, GenericParameters, PolyRep, RatFunc
from cherednik import cyclotomic
from cherednik import scalars as scalar_layer
from cherednik.jack import jack_by_intertwiners, jack_by_solve
from cherednik.parsing import parse_scalar
from test_scalars import _assert_split, _top_gcd_calls

FIELDS = [(r, p) for r in (1, 2, 3, 4, 6) for p in range(1, r + 1)
          if r % p == 0]


@functools.cache
def _pool(r, p):
    """A field and its values: polynomials with zeta coordinates, quotients
    by rational forms (one with lead 2), by linear factors with a
    root-of-unity coordinate (lead 1 and lead 2), by rests, and values that
    cancel."""
    par = GenericParameters(r, p)
    k, c0, one, z = par.kappa, par.c0, par.one, par.zeta(1)
    d = par.d(1) if r // p > 1 else par.rational(3)
    f, g, h = k - c0, 2 * k + 3 * c0, k + 1
    u, w = k + z * c0, 2 * k + (1 + z) * c0  # rational only when z is
    rest, zrest = k * k + c0, k * k - z * c0 * d
    pool = [par.zero, one, z, k + z, c0 * d - par.rational(1, 2), f * g,
            one / f, c0 / (f * f), (k + z) / (f * g), d / h, one / g,
            z / u, (c0 - z) / (u * w), k / w, one / (w * w),
            one / rest, (k - z) / zrest, (f + one) / (rest * g),
            f / f, (u * g) / (g * u), -one / f]
    return par, pool


def _values(data, group=None):
    r, p = group or data.draw(st.sampled_from(FIELDS))
    par, pool = _pool(r, p)
    value = st.sampled_from(pool)
    return par, value


def _assert_same(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    assert str(got) == str(want)


def _assert_parts(got, want: tuple):
    """got has the numerator, linear forms and rest of the oracle's
    (num, forms, rest), and is in normal form."""
    num, forms, rest = want
    _assert_split(got)
    assert got.num == num
    assert got.den == scalar_kernels.den(forms, rest, got.ring)
    assert scalar_kernels.parts(got)[1:] == (forms, rest)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_sums_and_products_match_the_cyc_kernels(data):
    par, value = _values(data)
    a, b = data.draw(value), data.draw(value)
    ring = par.ring
    pa, pb = scalar_kernels.parts(a), scalar_kernels.parts(b)
    total = a + b
    _assert_parts(total, scalar_kernels.lcm_sum([pa, pb], ring))
    _assert_same(total, RatFunc(a.num * b.den + b.num * a.den,
                                a.den * b.den))
    product = a * b
    _assert_parts(product, scalar_kernels.mul_split(pa, pb))
    _assert_same(product, RatFunc(a.num * b.num, a.den * b.den))
    # full cancellation comes back as the interned zero and one
    assert a - a is par.zero
    if a:
        assert a / a is par.one
        _assert_same(b / a, RatFunc(b.num * a.den, b.den * a.num))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_dot_matches_the_cyc_kernel_and_the_pairwise_sum(data):
    par, value = _values(data)
    pairs = data.draw(st.lists(st.tuples(value, value), max_size=3))
    if pairs and data.draw(st.booleans()):  # cancel some products exactly
        pairs += [(-a, b) for a, b in pairs[:data.draw(st.integers(1, 3))]]
    got = par.dot(pairs)
    want = par.zero
    for a, b in pairs:
        want = want + a * b
    _assert_same(got, want)
    terms = []
    for a, b in pairs:
        (na, fa, ra), (nb, fb, rb) = (scalar_kernels.parts(x) for x in (a, b))
        rest = rb if ra is None else ra if rb is None else ra * rb
        terms.append((na * nb, scalar_kernels.adjust(fa, fb, {}), rest))
    if not got:
        assert got is par.zero
        return
    _assert_parts(got, scalar_kernels.lcm_sum(terms, par.ring))


@pytest.mark.parametrize("r,p", FIELDS)
def test_trial_division_and_products_by_forms_match_the_cyc_kernels(r, p):
    par, pool = _pool(r, p)
    ring = par.ring
    forms = {}
    for x in pool:
        forms.update(x.split.forms)
    assert forms
    for x in pool:
        num, den = scalar_layer._ints(x.num)
        for f in forms:
            for m in (1, 2):
                prod = scalar_layer._times(num, {f: m})
                assert scalar_layer._mpoly(ring, prod, den * f.plan[1] ** m) \
                    == scalar_kernels.times(x.num, {f.poly(): m})
                quot, off = scalar_layer._strip(prod, {f: m + 1}, {})
                want = scalar_kernels.strip(scalar_kernels.times(
                    x.num, {f.poly(): m}), {f.poly(): m + 1}, {})
                # prod = quot F^t, F = L f
                t, lead = off.get(f, 0), f.plan[1]
                assert {g.poly(): k for g, k in off.items()} == want[1]
                assert scalar_layer._mpoly(
                    ring, {e: c * lead ** t for e, c in quot.items()},
                    den * lead ** m) == want[0]
            if x:
                q = scalar_layer._div_linear(num, f)
                want = scalar_kernels.div_linear(x.num, f.poly())
                assert (q is None) == (want is None)


def test_forms_with_a_root_of_unity_coordinate_take_no_shortcut():
    # only a linear factor with rational coordinates is a form with a plan,
    # so Gauss's lemma's exit in _div_linear holds for every form; a linear
    # factor with a root-of-unity coordinate is a rest and meets mp_gcd
    par, _ = _pool(4, 4)  # variables k, c0, then zeta's slot
    ring = par.ring
    k, c0, z = par.kappa, par.c0, par.zeta(1)
    u = 2 * k + (1 + z) * c0
    inv = u.inverse()
    f = inv.split.rest
    assert not inv.split.forms and f.plan is None
    assert f.terms == {(1, 0, 0): 2, (0, 1, 0): 1, (0, 1, 1): 1}
    # f divides f q with q = ((1 - z) k + 1)/2, though the integer
    # numerator meets a coordinate that 2 does not divide, where the exit
    # would stop: the rest sheds it by one gcd
    q = ((1 - z) * k + 1) / 2
    with _top_gcd_calls() as calls:
        got = (u * q) * inv
    assert got == q and got.split is scalar_layer._NO_SPLIT
    assert [rest for _, rest in calls] == [f.poly()]
    assert RatFunc((u * q).num, u.num) == q
    # a unit multiple of a rational form is that form, with its plan
    form = scalar_layer._factor(ring, scalar_layer._ints((k + c0).num)[0])[0]
    assert form.plan is not None
    assert scalar_layer._factor(
        ring, scalar_layer._ints((z * (k + c0)).num)[0])[0] is form
    # the rational form 2k + 3c0 stops at the first coordinate 2 does not
    # divide
    g, = (one := par.one / (2 * k + 3 * c0)).split.forms
    assert g.plan[1] == 2 and one.k == 1
    assert scalar_layer._div_linear({(1, 0, 0): 1}, g) is None
    # every form of every pool is rational, and no rest is a rational form
    for r, p in FIELDS:
        for x in _pool(r, p)[1]:
            _assert_split(x)


# the text each value printed when a linear factor with a root-of-unity
# coordinate was still a form: the same for r = 3 and r = 4, except the
# last denominator, where z^2 = -1 - z or -1
_ROOT_OF_UNITY_TEXT = {
    3: ("(1)/(k + z*c0)", "(k^2 + (-1 + z)*k*c0 - z*c0^2)/(c0 + 2)",
        "(k - c0)/(c0 + 2)", "(k + 1)/(k^2 + (2*z)*k*c0 + (-1 - z)*c0^2)"),
    4: ("(1)/(k + z*c0)", "(k^2 + (-1 + z)*k*c0 - z*c0^2)/(c0 + 2)",
        "(k - c0)/(c0 + 2)", "(k + 1)/(k^2 + (2*z)*k*c0 - c0^2)"),
}


@pytest.mark.parametrize("r", [3, 4])
def test_a_linear_rest_with_a_root_of_unity_coordinate_matches_the_gcd_path(r):
    par = GenericParameters(r, 1)
    k, c0, z, one = par.kappa, par.c0, par.zeta(1), par.one
    u = k + z * c0
    inv = one / u
    assert inv.split.rest.poly() == u.num and not inv.split.forms
    x = u * (k - c0) / (c0 + 2)
    got = [inv, x, inv * x, inv * inv * (k + one)]
    assert got[2].split.rest is None  # u cancels
    want = [RatFunc(one.num, u.num), RatFunc((u * (k - c0)).num, (c0 + 2).num),
            RatFunc((u * (k - c0)).num, (u * (c0 + 2)).num),
            RatFunc((k + one).num, (u * u).num)]
    point = scalar_layer.ParamPoint.make(
        r, 1, 3, Fraction(1, 2), [Fraction(j, 5) for j in range(1, r)])
    kv, cv, zv = point.kappa, point.c0, Cyc.root(r, 1)
    uv = kv + zv * cv
    at = [1 / uv, uv * (kv - cv) / (cv + 2), (kv - cv) / (cv + 2),
          (kv + 1) / (uv * uv)]
    for v, w, text, value in zip(got, want, _ROOT_OF_UNITY_TEXT[r], at,
                                 strict=True):
        _assert_split(v)
        _assert_same(v, w)
        assert str(v) == text
        assert parse_scalar(text, par) == v
        assert scalar_layer.specialize(v, point) == value
        assert scalar_layer.specialize(w, point) == value


@contextlib.contextmanager
def _cyc_arithmetic():
    """Count the calls of Cyc's +, - and * (and their reflected forms)."""
    calls = []
    saved = {}
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        real = saved[name] = cyclotomic.Cyc.__dict__[name]

        def spy(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        setattr(cyclotomic.Cyc, name, spy)
    try:
        yield calls
    finally:
        for name, real in saved.items():
            setattr(cyclotomic.Cyc, name, real)


@pytest.mark.parametrize("r,p,mu", [(1, 1, (2, 2, 0, 4)),
                                    (3, 3, (6, 1, 5, 0))])
def test_generic_jack_makes_no_cyc_arithmetic_before_rendering(r, p, mu):
    with _cyc_arithmetic() as calls:
        rep = PolyRep(r, p, len(mu), GenericParameters(r, p))
        solved = jack_by_solve(rep, mu)
        built = jack_by_intertwiners(rep, mu)
        assert built.poly == solved.poly and built.weight == solved.weight
    assert calls == []
    assert Cyc.root(r, 1) * Cyc.one(r) == Cyc.root(r, 1)  # spies removed
