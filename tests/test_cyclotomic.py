"""Exact cyclotomic arithmetic, with a numerical shadow on every identity."""

import operator
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import Cyc, Q, cyclotomic_polynomial, euler_phi
from cherednik.cyclotomic import _ctx, _cyc
from cherednik.parsing import parse_cyc
from oracles import FractionCyc

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def shadow_eq(a: Cyc, b, tol=1e-9):
    """Exact equality plus the numerical embedding zeta -> e^{2 pi i/r}."""
    if not isinstance(b, Cyc):
        b = Cyc.from_rational(a.r, b)
    assert a == b
    assert abs(complex(a) - complex(b)) < tol
    return True


def test_cyclotomic_polynomials():
    for r, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(r) == coeffs
        assert euler_phi(r) == len(coeffs) - 1


def test_root_of_unity_relations():
    assert shadow_eq(Cyc.root(4, 4), 1)
    assert shadow_eq(Cyc.root(2, 1), -1)
    # products of conjugate roots, checked numerically to 12 digits
    prod = Cyc.root(4, 1) * Cyc.root(4, 3)
    assert shadow_eq(prod, 1, tol=1e-12)
    expr = (1 + Cyc.root(4, 1)) * (1 + Cyc.root(4, 3))
    assert shadow_eq(expr, 2, tol=1e-12)


def test_periodicity():
    for r in (1, 2, 3, 4, 6, 8):
        for k in range(-2 * r, 2 * r):
            assert Cyc.root(r, k) == Cyc.root(r, k + r)


def test_power_sums_vanish():
    for r in (2, 3, 4, 5, 6):
        total = Cyc.zero(r)
        for k in range(r):
            total = total + Cyc.root(r, k)
        assert shadow_eq(total, 0)


@st.composite
def cyc_values(draw, r):
    phi = euler_phi(r)
    co = [Q(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
          for _ in range(phi)]
    return Cyc(r, co)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8]), st.data())
def test_field_axioms(r, data):
    a = data.draw(cyc_values(r))
    b = data.draw(cyc_values(r))
    c = data.draw(cyc_values(r))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a:
        assert shadow_eq(a * a.inverse(), 1)
        assert a / a == Cyc.one(r)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(4).inverse()


def test_mixed_order_rejected():
    with pytest.raises(ValueError):
        Cyc.root(4, 1) + Cyc.root(3, 1)


def test_rational_predicates():
    v = Cyc.from_rational(4, 3, 2)
    assert v.is_rational() and v.rational_value() == Q(3, 2)
    assert not Cyc.root(4, 1).is_rational()
    with pytest.raises(ValueError):
        Cyc.root(4, 1).rational_value()


def test_str_parse_roundtrip():
    rng = random.Random(1)
    for _ in range(60):
        r = rng.choice([1, 2, 3, 4, 6, 8])
        phi = euler_phi(r)
        v = Cyc(r, [Q(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(phi)])
        assert parse_cyc(str(v), r) == v
    assert parse_cyc("z^2 - 1/2", 8) \
        == Cyc.root(8, 2) - Cyc.from_rational(8, 1, 2)


@pytest.mark.parametrize("r, co, error", [
    (4, [1], ValueError),
    (3, [1, 0, 0], ValueError),
    (1, [], ValueError),
    (2, [0.5], TypeError),
    (3, ["1", 0], TypeError),
    (4, [1, None], TypeError),
])
def test_malformed_coordinates_rejected(r, co, error):
    with pytest.raises(error):
        Cyc(r, co)


def test_equal_values_from_different_routes():
    routes = [Cyc(3, [Q(2, 4), 0]), Cyc.from_rational(3, 1, 2),
              Cyc.one(3) / 2, Cyc(3, [Q(1, 3), 0]) + Q(1, 6),
              Cyc(3, [Q(1, 3), Q(1, 3)]) - Cyc(3, [Q(-1, 6), Q(1, 3)]),
              2 * Cyc.from_rational(3, 1, 4)]
    for v in routes:
        assert v == routes[0] and hash(v) == hash(routes[0])
        assert v.den == 2 and v.rational_value() == Q(1, 2)
    assert Cyc(3, [Q(1, 3), 0]) + Cyc(3, [Q(2, 3), 0]) == Cyc.one(3)
    assert (Cyc(3, [Q(1, 3), 0]) + Cyc(3, [Q(2, 3), 0])).den == 1
    assert Cyc(4, [Q(1, 2), Q(3, 2)]) * 2 == Cyc(4, [1, 3])
    assert Cyc(2, [Q(2, 3)]).inverse() == Cyc(2, [Q(3, 2)])
    assert Cyc(2, [Q(-2, 3)]).inverse() == Cyc(2, [Q(-3, 2)])


DIFF_ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12]


@st.composite
def coordinates(draw, r):
    """Rational coordinates, integral or with small denominators that
    often cancel in sums and products."""
    return [Q(draw(st.integers(-8, 8)), draw(st.sampled_from([1, 1, 2, 3, 4, 6])))
            for _ in range(euler_phi(r))]


def agrees(v: Cyc, f: FractionCyc) -> bool:
    """v and the oracle value f are the same number, and v is canonical."""
    assert all(type(a) is int for a in v.num) and v.den > 0
    assert gcd(v.den, *v.num) == 1
    assert tuple(Q(a, v.den) for a in v.num) == f.co
    assert str(v) == str(f) and repr(v) == repr(f)
    assert complex(v) == complex(f)
    assert bool(v) == bool(f) and v.is_rational() == f.is_rational()
    if f.is_rational():
        assert v.rational_value() == f.rational_value()
        assert type(v.rational_value()) is Q
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(DIFF_ORDERS), st.data())
def test_matches_fraction_oracle(r, data):
    ca, cb = data.draw(coordinates(r)), data.draw(coordinates(r))
    q = Q(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))
    m = data.draw(st.integers(-4, 4))
    n = data.draw(st.integers(-3, 4))
    a, b = Cyc(r, ca), Cyc(r, cb)
    fa, fb = FractionCyc(r, ca), FractionCyc(r, cb)
    assert agrees(a, fa) and agrees(b, fb)
    pairs = [(a + b, fa + fb), (a - b, fa - fb), (-a, -fa), (a * b, fa * fb),
             (a + q, fa + q), (q - a, q - fa), (q * a, q * fa),
             (m + a, m + fa), (a - m, fa - m), (a * m, fa * m),
             (a * a, fa * fa), (a - a, fa - fa)]
    if b:
        pairs += [(a / b, fa / fb), (b.inverse(), fb.inverse())]
    if a:
        pairs += [(q / a, q / fa), (m / a, m / fa), (a ** n, fa ** n)]
    elif n >= 0:
        pairs.append((a ** n, fa ** n))
    for v, f in pairs:
        assert agrees(v, f)
        assert parse_cyc(str(v), r) == v
    assert (a == b) == (fa == fb)
    assert (a == q) == (fa == q) and (a == m) == (fa == m)
    if a == b:
        assert hash(a) == hash(b)


# -- the kernel's branches, each against the FractionCyc oracle --------------


def test_equal_denominators_cancel_to_integers():
    half = Cyc(3, [Q(1, 2), 0])
    a = Cyc(4, [Q(1, 6), Q(-5, 6)])
    fa = FractionCyc(4, [Q(1, 6), Q(-5, 6)])
    fhalf = FractionCyc(3, [Q(1, 2), 0])
    cases = [(half + half, fhalf + fhalf), (a - a, fa - fa),
             (a + (-a), fa + (-fa)),
             (Cyc(4, [Q(1, 6), Q(1, 6)]) + Cyc(4, [Q(5, 6), Q(-1, 6)]),
              FractionCyc(4, [1, 0]))]
    for v, f in cases:
        assert agrees(v, f) and v.den == 1
    assert half + half == 1
    # equal denominators that cancel only in part
    b = Cyc(4, [Q(1, 6), Q(1, 6)]) + Cyc(4, [Q(1, 6), Q(1, 6)])
    assert agrees(b, FractionCyc(4, [Q(1, 3), Q(1, 3)])) and b.den == 3


PHI2_VALUES = [[0, 0], [1, 0], [0, 1], [Q(1, 2), 0], [0, Q(-3, 4)],
               [Q(2, 3), Q(-1, 6)], [-5, 7], [Q(7, 2), Q(7, 4)]]


@pytest.mark.parametrize("r", [3, 4, 6])
def test_phi_2_products_match_the_oracle(r):
    assert euler_phi(r) == 2
    for ca in PHI2_VALUES:
        for cb in PHI2_VALUES:
            v = Cyc(r, ca) * Cyc(r, cb)
            assert agrees(v, FractionCyc(r, ca) * FractionCyc(r, cb))
            assert v == Cyc(r, cb) * Cyc(r, ca)
            assert (Cyc(r, ca) * 0).num == (0, 0)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8])
def test_roots_are_shared(r):
    for k in range(-r, 2 * r):
        z = Cyc.root(r, k)
        assert z is Cyc.root(r, k + r) and z is Cyc.root(r, k % r)
        assert agrees(z, FractionCyc.root(r, k))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_operations_leave_shared_roots_unchanged(r):
    roots = [Cyc.root(r, k) for k in range(r)]
    before = [(z.r, z.num, z.den) for z in roots]
    other = Cyc(r, [Q(k + 1, 2) for k in range(euler_phi(r))])
    for z in roots:
        for w in (other, Q(1, 3), 2, z):
            _ = (z + w, w + z, z - w, w - z, z * w, w * z, z / w, w / z)
        _ = (-z, z ** 3, z ** -2, z.inverse(), z.cmul(other), z == other)
    assert [(z.r, z.num, z.den) for z in roots] == before
    assert all(Cyc.root(r, k) is z for k, z in enumerate(roots))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.eq])
def test_mixed_orders_raise_from_every_operation(op):
    a, b = Cyc.root(4, 1), Cyc.root(3, 1)
    for x, y in ((a, b), (b, a), (Cyc.one(6), Cyc.one(3))):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            op(x, y)



# -- the phi(r) <= 2 paths, built in place, against the bodies they replace -


def _general_add(a: Cyc, b: Cyc) -> Cyc:
    """Cyc.__add__ before phi(r) <= 2 built its result in place."""
    da, db = a.den, b.den
    if da == db:
        return _cyc(a.r, tuple(map(operator.add, a.num, b.num)), da)
    return _cyc(a.r, tuple([x * db + y * da for x, y in zip(a.num, b.num)]),
                da * db)


def _general_sub(a: Cyc, b: Cyc) -> Cyc:
    """Cyc.__sub__ before phi(r) <= 2 built its result in place."""
    da, db = a.den, b.den
    if da == db:
        return _cyc(a.r, tuple(map(operator.sub, a.num, b.num)), da)
    return _cyc(a.r, tuple([x * db - y * da for x, y in zip(a.num, b.num)]),
                da * db)


def _general_mul(a: Cyc, b: Cyc) -> Cyc:
    """Cyc.__mul__ at phi(r) <= 2 before it built its result in place."""
    if len(a.num) == 1:
        return _cyc(a.r, (a.num[0] * b.num[0],), a.den * b.den)
    (a0, a1), (b0, b1) = a.num, b.num
    top = a1 * b1
    f0, f1 = _ctx(a.r)[1][2]
    return _cyc(a.r, (a0 * b0 + top * f0, a0 * b1 + a1 * b0 + top * f1),
                a.den * b.den)


def _num_den(f: FractionCyc) -> tuple[tuple[int, ...], int]:
    """The oracle value as (num, den) in the canonical form of Cyc."""
    den = lcm(*(c.denominator for c in f.co))
    return tuple(int(c * den) for c in f.co), den


IN_PLACE_COORDS = [Q(0), Q(1), Q(-3), Q(1, 2), Q(-1, 2), Q(5, 6), Q(-7, 6),
                   Q(2, 3), Q(-4, 9)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8])
def test_in_place_kernels_match_the_oracles_exactly(r):
    """Sums, differences and products, rational and not, with zero results,
    negative numerators and equal and unequal denominators."""
    phi = euler_phi(r)
    coords = [[q] + [0] * (phi - 1) for q in IN_PLACE_COORDS]
    if phi > 1:
        coords += [[Q(1, 2)] * phi, [-2] + [Q(-1, 3)] * (phi - 1),
                   [0] * (phi - 1) + [Q(-5, 6)]]
    values = [Cyc(r, co) for co in coords]
    ops = [(operator.add, _general_add), (operator.sub, _general_sub),
           (operator.mul, _general_mul)]
    for a in values:
        for b in values + [-a]:
            for op, general in ops:
                got = op(a, b)
                assert (got.num, got.den) == \
                    _num_den(op(FractionCyc(r, a._coordinates()),
                                FractionCyc(r, b._coordinates())))
                if phi <= 2:
                    want = general(a, b)
                    assert (got.num, got.den) == (want.num, want.den)
    # a zero result is 0/1
    half = values[3]
    assert (half - half).num == (0,) * phi and (half - half).den == 1
    assert (values[4] + half).num == (0,) * phi and (values[4] + half).den == 1
