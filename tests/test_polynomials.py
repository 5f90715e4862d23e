"""Sparse polynomials, divided differences and the operator layer."""

import gc
import random
import sys
import weakref
from fractions import Fraction
from math import comb

import pytest

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from oracles import (
    act_on_poly_accumulating, apply_by_monomials_per_term, apply_y_monomial,
    check_relations_per_monomial,
    class_sum, commutator_failure_by_difference, dd_per_term,
    dd_y_mono_per_term, dunkl_mono_accumulating, dunkl_mono_per_term,
    oracle_dunkl,
    oracle_z, phi_class_sum, poly_divexact, x_side_commutator_defect,
    x_side_defects_per_reflection, yx_commutator_defect_explicit,
)

from cherednik import (
    Cyc, GenericParameters, GroupElement, ParamPoint, Poly, PolyRep,
    SpecializedParameters, act_on_poly, group_elements, order_lt, weight_of,
)
from cherednik import operators
from cherednik.cli import main
from cherednik.operators import monomials_of_degree, monomials_up_to
from cherednik.parsing import parse_poly, poly_from_json
from cherednik.reptheory import gordon_point


def random_poly(rng, rep, deg=3, nterms=4):
    par = rep.params
    out = Poly.zero(rep.n)
    for _ in range(nterms):
        mu = tuple(rng.randint(0, deg) for _ in range(rep.n))
        out = out + Poly.monomial(mu, par.rational(rng.randint(-4, 4)))
    return out


def test_poly_arithmetic_canonical():
    par = GenericParameters(2, 1)
    a = Poly.monomial((1, 0), par.one)
    b = Poly.monomial((0, 1), par.one)
    assert (a + b) - b == a
    assert (a - a).is_zero() and not (a - a).terms
    assert (a + b) * (a - b) == a * a - b * b
    assert a.scaled(par.zero).is_zero()
    assert (a + b).degree() == 1 and (a * b).degree() == 2


def test_from_terms_drops_cancelling_terms():
    par = GenericParameters(2, 1)
    one = par.one
    f = Poly.from_terms(2, [((1, 0), one), ((0, 1), one), ((1, 0), -one),
                            ((0, 1), -one)])
    assert f == Poly.zero(2) and not f.terms
    g = Poly.from_terms(2, [((1, 0), one), ((1, 0), -one), ((0, 1), one)])
    assert g.terms == {(0, 1): one}


def test_str_and_json_roundtrip():
    rng = random.Random(5)
    for (r, p, n) in [(2, 1, 2), (3, 1, 3)]:
        rep = PolyRep(r, p, n)
        par = rep.params
        for _ in range(20):
            f = random_poly(rng, rep)
            f = f + Poly.monomial((0,) * n, par.c0 - par.kappa)
            assert parse_poly(str(f), n, par) == f
            assert poly_from_json(f.to_json(), par) == f
    # specialized coefficients round-trip too
    rep = PolyRep(2, 1, 2, SpecializedParameters(gordon_point(2, 1, 2)))
    f = Poly.monomial((2, 1), rep.params.rational(-5, 4)) \
        + Poly.monomial((0, 0), rep.params.one)
    assert parse_poly(str(f), 2, rep.params) == f


def test_divided_difference_on_root_is_pairing():
    # (alpha - s alpha)/alpha = <alpha, alpha_check>, a scalar
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        par = rep.params
        for s in rep.reflections:
            alpha_poly = Poly(
                n, {tuple(1 if t == m else 0 for t in range(n)):
                    par.embed(v) for m, v in enumerate(s.alpha) if v})
            dd = rep.divided_difference(alpha_poly, s)
            val = None  # <alpha, alpha_check> over the coordinate pairing
            for a, b in zip(s.alpha, s.alpha_check):
                term = a * b
                val = term if val is None else val + term
            assert dd == Poly.monomial((0,) * n, par.embed(val))


def test_divided_difference_invariant_and_cubes():
    rep = PolyRep(2, 1, 2)
    par = rep.params
    s12 = next(s for s in rep.reflections
               if s.kind == "transposition" and s.l == 0)
    sym = Poly.monomial((1, 1), par.one) + Poly.monomial((2, 2), par.c0)
    assert rep.divided_difference(sym, s12).is_zero()
    cube = Poly.monomial((3, 0), par.one)
    expected = Poly.from_terms(2, [((2, 0), par.one), ((1, 1), par.one),
                                   ((0, 2), par.one)])
    assert rep.divided_difference(cube, s12) == expected


def test_divided_difference_is_exact_division():
    # (f - sf) equals alpha_s * divided_difference(f, s), via long division
    rng = random.Random(13)
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (4, 2, 3)]:
        rep = PolyRep(r, p, n)
        par = rep.params
        for s in rep.reflections:
            alpha_poly = Poly(
                n, {tuple(1 if t == m else 0 for t in range(n)):
                    par.embed(v) for m, v in enumerate(s.alpha) if v})
            for _ in range(5):
                f = random_poly(rng, rep)
                diff = f - rep.t(s.element, f)
                assert alpha_poly * rep.divided_difference(f, s) == diff
                quot = poly_divexact(diff, alpha_poly)
                assert quot == rep.divided_difference(f, s)


def test_dunkl_basics():
    rep = PolyRep(2, 1, 2)
    assert rep.dunkl(0, rep.one()).is_zero()
    # rank one: y.x = kappa - (d_0 - d_{-1})
    rep1 = PolyRep(2, 1, 1)
    got = rep1.dunkl(0, rep1.x_poly(0))
    par1 = rep1.params
    expected = Poly.monomial((0,), par1.kappa - (par1.d(0) - par1.d(-1)))
    assert got == expected
    # symmetric-group degeneration: y_1 x_1 . 1 = kappa - c0
    repA = PolyRep(1, 1, 2)
    pA = repA.params
    assert repA.dunkl(0, repA.x_poly(0)) \
        == Poly.monomial((0, 0), pA.kappa - pA.c0)


def test_dunkl_matches_literal_reflection_sum():
    rng = random.Random(17)
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (4, 2, 2), (3, 3, 3)]:
        rep = PolyRep(r, p, n)
        for _ in range(4):
            f = random_poly(rng, rep, deg=3, nterms=3)
            for i in range(n):
                assert rep.dunkl(i, f) == oracle_dunkl(rep, i, f)


# G(4,1,2) and G(6,2,2) have diagonal reflections with l e = 0 mod r for a
# residue e != 0, where the divided difference of x_i^e vanishes; G(2,2,3),
# G(6,3,2) and G(4,4,3) have p > 1 (G(4,4,3) no diagonal reflection), and
# G(5,1,2) an r with phi(r) > 2
TABLE_GROUPS = [(1, 1, 3), (2, 1, 2), (3, 1, 2), (4, 1, 2), (6, 2, 2),
                (3, 3, 3), (2, 2, 3), (5, 1, 2), (6, 3, 2), (4, 4, 3)]


def table_params(r, p, n, point):
    if point == "generic":
        return GenericParameters(r, p)
    if point == "gordon" and r == 1:
        # gordon_point needs r > 1; the Coxeter number of S_n is n
        c = Fraction(n + 1, n)
        return SpecializedParameters(ParamPoint.from_c(1, 1, 1, c))
    if point == "gordon":
        return SpecializedParameters(gordon_point(r, p, n))
    if point == "cancel":
        # kappa = 1 and every c_l = 0 put z-eigenvalue 1 on x^{mu - e_i}
        # for mu_i = 1, and the one -r c0 of a slot mu_j = 0 cancels it
        return SpecializedParameters(ParamPoint.from_c(
            r, p, 1, Fraction(1, r), [0] * (r // p - 1)))
    cdiag = [Fraction(t + 2, 2 * t + 5) for t in range(1, r // p)]
    c0 = 0 if point == "c0=0" else Fraction(1, 3)
    return SpecializedParameters(ParamPoint.from_c(
        r, p, Fraction(3, 2), c0, cdiag))


# the Gordon point of G(2,1,1) puts a zero z-eigenvalue on y x^3, so the
# image of x^3 is 0; "c0=0" makes every pair term vanish and "cancel" the
# diagonal sum (see table_params)
@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("point", ["generic", "gordon", "other", "c0=0",
                                   "cancel"])
@pytest.mark.parametrize("r,p,n", TABLE_GROUPS + [(2, 1, 1), (3, 1, 1),
                                                  (4, 2, 1)])
def test_dunkl_mono_matches_per_term_oracle(r, p, n, point, fault):
    rep = PolyRep(r, p, n, table_params(r, p, n, point),
                  fault_dunkl_sign=fault)
    for mu in monomials_up_to(n, 6 if n <= 2 else 4):
        for i in range(n):
            got = rep._dunkl_mono(i, mu)
            assert all(got.terms.values()), (i, mu)  # no stored zero
            assert got == dunkl_mono_per_term(rep, i, mu, fault), (i, mu)
            assert got == dunkl_mono_accumulating(rep, i, mu), (i, mu)


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("point", ["generic", "gordon", "other", "c0=0",
                                   "cancel"])
@pytest.mark.parametrize("r,p,n", TABLE_GROUPS + [(2, 1, 1), (3, 1, 1),
                                                  (4, 2, 1)])
def test_one_pass_dunkl_matches_the_memoized_path(r, p, n, point, fault):
    # dunkl_once adds each product straight into one dict; the oracle is
    # the memoized path, one image per monomial extended linearly.  The
    # coefficients include params.one, which takes no product
    params = table_params(r, p, n, point)
    rep = PolyRep(r, p, n, params, fault_dunkl_sign=fault)
    oracle = PolyRep(r, p, n, params, fault_dunkl_sign=fault)

    def check(i, f):
        got = rep.dunkl_once(i, f)
        assert all(got.terms.values()), (i, f)  # no stored zero
        assert got == oracle._apply_by_monomials(oracle._dunkl_mono, i, f)
        return got

    pool = [params.one, -params.one, params.rational(3),
            params.rational(Fraction(-2, 5)), params.c0,
            params.kappa - params.c0]
    rng = random.Random(f"{r}{p}{n}{point}{fault}")
    deg = 6 if n <= 2 else 4
    for _ in range(6):
        f = Poly.from_terms(n, [
            (tuple(rng.randint(0, deg) for _ in range(n)), rng.choice(pool))
            for _ in range(8)])
        for i in range(n):
            check(i, f)
    # x^mu + c x^nu with c chosen so that the two images cancel at e; the
    # images of two monomials share an exponent only through a pair term,
    # so not at c0 = 0 or for n = 1
    cancelled = 0
    monos = list(monomials_of_degree(n, r + 1))
    for i in range(n):
        for mu in monos:
            a = oracle._dunkl_mono(i, mu).terms
            for nu in monos:
                b = oracle._dunkl_mono(i, nu).terms
                for e in (a.keys() & b.keys() if nu != mu else ()):
                    f = Poly(n, {mu: params.one, nu: -a[e] / b[e]})
                    assert e not in check(i, f).terms
                    cancelled += 1
    assert bool(cancelled) == (n > 1 and point != "c0=0")
    assert not rep._dunkl_memo  # nothing memoized


def test_the_degenerate_points_reach_a_vanishing_term():
    """The points of the test above where a term of y_i x^mu vanishes."""
    gordon = PolyRep(2, 1, 1, table_params(2, 1, 1, "gordon"))
    assert gordon.params.z_eigenvalue(2, 0) == 0
    assert gordon._dunkl_mono(0, (3,)).is_zero()
    for r, p, n in TABLE_GROUPS:
        rep = PolyRep(r, p, n, table_params(r, p, n, "cancel"))
        # one slot below mu_1 = 1
        mu, low = (1, 0) + (1,) * (n - 2), (0, 0) + (1,) * (n - 2)
        assert rep.params.z_eigenvalue(0, 0) == rep.params.one
        assert low not in rep._dunkl_mono(0, mu).terms, (r, p, n)
        # the oracle sums every reflection's term and leaves 0 there too
        assert low not in dunkl_mono_per_term(rep, 0, mu).terms
        zero_c0 = PolyRep(r, p, n, table_params(r, p, n, "c0=0"))
        assert not zero_c0._c0r
        image = zero_c0._dunkl_mono(0, (2,) + (1,) * (n - 1))
        assert list(image.terms) == [(1,) + (1,) * (n - 1)]
        # each pair (1, j) raises x_1 by s = r at c0 != 0
        assert zero_c0._dunkl_mono(0, (0,) + (r,) * (n - 1)).is_zero()


@pytest.mark.parametrize("point", ["generic", "other"])
@pytest.mark.parametrize("r,p,n", [(2, 1, 3), (3, 1, 2), (4, 2, 2)])
def test_unit_monomials_are_served_from_the_memo(r, p, n, point):
    rep = PolyRep(r, p, n, table_params(r, p, n, point))
    par = rep.params
    for mu in monomials_up_to(n, 4):
        for i in range(n):
            unit = Poly.monomial(mu, par.one)
            assert rep.dunkl(i, unit) is rep._dunkl_mono(i, mu)
            assert rep.z(i, unit) is rep.z_monomial(i, mu)
            # a single term with another coefficient runs the loop
            for c in (par.rational(2), par.c0, -par.one):
                f = Poly.monomial(mu, c)
                for op, image in ((rep.dunkl, rep._dunkl_mono),
                                  (rep.z, rep.z_monomial)):
                    got = op(i, f)
                    assert got == apply_by_monomials_per_term(
                        rep, image, i, f), (i, mu, c)
                    assert got is not image(i, mu)
    # and so does a sum of unit monomials
    f = Poly.monomial((1,) + (0,) * (n - 1), par.one) \
        + Poly.monomial((0,) * (n - 1) + (2,), par.one)
    assert rep.dunkl(0, f) == apply_by_monomials_per_term(
        rep, rep._dunkl_mono, 0, f)


@pytest.mark.parametrize("r,p,n", TABLE_GROUPS)
def test_divided_differences_match_per_term_oracle(r, p, n):
    rep = PolyRep(r, p, n)
    one = rep.params.one
    for mu in monomials_up_to(n, 5 if n == 2 else 4):
        for s in rep.reflections:
            expected = Poly(n, {})
            for nu, cy in dd_per_term(rep, mu, s):
                expected = expected + Poly.monomial(nu, one.cmul(cy))
            assert rep.divided_difference(Poly.monomial(mu, one), s) \
                == expected
            assert rep._dd_y_mono(mu, s) == dd_y_mono_per_term(rep, mu, s)


def test_dunkl_lowers_degree_and_leibniz():
    rng = random.Random(19)
    rep = PolyRep(3, 1, 2)
    par = rep.params
    for mu in monomials_up_to(2, 4):
        if sum(mu) == 0:
            continue
        img = rep.dunkl(0, Poly.monomial(mu, par.one))
        assert img.is_zero() or img.degree() == sum(mu) - 1
    # skew Leibniz: y(fg) = kappa(f'g + fg') - sum c_s <alpha,y> *
    #    [dd(f) * sg + f * dd(g)]
    for _ in range(6):
        f = random_poly(rng, rep, deg=2, nterms=2)
        g = random_poly(rng, rep, deg=2, nterms=2)
        for i in range(2):
            direct = rep.dunkl(i, f * g)
            acc = Poly.zero(2)
            for s in rep.reflections:
                a = s.alpha[i]
                if not a:
                    continue
                cs = s.coupling(par)
                ddf = rep.divided_difference(f, s)
                ddg = rep.divided_difference(g, s)
                part = ddf * rep.t(s.element, g) + f * ddg
                acc = acc + part.scaled(cs.cmul(a))
            kappa_part = Poly.zero(2)
            for mu, c in f.terms.items():
                if mu[i]:
                    dn = list(mu)
                    dn[i] -= 1
                    kappa_part = kappa_part + Poly.monomial(
                        tuple(dn), c * par.kappa * par.rational(mu[i]))
            kappa_part = kappa_part * g
            for mu, c in g.terms.items():
                if mu[i]:
                    dn = list(mu)
                    dn[i] -= 1
                    kappa_part = kappa_part + f * Poly.monomial(
                        tuple(dn), c * par.kappa * par.rational(mu[i]))
            assert direct == kappa_part - acc


def test_z_eigenvalue_on_constants_and_triangularity():
    for (r, p, n) in [(2, 1, 2), (3, 1, 3), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        par = rep.params
        for i in range(n):
            got = rep.z(i, rep.one())
            expected = par.kappa - (par.d(0) - par.d(-1)) \
                - par.c0 * par.rational(r * (n - i - 1))
            assert got == Poly.monomial((0,) * n, expected)
        for mu in monomials_up_to(n, 3):
            wt = weight_of(mu, par)
            for i in range(n):
                rest = rep.z(i, Poly.monomial(mu, par.one)) \
                    - Poly.monomial(mu, wt.zvals[i])
                for nu in rest.terms:
                    assert sum(nu) == sum(mu) and order_lt(nu, mu)


def test_z_matches_literal_class_sum():
    rng = random.Random(23)
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        par = rep.params
        for i in range(n):
            # phi_i on constants counts the class: (i stored 0-based) r*i
            got = phi_class_sum(rep, i, rep.one())
            assert got == rep.one().scaled(par.rational(r * i))
        for _ in range(3):
            f = random_poly(rng, rep, deg=3, nterms=3)
            for i in range(n):
                assert rep.z(i, f) == oracle_z(rep, i, f)


def test_phi_class_sum_matches_the_literal_class_sum():
    rng = random.Random(29)
    for (r, p, n) in [(2, 1, 3), (3, 3, 3), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        for _ in range(3):
            f = random_poly(rng, rep, deg=3, nterms=3)
            for i in range(n):
                assert phi_class_sum(rep, i, f) == class_sum(rep, i, f)


def test_h_operator_grading():
    rep = PolyRep(2, 1, 2)
    par = rep.params
    assert rep.h(rep.one()).is_zero()
    # trivial class scalar vanishes, so h acts by kappa * degree
    for mu in monomials_up_to(2, 4):
        f = Poly.monomial(mu, par.one)
        assert rep.h(f) == f.scaled(par.kappa * par.rational(sum(mu)))
    # [h, x_1] = kappa x_1 on random inputs
    rng = random.Random(29)
    for _ in range(20):
        f = random_poly(rng, rep)
        lhs = rep.h(rep.x(0, f)) - rep.x(0, rep.h(f))
        assert lhs == rep.x(0, f).scaled(par.kappa)


def test_h_grading_at_kappa_one():
    rep = PolyRep(2, 1, 2, SpecializedParameters(gordon_point(2, 1, 2)))
    for mu in monomials_up_to(2, 3):
        f = Poly.monomial(mu, rep.params.one)
        assert rep.h(f) == f.scaled(rep.params.rational(sum(mu)))


def test_check_relations_passes():
    assert PolyRep(2, 1, 2).check_relations(4)["status"] == "pass"
    assert PolyRep(3, 3, 2).check_relations(3)["status"] == "pass"


def test_check_relations_fault_injection():
    rep = PolyRep(2, 1, 2, fault_dunkl_sign=True)
    report = rep.check_relations(2)
    assert report["status"] == "fail"
    assert report["relation"] == "y_i x_j commutator"
    assert "mu" in report and "defect" in report


def _doubled_dd_y_mono(monkeypatch, degrees=(1, 2)):
    """Break the dual commutator formula: every y-side divided difference
    coefficient doubled for the y-monomials y^nu with |nu| in ``degrees``."""
    true_dd = PolyRep._dd_y_mono
    monkeypatch.setattr(
        PolyRep, "_dd_y_mono",
        lambda self, nu, s: [(ev, cy + cy if sum(nu) in degrees else cy)
                             for ev, cy in true_dd(self, nu, s)])


# generic G(r,p,n), two specialized points, G(4,1,2) with three diagonal
# classes, G(2,1,3), G(4,2,2), where the label c0 covers two conjugacy
# classes, G(3,3,3), with no diagonal class, G(1,1,3), with one residue
# mod r, and G(4,2,3), with four colors per pair of slots and p > 1; each
# takes PolyRep's keyword arguments
X_SIDE_CASES = {
    "G212": lambda **kw: PolyRep(2, 1, 2, **kw),
    "G312": lambda **kw: PolyRep(3, 1, 2, **kw),
    "G422": lambda **kw: PolyRep(4, 2, 2, **kw),
    "G333": lambda **kw: PolyRep(3, 3, 3, **kw),
    "G223": lambda **kw: PolyRep(2, 2, 3, **kw),
    "G212-gordon": lambda **kw: PolyRep(2, 1, 2, SpecializedParameters(
        gordon_point(2, 1, 2)), **kw),
    "G312-c0": lambda **kw: PolyRep(3, 1, 2, SpecializedParameters(
        ParamPoint.from_c(3, 1, 1, Fraction(1, 3),
                          [Fraction(1, 5), Fraction(1, 7)])), **kw),
    "G412": lambda **kw: PolyRep(4, 1, 2, **kw),
    "G213": lambda **kw: PolyRep(2, 1, 3, **kw),
    "G113": lambda **kw: PolyRep(1, 1, 3, **kw),
    "G423": lambda **kw: PolyRep(4, 2, 3, **kw),
}


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("case", list(X_SIDE_CASES))
def test_x_side_defects_match_oracle(monkeypatch, case, broken):
    if broken:
        _doubled_dd_y_mono(monkeypatch)
    rep = X_SIDE_CASES[case]()
    n = rep.n
    expected_pairs = [(nu, j) for nu in monomials_up_to(n, 2) if sum(nu)
                      for j in range(n)]
    nonzero = 0
    for mu in monomials_up_to(n, 3):
        m = Poly.monomial(mu, rep.params.one)
        yf = rep.y_images(m, 2)
        yxf = [rep.y_images(rep.x(j, m), 2) for j in range(n)]
        got = list(rep.x_side_defects(yf, yxf))
        assert got == list(x_side_defects_per_reflection(rep, yf, yxf)), mu
        assert [(nu, j) for nu, j, _ in got] == expected_pairs
        for nu, j, defect in got:
            assert defect == x_side_commutator_defect(rep, nu, j, m), \
                (mu, nu, j)
            nonzero += bool(defect)
    assert bool(nonzero) == broken


@pytest.mark.parametrize("r,p,n,point", [
    (2, 1, 3, False), (2, 1, 3, True), (3, 1, 2, False), (3, 1, 2, True),
])
def test_x_side_defects_match_the_per_reflection_oracle_to_degree_6(
        r, p, n, point):
    # the benchmark's groups and degree, generic and at the Gordon point:
    # every (nu, j, defect) of the collapsed color sums equals the one built
    # from a moved divided difference per reflection, on every monomial
    params = SpecializedParameters(gordon_point(r, p, n)) if point else None
    rep = PolyRep(r, p, n, params)
    for mu in monomials_up_to(n, 6):
        m = Poly.monomial(mu, rep.params.one)
        yf = rep.y_images(m, 2)
        yxf = [rep.y_images(rep.x(j, m), 2) for j in range(n)]
        assert list(rep.x_side_defects(yf, yxf)) \
            == list(x_side_defects_per_reflection(rep, yf, yxf)), mu


def _x_side_touched(rep, yf, nu, j):
    """The exponents that some term of the right side of (nu, j) is added
    at: the x_j shift of y^nu f, kappa nu_j y^(nu - e_j) f and every plan
    entry's swapped exponents where its weight is not None."""
    r = rep.r
    out = {e[:j] + (e[j] + 1,) + e[j + 1:] for e in yf[nu].terms}
    if nu[j] and rep.params.kappa:
        out |= set(yf[nu[:j] + (nu[j] - 1,) + nu[j + 1:]].terms)
    for a, b, ev, weights in dict(rep._x_side_plan())[nu][j]:
        for e in yf[ev].terms:
            if b is None:
                if weights[e[a] % r] is not None:
                    out.add(e)
            elif weights[(e[a] - e[b]) % r] is not None:
                out.add(e[:a] + (e[b],) + e[a + 1:b] + (e[a],) + e[b + 1:])
    return out


@pytest.mark.parametrize("case", ["G212", "G312-c0", "G223", "G113",
                                  "G212-kappa0"])
def test_x_side_right_sides_that_cancel_pass_with_one_shared_empty_defect(
        monkeypatch, case):
    # a passing right side equals the left side's terms, so an exponent
    # that received a term but is not on the left side was added to and
    # cancelled in place; the sums that cancel are deleted, so no (nu, j)
    # builds a difference and every pass yields one empty Poly per call
    if case == "G212-kappa0":
        rep = PolyRep(2, 1, 2, SpecializedParameters(ParamPoint.from_c(
            2, 1, 0, Fraction(1, 3), [Fraction(1, 5)])))
    else:
        rep = X_SIDE_CASES[case]()
    n = rep.n
    tables = []
    for mu in monomials_up_to(n, 4):
        m = Poly.monomial(mu, rep.params.one)
        tables.append((rep.y_images(m, 2),
                       [rep.y_images(rep.x(j, m), 2) for j in range(n)]))
    cancelled = 0
    with monkeypatch.context() as patch:
        def no_difference(*args):
            raise AssertionError("a passing check built a difference")

        patch.setattr(Poly, "__sub__", no_difference)
        for yf, yxf in tables:
            got = list(rep.x_side_defects(yf, yxf))
            shared = got[0][2]
            assert shared.terms == {}
            assert all(defect is shared for _, _, defect in got)
            for nu, j, _ in got:
                cancelled += len(_x_side_touched(rep, yf, nu, j)
                                 - yxf[j][nu].terms.keys())
    assert cancelled
    assert rep.check_relations(4)["status"] == "pass"


def _x_side_plan_per_term(rep):
    """``PolyRep._x_side_plan`` with one ``cmul`` per (reflection, residue),
    c_s scaled by lam zeta^{k_s rho} term by term, where the package sums
    the roots of each coupling constant before one ``cmul``."""
    n, r, params = rep.n, rep.r, rep.params
    refl = [(s, s.element.act_on_exponents(
                 tuple(int(t == s.i) for t in range(n)))[0],
             -s.coupling(params)) for s in rep.reflections]
    plan = []
    for nu in monomials_up_to(n, 2):
        if sum(nu) == 0:
            continue
        slots = []
        for j in range(n):
            groups: dict = {}
            for s, k, neg_cs in refl:
                for ev, cy in rep._dd_y_mono(nu, s):
                    if lam := s.alpha_check[j] * cy:
                        groups.setdefault((s.i, s.j, ev), []).append(
                            (neg_cs, lam, k))
            entries = []
            for (a, b, ev), terms in groups.items():
                weights = [sum((neg_cs.cmul(lam * Cyc.root(r, k * rho))
                                for neg_cs, lam, k in terms),
                               params.zero) or None for rho in range(r)]
                if any(weights):
                    entries.append((a, b, ev, weights))
            slots.append(entries)
        plan.append((nu, slots))
    return plan


@pytest.mark.parametrize("case", list(X_SIDE_CASES))
def test_x_side_plan_matches_the_per_term_sums(case):
    rep = X_SIDE_CASES[case]()
    assert rep._x_side_plan() == _x_side_plan_per_term(rep)


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("case", list(X_SIDE_CASES))
def test_yx_commutator_is_the_first_order_x_side_defect(case, fault):
    # the defining relation [y_i, x_j] written out over group elements is
    # the |nu| = 1 entry of x_side_defects, defect for defect
    rep = X_SIDE_CASES[case](fault_dunkl_sign=fault)
    n = rep.n
    nonzero = 0
    for mu in monomials_up_to(n, 3):
        m = Poly.monomial(mu, rep.params.one)
        yf = rep.y_images(m, 2)
        yxf = [rep.y_images(rep.x(j, m), 2) for j in range(n)]
        first = [(nu, j, d) for nu, j, d in rep.x_side_defects(yf, yxf)
                 if sum(nu) == 1]
        assert [(nu.index(1), j) for nu, j, _ in first] \
            == [(i, j) for i in range(n) for j in range(n)]
        for nu, j, defect in first:
            expected = yx_commutator_defect_explicit(rep, mu, nu.index(1), j)
            assert defect == expected, (mu, nu, j)
            assert str(defect) == str(expected)
            nonzero += bool(defect)
    assert bool(nonzero) == fault


def _first_oracle_failure(rep, max_deg):
    """The first nonzero x-side defect in check order, by the oracle."""
    n = rep.n
    for mu in monomials_up_to(n, max_deg):
        m = Poly.monomial(mu, rep.params.one)
        for nu in monomials_up_to(n, 2):
            for j in range(n):
                d = sum(nu) and x_side_commutator_defect(rep, nu, j, m)
                if d:
                    return mu, nu, j, d
    return None


def test_x_side_branch_reports_its_own_failure(monkeypatch):
    # only |nu| = 2 is broken, so [y_i, x_j] holds and the x-side record
    # reports the failure
    _doubled_dd_y_mono(monkeypatch, degrees=(2,))
    rep = PolyRep(2, 1, 2)
    report = rep.check_relations(2)
    assert report["status"] == "fail"
    assert report["relation"] == "x-side commutator"
    mu, nu, j, defect = _first_oracle_failure(rep, 2)
    assert sum(nu) == 2
    assert (report["y_monomial"], report["j"], report["mu"]) \
        == (list(nu), j, list(mu))
    assert report["defect"] == str(defect) != "0"


@pytest.mark.parametrize("degrees", [(1,), (1, 2)])
def test_a_first_order_break_reports_the_yx_commutator(monkeypatch,
                                                       degrees):
    _doubled_dd_y_mono(monkeypatch, degrees)
    rep = PolyRep(2, 1, 2)
    report = rep.check_relations(2)
    mu, nu, j, defect = _first_oracle_failure(rep, 2)
    assert sum(nu) == 1
    assert list(report) == ["status", "group", "relation", "i", "j", "mu",
                            "defect"]
    assert (report["status"], report["relation"]) \
        == ("fail", "y_i x_j commutator")
    assert (report["i"], report["j"], report["mu"]) \
        == (nu.index(1), j, list(mu))
    assert report["defect"] == str(defect) != "0"


def test_the_yx_record_names_y_by_its_slot(monkeypatch):
    # a lone defect at nu = e_1, j = 2 is reported as i = 1, j = 2
    rep = PolyRep(2, 1, 3)
    one = rep.one()

    def one_defect(yf, yxf):
        for nu in monomials_up_to(3, 2):
            for j in range(3):
                if sum(nu):
                    hit = (nu, j) == ((0, 1, 0), 2)
                    yield nu, j, one if hit else Poly.zero(3)

    monkeypatch.setattr(rep, "x_side_defects", one_defect)
    report = rep.check_relations(0)
    assert (report["relation"], report["i"], report["j"], report["mu"],
            report["defect"]) \
        == ("y_i x_j commutator", 1, 2, [0, 0, 0], str(one))


def test_x_side_plan_belongs_to_its_representation(monkeypatch):
    # one process checks many representations, as the benchmark does: the
    # tabulated y-side divided differences of one must not reach another.
    # Only |nu| = 2 is doubled, so the failure comes from the x-side branch.
    true_dd = PolyRep._dd_y_mono
    assert PolyRep(2, 1, 3).check_relations(2)["status"] == "pass"
    broken = PolyRep(2, 1, 3)
    monkeypatch.setattr(broken, "_dd_y_mono", lambda nu, s: [
        (ev, cy + cy if sum(nu) == 2 else cy)
        for ev, cy in true_dd(broken, nu, s)])
    report = broken.check_relations(2)
    assert (report["status"], report["relation"]) \
        == ("fail", "x-side commutator")
    assert PolyRep(2, 1, 3).check_relations(2)["status"] == "pass"


def test_jack_and_gordon_build_no_reflection_list(monkeypatch, capsys):
    """Only ``h``, the x-side plan and the relation checker read
    ``PolyRep.reflections``, and it is built on first use."""
    def refuse(r, p, n):
        raise AssertionError(f"reflections of G({r},{p},{n}) built")

    monkeypatch.setattr(operators, "reflections", refuse)
    assert main(["jack", "--group", "2,1,3", "--mu", "2,0,1",
                 "--check-both"]) == 0
    assert main(["gordon", "--group", "2,1,3"]) == 0
    assert "PASS" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="built"):
        PolyRep(2, 1, 3).reflections


def test_a_faulted_and_a_clean_rep_each_get_their_own_reflections():
    clean = PolyRep(2, 1, 3)
    faulted = PolyRep(2, 1, 3, fault_dunkl_sign=True)
    assert faulted.check_relations(2)["status"] == "fail"
    assert clean.check_relations(2)["status"] == "pass"
    assert faulted.reflections is not clean.reflections
    assert faulted.reflections == clean.reflections \
        == operators.reflections(2, 1, 3)
    assert clean.reflections is clean.reflections  # built once


def _shifted_y1(monkeypatch):
    """Replace y_1 by y_1 + 3 kappa: every [y_i, x_j] and [y_i, y_j] = 0
    still holds, so no first-order check sees it."""
    true_mono = PolyRep._dunkl_mono

    def shifted(self, i, mu):
        img = true_mono(self, i, mu)
        if i:
            return img
        return img + Poly.monomial(mu, self.params.kappa
                                   * self.params.rational(3))

    monkeypatch.setattr(PolyRep, "_dunkl_mono", shifted)


def _conjugate_x_image(monkeypatch):
    """w x_i read with the inverse color: zeta^-k x_j for zeta^k x_j."""
    monkeypatch.setattr(GroupElement, "x_image",
                        lambda self, i: ((-self.col[i]) % self.r,
                                         self.perm[i]))


def _broken_action(monkeypatch, sign):
    """t_w acting by zeta^(sign k) where the group acts by zeta^k."""
    def action(w, f):
        out = {}
        for e, c in f.terms.items():
            k, nu = w.act_on_exponents(e)
            out[nu] = c.cmul(Cyc.root(w.r, sign * k)) if sign * k else c
        return Poly(f.n, out)

    monkeypatch.setattr(operators, "act_on_poly", action)


def _conjugate_action(monkeypatch):
    """Still an automorphism of the polynomial ring, but not the one
    x_image names."""
    _broken_action(monkeypatch, -1)


def _colorless_action(monkeypatch):
    """Forgets the colors."""
    _broken_action(monkeypatch, 0)


# fault -> (how to inject it, the relation its first failure names)
RELATION_FAULTS = {
    None: (None, None),
    "dunkl-sign": (None, "y_i x_j commutator"),
    "dd-y-nu2": (lambda mp: _doubled_dd_y_mono(mp, degrees=(2,)),
                 "x-side commutator"),
}


def _assert_same_record(rep_of, max_deg):
    """check_relations and the per-monomial oracle give equal records, key
    order included, each on its own fresh representation."""
    got = rep_of().check_relations(max_deg)
    expected = check_relations_per_monomial(rep_of(), max_deg)
    assert list(got.items()) == list(expected.items())
    return got


@pytest.mark.parametrize("fault", list(RELATION_FAULTS))
@pytest.mark.parametrize("case", list(X_SIDE_CASES))
def test_relation_sweep_matches_per_monomial_oracle(monkeypatch, case,
                                                    fault):
    inject, relation = RELATION_FAULTS[fault]
    if inject:
        inject(monkeypatch)
    kw = {"fault_dunkl_sign": fault == "dunkl-sign"}
    rep_of = lambda: X_SIDE_CASES[case](**kw)
    record = _assert_same_record(rep_of, 4 if rep_of().n == 2 else 3)
    assert record["status"] == ("pass" if fault is None else "fail")
    assert record.get("relation") == relation


def test_relation_sweep_reports_a_shifted_y1_like_the_oracle(monkeypatch):
    _shifted_y1(monkeypatch)
    record = _assert_same_record(lambda: PolyRep(2, 1, 2), 3)
    assert (record["relation"], record["y_monomial"], record["mu"]) \
        == ("x-side commutator", [2, 0], [0, 0])


@pytest.mark.parametrize("inject", [
    _conjugate_x_image, _conjugate_action, _colorless_action,
], ids=["x_image", "act_on_poly", "colorless"])
def test_relation_sweep_reports_a_broken_group_action(monkeypatch, inject):
    inject(monkeypatch)
    record = _assert_same_record(lambda: PolyRep(3, 1, 2), 3)
    assert list(record) == ["status", "group", "relation", "w", "j", "mu"]
    assert record["relation"] == "t_w x = (wx) t_w"


def test_t_w_x_is_checked_before_the_x_side_on_each_monomial(monkeypatch):
    # both checks fail on x^0, and the record names the one that runs first
    _conjugate_x_image(monkeypatch)
    record = _assert_same_record(
        lambda: PolyRep(3, 1, 2, fault_dunkl_sign=True), 2)
    assert (record["relation"], record["mu"]) == ("t_w x = (wx) t_w", [0, 0])
    monkeypatch.undo()
    record = PolyRep(3, 1, 2, fault_dunkl_sign=True).check_relations(2)
    assert (record["relation"], record["mu"]) \
        == ("y_i x_j commutator", [0, 0])


def _count_tables(monkeypatch, rep) -> list:
    """Wrap ``rep.y_images`` so each table it builds is recorded."""
    built = []
    true_images = rep.y_images

    def images(f, d):
        built.append(f)
        return true_images(f, d)

    monkeypatch.setattr(rep, "y_images", images)
    return built


@pytest.mark.parametrize("r,p,n,d", [
    (2, 1, 2, 4), (3, 1, 2, 3), (4, 2, 2, 3), (2, 1, 3, 3), (3, 3, 3, 2),
])
def test_check_relations_builds_one_table_per_monomial(monkeypatch, r, p,
                                                       n, d):
    rep = PolyRep(r, p, n)
    built = _count_tables(monkeypatch, rep)
    assert rep.check_relations(d)["status"] == "pass"
    assert len(built) == comb(d + 1 + n, n)
    assert sorted(e for f in built for e in f.terms) \
        == sorted(monomials_up_to(n, d + 1))
    # a second call rebuilds every table: nothing carries over
    built.clear()
    assert rep.check_relations(d)["status"] == "pass"
    assert len(built) == comb(d + 1 + n, n)
    # the per-monomial oracle builds the tables of x^mu and each x_j x^mu
    oracle = PolyRep(r, p, n)
    built = _count_tables(monkeypatch, oracle)
    check_relations_per_monomial(oracle, d)
    assert len(built) == (n + 1) * comb(d + n, n)


class _Table(dict):
    """A y-image table that a weak reference can follow."""


def test_relation_tables_span_two_degrees_and_die_with_the_call(
        monkeypatch):
    rep = PolyRep(2, 1, 3)
    true_images = rep.y_images
    tables = []  # (degree, weak reference) per table built
    live_degrees = []

    def images(f, d):
        table = _Table(true_images(f, d))
        tables.append((sum(next(iter(f.terms))), weakref.ref(table)))
        live_degrees.append({deg for deg, ref in tables if ref() is not None})
        return table

    monkeypatch.setattr(rep, "y_images", images)
    assert rep.check_relations(4)["status"] == "pass"
    assert max(len(degs) for degs in live_degrees) == 2
    assert all(max(degs) - min(degs) <= 1 for degs in live_degrees)
    gc.collect()
    assert [deg for deg, ref in tables if ref() is not None] == []


@pytest.mark.parametrize("rep", [
    PolyRep(2, 1, 2), PolyRep(3, 1, 2),
    PolyRep(2, 1, 2, SpecializedParameters(gordon_point(2, 1, 2))),
], ids=["G212", "G312", "G212-gordon"])
def test_y_images_match_repeated_dunkl(rep):
    rng = random.Random(43)
    f = random_poly(rng, rep, deg=4, nterms=5)
    table = rep.y_images(f, 3)
    assert sorted(table) == sorted(monomials_up_to(rep.n, 3))
    for ev, img in table.items():
        assert img == apply_y_monomial(rep, ev, f), ev


def test_commutators_vanish_small():
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]:
        assert PolyRep(r, p, n).commutator_report(3)["status"] == "pass"


def test_operators_are_linear_over_scalars():
    rng = random.Random(37)
    rep = PolyRep(3, 1, 2)
    par = rep.params
    a, b = par.kappa + par.rational(2), par.c0 - par.d(1)
    for _ in range(5):
        f = random_poly(rng, rep, deg=3, nterms=3)
        g = random_poly(rng, rep, deg=3, nterms=3)
        combo = f.scaled(a) + g.scaled(b)
        for op in (lambda h: rep.dunkl(0, h), lambda h: rep.z(1, h),
                   rep.h, lambda h: rep.x(0, h)):
            assert op(combo) == op(f).scaled(a) + op(g).scaled(b)


def test_degree_bookkeeping():
    rep = PolyRep(3, 1, 2)
    par = rep.params
    f = Poly.monomial((2, 1), par.one)
    assert rep.x(0, f).degree() == 4
    assert rep.dunkl(0, f).degree() == 2
    assert rep.z(0, f).degree() == 3
    w = GroupElement.diagonal(3, 2, 0, 1)
    assert rep.t(w, f).degree() == 3


@pytest.mark.parametrize("group,calls", [((2, 1, 3), 756), ((3, 1, 1), 0)])
def test_commutator_report_builds_each_inner_image_once(monkeypatch, group,
                                                        calls):
    # per monomial: n inner images y_i x^mu and two outer ones per pair
    # i < j, and likewise for z; 84 monomials of degree <= 6 in 3 variables
    counts = {"dunkl": 0, "z": 0}
    for name in counts:
        real = getattr(PolyRep, name)

        def counted(self, i, f, real=real, name=name):
            counts[name] += 1
            return real(self, i, f)

        monkeypatch.setattr(PolyRep, name, counted)
    assert PolyRep(*group).commutator_report(6)["status"] == "pass"
    assert counts == {"dunkl": calls, "z": calls}


def test_commutator_report_fault_injection():
    # the flipped transposition sign still gives commuting y's (it is c0 ->
    # -c0), but z_i keeps +c0 in its class sum, so the z's stop commuting
    report = PolyRep(2, 1, 2, fault_dunkl_sign=True).commutator_report(2)
    assert report["status"] == "fail"
    assert report["commutator"] == "[z_i,z_j]"
    assert (report["i"], report["j"], report["mu"]) == (0, 1, [2, 0])
    assert report["defect"] != "0"


def _y1_skewed_by_xn(monkeypatch):
    """Add kappa x^mu to y_1 x^mu wherever mu_n > 0; y_n moves mu_n, so
    y_1 and y_n stop commuting."""
    true_mono = PolyRep._dunkl_mono

    def skewed(self, i, mu):
        img = true_mono(self, i, mu)
        if i or not mu[-1]:
            return img
        return img + Poly.monomial(mu, self.params.kappa)

    monkeypatch.setattr(PolyRep, "_dunkl_mono", skewed)


@pytest.mark.parametrize("fault", [None, "dunkl-sign", "y1-skew"])
@pytest.mark.parametrize("case", ["G212", "G312", "G213", "G212-gordon",
                                  "G312-c0"])
def test_commutator_report_matches_the_difference_oracle(monkeypatch, case,
                                                         fault):
    # generic, Gordon and rational points; clean, with the flipped sign
    # (the z's fail) and with a skewed y_1 (the y's fail)
    if fault == "y1-skew":
        _y1_skewed_by_xn(monkeypatch)
    rep_of = lambda: X_SIDE_CASES[case](
        fault_dunkl_sign=fault == "dunkl-sign")
    max_deg = 4 if rep_of().n == 2 else 3
    got = rep_of().commutator_report(max_deg)
    oracle = rep_of()
    expected = oracle._first_failure(
        max_deg, lambda mu: commutator_failure_by_difference(oracle, mu))
    assert list(got.items()) == list(expected.items())
    assert got.get("commutator") == {
        None: None, "dunkl-sign": "[z_i,z_j]", "y1-skew": "[y_i,y_j]"}[fault]


def test_act_on_exponents_is_injective():
    for (r, p, n) in [(3, 1, 2), (2, 2, 3)]:
        monos = list(monomials_up_to(n, 4))
        for w in group_elements(r, p, n):
            images = {w.act_on_exponents(mu)[1] for mu in monos}
            assert len(images) == len(monos), str(w)


def test_act_on_poly_matches_accumulating_oracle():
    rng = random.Random(41)
    for (r, p, n) in [(3, 1, 2), (2, 2, 3), (4, 2, 2)]:
        for rep in (PolyRep(r, p, n),
                    PolyRep(r, p, n, SpecializedParameters(
                        gordon_point(r, p, n)))):
            for w in group_elements(r, p, n):
                f = random_poly(rng, rep, deg=3, nterms=5)
                assert act_on_poly(w, f) == act_on_poly_accumulating(w, f)


def test_relation_convention_cross_module():
    # t_w x = (w x) t_w ties the group convention to the operators
    rng = random.Random(31)
    rep = PolyRep(4, 2, 2)
    par = rep.params
    for _ in range(10):
        perm = [0, 1]
        rng.shuffle(perm)
        col = [rng.randrange(4) for _ in range(2)]
        if sum(col) % 2:
            col[0] = (col[0] + 1) % 4
        w = GroupElement.from_perm_col(4, perm, col)
        f = random_poly(rng, rep)
        for j in range(2):
            k, jj = w.x_image(j)
            wx = Poly.monomial(tuple(1 if t == jj else 0 for t in range(2)),
                               par.zeta(k))
            assert rep.t(w, rep.x(j, f)) == wx * rep.t(w, f)
