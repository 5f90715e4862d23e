"""Hyperplanes, the guard, singular vectors, characters and Catalan series."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from cherednik import (
    Cyc, GroupElement, Hjk, Hx, NonGenericError, ParamPoint, Poly, PolyRep,
    SpecializedParameters, catalan_series, coinvariant_series,
    coxeter_number, degrees, exponents_and_freeness, genericity_guard,
    gordon_point, group_elements, group_order, invariant_char_series,
    is_irreducible, jack_by_solve, l1_graded_dimension, monomials_of_degree,
    on_hyperplane, order_key, parse_element, singular_vector_check,
)
from cherednik import reptheory
from cherednik.operators import monomials_up_to
from cherednik.reptheory import slot_n_stabilizer_generators

import class_sums
import oracles
from class_sums import (
    genericity_guard_scan, invariant_char_series_by_classes,
    singular_vector_check_per_vector, span_stability_check,
)
from oracles import (
    graded_char_series_dense, int_series_dense,
    invariant_char_series_all_of_w, l1_dimension_by_counting,
    l1_series_by_counting, radical_membership,
    singular_vector_check_all_of_w, span_character_check_all_of_w,
)

# small groups on which the all-of-W oracles run in well under a second
DIFFERENTIAL_GROUPS = [(2, 1, 2), (2, 1, 3), (3, 3, 2), (2, 2, 3), (4, 2, 2)]


def test_coxeter_numbers():
    assert coxeter_number(2, 1, 2) == 4
    assert coxeter_number(3, 3, 3) == 6
    assert coxeter_number(4, 2, 2) == 6
    assert coxeter_number(3, 1, 2) == 6
    with pytest.raises(ValueError):
        coxeter_number(1, 1, 3)


def test_degrees_and_irreducibility():
    assert degrees(2, 1, 2) == [2, 4]
    assert degrees(3, 3, 2) == [2, 3]
    assert degrees(2, 1, 3) == [2, 4, 6]
    assert degrees(3, 3, 3) == [3, 3, 6]
    assert is_irreducible(3, 3, 2)
    assert not is_irreducible(2, 2, 2)
    assert not is_irreducible(1, 1, 3)
    assert is_irreducible(4, 1, 1) and not is_irreducible(3, 3, 1)


def test_gordon_point_on_target_hyperplane():
    pt = gordon_point(2, 1, 2)
    assert on_hyperplane(pt, Hjk(5, 1), 2)
    assert not on_hyperplane(pt, Hjk(3, 1), 2)
    for (r, p, n) in [(3, 1, 2), (3, 3, 2), (4, 2, 2), (2, 1, 3), (3, 3, 3)]:
        h = coxeter_number(r, p, n)
        assert on_hyperplane(gordon_point(r, p, n), Hjk(h + 1, 1), n)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_gordon_point_refuses_the_trivial_group(r):
    assert coxeter_number(r, r, 1) == 0
    with pytest.raises(ValueError, match="trivial group"):
        gordon_point(r, r, 1)


def test_gordon_point_is_the_one_from_its_class_parameters():
    # d_0 = (r/p - 1) c and d_j = -c, against d_from_c at c_l = c for every l
    for r in range(2, 13):
        for p in (p for p in range(1, r + 1) if r % p == 0):
            for n in range(1, 4):
                h = coxeter_number(r, p, n)
                if h == 0:
                    continue
                c = Fraction(h + 1, h)
                assert gordon_point(r, p, n) == ParamPoint.from_c(
                    r, p, 1, c, [c] * (r // p - 1)), (r, p, n)


def test_hx_membership():
    pt = ParamPoint.make(2, 1, 1, 0, [Fraction(1, 2)])
    for m in range(1, 7):
        for j in range(1, 3):
            assert not on_hyperplane(pt, Hx(Fraction(m, j)), 2)
    assert on_hyperplane(ParamPoint.make(2, 1, 1, Fraction(1, 2), [0]),
                         Hx(Fraction(1, 2)), 2)


def test_hyperplane_membership_is_linear_in_d():
    # r = 3: shift d by a vector keeping d_0 - d_{-j} fixed
    j, k, n = 1, 1, 2
    base = ParamPoint.make(3, 1, 1, Fraction(1, 6),
                           [Fraction(1, 2), Fraction(1, 4)])
    if not on_hyperplane(base, Hjk(j, k), n):
        # move d1 to land exactly on the hyperplane first
        # d0 - d_{-1} + 3 c0 (n-k) = j with d0 = -(d1+d2), d_{-1} = d2
        # => -(d1 + 2 d2) = j - 3 c0 (n - k)
        target = Fraction(j) - 3 * Fraction(1, 6) * (n - k)
        d2 = Fraction(1, 4)
        d1 = -(target + 2 * d2)
        base = ParamPoint.make(3, 1, 1, Fraction(1, 6), [d1, d2])
    assert on_hyperplane(base, Hjk(j, k), n)
    # shift: delta(d1) = -2 t, delta(d2) = t leaves d0 - d_{-1} unchanged
    t = Fraction(7, 5)
    shifted = ParamPoint.make(
        3, 1, 1, Fraction(1, 6),
        [base.d[0].rational_value() - 2 * t,
         base.d[1].rational_value() + t])
    assert on_hyperplane(shifted, Hjk(j, k), n)


def test_hjk_validation():
    pt = gordon_point(2, 1, 2)
    with pytest.raises(ValueError):
        on_hyperplane(pt, Hjk(4, 1), 2)  # j = 0 mod r
    with pytest.raises(ValueError):
        on_hyperplane(pt, Hjk(3, 5), 2)  # k out of range
    with pytest.raises(ValueError):
        Hjk(0, 1)


def test_guard_passes_at_gordon_points():
    g = genericity_guard(gordon_point(2, 1, 2), 5, 2, bound=20)
    assert g["ok"] and g["violations"] == []
    for (r, p, n) in [(3, 3, 2), (2, 1, 3)]:
        h = coxeter_number(r, p, n)
        g = genericity_guard(gordon_point(r, p, n), h + 1, n)
        assert g["ok"], g


def test_guard_flags_simple_spectrum():
    pt = ParamPoint.make(2, 1, 1, Fraction(1, 2), [Fraction(-9, 4)])
    # d chosen to put the point on H_{1,1}: d0 - d_{-1} + 2 c0 = 1
    g = genericity_guard(pt, 1, 2, bound=8)
    assert any("Z_>0" in v for v in g["violations"])


def test_guard_flags_second_hyperplane():
    # c1 = 3/2, c0 = 1 lies on H_{5,1} and on H_{3,2}
    pt = ParamPoint.from_c(2, 1, 1, 1, [Fraction(3, 2)])
    assert on_hyperplane(pt, Hjk(5, 1), 2)
    assert on_hyperplane(pt, Hjk(3, 2), 2)
    g = genericity_guard(pt, 5, 2, bound=20)
    assert not g["ok"]
    assert any("H_{3,2}" in v for v in g["violations"])


def test_guard_requires_kappa_one():
    pt = ParamPoint.make(2, 1, 2, Fraction(5, 4), [Fraction(-5, 4)])
    with pytest.raises(ValueError):
        genericity_guard(pt, 5, 2)


def test_radical_membership_and_dimension():
    assert not radical_membership((0, 0), 5)
    assert radical_membership((5, 0), 5)
    assert radical_membership((2, 7, 1), 5)
    assert l1_dimension_by_counting(2, 5) == 25
    series = l1_series_by_counting(2, 5, 8)
    assert series == [1, 2, 3, 4, 5, 4, 3, 2, 1]


@pytest.mark.parametrize("r,p,n", DIFFERENTIAL_GROUPS + [(3, 1, 2)])
@pytest.mark.parametrize("mode", ["generic", "gordon"])
def test_transpositions_conjugate_y1_to_yj(r, p, n, mode):
    # t_w y_1 t_w^{-1} = y_j for w = (1 j): why singular_vector_check
    # needs only y_1 once the span is known to be W-stable
    rep = _gordon_rep(r, p, n) if mode == "gordon" else PolyRep(r, p, n)
    monos = [Poly.monomial(mu, rep.params.one)
             for mu in monomials_up_to(n, 4)]
    mixed = monos[0]
    for k, f in enumerate(monos[1:], start=2):
        mixed = mixed + f.scaled(rep.params.rational(k))
    for j in range(1, n):
        w = GroupElement.transposition(r, n, 0, j)
        for f in monos + [mixed]:
            conj = rep.t(w, rep.dunkl(0, rep.t(w.inverse(), f)))
            assert conj == rep.dunkl(j, f), (j, f)


def test_singular_vectors_at_gordon_point():
    report = singular_vector_check(2, 1, 2, gordon_point(2, 1, 2), 5)
    assert report["status"] == "pass"
    assert report["annihilated"] and report["character_match"]
    # generically the candidate vector is not singular
    gen = PolyRep(2, 1, 2)
    jv = jack_by_solve(gen, (5, 0))
    assert not gen.dunkl(0, jv.poly).is_zero()


def _gordon_rep(r, p, n):
    return PolyRep(r, p, n, SpecializedParameters(gordon_point(r, p, n)))


def _monomial(rep, mu):
    return (mu, Poly.monomial(mu, rep.params.one))


def test_span_check_flags_unstable_span_with_a_reflection():
    # x1^5 and x2^3 carry the character of the 5th powers on the diagonal
    # elements, so only a permutation exposes the missing x2^5
    rep = _gordon_rep(2, 1, 2)
    basis = [_monomial(rep, (5, 0)), _monomial(rep, (0, 3))]
    report = span_stability_check(rep, basis)
    assert report["status"] == "fail"
    assert report["reason"] == "span not group-stable"
    assert parse_element(report["w"], 2) in {s.element
                                             for s in rep.reflections}
    oracle = span_character_check_all_of_w(rep, basis, 5)
    assert (oracle["status"], oracle["reason"]) \
        == (report["status"], report["reason"])


@pytest.mark.parametrize("r,p,n,m", [(2, 1, 2, 2), (3, 1, 2, 2)])
def test_power_spans_are_stable_and_the_oracle_checks_characters(r, p, n, m):
    # x_i^m spans a W-stable space whose character is not that of the k-th
    # powers when m != k mod r; only the oracle compares characters, since
    # for the f over k e_i the character follows from stability
    rep = _gordon_rep(r, p, n)
    k = coxeter_number(r, p, n) + 1
    assert m % r != k % r
    basis = _power_basis(rep, m)
    report = span_character_check_all_of_w(rep, basis, k)
    assert (report["status"], report["reason"]) \
        == ("fail", "character mismatch")
    assert span_stability_check(rep, basis) is None
    assert span_stability_check(rep, _power_basis(rep, k)) is None


def _power_basis(rep, m):
    n = rep.n
    return [_monomial(rep, tuple(m if j == i else 0 for j in range(n)))
            for i in range(n)]


def _gordon_basis(r, p, n):
    rep = _gordon_rep(r, p, n)
    k = coxeter_number(r, p, n) + 1
    return rep, [(jv.mu, jv.poly) for jv in
                 (jack_by_solve(rep, tuple(k if j == i else 0
                                           for j in range(n)))
                  for i in range(n))]


def _closure(r, n, gens):
    seen = {GroupElement.identity(r, n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


SLOT_ONE_GROUPS = [(2, 1, 1), (3, 3, 1), (4, 2, 1), (2, 1, 2), (2, 2, 2),
                   (3, 3, 2), (4, 2, 2), (6, 3, 2), (6, 2, 2), (2, 1, 3),
                   (2, 2, 3), (3, 1, 3), (3, 3, 3), (4, 2, 3), (1, 1, 4),
                   (2, 2, 4)]


@pytest.mark.parametrize("r,p,n", SLOT_ONE_GROUPS)
def test_stability_check_visits_generators_of_w(r, p, n, monkeypatch):
    # the elements span_stability_check applies, on a span every w fixes,
    # generate all of G(r,p,n): n = 1, p = r and 1 < p < r included
    rep = PolyRep(r, p, n)
    visited = []
    real = rep.t

    def spy(w, f):
        visited.append(w)
        return real(w, f)

    monkeypatch.setattr(rep, "t", spy)
    assert span_stability_check(rep, _power_basis(rep, 3)) is None
    assert len(_closure(r, n, set(visited))) == group_order(r, p, n)
    assert set(visited) <= {s.element for s in rep.reflections if s.i == 0}


@pytest.mark.parametrize("r,p,n", SLOT_ONE_GROUPS)
def test_stabilizer_generators_close_to_the_slot_n_stabilizer(r, p, n):
    # the generators singular_vector_check applies to f over k e_n close
    # to |W|/n elements of W, each fixing slot n: the whole stabilizer,
    # since S_n moves slot n to every slot
    closure = _closure(r, n, slot_n_stabilizer_generators(r, p, n))
    assert len(closure) * n == group_order(r, p, n)
    assert all(w.perm[n - 1] == n - 1 and sum(w.col) % p == 0
               for w in closure)


# the four groups of the benchmark's gordon workload
BENCH_GORDON_GROUPS = [(2, 1, 4), (3, 3, 4), (3, 1, 3), (4, 2, 3)]


def test_a_passing_check_acts_once_per_stabilizer_generator(monkeypatch):
    # on the pass path the group acts only through the generators of the
    # stabilizer of slot n: 13 actions per benchmark pass, 125 with the
    # slot-1 reflections on each of the n vectors
    calls = []
    real = PolyRep.t

    def spy(rep, w, f):
        calls.append(w)
        return real(rep, w, f)

    monkeypatch.setattr(PolyRep, "t", spy)
    total = 0
    for r, p, n in BENCH_GORDON_GROUPS:
        calls.clear()
        k = coxeter_number(r, p, n) + 1
        assert singular_vector_check(r, p, n, gordon_point(r, p, n), k) \
            ["status"] == "pass"
        assert calls == slot_n_stabilizer_generators(r, p, n)
        total += len(calls)
    assert total == 13


@pytest.mark.parametrize("r,p,n", DIFFERENTIAL_GROUPS)
def test_stable_span_has_the_character_of_its_leading_monomials(r, p, n):
    # the lemma behind dropping the character check: a W-stable span of
    # vectors x_i^m + lower has the character of the span of the x_i^m,
    # which the oracle computes from the colors of each w
    rep, gordon = _gordon_basis(r, p, n)
    k = coxeter_number(r, p, n) + 1
    assert span_character_check_all_of_w(rep, gordon, k) is None
    for m in (1, 2, 3, 5):
        assert span_character_check_all_of_w(rep, _power_basis(rep, m), m) \
            is None


@pytest.mark.parametrize("r,p,n", DIFFERENTIAL_GROUPS + [(3, 1, 2)])
def test_gordon_basis_is_unitriangular_on_its_leading_exponents(r, p, n):
    rep, basis = _gordon_basis(r, p, n)
    mus = [mu for mu, _ in basis]
    for mu, f in basis:
        assert f.coeff(mu) == rep.params.one
        for nu in mus:
            if nu != mu and f.coeff(nu):
                assert order_key(nu) < order_key(mu), (mu, nu)


@pytest.mark.parametrize("r,p,n,m,kind", [(2, 1, 2, 5, "diagonal"),
                                           (2, 2, 3, 1, "transposition")])
def test_span_moved_only_by_one_kind_of_reflection(r, p, n, m, kind):
    # x1^5 + x2^5 is moved out of its span only by the diagonal reflection,
    # x1 + x2 + x3 only by the colored transpositions; the colorless (1 j)
    # alone would miss both
    rep = _gordon_rep(r, p, n)
    powers = _power_basis(rep, m)
    mu, f = powers[0][0], sum((g for _, g in powers[1:]), powers[0][1])
    moved = []
    for s in rep.reflections:
        g = rep.t(s.element, f)
        if g != f.scaled(g.coeff(mu)):
            moved.append(s)
    assert moved and all(s.kind == kind and s.l != 0 for s in moved)
    report = span_stability_check(rep, [(mu, f)])
    assert report["status"] == "fail"
    assert parse_element(report["w"], r) in {s.element for s in moved}


def test_singular_check_flags_a_non_gordon_point():
    pt = ParamPoint.from_c(2, 1, 1, Fraction(1, 3), [Fraction(1, 3)])
    report = singular_vector_check(2, 1, 2, pt, 5)
    assert (report["status"], report["reason"]) == ("fail", "not annihilated")
    # the span is W-stable here, so only y_1 is applied
    assert (report["mu"], report["y_index"]) == ([5, 0], 0)
    assert report == singular_vector_check_per_vector(2, 1, 2, pt, 5)
    oracle = singular_vector_check_all_of_w(2, 1, 2, pt, 5)
    assert (oracle["status"], oracle["reason"]) == ("fail", "not annihilated")


@pytest.mark.parametrize("r,p,k", [(2, 1, 2), (2, 1, 0), (2, 1, -3),
                                   (3, 1, 6), (3, 3, 0)])
def test_singular_check_needs_k_nonzero_mod_r(r, p, k):
    # f over k e_i is t_{s_i} f over k e_{i+1} only when pi_i kills the
    # latter, i.e. when 0 and k differ mod r; H_{k,1} needs that too
    pt = ParamPoint.from_c(r, p, 1, Fraction(1, 2),
                           [Fraction(-2)] * (r // p - 1))
    with pytest.raises(ValueError, match="nonzero mod r"):
        singular_vector_check(r, p, 2, pt, k)


@pytest.mark.parametrize("r,p,n", [(2, 1, 3), (3, 3, 4), (4, 2, 2), (3, 1, 1)])
def test_y1_and_yn_are_applied_to_the_last_vector(monkeypatch, r, p, n):
    # the annihilation test reads y_1 f and y_n f for f over k e_n alone
    # (y_1 alone at n = 1); the other f over k e_i are t_{w_i} f
    k = coxeter_number(r, p, n) + 1
    point = gordon_point(r, p, n)
    applied = []
    real = PolyRep.dunkl

    def spy(rep, i, f):
        applied.append((i, f))
        return real(rep, i, f)

    monkeypatch.setattr(PolyRep, "dunkl", spy)
    assert singular_vector_check(r, p, n, point, k)["status"] == "pass"
    monkeypatch.undo()
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    f = jack_by_solve(rep, (0,) * (n - 1) + (k,)).poly
    assert applied == [(0, f), (n - 1, f)][:min(n, 2)]


# the groups of the gordon golden files in tests/golden
GOLDEN_GORDON_GROUPS = [(3, 3, 2), (2, 1, 5), (3, 1, 4), (3, 1, 5), (2, 1, 6),
                        (5, 1, 3), (3, 3, 4), (4, 2, 3), (6, 3, 3), (2, 2, 4)]


@pytest.mark.parametrize("r,p,n", GOLDEN_GORDON_GROUPS)
def test_annihilation_matches_the_per_vector_oracle_on_golden_groups(r, p, n):
    k = coxeter_number(r, p, n) + 1
    point = gordon_point(r, p, n)
    report = singular_vector_check(r, p, n, point, k)
    assert report["status"] == "pass"
    assert report == singular_vector_check_per_vector(r, p, n, point, k)


def _seeded_points(seed, groups, count):
    """``count`` points with kappa = 1 per group and small random c's."""
    rng = random.Random(seed)
    values = [Fraction(a, b) for a in range(-5, 6) for b in (2, 3, 5, 7)
              if a]
    for r, p, n in groups:
        for _ in range(count):
            yield (r, p, n), ParamPoint.from_c(
                r, p, 1, rng.choice(values),
                [rng.choice(values) for _ in range(r // p - 1)])


ANNIHILATION_GROUPS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (4, 2, 2),
                       (2, 1, 3), (2, 2, 3), (3, 3, 3), (3, 1, 3), (4, 2, 3)]


def test_annihilation_matches_the_per_vector_oracle_at_seeded_points():
    # off H_{k,1} y_1 U != 0: the witness, carried back from y_1 f or y_n f
    # by t_{w_i}, is the one y_1 on each vector finds
    failures = 0
    for (r, p, n), point in _seeded_points(2451, ANNIHILATION_GROUPS, 3):
        for k in (kk for kk in (1, 2, 4, 5) if kk % r):
            report = singular_vector_check(r, p, n, point, k)
            assert report == singular_vector_check_per_vector(
                r, p, n, point, k), (r, p, n, point, k)
            failures += report["status"] == "fail"
    assert failures == 90, failures


def test_annihilation_matches_the_oracle_where_only_y1_acts(monkeypatch):
    # y_1 f is 0 at every seeded point, so y_1 f != 0 = y_n f is staged with
    # an S_n-equivariant stand-in for y_i: 0 on any f with a term of degree
    # >= k in slot i, else the sum of the true y_j over j != i.  Then the
    # witness is mu = k e_2 with t_{w_2} y_1 f
    r, p, k = 2, 1, 5
    real = PolyRep.dunkl

    def sideways(rep, i, f):
        out = Poly.zero(f.n)
        if all(e[i] < k for e in f.terms):
            for j in range(f.n):
                if j != i:
                    out = out + real(rep, j, f)
        return out

    monkeypatch.setattr(PolyRep, "dunkl", sideways)
    point = ParamPoint.from_c(r, p, 1, Fraction(1, 3), [Fraction(1, 3)])
    for n in (2, 3, 4):
        report = singular_vector_check(r, p, n, point, k)
        assert (report["status"], report["mu"]) \
            == ("fail", [0, k] + [0] * (n - 2))
        assert report == singular_vector_check_per_vector(r, p, n, point, k)


def test_span_failure_is_reported_before_annihilation(monkeypatch):
    # where the span is not W-stable, y_1 alone proves nothing, so that
    # failure comes first; the oracle still reports the Dunkl image first.
    # No point of G(2,1,2) or G(3,1,2) with small rational c and k <= 9 made
    # the span of the eigenvectors fail, so the one solved vector is
    # perturbed to f + g, g = f over 4 e_2.  The first generator of the
    # stabilizer of slot 2, colors 1 and -1, acts on G(2,1,2) by
    # (-1)^degree: it sends f + g to -f + g, so c = -1 and the residual
    # is 2g
    pt = ParamPoint.from_c(2, 1, 1, Fraction(1, 3), [Fraction(1, 3)])
    real = reptheory.jack_by_solve

    def skewed(rep, mu):
        jv = real(rep, mu)
        if mu != (0, 5):
            return jv
        return dataclasses.replace(jv, poly=jv.poly + real(rep, (0, 4)).poly)

    rep = PolyRep(2, 1, 2, SpecializedParameters(pt))
    g = real(rep, (0, 4)).poly
    for module in (reptheory, oracles, class_sums):
        monkeypatch.setattr(module, "jack_by_solve", skewed)
    assert slot_n_stabilizer_generators(2, 1, 2)[0] \
        == parse_element("()[1,1]", 2)
    assert singular_vector_check(2, 1, 2, pt, 5) == {
        "status": "fail", "reason": "span not group-stable",
        "w": "()[1,1]", "mu": [0, 5],
        "residual": str(g.scaled(rep.params.rational(2)))}
    # the slot-1 peel finds the same verdict with its own witness
    oracle = singular_vector_check_per_vector(2, 1, 2, pt, 5)
    assert (oracle["status"], oracle["reason"], oracle["mu"]) \
        == ("fail", "span not group-stable", [5, 0])
    oracle = singular_vector_check_all_of_w(2, 1, 2, pt, 5)
    assert (oracle["status"], oracle["reason"], oracle["y_index"]) \
        == ("fail", "not annihilated", 0)


def _tops(n, k):
    return [tuple(k if j == i else 0 for j in range(n)) for i in range(n)]


def _transported(rep, f):
    """t_{w_i} f for i = 1..n, with w_i = s_i ... s_{n-1} colorless."""
    out = [f]
    for i in reversed(range(rep.n - 1)):
        s_i = GroupElement.transposition(rep.r, rep.n, i, i + 1)
        out.insert(0, rep.t(s_i, out[0]))
    return out


def _verdict(report):
    return report["status"], report.get("reason")


@pytest.mark.parametrize("r,p,n", [(r, p, n)
                                   for r, p, n in GOLDEN_GORDON_GROUPS
                                   if group_order(r, p, n) <= 1000])
def test_span_check_matches_all_of_w_on_golden_groups(r, p, n):
    # the slot-1 oracle is compared on all ten groups above; the walk over
    # all of W takes about 2 s on G(3,1,4) and more on the larger three
    k = coxeter_number(r, p, n) + 1
    point = gordon_point(r, p, n)
    assert singular_vector_check(r, p, n, point, k) \
        == singular_vector_check_all_of_w(r, p, n, point, k)


def test_span_verdict_matches_both_oracles_at_seeded_points():
    # some points meet an eigenvalue collision in the solve over k e_n, or,
    # in the all-of-W oracle, which solves over each k e_i, in another
    # solve; those cases are skipped
    verdicts = Counter()
    for (r, p, n), point in _seeded_points(2551, ANNIHILATION_GROUPS, 2):
        for k in (kk for kk in (1, 2, 4, 5) if kk % r):
            case = (r, p, n, point, k)
            try:
                verdict = _verdict(singular_vector_check(*case))
                oracle = singular_vector_check_all_of_w(*case)
            except NonGenericError:
                continue
            assert verdict == _verdict(
                singular_vector_check_per_vector(*case)), case
            assert verdict == _verdict(oracle), case
            verdicts[verdict] += 1
    assert verdicts == {("fail", "not annihilated"): 56, ("pass", None): 1}


@pytest.mark.parametrize("r,p,n", [(2, 1, 2), (3, 1, 2), (4, 2, 2),
                                   (2, 1, 3), (2, 2, 3), (3, 3, 3)])
def test_span_verdict_matches_both_oracles_on_perturbed_vectors(
        monkeypatch, r, p, n):
    # f + x^nu, for nu of degree k - 1 or k other than k e_i, keeps what
    # the argument needs (coefficient 1 at x^{k e_n}, no other x_j^k); on
    # it the generators of the stabilizer of slot n decide stability as
    # the slot-1 peel and the walk over all of W do
    k = coxeter_number(r, p, n) + 1
    point = gordon_point(r, p, n)
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    tops = _tops(n, k)
    f = jack_by_solve(rep, tops[-1]).poly
    real = reptheory.jack_by_solve
    stable = []
    for nu in [nu for d in (k - 1, k) for nu in monomials_of_degree(n, d)
               if nu not in tops]:
        def perturbed(rep_, mu, nu=nu):
            jv = real(rep_, mu)
            return dataclasses.replace(
                jv, poly=jv.poly + Poly.monomial(nu, rep_.params.one))

        monkeypatch.setattr(reptheory, "jack_by_solve", perturbed)
        report = singular_vector_check(r, p, n, point, k)
        found = report.get("reason") != "span not group-stable"
        basis = list(zip(tops, _transported(
            rep, f + Poly.monomial(nu, rep.params.one))))
        assert (span_stability_check(rep, basis) is None) == found, nu
        assert (span_character_check_all_of_w(rep, basis, k) is None) \
            == found, nu
        stable.append(found)
    assert any(stable) and not all(stable)


_TRANSPOSED_CASES = (
    [(r, p, n, None, None)
     for r, p, n in DIFFERENTIAL_GROUPS + [(2, 1, 4), (3, 1, 3)]]
    + [(2, 1, 2, Fraction(1, 3), k) for k in (3, 5)])


@pytest.mark.parametrize("r,p,n,c,k", _TRANSPOSED_CASES)
def test_transposed_singular_vectors_match_separate_solves(
        monkeypatch, r, p, n, c, k):
    # one solve per check, over k e_n; the other vectors of the span,
    # t_{w_i} f, are the ones jack_by_solve finds over each k e_i
    if c is None:
        point, k = gordon_point(r, p, n), coxeter_number(r, p, n) + 1
    else:
        point = ParamPoint.from_c(r, p, 1, c, [c] * (r // p - 1))
    solves = []
    real_solve = reptheory.jack_by_solve

    def solve_spy(rep, mu):
        solves.append(mu)
        return real_solve(rep, mu)

    monkeypatch.setattr(reptheory, "jack_by_solve", solve_spy)
    singular_vector_check(r, p, n, point, k)
    monkeypatch.undo()
    tops = _tops(n, k)
    assert solves == [tops[-1]]
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    images = _transported(rep, jack_by_solve(rep, tops[-1]).poly)
    for mu, f in zip(tops, images):
        assert f == jack_by_solve(rep, mu).poly, mu


@pytest.mark.parametrize("r,p,n", DIFFERENTIAL_GROUPS)
def test_class_pipeline_matches_all_of_w(r, p, n):
    k = coxeter_number(r, p, n) + 1
    point = gordon_point(r, p, n)
    report = singular_vector_check(r, p, n, point, k)
    assert report["status"] == "pass"
    assert report == singular_vector_check_all_of_w(r, p, n, point, k)
    assert invariant_char_series(r, p, n, k, 12) \
        == invariant_char_series_all_of_w(r, p, n, k, 12)


# every r <= 6, p | r and n <= 5 with r^n <= 216 (50 groups), where the
# class sum takes about 1.6 s in all; the cycle index matched it on every
# r^n <= 20,000 as well, which takes the class sum about 20 s
SERIES_GROUPS = [(r, p, n) for r in range(1, 7) for p in range(1, r + 1)
                 if r % p == 0 for n in range(1, 6) if r ** n <= 216]
SERIES_KS = (1, 2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("r", range(1, 7))
def test_cycle_index_matches_the_class_sum(r):
    for rr, p, n in SERIES_GROUPS:
        if rr != r:
            continue
        for k in SERIES_KS:
            full = invariant_char_series_by_classes(r, p, n, k, 20)
            for truncation in (0, 5, 12, 20):
                assert invariant_char_series(r, p, n, k, truncation) \
                    == full[:truncation + 1], (r, p, n, k, truncation)


def test_cycle_index_matches_all_of_w():
    cases = [(r, p, n) for r, p, n in SERIES_GROUPS
             if group_order(r, p, n) <= 24]
    assert {(4, 2, 2), (2, 2, 3), (6, 3, 2), (3, 3, 2)} <= set(cases)
    for r, p, n in cases:
        for k in SERIES_KS:
            assert invariant_char_series(r, p, n, k, 20) \
                == invariant_char_series_all_of_w(r, p, n, k, 20), \
                (r, p, n, k)


def test_guard_matches_the_scan_on_golden_groups():
    for r, p, n in GOLDEN_GORDON_GROUPS:
        point = gordon_point(r, p, n)
        k = coxeter_number(r, p, n) + 1
        for bound in (None, 3 * k):
            assert genericity_guard(point, k, n, bound) \
                == genericity_guard_scan(point, k, n, bound)


GUARD_GROUPS = [(2, 1, 2), (3, 1, 2), (4, 1, 2), (4, 2, 3), (6, 2, 2),
                (6, 1, 3), (3, 3, 3), (6, 3, 2)]


def test_guard_matches_the_scan_at_seeded_points():
    # half the points are moved onto a chosen H_{l,j} with j < n by solving
    # for c0, so that violation lists are long and their order counts
    rng = random.Random(2452)
    lists = 0
    for (r, p, n), point in _seeded_points(2452, GUARD_GROUPS, 6):
        if rng.random() < 0.5:
            l = rng.choice([v for v in range(1, 4 * r) if v % r])
            j = rng.randrange(1, n)
            shift = Cyc.from_rational(r, l) - reptheory._hjk_lhs(point, l, j, n)
            point = dataclasses.replace(
                point, c0=point.c0 + shift / (r * (n - j)))
            assert on_hyperplane(point, Hjk(l, j), n)
        for k in (kk for kk in range(1, 2 * r + 2) if kk % r):
            report = genericity_guard(point, k, n)
            assert report == genericity_guard_scan(point, k, n), \
                (r, p, n, k, point)
            lists += len(report["violations"]) >= 3
    assert lists >= 20, lists


def test_graded_character_identity_element():
    series = l1_graded_dimension(2, 5, 10)
    expect = [1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 0]
    assert series == expect
    assert sum(series) == 25
    # matches the eigenbasis count coefficientwise through the top degree
    assert l1_series_by_counting(2, 5, 8) == expect[:9]


def test_graded_character_nonidentity():
    # the transposition in G(2,1,2): V-matrix swaps the two k-th powers
    s = GroupElement.transposition(2, 2, 0, 1)
    # det(1 - t^5 w_V) = 1 - t^10, det(1 - t w) = 1 - t^2
    assert graded_char_series_dense(s, 5, 12) \
        == [Cyc.from_rational(2, v)
            for v in [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]]


def test_catalan_series_values():
    cat = catalan_series(2, 1, 2, 12)
    assert cat["coefficients"] == [1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0]
    assert cat["at_one"] == 6
    cat2 = catalan_series(3, 3, 2, 12)
    assert cat2["at_one"] == 5
    # rank one: series (1 - t^{2r})/(1 - t^r) = 1 + t^r
    cat1 = catalan_series(4, 1, 1, 8)
    assert cat1["coefficients"] == [1, 0, 0, 0, 1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        catalan_series(2, 2, 2, 4)


def test_catalan_invariant_cross_check():
    for (r, p, n) in [(2, 1, 2), (3, 3, 2)]:
        h = coxeter_number(r, p, n)
        inv = invariant_char_series(r, p, n, h + 1, 12)
        cat = catalan_series(r, p, n, 12)
        assert [int(v) for v in inv] == cat["coefficients"]


def test_catalan_value_is_integer_product():
    # integrality holds on the well-generated groups (h = largest degree)
    for (r, p, n) in [(2, 1, 2), (3, 1, 2), (3, 3, 2), (2, 1, 3), (3, 3, 3)]:
        h = coxeter_number(r, p, n)
        assert h == max(degrees(r, p, n))
        num = den = 1
        for d in degrees(r, p, n):
            num *= h + d
            den *= d
        assert num % den == 0
        assert catalan_series(r, p, n, 4)["at_one"] == num // den
    # G(4,2,2) is not well-generated: h = 6 exceeds every degree and the
    # value at t = 1 is a genuine fraction
    assert coxeter_number(4, 2, 2) == 6 and degrees(4, 2, 2) == [4, 4]
    assert catalan_series(4, 2, 2, 8)["at_one"] == "25/4"


def test_coinvariant_series_domination():
    # the eigenbasis image dominates the ordinary coinvariant series
    for (r, p, n) in [(2, 1, 2), (3, 3, 2), (2, 1, 3)]:
        h = coxeter_number(r, p, n)
        socle = sum(d - 1 for d in degrees(r, p, n))
        coin = coinvariant_series(r, p, n, socle)
        image = l1_series_by_counting(n, h + 1, socle)
        assert all(a >= b for a, b in zip(image, coin))
        assert sum(coin) == (
            __import__("math").prod(degrees(r, p, n)))


def test_exponents_and_freeness_examples():
    out = exponents_and_freeness(2, 1, 2, 5)
    assert out["exponents"] == [1, 3]
    assert out["det_identity"] and out["multiset_match"]
    out = exponents_and_freeness(2, 2, 2, 3)
    assert out["exponents"] == [1, 1]
    assert out["det_identity"] and out["multiset_match"]
    out = exponents_and_freeness(3, 1, 2, 7)
    assert out["multiset_match"]
    with pytest.raises(ValueError):
        exponents_and_freeness(2, 1, 2, 4)  # r divides m



@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_freeness_dets_match_leibniz_oracle(r):
    # every p | r, n <= 5 and m <= 4r + 2 with m != 0 mod r: 980 cases in all
    for p in (d for d in range(1, r + 1) if r % d == 0):
        for n in range(1, 6):
            for m in range(1, 4 * r + 3):
                if m % r == 0:
                    continue
                out = exponents_and_freeness(r, p, n, m)
                want = oracles.freeness_dets_leibniz(r, p, n, m)
                assert {k: v for k, v in out.items()
                        if k.startswith("det")} == want, (r, p, n, m)


@pytest.mark.parametrize("rows,r,shift,sign", [
    ([(0, 1), (0, 3), (0, 5)], 2, 1, -1),      # the f-matrix of G(2,1,3)
    ([(0, 5), (0, 1), (0, 3)], 2, 1, -1),      # its rows cyclically moved
    ([(0, 3), (0, 1), (0, 5)], 2, 1, 1),       # two rows swapped
    ([(0, 2), (0, 5), (4, -1)], 3, 3, -1),     # a p > 1 style last row
    ([(1, 1), (0, 4)], 3, 2, -1),              # the shift spread over rows
    ([(0, 1), (0, 3), (0, 7)], 2, 1, 0),       # not a progression
    ([(0, 1), (0, 3), (0, 3)], 2, 1, 0),       # a repeated exponent
    ([(0, 1), (0, 1)], 2, 1, 0),               # all exponents equal
    ([(0, 1), (0, 3), (0, 5)], 2, 2, 0),       # the wrong shift
    ([(1, 1), (0, 4)], 3, 1, 0),               # the row shift left out
    ([(0, 1), (0, 4), (0, 7)], 2, 1, 0),       # step 3 where r = 2
])
def test_alternant_sign_on_crafted_rows(rows, r, shift, sign):
    assert reptheory._alternant_sign(rows, r, shift) == sign
    assert oracles.alternant_sign_leibniz(rows, r, shift) == sign


def test_freeness_dets_at_rank_twelve():
    # the Leibniz sum would have 12! = 479001600 terms here
    out = exponents_and_freeness(2, 1, 12, 23)
    assert out["det_sign"] == 1 and out["det_identity"]

def test_dim_three_ways_g332():
    r, p, n = 3, 3, 2
    k = coxeter_number(r, p, n) + 1
    assert l1_dimension_by_counting(n, k) == k ** n
    assert sum(l1_graded_dimension(n, k, 0)) == k ** n
    assert sum(l1_series_by_counting(n, k, n * (k - 1))) == k ** n


@pytest.mark.parametrize("r,p,n", [(2, 1, 4), (3, 1, 3), (4, 2, 3)])
def test_series_match_the_dense_product_oracles(r, p, n):
    h = coxeter_number(r, p, n)
    degs = degrees(r, p, n)
    assert catalan_series(r, p, n, 20)["coefficients"] \
        == int_series_dense([h + d for d in degs], degs, 20)
    assert coinvariant_series(r, p, n, 20) \
        == int_series_dense(degs, [1] * n, 20)


def _gordon_budget_admits(n, k):
    try:
        reptheory.require_gordon_budget(n, k)
    except ValueError:
        return False
    return True


L1_SWEEP = [(r, p, n) for r in range(2, 7) for p in range(1, r + 1)
            for n in range(1, 5) if r % p == 0 and is_irreducible(r, p, n)
            and _gordon_budget_admits(n, coxeter_number(r, p, n) + 1)]


@pytest.mark.parametrize("r,p,n", L1_SWEEP)
def test_l1_graded_dimension_matches_the_oracles(r, p, n):
    k = coxeter_number(r, p, n) + 1
    top = n * (k - 1)
    ident = GroupElement.identity(r, n)
    for truncation in (3, top, top + 5):
        got = l1_graded_dimension(n, k, truncation)
        assert len(got) == max(top, truncation) + 1
        assert got[:truncation + 1] \
            == int_series_dense([k] * n, [1] * n, truncation)
        assert got[:truncation + 1] \
            == graded_char_series_dense(ident, k, truncation)
    assert got[:top + 1] == l1_series_by_counting(n, k, top)
    assert sum(got) == k ** n
