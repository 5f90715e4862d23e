"""Compositions, the order, weights, and the eigenbasis constructions."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from byte_sweep import gordon_groups
from oracles import (
    bruhat_le_cover, candidates_desc_by_order_data, dense_eigenvector,
    jack_by_solve_scan,
    jack_by_solve_zeta_compatible, linear_extension_desc,
    linear_extension_desc_pairwise, max_length_sorting_permutation,
    pivot_scan, solve_candidates_scan, v_permutation_counts,
    zeta_compatible,
)

from cherednik import (
    Cyc, GenericParameters, NonGenericError, ParamPoint, Poly, PolyRep,
    SpecializedParameters, bruhat_le, dominance_lt, jack_by_intertwiners,
    jack_by_solve, order_key, order_lt, v_permutation, weight_of,
)
from cherednik import jack as jack_module
from cherednik.operators import monomials_of_degree, monomials_up_to
from cherednik.reptheory import coxeter_number, gordon_point
from test_render import _jack_bands


def test_v_permutation_against_brute_force():
    # few distinct entries, so most compositions repeat one: the tie rule
    # of the sort is where a fault would hide
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(1, 6)
        mu = tuple(rng.randint(0, rng.choice((1, 2, 4))) for _ in range(n))
        assert v_permutation(mu) == max_length_sorting_permutation(mu)
    for n in range(1, 7):
        for mu in itertools.product(range(3), repeat=n):
            assert v_permutation(mu) == v_permutation_counts(mu), mu
    assert v_permutation((0, 0)) == (1, 0)
    assert v_permutation((1, 0)) == (1, 0)
    assert v_permutation((0, 1)) == (0, 1)


def test_bruhat_against_cover_closure():
    for n in (3, 4):
        for u in itertools.permutations(range(n)):
            for w in itertools.permutations(range(n)):
                assert bruhat_le(u, w) == bruhat_le_cover(u, w)


def test_order_is_strict_and_antisymmetric():
    mus = list(monomials_up_to(3, 4))
    for mu in mus:
        assert not order_lt(mu, mu)
    rng = random.Random(4)
    for _ in range(300):
        a, b = rng.choice(mus), rng.choice(mus)
        assert not (order_lt(a, b) and order_lt(b, a))


def test_order_fact_from_exchange():
    # if mu_i > mu_{i+1} then mu > s_i mu + k(e_i - e_{i+1}) for
    # 0 <= k < mu_i - mu_{i+1}
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 4)
        mu = [rng.randint(0, 5) for _ in range(n)]
        i = rng.randrange(n - 1)
        if mu[i] <= mu[i + 1]:
            mu[i], mu[i + 1] = mu[i + 1], mu[i] + rng.randint(0, 2)
        if mu[i] == mu[i + 1]:
            mu[i] += 1
        for k in range(mu[i] - mu[i + 1]):
            nu = list(mu)
            nu[i], nu[i + 1] = mu[i + 1] + k, mu[i] - k
            assert order_lt(tuple(nu), tuple(mu))


def test_order_on_degree_one():
    assert order_lt((0, 1), (1, 0))
    assert not order_lt((1, 0), (0, 1))


def test_dominance_requires_equal_size():
    assert not dominance_lt((1, 0), (2, 0))
    assert dominance_lt((1, 1), (2, 0))
    # different total degree: incomparable in both directions
    assert not order_lt((1, 0, 0), (0, 2, 0))
    assert not order_lt((0, 2, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        order_lt((1, 0), (1, 0, 0))


def test_order_key_refines_the_order():
    # every related pair of compositions with n <= 4 and size <= 7
    related = 0
    for n in range(1, 5):
        for d in range(8):
            mus = list(monomials_of_degree(n, d))
            keys = {mu: order_key(mu) for mu in mus}
            for a in mus:
                for b in mus:
                    if order_lt(a, b):
                        related += 1
                        assert keys[a] < keys[b], (a, b)
    assert related > 10000


def _candidates(rep, mu):
    return [nu for nu in monomials_of_degree(rep.n, sum(mu))
            if nu != mu and zeta_compatible(nu, mu, rep.r, rep.p)
            and order_lt(nu, mu)]


def _assert_linear_extension_desc(seq):
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            assert not order_lt(a, b), (a, b)


@pytest.mark.parametrize("group,mu", [
    ((1, 1, 4), (3, 5, 0, 1)), ((1, 1, 4), (2, 2, 2, 1)),
    ((2, 1, 4), (0, 4, 2, 6)), ((3, 3, 4), (6, 3, 3, 0)),
    ((2, 1, 3), (5, 0, 0)), ((1, 1, 3), (0, 0, 6)),
])
def test_linear_extension_by_key_against_pairwise_oracle(group, mu):
    rep = PolyRep(*group)
    cands = _candidates(rep, mu)
    got = linear_extension_desc(cands)
    want = linear_extension_desc_pairwise(cands)
    assert sorted(got) == sorted(want) == sorted(cands)
    _assert_linear_extension_desc(got)
    _assert_linear_extension_desc(want)


@pytest.mark.parametrize("group,point,mus", [
    ((1, 1, 4), None, [(3, 1, 0, 2), (1, 1, 2, 0)]),
    ((2, 1, 3), None, [(2, 0, 2), (0, 3, 1)]),
    ((2, 1, 3), gordon_point(2, 1, 3), [(7, 0, 0), (0, 0, 7)]),
    ((3, 1, 2), gordon_point(3, 1, 2), [(7, 0), (0, 7)]),
])
def test_eigenbasis_does_not_depend_on_the_extension(group, point, mus):
    params = SpecializedParameters(point) if point is not None else None
    rep = PolyRep(*group, params)
    fast = [jack_by_solve(rep, mu) for mu in mus]
    for mu, jv in zip(mus, fast, strict=True):
        slow = jack_by_solve_scan(rep, mu,
                                  order=linear_extension_desc_pairwise)
        assert (jv.poly, jv.weight) == (slow.poly, slow.weight)
        assert jv.poly.to_json() == slow.poly.to_json()


def _rational_point(r, p):
    return ParamPoint.make(r, p, Fraction(7, 3), Fraction(2, 5),
                           [Fraction(j + 1, 7) for j in range(r // p - 1)])


@pytest.mark.parametrize("group", [(4, 2, 2), (3, 3, 3), (2, 2, 3),
                                   (6, 2, 2)])
@pytest.mark.parametrize("generic", [True, False])
def test_solve_on_the_lattice_matches_the_zeta_compatible_scan(group,
                                                               generic):
    r, p, n = group
    params = None if generic else SpecializedParameters(_rational_point(r, p))
    rep = PolyRep(r, p, n, params)
    off = 0
    for mu in monomials_up_to(n, 12 if n == 2 else 7):
        want, skipped = jack_by_solve_zeta_compatible(rep, mu)
        assert jack_by_solve(rep, mu).poly == want, mu
        off += skipped
    # the scan saw candidates that the solve skips, except on G(2,2,3):
    # there nu = mu + (1,1,1) mod 2 would change the parity of the degree
    assert (off > 0) == (group != (2, 2, 3))


def test_off_lattice_candidates_of_the_g422_example():
    rep = PolyRep(4, 2, 2)
    want, off = jack_by_solve_zeta_compatible(rep, (20, 0))
    assert off == 5
    assert jack_by_solve(rep, (20, 0)).poly == want
    assert all(a % 4 == 0 for nu in want.terms for a in nu)


@pytest.mark.parametrize("group,point", [
    ((2, 1, 3), None), ((3, 3, 3), None),
    ((2, 1, 3), ParamPoint.make(2, 1, 1, 1, [0])),
    ((3, 1, 2), gordon_point(3, 1, 2)),
])
def test_pivot_is_the_first_weight_difference(group, point):
    # the pivot builds nu's z-eigenvalues one at a time; weight_of builds
    # them all, and the first nonzero difference must agree
    params = SpecializedParameters(point) if point is not None else None
    rep = PolyRep(*group, params)
    for mu in monomials_of_degree(rep.n, 4):
        wt = weight_of(mu, rep.params)
        for nu in _candidates(rep, mu):
            diffs = [(i, a - b) for i, (a, b) in enumerate(
                zip(wt.zvals, weight_of(nu, rep.params).zvals))]
            want = next(((i, d) for i, d in diffs if d), None)
            assert pivot_scan(rep.params, mu, v_permutation(mu),
                              wt.zvals, nu) == want


# every composition up to these degrees is solved both ways
SCAN_GROUPS = {(1, 1, 2): 8, (1, 1, 3): 6, (1, 1, 4): 4, (2, 1, 3): 6,
               (3, 1, 2): 10, (2, 2, 3): 6, (4, 2, 2): 12, (3, 3, 3): 7}
SCAN_IDS = [f"G{r}{p}{n}" for r, p, n in SCAN_GROUPS]


def _solve_outcome(solve, rep, mu):
    """f_mu and its weight, or the (mu, nu) that NonGenericError names."""
    try:
        jv = solve(rep, mu)
    except NonGenericError as exc:
        return "non-generic", exc.mu, exc.nu
    return jv.poly, jv.weight


def _assert_solve_matches_the_scan(rep, max_deg) -> int:
    """Both solves agree on every composition up to max_deg; the number
    that raised NonGenericError."""
    raised = 0
    for mu in monomials_up_to(rep.n, max_deg):
        got = _solve_outcome(jack_by_solve, rep, mu)
        assert got == _solve_outcome(jack_by_solve_scan, rep, mu), mu
        raised += got[0] == "non-generic"
    return raised


def _seeded_point(rng, r, p):
    def q(nonzero=False):
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return v

    return ParamPoint.make(r, p, q(nonzero=True), q(),
                           [q() for _ in range(r // p - 1)])


def _coxeter_point(r, p, n):
    # S_n has Coxeter number n, and gordon_point takes only r > 1
    if r == 1:
        return ParamPoint.make(1, 1, 1, Fraction(n + 1, n), [])
    return gordon_point(r, p, n)


@pytest.mark.parametrize("group", list(SCAN_GROUPS), ids=SCAN_IDS)
def test_solve_matches_the_scan_oracle_at_generic_parameters(group):
    assert _assert_solve_matches_the_scan(PolyRep(*group),
                                          SCAN_GROUPS[group]) == 0


@pytest.mark.parametrize("group", list(SCAN_GROUPS), ids=SCAN_IDS)
def test_solve_matches_the_scan_oracle_at_seeded_and_gordon_points(group):
    r, p, n = group
    rng = random.Random(100 * r + 10 * p + n)
    points = [_seeded_point(rng, r, p) for _ in range(3)]
    for point in points + [_coxeter_point(r, p, n)]:
        rep = PolyRep(r, p, n, SpecializedParameters(point))
        _assert_solve_matches_the_scan(rep, SCAN_GROUPS[group])


@pytest.mark.parametrize("group", list(SCAN_GROUPS), ids=SCAN_IDS)
def test_a_collision_is_named_alike_by_the_solve_and_the_scan(group):
    # kappa = c0 = 1 with every d_j = 0: z_i(mu) = m + 1 - r v, so
    # (r, 0, ...) and (0, r, ...) collide, and so do others
    r, p, n = group
    point = ParamPoint.make(r, p, 1, 1, [0] * (r // p - 1))
    rep = PolyRep(r, p, n, SpecializedParameters(point))
    assert _assert_solve_matches_the_scan(rep, SCAN_GROUPS[group]) > 0


@pytest.mark.parametrize("group", [(1, 1, 3), (1, 1, 4), (2, 1, 3),
                                   (3, 1, 2), (2, 2, 3), (4, 2, 2),
                                   (3, 3, 3), (6, 2, 2)])
def test_candidates_are_the_filtered_scan_in_order(group):
    # the solve visits nu in this order: the lattice mu mod r + r Z^n must
    # give the candidates that the filter over every monomial keeps, and
    # each with its own sorting permutation
    r, _, n = group
    rep = PolyRep(*group)
    for mu in monomials_up_to(n, 10 if n == 2 else 6):
        got = jack_module._candidates_desc(mu, jack_module._order_data(mu), r)
        want = linear_extension_desc(solve_candidates_scan(rep, mu))
        assert [nu for nu, _ in got] == want, mu
        assert all(v == v_permutation(nu) for nu, v in got), mu


def _candidate_cases(kind):
    """(mu, r) per composition of the ``jack`` benchmark bands, per k e_n
    that ``gordon``'s budget admits, or per composition of a sweep."""
    if kind == "jack bands":
        return [(mu, int(group.split(",")[0]))
                for group, band in _jack_bands() for mu in band]
    if kind == "gordon":
        out = []
        for group in gordon_groups():
            r, p, n = map(int, group.split(","))
            k = coxeter_number(r, p, n) + 1
            out.append(((0,) * (n - 1) + (k,), r))
        return out
    return [(mu, r) for r in range(1, 5) for n in range(1, 5)
            for mu in monomials_up_to(n, {1: 12, 2: 12, 3: 8, 4: 6}[n])]


@pytest.mark.parametrize("kind", ["jack bands", "gordon", "sweep"])
def test_candidates_match_the_order_data_oracle(kind):
    # dominance is tested on the partition before the order data is built,
    # and inversions are counted on the composition; the list is the same
    for mu, r in _candidate_cases(kind):
        got = jack_module._candidates_desc(mu, jack_module._order_data(mu), r)
        assert got == candidates_desc_by_order_data(mu, r), (mu, r)


def test_weight_values():
    par = PolyRep(2, 1, 2).params
    wt = weight_of((0, 0), par)
    assert str(wt.zvals[0]) == "k - 2*c0 + 2*d1"
    assert str(wt.zvals[1]) == "k + 2*d1"
    assert weight_of((1, 0), par).zeta_exps == (1, 0)
    # weight of the swapped composition is the swapped weight (the exchange
    # operator only moves f_mu when the entries differ)
    rng = random.Random(8)
    par3 = PolyRep(3, 1, 3).params
    done = 0
    while done < 50:
        mu = tuple(rng.randint(0, 4) for _ in range(3))
        i = rng.randrange(2)
        if mu[i] == mu[i + 1]:
            continue
        smu = list(mu)
        smu[i], smu[i + 1] = smu[i + 1], smu[i]
        assert weight_of(tuple(smu), par3) == weight_of(mu, par3).swap(i)
        done += 1


def test_weight_t_equality_is_coarse_for_p_greater_one():
    par = PolyRep(4, 2, 2).params
    a = weight_of((0, 0), par)
    b = weight_of((2, 2), par)
    # the zeta data alone agrees mod r/p, so only the z-values tell the two
    # weights apart
    assert a.zeta_exps != b.zeta_exps
    assert all((x - y) % 2 == 0 for x, y in zip(a.zeta_exps, b.zeta_exps))
    assert zeta_compatible(a.zeta_exps, b.zeta_exps, 4, 2)
    assert a.zvals != b.zvals and a != b
    assert a == weight_of((0, 0), par)


def test_zeta_compatibility_filter():
    assert not zeta_compatible((2, 0), (1, 1), 2, 1)
    assert zeta_compatible((0, 2), (2, 0), 2, 1)
    # p > 1: per-coordinate congruence is only mod r/p
    assert zeta_compatible((2, 0), (0, 2), 4, 2)
    assert not zeta_compatible((1, 1), (0, 2), 4, 2)


def test_jack_trivial_cases():
    rep = PolyRep(3, 1, 2)
    f0 = jack_by_solve(rep, (0, 0))
    assert f0.poly == rep.one()
    rep1 = PolyRep(3, 1, 1)
    for m in range(5):
        assert jack_by_solve(rep1, (m,)).poly \
            == Poly.monomial((m,), rep1.params.one)


def test_degree_one_against_dense_oracle():
    # frozen from the dense eigen-solve: the degree-one eigenvectors of
    # G(2,1,2) are the bare variables (character separation kills mixing)
    rep = PolyRep(2, 1, 2)
    for mu, frozen in [((1, 0), Poly.monomial((1, 0), rep.params.one)),
                       ((0, 1), Poly.monomial((0, 1), rep.params.one))]:
        dim, vec = dense_eigenvector(rep, mu)
        assert dim == 1 and vec == frozen
        assert jack_by_solve(rep, mu).poly == frozen


def test_type_a_against_dense_oracle():
    # S_2 degeneration, frozen: f_(1,0) = x1 - (c0/(k - c0)) x2
    rep = PolyRep(1, 1, 2)
    par = rep.params
    frozen = Poly.monomial((1, 0), par.one) \
        + Poly.monomial((0, 1), -par.c0 / (par.kappa - par.c0))
    dim, vec = dense_eigenvector(rep, (1, 0))
    assert dim == 1 and vec == frozen
    assert jack_by_solve(rep, (1, 0)).poly == frozen
    assert jack_by_intertwiners(rep, (1, 0)).poly == frozen


def test_constructions_agree_small_grid():
    for (r, p, n) in [(2, 1, 2), (3, 3, 2), (4, 2, 2)]:
        rep = PolyRep(r, p, n)
        for mu in monomials_up_to(n, 3):
            a = jack_by_solve(rep, mu)
            b = jack_by_intertwiners(rep, mu)
            assert a.poly == b.poly and a.weight == b.weight


def _chain_up(mu):
    """mu's predecessor chain from 0 up to mu, each step with its operator:
    raising when the last entry is positive, otherwise the exchange at the
    smallest descent, from mu with that pair swapped."""
    steps = []
    while any(mu):
        if mu[-1]:
            prev, op = (mu[-1] - 1,) + mu[:-1], ("phi",)
        else:
            i = min(i for i in range(len(mu) - 1) if mu[i] > mu[i + 1])
            prev, op = mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2:], ("sigma", i)
        steps.append((prev, op, mu))
        mu = prev
    return steps[::-1]


@pytest.mark.parametrize("group", [(1, 1, 3), (2, 1, 3), (3, 3, 3),
                                   (4, 2, 2)])
def test_a_fresh_walk_memoizes_exactly_the_predecessor_chain(group,
                                                             monkeypatch):
    from cherednik import intertwiners

    calls = []
    for name in ("apply_phi", "apply_sigma"):
        real = getattr(intertwiners, name)

        def spy(rep, *args, _real=real, _name=name[6:]):
            calls.append((_name,) + args[:-1] + (args[-1].mu,))
            return _real(rep, *args)
        monkeypatch.setattr(intertwiners, name, spy)
    n = group[2]
    for mu in monomials_up_to(n, 3 if n == 3 else 4):
        rep = PolyRep(*group)
        calls.clear()
        got = jack_by_intertwiners(rep, mu)
        steps = _chain_up(mu)
        assert got.mu == mu
        assert list(rep.jack_cache) == [(0,) * n] + [m for _, _, m in steps]
        assert calls == [op + (prev,) for prev, op, _ in steps]
        # a warm cache is served without another operator application, and
        # a walk stops at the first memoized vector
        calls.clear()
        assert jack_by_intertwiners(rep, mu) is got and calls == []
        jack_by_intertwiners(rep, mu[1:] + (mu[0] + 1,))
        assert calls == [("phi", mu)]


def test_eigen_equations_and_triangularity():
    rep = PolyRep(3, 1, 2)
    for mu in monomials_up_to(2, 4):
        jv = jack_by_solve(rep, mu)
        for i in range(2):
            assert rep.z(i, jv.poly) == jv.poly.scaled(jv.weight.zvals[i])
        assert jv.poly.coeff(mu) == rep.params.one
        for nu in jv.poly.terms:
            if nu != tuple(mu):
                assert sum(nu) == sum(mu) and order_lt(nu, mu)


def test_simple_spectrum_generic():
    # kappa-coefficients alone separate the weights of distinct compositions
    for (r, p, n) in [(2, 1, 2), (3, 3, 2)]:
        par = PolyRep(r, p, n).params
        seen = {}
        for d in range(6):
            for mu in monomials_of_degree(n, d):
                wt = weight_of(mu, par)
                key = (wt.zvals, wt.zeta_exps)
                assert key not in seen, (mu, seen[key])
                seen[key] = mu


def test_non_generic_collision_raises():
    # kappa=1, c0=1 puts (2,0) and (0,2) in the same t-character
    point = ParamPoint.make(2, 1, 1, 1, [0])
    rep = PolyRep(2, 1, 2, SpecializedParameters(point))
    with pytest.raises(NonGenericError) as err:
        jack_by_solve(rep, (2, 0))
    assert err.value.nu == (0, 2)


def test_non_generic_intertwiner_route_raises():
    # at c0 = 2 the exchange step from (0,4) up to (4,0) is singular
    point = ParamPoint.make(2, 1, 1, 2, [0])
    rep = PolyRep(2, 1, 2, SpecializedParameters(point))
    with pytest.raises(NonGenericError):
        jack_by_intertwiners(rep, (4, 0))


def test_specialized_gordon_construction():
    rep = PolyRep(2, 1, 2, SpecializedParameters(gordon_point(2, 1, 2)))
    jv = jack_by_solve(rep, (0, 5))
    assert jv.poly.coeff((0, 5)) == rep.params.one
    for i in range(2):
        assert rep.z(i, jv.poly) == jv.poly.scaled(jv.weight.zvals[i])


def test_jack_json_export():
    rep = PolyRep(2, 1, 2)
    jv = jack_by_solve(rep, (2, 1))
    data = jv.to_json()
    assert data["mu"] == [2, 1]
    assert set(data["weight"]) == {"z", "zeta"}
    assert all(set(t) == {"exp", "coeff"} for t in data["terms"])


@pytest.mark.parametrize("group,mu", [((1, 1, 4), (2, 4, 1, 1)),
                                      ((3, 3, 4), (6, 3, 3, 0))])
def test_generic_eigenbasis_makes_no_gcd_call(monkeypatch, group, mu):
    # every division is by a weight difference, a linear form, so the
    # factored denominators reduce without the general gcd
    from cherednik import scalars
    calls = []
    real = scalars.mp_gcd

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(scalars, "mp_gcd", counting)
    rep = PolyRep(*group)
    assert jack_by_solve(rep, mu).poly == jack_by_intertwiners(rep, mu).poly
    assert calls == []
    k = rep.params.kappa.num
    scalars.RatFunc(k, k * k)  # the counter sees the general path
    assert calls


# -- oracles from the literature ---------------------------------------------
#
# Both checks below rest on results about non-symmetric Jack polynomials, not
# on the program's own operators.

def _knop_sahi_value(mu, alpha, one):
    """f_mu(1, ..., 1) for the monic non-symmetric Jack polynomial of the
    composition mu at parameter alpha: the evaluation formula of Knop and
    Sahi (Invent. Math. 128, 1997) and Sahi (IMRN 1996),

        prod over cells s of (alpha (a'(s) + 1) + n - l'(s))
                             / (alpha (a(s) + 1) + l(s) + 1),

    with arm a, coarm a', leg l and coleg l' of the cell s = (i, j),
    1 <= j <= mu_i, as counted below."""
    n, out = len(mu), one
    for i, m in enumerate(mu):
        coleg = sum(mu[k] >= m for k in range(i)) \
            + sum(mu[k] > m for k in range(i + 1, n))
        for j in range(1, m + 1):
            arm, coarm = m - j, j - 1
            leg = sum(j <= mu[k] + 1 <= m for k in range(i)) \
                + sum(j <= mu[k] <= m for k in range(i + 1, n))
            out = out * (alpha * (coarm + 1) + one * (n - coleg)) \
                / (alpha * (arm + 1) + one * (leg + 1))
    return out


def _seeded_points(count, seed):
    """Seeded points (kappa, c0) with kappa != 1 and c0 over a prime
    denominator."""
    rng = random.Random(seed)
    return [(Fraction(rng.randint(2, 9), rng.randint(1, 4)),
             Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                      rng.choice([23, 29, 31])))
            for _ in range(count)]


LITERATURE_POINTS = [(Fraction(1), Fraction(7, 23)),
                     (Fraction(1), Fraction(-3, 11)),
                     (Fraction(2), Fraction(7, 23)),
                     (Fraction(5, 3), Fraction(-3, 11)),
                     *_seeded_points(2, seed=19)]


@pytest.mark.parametrize("kappa,c0", LITERATURE_POINTS)
def test_type_a_eigenvectors_at_one_are_the_knop_sahi_value(kappa, c0):
    # f_mu for G(1,1,n) is the non-symmetric Jack polynomial at
    # alpha = -kappa/c0, so its value at (1, ..., 1) is a product over cells
    point = ParamPoint.make(1, 1, kappa, c0)
    for n, top in ((2, 8), (3, 6), (4, 5)):
        rep = PolyRep(1, 1, n, SpecializedParameters(point))
        for mu in monomials_up_to(n, top):
            f = jack_by_intertwiners(rep, mu).poly
            value = sum(f.terms.values(), Cyc.zero(1)).rational_value()
            assert value == _knop_sahi_value(mu, -kappa / c0, Fraction(1)), \
                (n, mu)


def test_generic_type_a_eigenvectors_at_one_are_the_knop_sahi_value():
    # the same identity of rational functions in kappa and c0
    par = GenericParameters(1, 1)
    alpha = -par.kappa / par.c0
    for n, top in ((2, 5), (3, 3)):
        rep = PolyRep(1, 1, n, par)
        for mu in monomials_up_to(n, top):
            f = jack_by_solve(rep, mu).poly
            assert sum(f.terms.values(), par.zero) \
                == _knop_sahi_value(mu, alpha, par.one), mu


@pytest.mark.parametrize("kappa,c0", [(Fraction(2), Fraction(7, 23)),
                                      *_seeded_points(1, seed=23)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_with_every_d_zero_f_r_mu_is_f_mu_of_x_to_the_r(r, kappa, c0):
    # d = 0 leaves only the colored transpositions, whose colors x_i^r does
    # not see: f_{r mu}(x) is the G(1,1,n) vector f_mu(x_1^r, ..., x_n^r)
    for n in (2, 3):
        base = PolyRep(1, 1, n, SpecializedParameters(
            ParamPoint.make(1, 1, kappa, c0)))
        rep = PolyRep(r, 1, n, SpecializedParameters(
            ParamPoint.make(r, 1, kappa, c0, [0] * (r - 1))))
        for mu in monomials_up_to(n, 4):
            f = jack_by_intertwiners(base, mu).poly
            want = {tuple(r * a for a in e):
                    Cyc.from_rational(r, c.rational_value())
                    for e, c in f.terms.items()}
            got = jack_by_intertwiners(rep, tuple(r * m for m in mu)).poly
            assert got.terms == want, (n, mu)
