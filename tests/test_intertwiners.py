"""Exchange/raising/lowering operators: closed forms versus raw application."""

import sys
from fractions import Fraction

import pytest

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from oracles import dense_eigenvector, oracle_z, sigma_uncached

from cherednik import (
    JackVector, NonGenericError, ParamPoint, Poly, PolyRep, Scaled,
    SingularIntertwinerError, SpecializedParameters, apply_phi, apply_psi,
    apply_sigma, jack_by_intertwiners, jack_by_solve, phi_psi_scalar,
    psi_scalar, v_permutation, verify_braid_and_quadratic, weight_of,
)
from cherednik import intertwiners
from cherednik.operators import monomials_up_to
from cherednik.reptheory import gordon_point


def test_sigma_zero_on_equal_entries():
    rep = PolyRep(2, 1, 2)
    jv = jack_by_solve(rep, (2, 2))
    res = apply_sigma(rep, 0, jv)
    assert res.is_zero() and res.vector is None


def test_sigma_unit_coefficient_upward():
    rep = PolyRep(3, 1, 2)
    for mu in [(0, 1), (1, 3), (0, 4)]:
        jv = jack_by_solve(rep, mu)
        res = apply_sigma(rep, 0, jv)
        assert res.scalar == rep.params.one
        assert res.vector.mu == (mu[1], mu[0])
        assert res.vector.poly == jack_by_solve(rep, (mu[1], mu[0])).poly


def test_sigma_downward_coefficients():
    rep = PolyRep(2, 1, 2)
    par = rep.params
    # non-congruent drop: unit coefficient
    jv = jack_by_solve(rep, (2, 1))
    res = apply_sigma(rep, 0, jv)
    assert res.scalar == par.one
    assert res.vector.poly == jack_by_solve(rep, (1, 2)).poly
    # congruent drop: (delta - r c0)(delta + r c0)/delta^2
    jv = jack_by_solve(rep, (3, 1))
    delta = jv.weight.zvals[0] - jv.weight.zvals[1]
    rc0 = par.c0 * par.rational(2)
    expected = (delta - rc0) * (delta + rc0) / (delta * delta)
    res = apply_sigma(rep, 0, jv)
    assert res.scalar == expected
    assert res.vector.poly == jack_by_solve(rep, (1, 3)).poly
    # the delta of the closed form equals the v-permutation expression
    v = v_permutation((3, 1))
    alt = par.kappa * par.rational(3 - 1) \
        - par.c0 * par.rational(2 * (v[0] - v[1]))
    assert delta == alt


def test_sigma_weight_exchange():
    rep = PolyRep(3, 1, 3)
    jv = jack_by_solve(rep, (2, 0, 1))
    for i in range(2):
        if jv.mu[i] == jv.mu[i + 1]:
            continue
        res = apply_sigma(rep, i, jv)
        assert res.vector.weight == jv.weight.swap(i)


def test_phi_on_constants_and_weights():
    for (r, p, n) in [(2, 1, 2), (3, 1, 3)]:
        rep = PolyRep(r, p, n)
        f0 = jack_by_solve(rep, (0,) * n)
        up = apply_phi(rep, f0)
        assert up.mu == (0,) * (n - 1) + (1,)
        assert up.poly == Poly.monomial(up.mu, rep.params.one)
        # phi-twist of the weight: z-values rotate, last one is shifted
        par = rep.params
        for mu in monomials_up_to(n, 3):
            jv = jack_by_solve(rep, mu)
            up = apply_phi(rep, jv)
            for i in range(n - 1):
                assert up.weight.zvals[i] == jv.weight.zvals[i + 1]
            j = -mu[0]
            shift = par.kappa - (par.d(j - 1) - par.d(j - 2))
            assert up.weight.zvals[n - 1] == jv.weight.zvals[0] + shift


def test_phi_raw_is_monic_eigenvector():
    rep = PolyRep(2, 1, 3)
    for mu in monomials_up_to(3, 3):
        jv = jack_by_solve(rep, mu)
        up = apply_phi(rep, jv)
        assert up.poly.coeff(up.mu) == rep.params.one
        assert up.poly == jack_by_solve(rep, up.mu).poly


def test_psi_vanishes_iff_last_entry_zero_or_scalar_zero():
    rep = PolyRep(2, 1, 2)
    assert apply_psi(rep, jack_by_solve(rep, (3, 0))).is_zero()
    res = apply_psi(rep, jack_by_solve(rep, (0, 2)))
    assert not res.is_zero()
    assert res.scalar == psi_scalar(rep, (0, 2))
    assert res.vector.mu == (1, 0)
    assert res.vector.poly == jack_by_solve(rep, (1, 0)).poly


def test_psi_phi_composites():
    for (r, p, n) in [(2, 1, 2), (3, 3, 2), (2, 1, 3)]:
        rep = PolyRep(r, p, n)
        for mu in monomials_up_to(n, 3):
            jv = jack_by_solve(rep, mu)
            up = apply_phi(rep, jv)
            down = apply_psi(rep, up)
            lhs = down.vector.poly.scaled(down.scalar) if down.vector \
                else Poly.zero(n)
            assert lhs == jv.poly.scaled(jv.weight.zvals[0])
            dn = apply_psi(rep, jv)
            lhs2 = apply_phi(rep, dn.vector).poly.scaled(dn.scalar) \
                if dn.vector else Poly.zero(n)
            assert lhs2 == jv.poly.scaled(phi_psi_scalar(rep, jv))


def test_gordon_singular_vector_via_psi():
    # at c = 5/4 the scalar of the lowering operator on f_(0,5) vanishes
    rep = PolyRep(2, 1, 2, SpecializedParameters(gordon_point(2, 1, 2)))
    assert not psi_scalar(rep, (0, 5))
    jv = jack_by_solve(rep, (0, 5))
    res = apply_psi(rep, jv)
    assert res.is_zero()
    # while generically it does not vanish
    gen = PolyRep(2, 1, 2)
    assert psi_scalar(gen, (0, 5))
    assert not apply_psi(gen, jack_by_solve(gen, (0, 5))).is_zero()


def test_singular_intertwiner_error():
    # c0 = 2 collapses the weights of (0,4) and (4,0); f over (0,4) still
    # exists (its triangular system avoids the collision), but the exchange
    # operator on it hits a vanishing denominator with pi acting by r
    point = ParamPoint.make(2, 1, 1, 2, [0])
    rep = PolyRep(2, 1, 2, SpecializedParameters(point))
    jv = jack_by_solve(rep, (0, 4))
    assert jv.weight.zvals[0] == jv.weight.zvals[1]
    with pytest.raises(SingularIntertwinerError):
        apply_sigma(rep, 0, jv)
    # the mirrored side is a non-split generalized eigenspace: the dense
    # solve finds no eigenvector monic at (4,0)
    dim, vec = dense_eigenvector(rep, (4, 0), z_of=oracle_z)
    assert dim == 1 and vec is None


def test_verify_braid_and_quadratic():
    rep = PolyRep(2, 1, 3)
    grid = list(monomials_up_to(3, 4))
    assert verify_braid_and_quadratic(rep, grid)["status"] == "pass"
    # a congruent descending pair actually exercises the pi coefficient
    bad = verify_braid_and_quadratic(rep, [(2, 0, 0)], fault_pi_sign=True)
    assert bad["status"] == "fail"
    assert "mu" in bad and "i" in bad


def test_a_vanishing_sigma_fails_where_its_square_is_not_zero(monkeypatch):
    from cherednik import intertwiners

    rep = PolyRep(2, 1, 2)
    jack_by_intertwiners(rep, (2, 0))  # built before sigma is broken
    monkeypatch.setattr(intertwiners, "apply_sigma", lambda rep, i, jv, **kw:
                        intertwiners.Scaled(rep.params.zero, None))
    assert verify_braid_and_quadratic(rep, [(2, 0)]) == {
        "status": "fail", "identity": "sigma vanished", "mu": [2, 0], "i": 0}


def test_a_vanishing_sigma_where_its_square_is_zero_is_non_generic():
    rep = PolyRep(2, 1, 2, SpecializedParameters(
        ParamPoint.make(2, 1, 1, Fraction(1, 2), [0])))
    with pytest.raises(NonGenericError, match=r"mu=\(2, 0\) against nu="):
        verify_braid_and_quadratic(rep, [(2, 0)])


def test_a_vanishing_sigma_square_where_it_is_predicted_zero_is_non_generic():
    # sigma_1 f_(0,2) is nonzero, but sigma_1 of it vanishes, as predicted
    rep = PolyRep(2, 1, 2, SpecializedParameters(
        ParamPoint.make(2, 1, 1, Fraction(1, 2), [0])))
    with pytest.raises(NonGenericError,
                       match=r"mu=\(0, 2\) against nu=\(2, 0\)"):
        verify_braid_and_quadratic(rep, [(0, 2)])


def test_a_singular_sigma_on_a_built_eigenvector_is_non_generic():
    # f_(0,6) is built at k = c0/2 = 3/4, but its weight difference at slot
    # 1 vanishes there while pi_1 acts by 3, so sigma_1 is singular on it
    rep = PolyRep(3, 1, 2, SpecializedParameters(ParamPoint.make(
        3, 1, Fraction(3, 4), Fraction(3, 2),
        [Fraction(8, 3), Fraction(-2, 7)])))
    jv = jack_by_intertwiners(rep, (0, 6))
    with pytest.raises(SingularIntertwinerError):
        apply_sigma(rep, 0, jv)
    with pytest.raises(NonGenericError, match=r"sigma_1 singular on "
                       r"f_\(0, 6\).* for mu=\(0, 6\) against nu=\(6, 0\)"):
        verify_braid_and_quadratic(rep, [(0, 6)])


def test_a_vanishing_sigma_square_fails_where_it_is_not_predicted_zero(
        monkeypatch):
    from cherednik import intertwiners

    rep = PolyRep(2, 1, 2)
    jack_by_intertwiners(rep, (2, 0))  # built before sigma is broken
    real = intertwiners.apply_sigma

    def image_killed(rep, i, jv, **kw):
        if jv.mu == (0, 2):
            return intertwiners.Scaled(rep.params.zero, None)
        return real(rep, i, jv, **kw)

    monkeypatch.setattr(intertwiners, "apply_sigma", image_killed)
    got = verify_braid_and_quadratic(rep, [(2, 0)])
    assert {k: got[k] for k in ("status", "identity", "mu", "i", "got")} \
        == {"status": "fail", "identity": "sigma squared", "mu": [2, 0],
            "i": 0, "got": "0"}
    assert got["expected"] != "0"


def test_sigma_square_is_one_without_congruence():
    # pi kills the eigenvector when entries differ mod r: coefficient one
    rep = PolyRep(3, 1, 2)
    jv = jack_by_solve(rep, (2, 0))
    res1 = apply_sigma(rep, 0, jv)
    res2 = apply_sigma(rep, 0, res1.vector)
    assert res1.scalar * res2.scalar == rep.params.one
    assert res2.vector.poly == jv.poly


# -- the exchange memo against the uncached oracle ---------------------------

SIGMA_MEMO_CASES = [
    pytest.param(lambda: PolyRep(2, 1, 3), id="G(2,1,3)"),
    pytest.param(lambda: PolyRep(3, 1, 2), id="G(3,1,2)"),
    pytest.param(lambda: PolyRep(2, 2, 3), id="G(2,2,3)"),
    pytest.param(lambda: PolyRep(
        2, 1, 3, SpecializedParameters(gordon_point(2, 1, 3))),
        id="G(2,1,3)-gordon"),
]


def _sigma_or_error(fn, *args):
    try:
        return fn(*args)
    except SingularIntertwinerError as exc:
        return type(exc)


@pytest.mark.parametrize("make_rep", SIGMA_MEMO_CASES)
def test_sigma_memo_matches_the_uncached_oracle(make_rep):
    rep = make_rep()
    checked = 0
    for mu in monomials_up_to(rep.n, 4):
        try:
            jv = jack_by_intertwiners(rep, mu)
        except NonGenericError:
            continue
        for i in range(rep.n - 1):
            expected = _sigma_or_error(sigma_uncached, rep, i, jv)
            # a miss, then a hit on the same vector
            assert _sigma_or_error(apply_sigma, rep, i, jv) == expected
            assert _sigma_or_error(apply_sigma, rep, i, jv) == expected
            if isinstance(expected, Scaled) and expected.vector is not None:
                # the image back, served by the memo on the grid's next turn
                back = expected.vector
                again = _sigma_or_error(sigma_uncached, rep, i, back)
                assert _sigma_or_error(apply_sigma, rep, i, back) == again
                checked += 1
    assert checked


def test_sigma_memo_recomputes_for_another_vector_of_the_same_key():
    rep = PolyRep(2, 1, 2)
    par = rep.params
    jv = jack_by_intertwiners(rep, (3, 1))
    first = apply_sigma(rep, 0, jv)
    assert first == sigma_uncached(rep, 0, jv)
    # the same (i, mu), but another poly, then another weight
    scaled = JackVector(jv.mu, jv.poly.scaled(par.kappa), jv.weight)
    other_weight = JackVector(jv.mu, jv.poly, weight_of((1, 3), par))
    for vec in (scaled, other_weight):
        got = apply_sigma(rep, 0, vec)
        assert got == sigma_uncached(rep, 0, vec) and got != first
    # an equal vector that is another object is served from the memo
    again = apply_sigma(rep, 0, jv)
    twin = JackVector(jv.mu, Poly(jv.poly.n, dict(jv.poly.terms)), jv.weight)
    assert twin is not jv and apply_sigma(rep, 0, twin) is again


def test_pi_sign_fault_fails_after_a_clean_run_on_the_same_rep():
    rep = PolyRep(2, 1, 3)
    grid = list(monomials_up_to(3, 4))
    assert verify_braid_and_quadratic(rep, grid)["status"] == "pass"
    res = verify_braid_and_quadratic(rep, grid, fault_pi_sign=True)
    assert res["status"] == "fail"
    assert verify_braid_and_quadratic(rep, grid)["status"] == "pass"


def test_sigma_is_computed_once_per_input_on_the_degree_6_suite(monkeypatch):
    calls, built = [0], [0]
    served, build = intertwiners.apply_sigma, intertwiners._sigma_image

    def counted(*args, **kwargs):
        calls[0] += 1
        return served(*args, **kwargs)

    def counted_build(*args, **kwargs):
        built[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(intertwiners, "apply_sigma", counted)
    monkeypatch.setattr(intertwiners, "_sigma_image", counted_build)
    # the grid of `verify --group 2,1,3 --max-deg 6`
    grid = list(monomials_up_to(3, 4))
    res = verify_braid_and_quadratic(PolyRep(2, 1, 3), grid)
    assert res["status"] == "pass"
    assert (calls[0], built[0]) == (136, 70)


def test_a_raised_sigma_is_not_memoized():
    point = ParamPoint.make(2, 1, 1, 2, [0])
    rep = PolyRep(2, 1, 2, SpecializedParameters(point))
    jv = jack_by_solve(rep, (0, 4))
    for _ in range(2):
        with pytest.raises(SingularIntertwinerError):
            apply_sigma(rep, 0, jv)
    assert rep.sigma_cache == {}
