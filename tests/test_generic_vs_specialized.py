"""The generic and the specialized scalar stacks agree.

``GenericParameters`` builds operator images over ``RatFunc`` in kappa, c0
and the d_j; ``SpecializedParameters`` builds them over ``Cyc`` at one
point.  Substituting the point into every generic coefficient
(``scalars.specialize``) must give the image built at the point, a
relation suite that passes generically must pass at the point, and so must
the eigenvectors f_mu of both constructions and their weights.
"""

import random
from fractions import Fraction

import pytest

from cherednik import (
    GenericParameters, ParamPoint, Poly, PolyRep, SpecializedParameters,
)
from cherednik.intertwiners import psi_scalar, verify_braid_and_quadratic
from cherednik.jack import (
    NonGenericError, Weight, jack_by_intertwiners, jack_by_solve, weight_of,
)
from cherednik.operators import monomials_up_to
from cherednik.reptheory import gordon_point
from cherednik.scalars import PoleError, specialize

GROUPS = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (4, 2, 2), (3, 3, 3)]


def _random_point(rng, r, p):
    """kappa != 0, c0 and d_1 .. d_{r/p-1}, each a rational with numerator
    in -9..9 and denominator in 1..9."""
    def q(nonzero=False):
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return v

    return ParamPoint.make(r, p, q(nonzero=True), q(),
                           [q() for _ in range(r // p - 1)])


def _points(r, p, n):
    rng = random.Random(1000 * r + 100 * p + n)
    return [("random", _random_point(rng, r, p)) for _ in range(3)] \
        + [("gordon", gordon_point(r, p, n))]


def _specialized(f: Poly, point) -> Poly:
    """f with every coefficient specialized at the point, zeros dropped."""
    return Poly(f.n, {e: v for e, c in f.terms.items()
                      if (v := specialize(c, point))})


@pytest.mark.parametrize("r,p,n", GROUPS,
                         ids=[f"G{r}{p}{n}" for r, p, n in GROUPS])
def test_operator_images_specialize_to_the_images_at_the_point(r, p, n):
    generic = PolyRep(r, p, n, GenericParameters(r, p))
    images = [(op, i, mu) for mu in monomials_up_to(n, 4) for i in range(n)
              for op in ("_dunkl_mono", "z_monomial")]
    poles = []
    for kind, point in _points(r, p, n):
        at = PolyRep(r, p, n, SpecializedParameters(point))
        for op, i, mu in images:
            try:
                expected = _specialized(getattr(generic, op)(i, mu), point)
            except PoleError as exc:  # recorded, never skipped
                poles.append((kind, str(point), op, i, mu, exc.factor))
                continue
            assert getattr(at, op)(i, mu) == expected, (kind, op, i, mu)
    # the images are polynomial in the parameters: no denominator to vanish
    assert poles == []


@pytest.mark.parametrize("r,p,n", GROUPS,
                         ids=[f"G{r}{p}{n}" for r, p, n in GROUPS])
def test_a_generic_relation_pass_holds_at_every_point(r, p, n):
    generic = PolyRep(r, p, n).check_relations(3)
    assert generic["status"] == "pass"
    for kind, point in _points(r, p, n):
        at = PolyRep(r, p, n, SpecializedParameters(point))
        assert at.check_relations(3) == generic, (kind, str(point))


# the largest |mu| per group: 559 eigenvectors in all
JACK_GROUPS = {(2, 1, 3): 5, (3, 1, 2): 6, (4, 2, 2): 6, (2, 2, 3): 5,
               (3, 3, 3): 4}


@pytest.mark.parametrize("r,p,n", list(JACK_GROUPS),
                         ids=[f"G{r}{p}{n}" for r, p, n in JACK_GROUPS])
def test_generic_eigenvectors_specialize_to_the_ones_at_the_point(r, p, n):
    generic = PolyRep(r, p, n, GenericParameters(r, p))
    vectors = []
    for mu in monomials_up_to(n, JACK_GROUPS[r, p, n]):
        f = jack_by_solve(generic, mu)
        g = jack_by_intertwiners(generic, mu)
        assert g.poly == f.poly and g.weight == f.weight, mu
        vectors.append(f)
    checked, skipped, poles = 0, [], []
    for kind, point in _points(r, p, n)[:3]:  # the seeded rational points
        at = PolyRep(r, p, n, SpecializedParameters(point))
        for f in vectors:
            try:
                built = jack_by_solve(at, f.mu)
            except NonGenericError:
                built = None
            try:
                poly = _specialized(f.poly, point)
            except PoleError as exc:
                poles.append((f.mu, exc.factor, built is None))
                continue
            if built is None:
                skipped.append((str(point), f.mu))
                continue
            weight = Weight(r, p, tuple(specialize(z, point)
                                        for z in f.weight.zvals),
                            f.weight.zeta_exps)
            assert built.poly == poly and built.weight == weight, \
                (kind, str(point), f.mu)
            checked += 1
    # at these points a solve meets a weight collision exactly where some
    # generic coefficient has a pole; G(3,1,2) has one, (6, 0) at
    # k = c0/2 = 3/4
    assert skipped == []
    assert all(collided for _, _, collided in poles)
    assert len(poles) == ((r, p, n) == (3, 1, 2))
    assert checked + len(poles) == 3 * len(vectors)


# the largest |mu| of the intertwiner grid per group
SIGMA_GROUPS = {(2, 1, 2): 9, (3, 1, 2): 9, (2, 1, 3): 5, (4, 2, 2): 9}


def _exchange_factor(params, mu, i, pi):
    """1 - (c0 pi_i/delta)^2 from mu's weight, built as
    ``verify_braid_and_quadratic`` builds it."""
    zvals = weight_of(mu, params).zvals
    q = params.c0 * params.rational(pi) / (zvals[i] - zvals[i + 1])
    return params.one - q * q


@pytest.mark.parametrize("r,p,n", list(SIGMA_GROUPS),
                         ids=[f"G{r}{p}{n}" for r, p, n in SIGMA_GROUPS])
def test_a_generic_intertwiner_pass_holds_at_every_point(r, p, n):
    generic = PolyRep(r, p, n, GenericParameters(r, p))
    grid = list(monomials_up_to(n, SIGMA_GROUPS[r, p, n]))
    reports = {mu: verify_braid_and_quadratic(generic, [mu]) for mu in grid}
    assert all(rep["status"] == "pass" for rep in reports.values())
    exchanges = [(mu, i) for mu in grid for i in range(n - 1)
                 if mu[i] != mu[i + 1] and (mu[i] - mu[i + 1]) % r == 0]
    passed, non_generic, poles = 0, set(), set()
    for _, point in _points(r, p, n):
        at = PolyRep(r, p, n, SpecializedParameters(point))
        for mu in grid:
            # psi_scalar is polynomial in the parameters: no pole
            assert specialize(psi_scalar(generic, mu), point) \
                == psi_scalar(at, mu), (str(point), mu)
            try:
                got = verify_braid_and_quadratic(at, [mu])
            except NonGenericError:
                non_generic.add((str(point), mu))
                continue
            assert got == reports[mu], (str(point), mu)
            passed += 1
        for mu, i in exchanges:
            try:  # pi_i acts by r on these
                factor = specialize(_exchange_factor(generic.params, mu, i, r),
                                    point)
            except PoleError:  # recorded: delta_i vanishes at the point
                poles.add((str(point), mu))
                continue
            assert factor == _exchange_factor(at.params, mu, i, r), \
                (str(point), mu, i)
    # every pole of an exchange factor comes with NonGenericError, which is
    # raised only at points where some factor has a pole; here that is
    # G(3,1,2) at k = c0/2 = 3/4, as in the eigenvector test above
    assert poles <= non_generic
    assert {pt for pt, _ in non_generic} == {pt for pt, _ in poles}
    assert bool(poles) == ((r, p, n) == (3, 1, 2))
    assert passed + len(non_generic) == 4 * len(grid)
