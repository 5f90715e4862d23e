"""The generic and the specialized scalar stacks agree.

``GenericParameters`` builds operator images over ``RatFunc`` in kappa, c0
and the d_j; ``SpecializedParameters`` builds them over ``Cyc`` at one
point.  Substituting the point into every generic coefficient
(``scalars.specialize``) must give the image built at the point, and a
relation suite that passes generically must pass at the point.
"""

import random
from fractions import Fraction

import pytest

from cherednik import (
    GenericParameters, ParamPoint, Poly, PolyRep, SpecializedParameters,
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
