"""Skew-form families on V = h* + h and the PBW-flatness test.

A deformation of S(V) x W by a family of skew-symmetric forms <.,.>_w (the
commutator of u, v in V being sum_w <u,v>_w t_w) has a PBW basis exactly when

  (a) <vu, vu'>_{vwv^{-1}} = <u, u'>_w for all group elements v, w, and
  (b) <u,u'>_w (w u'' - u'') + <u',u''>_w (w u - u) + <u'',u>_w (w u' - u') = 0
      for all w and all u, u', u'' in V.

Both conditions are multilinear, so they are checked on the basis
x_1..x_n, y_1..y_n (indices 0..n-1 and n..2n-1).  ``rca_forms`` produces the
family of the rational Cherednik algebra: the kappa-multiple of the symplectic
pairing at the identity plus one rank-2 form per reflection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import Cyc
from .groups import GroupElement, group_elements, group_order, reflections
from .polynomials import accumulate
from .scalars import GenericParameters

__all__ = ["FormFamily", "rca_forms", "check_pbw", "require_pbw_budget"]

# the most form comparisons condition (a) may make: G(3,1,4) needs 1.47
# million, G(2,1,5) 4.49 million; the 182,784 of G(2,1,4) take about 2 s
PBW_COMPARISON_BUDGET = 2_000_000


@dataclass
class FormFamily:
    """Sparse family w -> skew form, stored as {(a,b): value} with a < b."""

    r: int
    p: int
    n: int
    params: object
    forms: dict[GroupElement, dict[tuple[int, int], object]] \
        = field(default_factory=dict)

    def value(self, w: GroupElement, a: int, b: int):
        form = self.forms.get(w)
        if form is None:
            return self.params.zero
        if a < b:
            return form.get((a, b), self.params.zero)
        if a > b:
            v = form.get((b, a))
            return self.params.zero if v is None else -v
        return self.params.zero

    def set(self, w: GroupElement, a: int, b: int, value) -> None:
        if a == b:
            raise ValueError("skew form vanishes on the diagonal")
        if a > b:
            a, b, value = b, a, -value
        form = self.forms.setdefault(w, {})
        if value:
            form[(a, b)] = value
        else:
            form.pop((a, b), None)
        if not form:
            del self.forms[w]


def _basis_image(w: GroupElement, a: int, n: int) -> tuple[Cyc, int]:
    """w . e_a for the V-basis (x_0..x_{n-1}, y_0..y_{n-1})."""
    if a < n:
        k, j = w.x_image(a)
        return Cyc.root(w.r, k), j
    k, j = w.y_image(a - n)
    return Cyc.root(w.r, k), n + j


def rca_forms(r: int, p: int, n: int, params=None) -> FormFamily:
    """The family whose deformation is the rational Cherednik algebra."""
    if params is None:
        params = GenericParameters(r, p)
    fam = FormFamily(r, p, n, params)
    one = GroupElement.identity(r, n)
    for i in range(n):
        # [x_i, y_i] = -kappa: the identity form is -kappa times the
        # symplectic pairing extending <x,y> = x(y) with h, h* isotropic
        fam.set(one, i, n + i, -params.kappa)
    for s in reflections(r, p, n):
        cs = s.coupling(params)
        for a in range(n):
            xa = s.alpha_check[a]
            if not xa:
                continue
            for b in range(n):
                yb = s.alpha[b]
                if not yb:
                    continue
                fam.set(s.element, a, n + b, cs.cmul(xa * yb))
    return fam


def require_pbw_budget(family: FormFamily) -> int:
    """|W| |support| n(2n-1), the form comparisons of condition (a); a
    ValueError when that is over ``PBW_COMPARISON_BUDGET``."""
    r, p, n = family.r, family.p, family.n
    count = group_order(r, p, n) * len(family.forms) * n * (2 * n - 1)
    if count > PBW_COMPARISON_BUDGET:
        raise ValueError(
            f"the PBW check on G({r},{p},{n}) needs {count:,} form "
            f"comparisons, over the budget of {PBW_COMPARISON_BUDGET:,}")
    return count


def check_pbw(family: FormFamily) -> dict:
    """Check conditions (a) and (b), after :func:`require_pbw_budget`;
    returns a JSON-ready report with the first violated instance as witness."""
    require_pbw_budget(family)
    n = family.n
    dim = 2 * n
    elements = list(group_elements(family.r, family.p, family.n))
    support = list(family.forms)
    checked_a = checked_b = 0
    for v in elements:
        vinv = v.inverse()
        for w in support:
            wc = v * w * vinv
            for a in range(dim):
                sa, ia = _basis_image(v, a, n)
                for b in range(a + 1, dim):
                    sb, ib = _basis_image(v, b, n)
                    lhs = family.value(wc, ia, ib).cmul(sa * sb)
                    rhs = family.value(w, a, b)
                    checked_a += 1
                    if lhs != rhs:
                        return {
                            "status": "fail", "condition": "a",
                            "witness": {"v": str(v), "w": str(w),
                                        "a": a, "b": b,
                                        "lhs": str(lhs), "rhs": str(rhs)},
                        }
    for w in support:
        images = [_basis_image(w, a, n) for a in range(dim)]
        for a in range(dim):
            for b in range(a + 1, dim):
                vab = family.value(w, a, b)
                for c in range(dim):
                    # (w e_c - e_c) weighted by <a,b>_w, plus cyclic shifts
                    acc: dict[int, object] = {}
                    for (coef, (sc, tgt), src) in (
                            (vab, images[c], c),
                            (family.value(w, b, c), images[a], a),
                            (family.value(w, c, a), images[b], b)):
                        if coef:
                            accumulate(acc, ((tgt, coef.cmul(sc)),
                                             (src, -coef)))
                    checked_b += 1
                    if acc:
                        idx, val = next(iter(acc.items()))
                        return {
                            "status": "fail", "condition": "b",
                            "witness": {"w": str(w), "a": a, "b": b, "c": c,
                                        "component": idx, "value": str(val)},
                        }
    return {"status": "pass", "checked_a": checked_a, "checked_b": checked_b,
            "support": len(support), "group_order": len(elements)}
