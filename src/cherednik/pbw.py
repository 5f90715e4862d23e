"""Skew-form families on V = h* + h and the PBW-flatness test.

A deformation of S(V) x W by a family of skew-symmetric forms <.,.>_w (the
commutator of u, v in V being sum_w <u,v>_w t_w) has a PBW basis exactly when

  (a) <vu, vu'>_{vwv^{-1}} = <u, u'>_w for all group elements v, w, and
  (b) <u,u'>_w (w u'' - u'') + <u',u''>_w (w u - u) + <u'',u>_w (w u' - u') = 0
      for all w and all u, u', u'' in V.

Both conditions are multilinear, so they are checked on the basis
x_1..x_n, y_1..y_n (indices 0..n-1 and n..2n-1).  A group element permutes
that basis up to roots of unity, so condition (a) for one (v, w) compares
two sparse forms: the stored entries of the form at vwv^{-1}, carried back
through v, against the form at w.  ``rca_forms`` produces the family of the
rational Cherednik algebra: the kappa-multiple of the symplectic pairing at
the identity plus one rank-2 form per reflection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import Cyc
from .groups import GroupElement, group_elements, group_order, reflections
from .polynomials import accumulate
from .scalars import GenericParameters

__all__ = ["FormFamily", "rca_forms", "check_pbw", "require_pbw_budget"]

# the most form comparisons condition (a) may make: G(3,1,4) needs 1.47
# million (about 0.5 s), G(2,1,5) 4.49 million; the 182,784 of G(2,1,4) take
# about 0.06 s
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


def _basis_image(w: GroupElement, a: int, n: int) -> tuple[int, int]:
    """(k, j) with w . e_a = zeta^k e_j, for the V-basis
    (x_0..x_{n-1}, y_0..y_{n-1})."""
    if a < n:
        return w.x_image(a)
    k, j = w.y_image(a - n)
    return k, n + j


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
    returns a JSON-ready report with the first violated instance as witness.

    Condition (a) runs over v in W and w in the support, and for each pair
    (a, b) with a < b in order.  Each (v, w) maps the entries of the form
    at vwv^{-1} back through v's basis images and compares the result with
    the form at w as a whole; on a difference the witness is the least
    (a, b) whose two values differ, the first the pairwise order meets.
    ``checked_a`` counts n(2n-1) comparisons per (v, w).
    """
    require_pbw_budget(family)
    r, n = family.r, family.n
    dim = 2 * n
    elements = list(group_elements(family.r, family.p, family.n))
    support = list(family.forms)
    pairs = n * (2 * n - 1)
    zero = family.params.zero
    checked_a = checked_b = 0
    for v in elements:
        vinv = v.inverse()
        images = [_basis_image(v, a, n) for a in range(dim)]
        back = [0] * dim  # v e_a = zeta^k e_c: back[c] = a
        for a, (_, c) in enumerate(images):
            back[c] = a
        for w in support:
            # <v e_a, v e_b>_{vwv^-1} = zeta^(k_a + k_b) <e_c, e_d>_{vwv^-1}
            conj = {}
            for (c, d), val in family.forms.get(v * w * vinv, {}).items():
                a, b = back[c], back[d]
                val = val.cmul(Cyc.root(r, images[a][0] + images[b][0]))
                if a > b:
                    a, b, val = b, a, -val
                conj[(a, b)] = val
            form = family.forms[w]
            if conj == form:
                checked_a += pairs
                continue
            a, b = min(key for key in conj.keys() | form.keys()
                       if conj.get(key, zero) != form.get(key, zero))
            return {
                "status": "fail", "condition": "a",
                "witness": {"v": str(v), "w": str(w), "a": a, "b": b,
                            "lhs": str(conj.get((a, b), zero)),
                            "rhs": str(form.get((a, b), zero))},
            }
    for w in support:
        images = [(Cyc.root(r, k), j)
                  for k, j in (_basis_image(w, a, n) for a in range(dim))]
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
