"""The skew-form families and the PBW-flatness conditions."""

import itertools

import pytest

from cherednik import (
    Cyc, FormFamily, GenericParameters, GroupElement, check_pbw,
    group_elements, rca_forms, reflections,
)
from cherednik import pbw
from cherednik.pbw import PBW_COMPARISON_BUDGET, require_pbw_budget


def test_rca_forms_support_and_isotropy():
    fam = rca_forms(2, 1, 2)
    refl = {s.element for s in reflections(2, 1, 2)}
    ident = GroupElement.identity(2, 2)
    assert set(fam.forms) == refl | {ident}
    # both h and h* isotropic: only x-y pairs carry values
    for w, form in fam.forms.items():
        for (a, b) in form:
            assert a < 2 <= b
    # a non-reflection element carries no form at all
    w = GroupElement.diagonal(2, 2, 0, 1) * GroupElement.diagonal(2, 2, 1, 1)
    assert fam.value(w, 0, 2) == fam.params.zero


def test_rca_form_value_matches_definition():
    # the rank-one diagonal case, recomputed from the stored root data
    fam = rca_forms(2, 1, 1)
    par = fam.params
    s = reflections(2, 1, 1)[0]
    expected = par.c(1).cmul(s.alpha[0] * s.alpha_check[0])
    assert fam.value(s.element, 0, 1) == expected
    # and the identity form is the kappa-multiple of the symplectic pairing
    ident = GroupElement.identity(2, 1)
    assert fam.value(ident, 0, 1) == -par.kappa
    assert fam.value(ident, 1, 0) == par.kappa


def test_check_pbw_passes_small():
    for (r, p, n) in [(2, 1, 2), (2, 2, 2), (3, 3, 2)]:
        assert check_pbw(rca_forms(r, p, n))["status"] == "pass"


def test_condition_a_fault():
    fam = rca_forms(2, 1, 2)
    par = fam.params
    s = reflections(2, 1, 2)[0]
    form = fam.forms[s.element]
    for key in list(form):
        form[key] = form[key] * par.rational(3)
    report = check_pbw(fam)
    assert report["status"] == "fail" and report["condition"] == "a"
    assert "witness" in report


def test_condition_b_fault_found_by_search():
    # search small candidate families: a W-invariant symplectic form placed
    # at a central non-reflection element passes (a) but violates (b)
    par = GenericParameters(2, 1)
    refl = {s.element for s in reflections(2, 1, 2)}
    found = None
    for w in group_elements(2, 1, 2):
        if w == GroupElement.identity(2, 2) or w in refl:
            continue
        if any(w * v != v * w for v in group_elements(2, 1, 2)):
            continue
        fam = FormFamily(2, 1, 2, par)
        for i in range(2):
            fam.set(w, i, 2 + i, par.one)
        report = check_pbw(fam)
        if report["status"] == "fail" and report["condition"] == "b":
            found = (w, report)
            break
    assert found is not None
    _, report = found
    assert set(report["witness"]) >= {"w", "a", "b", "c"}


def test_invariance_under_simultaneous_conjugation():
    from cherednik.pbw import _basis_image

    fam = rca_forms(2, 2, 2)
    par = fam.params
    for v in itertools.islice(group_elements(2, 2, 2), 4):
        vinv = v.inverse()
        conj = FormFamily(2, 2, 2, par)
        for w, form in fam.forms.items():
            for (a, b), val in form.items():
                # transport: B'(v e_a, v e_b) = B(e_a, e_b)
                ta, ja = _basis_image(v, a, 2)
                tb, jb = _basis_image(v, b, 2)
                scale = (Cyc.root(2, ta) * Cyc.root(2, tb)).inverse()
                conj.set(v * w * vinv, ja, jb, val.cmul(scale))
        assert check_pbw(conj)["status"] == "pass"


def test_report_is_json_ready():
    import json

    report = check_pbw(rca_forms(2, 1, 2))
    assert json.loads(json.dumps(report)) == report


def test_condition_a_count_is_the_closed_form():
    # |W| |support| n(2n - 1): 48 * 10 * 15 on G(2,1,3)
    assert require_pbw_budget(rca_forms(2, 1, 3)) == 7200
    for (r, p, n) in [(2, 1, 2), (2, 2, 2), (3, 3, 2), (2, 1, 3)]:
        fam = rca_forms(r, p, n)
        assert check_pbw(fam)["checked_a"] == require_pbw_budget(fam)


def test_oversized_pbw_request_fails_before_enumerating_w(monkeypatch):
    assert require_pbw_budget(rca_forms(3, 1, 4)) == 1_469_664 \
        <= PBW_COMPARISON_BUDGET

    def no_walk(*args):
        raise AssertionError("W was enumerated")

    monkeypatch.setattr(pbw, "group_elements", no_walk)
    with pytest.raises(ValueError, match="4,492,800 form comparisons"):
        check_pbw(rca_forms(2, 1, 5))


# ---------------------------------------------------------------------------
# condition (a) by whole conjugated forms against the pairwise loop
# ---------------------------------------------------------------------------


def check_pbw_pairwise(family):
    """The replaced ``check_pbw``: condition (a) reads every pair (a, b) of
    every (v, w) one value at a time; condition (b) is unchanged."""
    from cherednik.pbw import _basis_image
    from cherednik.polynomials import accumulate

    require_pbw_budget(family)
    r, n = family.r, family.n
    dim = 2 * n
    elements = list(group_elements(family.r, family.p, family.n))
    support = list(family.forms)
    checked_a = checked_b = 0
    for v in elements:
        vinv = v.inverse()
        for w in support:
            wc = v * w * vinv
            for a in range(dim):
                ka, ia = _basis_image(v, a, n)
                for b in range(a + 1, dim):
                    kb, ib = _basis_image(v, b, n)
                    lhs = family.value(wc, ia, ib).cmul(Cyc.root(r, ka + kb))
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
        images = [(Cyc.root(r, k), j)
                  for k, j in (_basis_image(w, a, n) for a in range(dim))]
        for a in range(dim):
            for b in range(a + 1, dim):
                vab = family.value(w, a, b)
                for c in range(dim):
                    acc: dict = {}
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


PBW_GROUPS = [(2, 1, 2), (2, 2, 2), (3, 3, 2), (3, 1, 2), (4, 2, 2),
              (2, 1, 3)]


def _specialized_forms(r, p, n):
    from fractions import Fraction

    from cherednik import ParamPoint, SpecializedParameters

    point = ParamPoint.make(r, p, Fraction(2, 3), Fraction(-1, 4),
                            [Fraction(j, 5) for j in range(1, r // p)])
    return rca_forms(r, p, n, SpecializedParameters(point))


@pytest.mark.parametrize("group", PBW_GROUPS)
def test_check_pbw_matches_the_pairwise_loop_on_passing_families(group):
    for fam in (rca_forms(*group), _specialized_forms(*group)):
        report = check_pbw(fam)
        assert report["status"] == "pass"
        assert report == check_pbw_pairwise(fam)
        assert list(report) == list(check_pbw_pairwise(fam))


def _non_reflection(r, p, n):
    refl = {s.element for s in reflections(r, p, n)}
    ident = GroupElement.identity(r, n)
    return [u for u in group_elements(r, p, n)
            if u != ident and u not in refl]


def _perturbed(group, how, rng, specialized=False):
    """rca_forms(*group) with one seeded change of kind ``how``."""
    fam = _specialized_forms(*group) if specialized else rca_forms(*group)
    par = fam.params
    r, p, n = group
    ident = GroupElement.identity(r, n)
    refl = [w for w in fam.forms if w != ident]
    if how == "identity entry":
        free = [(a, b) for a in range(2 * n) for b in range(a + 1, 2 * n)
                if (a, b) not in fam.forms[ident]]
        fam.set(ident, *rng.choice(free), par.rational(rng.randint(1, 3)))
        return fam
    if how == "copy to a non-reflection":
        fam.forms[rng.choice(_non_reflection(r, p, n))] = \
            dict(fam.forms[rng.choice(refl)])
        return fam
    w = rng.choice(list(fam.forms))
    form = fam.forms[w]
    key = rng.choice(sorted(form))
    if how == "scale":
        form[key] = form[key] * par.rational(rng.choice([2, -3, 5]), 7)
    elif how == "negate":
        form[key] = -form[key]
    else:  # drop
        del form[key]
        if not form:
            del fam.forms[w]
    return fam


PERTURBATIONS = ["scale", "negate", "drop", "identity entry",
                 "copy to a non-reflection"]


def test_check_pbw_matches_the_pairwise_loop_on_perturbed_families():
    import random

    rng = random.Random(23)
    kinds = set()
    for group in PBW_GROUPS:
        first_v = str(next(group_elements(*group)))
        for how in PERTURBATIONS:
            for seed in range(4):
                fam = _perturbed(group, how, rng, specialized=seed == 3)
                first_w = str(next(iter(fam.forms)))
                report = check_pbw(fam)
                assert report == check_pbw_pairwise(fam), (group, how, seed)
                assert report["status"] == "fail"
                if report["condition"] != "a":
                    continue
                wit = report["witness"]
                kinds.add("lhs missing" if wit["lhs"] == "0" else
                          "rhs missing" if wit["rhs"] == "0" else "both")
                if (wit["v"], wit["w"]) != (first_v, first_w):
                    kinds.add("later pair")
    # witnesses where the conjugated side lacks the key, where w's side
    # does, where both hold values, and failures past the first (v, w)
    assert kinds == {"lhs missing", "rhs missing", "both", "later pair"}
