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
