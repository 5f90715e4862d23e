"""The record classes on ``cherednik.value.Value``, and what importing the
package loads."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import cherednik
from cherednik import (
    Cyc, FormFamily, GenericParameters, GroupElement, Hjk, Hx, JackVector,
    ParamPoint, PolyRep, Reflection, Scaled, Weight, jack_by_solve,
    reflections,
)

PAR = GenericParameters(2, 1)
REP = PolyRep(2, 1, 2, PAR)
F10, F01 = jack_by_solve(REP, (1, 0)), jack_by_solve(REP, (0, 1))
# a colored transposition and a diagonal reflection: every field differs
S, T = reflections(2, 1, 2)[0], reflections(2, 1, 2)[-1]
KEEP = object()  # no variant of this field on its own

# (class, fields, for each field a different value or KEEP)
CASES = [
    (Reflection, tuple(getattr(S, f) for f in Reflection.FIELDS),
     tuple(getattr(T, f) for f in Reflection.FIELDS)),
    (Scaled, (PAR.zero, None), (PAR.one, F10)),
    (Weight, (F10.weight.zvals, F10.weight.zeta_exps),
     (F01.weight.zvals, F01.weight.zeta_exps)),
    (JackVector, (F10.mu, F10.poly, F10.weight),
     (F01.mu, F01.poly, F01.weight)),
    (Hjk, (3, 1), (5, 2)),
    (Hx, (Fraction(1, 2),), (Fraction(1, 3),)),
    # r and p fix the number of d-values, so neither changes alone
    (ParamPoint, (2, 1, Cyc.one(2), Cyc.from_rational(2, Fraction(1, 3)),
                  (Cyc.zero(2),)),
     (KEEP, KEEP, Cyc.from_rational(2, 2), Cyc.zero(2), (Cyc.one(2),))),
]

# the repr of each sample at the commit before the plain classes, except
# that Weight has since lost its unused fields r and p
PARENT_REPRS = {
    Reflection: "Reflection(element=GroupElement(r=2, (1 2)[0,0]), "
                "kind='transposition', i=0, j=1, l=0, cclass='c0', "
                "alpha=(Cyc(2, [1]), Cyc(2, [-1])), "
                "alpha_check=(Cyc(2, [1]), Cyc(2, [-1])))",
    Scaled: "Scaled(scalar=RatFunc(0), vector=None)",
    Weight: "Weight(zvals=(RatFunc(2*k - 2*c0), RatFunc(k + 2*d1)), "
            "zeta_exps=(1, 0))",
    JackVector: "JackVector(mu=(1, 0), poly=Poly(x1), "
                "weight=Weight(zvals=(RatFunc(2*k - 2*c0), "
                "RatFunc(k + 2*d1)), zeta_exps=(1, 0)))",
    Hjk: "Hjk(j=3, k=1)",
    Hx: "Hx(x=Fraction(1, 2))",
    ParamPoint: "ParamPoint(r=2, p=1, kappa=Cyc(2, [1]), "
                "c0=Cyc(2, [1/3]), d=(Cyc(2, [0]),))",
}


@pytest.mark.parametrize("cls,fields,others", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_a_value_is_equal_hashed_and_printed_by_its_fields(cls, fields,
                                                           others):
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == PARENT_REPRS[cls]
    for i, other in enumerate(others):
        if other is not KEEP:
            assert a != cls(*fields[:i], other, *fields[i + 1:]), i
    assert a != fields and fields != a
    with pytest.raises(TypeError):
        cls(*fields, None)


def test_values_of_two_classes_are_never_equal():
    values = [Hjk(1, 2), Scaled(1, 2), Weight(1, 2)]
    for x in values:
        assert [x == y for y in values] == [y is x for y in values]


def test_a_form_family_is_compared_by_its_forms_and_not_hashable():
    par = GenericParameters(1, 1)
    a, b = FormFamily(1, 1, 2, par), FormFamily(1, 1, 2, par)
    assert a == b
    assert repr(a) == ("FormFamily(r=1, p=1, n=2, "
                       "params=GenericParameters(r=1, p=1), forms={})")
    for other in (FormFamily(2, 1, 2, par), FormFamily(1, 2, 2, par),
                  FormFamily(1, 1, 3, par),
                  FormFamily(1, 1, 2, GenericParameters(1, 1))):
        assert a != other
    b.set(GroupElement.identity(1, 2), 0, 2, par.kappa)
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    # -S: ``site`` itself imports typing on some hosts.  Nor is the parser
    # (and with it ``ast``) loaded: no command reads a printed form back.
    src = str(pathlib.Path(cherednik.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, cherednik, cherednik.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing', 'ast', "
            "'cherednik.parsing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
