"""Replayable mutants: each is a file, an exact text edit, and the tests that
must catch it.

Run from the repository root::

    python tests/mutants.py [NAME ...]

It copies the repository (without ``.git`` and caches) to a temporary
directory and runs every listed test there once, unmutated: they must pass.
Then, for each mutant (or each one named), it applies the edit to the copy,
runs only that mutant's tests, and restores the file.  A mutant is caught
when each of its tests fails (a parametrized test in at least one case).
One line per mutant is printed; the exit status is 0 when every mutant is
caught.  The file's name does not start with ``test_``, so pytest does not
collect it.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "out", "*.egg-info")

SCALARS = "src/cherednik/scalars.py"
CYCLOTOMIC = "src/cherednik/cyclotomic.py"
PBW = "src/cherednik/pbw.py"
INTERTWINERS = "src/cherednik/intertwiners.py"

T_MIXED = "tests/test_scalars.py::test_products_with_one_unknown_split_match_the_gcd_path"
T_CANCEL = "tests/test_scalars.py::test_a_product_whose_unknown_factor_cancels_comes_back_split"
T_FALLBACK = "tests/test_scalars.py::test_factored_path_cancels_and_falls_back"
T_PBW_PASS = "tests/test_pbw.py::test_check_pbw_matches_the_pairwise_loop_on_passing_families"
T_PBW_FAIL = "tests/test_pbw.py::test_check_pbw_matches_the_pairwise_loop_on_perturbed_families"
T_PBW_COUNT = "tests/test_pbw.py::test_condition_a_count_is_the_closed_form"
T_CYC = "tests/test_cyclotomic.py::test_in_place_kernels_match_the_oracles_exactly"
T_TIMES = "tests/test_scalars.py::test_times_by_plan_matches_repeated_products"
T_PLAN = "tests/test_scalars.py::test_each_form_keeps_its_own_plan"
T_DIV_CASES = "tests/test_scalars.py::test_div_linear_cases_match_synthetic_division"
T_DIV_PROP = "tests/test_scalars.py::test_div_linear_shortcuts_agree_with_synthetic_division"
T_JACK_PTS = "tests/test_generic_vs_specialized.py::test_generic_eigenvectors_specialize_to_the_ones_at_the_point"
T_SIGMA_PTS = "tests/test_generic_vs_specialized.py::test_a_generic_intertwiner_pass_holds_at_every_point"
T_SINGULAR = "tests/test_intertwiners.py::test_a_singular_sigma_on_a_built_eigenvector_is_non_generic"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids that must each fail


MUTANTS = [
    # products with one unknown split (scalars._mul_general)
    Mutant("mul: skip the _strip", SCALARS,
           "num, off = _strip(num, y.split.forms, {})",
           "off = {}",
           (T_MIXED, T_CANCEL)),
    Mutant("mul: keep a split for a nonlinear leftover", SCALARS,
           "if den.total_degree() == 1:\n        forms = _adjust(",
           "if den.total_degree() >= 1:\n        forms = _adjust(",
           (T_MIXED,)),
    Mutant("mul: mp_gcd against the wrong denominator", SCALARS,
           "else mp_gcd(num, y.den)",
           "else mp_gcd(num, x.den)",
           (T_MIXED, T_CANCEL)),
    Mutant("mul: mp_gcd for a constant numerator too", SCALARS,
           "g = None if num.is_constant() else mp_gcd(num, y.den)",
           "g = mp_gcd(num, y.den)",
           (T_MIXED, T_FALLBACK)),
    # condition (a) by whole conjugated forms (pbw.check_pbw)
    Mutant("pbw: compare only w's keys", PBW,
           "a, b = min(key for key in conj.keys() | form.keys()",
           "a, b = min(key for key in form.keys()",
           (T_PBW_FAIL,)),
    Mutant("pbw: drop the sign on a swap", PBW,
           "a, b, val = b, a, -val",
           "a, b, val = b, a, val",
           (T_PBW_FAIL,)),
    Mutant("pbw: one comparison too few per (v, w)", PBW,
           "checked_a += pairs",
           "checked_a += pairs - 1",
           (T_PBW_PASS, T_PBW_COUNT)),
    Mutant("pbw: first differing key in dict order", PBW,
           "a, b = min(key for key in conj.keys() | form.keys()",
           "a, b = next(key for key in [*conj, *form]",
           (T_PBW_FAIL,)),
    # a singular sigma_i in the intertwiner suite
    Mutant("sigma: a singular sigma escapes the suite", INTERTWINERS,
           "except SingularIntertwinerError as exc:",
           "except ZeroDivisionError as exc:",
           (T_SINGULAR, T_SIGMA_PTS)),
    # in-place Cyc kernels
    Mutant("cyc: _rat without its gcd", CYCLOTOMIC,
           "g = gcd(n, d)",
           "g = 1",
           (T_CYC, T_TIMES, T_JACK_PTS)),
    Mutant("cyc: phi = 1 add with no gcd on unequal denominators", CYCLOTOMIC,
           "return _rat(self.r, self.num[0] * db + o.num[0] * da, da * db)",
           "v = _new(Cyc); v.r, v.num, v.den = self.r, "
           "(self.num[0] * db + o.num[0] * da,), da * db; return v",
           (T_CYC, T_TIMES)),
    Mutant("cyc: phi = 1 sub with the operands swapped", CYCLOTOMIC,
           "return _rat(self.r, self.num[0] - o.num[0], da)",
           "return _rat(self.r, o.num[0] - self.num[0], da)",
           (T_CYC, T_DIV_CASES, T_PLAN, T_JACK_PTS)),
    Mutant("cyc: phi = 1 mul dropping o.den", CYCLOTOMIC,
           "return _rat(self.r, a[0] * b[0], self.den * o.den)",
           "return _rat(self.r, a[0] * b[0], self.den)",
           (T_CYC, T_TIMES, T_JACK_PTS)),
    Mutant("cyc: _pair's gcd without n1", CYCLOTOMIC,
           "g = gcd(n0, n1, d)",
           "g = gcd(n0, d)",
           (T_CYC, T_DIV_PROP, T_JACK_PTS)),
    Mutant("cyc: phi = 2 add scaling b1 by db", CYCLOTOMIC,
           "a1 * db + b1 * da,",
           "a1 * db + b1 * db,",
           (T_CYC,)),
    Mutant("cyc: phi = 2 mul folding with f0 for f1", CYCLOTOMIC,
           "a0 * b1 + a1 * b0 + top * f1",
           "a0 * b1 + a1 * b0 + top * f0",
           (T_CYC,)),
    # plans of linear forms
    Mutant("plan: _times shifts slot 0 always", SCALARS,
           "out = {e[:v] + (e[v] + 1,) + e[v + 1:]: c",
           "out = {(e[0] + 1,) + e[1:]: c",
           (T_TIMES, T_PLAN)),
    Mutant("plan: _times reuses the first form's plan", SCALARS,
           "v, g = f.plan or _plan(f)\n        for _ in range(k):",
           "v, g = _times.__dict__.setdefault('stale', f.plan or _plan(f))"
           "\n        for _ in range(k):",
           (T_PLAN, T_TIMES, T_JACK_PTS)),
    Mutant("plan: _div_linear reuses the first form's plan", SCALARS,
           "v, g = f.plan or _plan(f)\n    # p(x_v = -g)",
           "v, g = _div_linear.__dict__.setdefault('stale', f.plan or "
           "_plan(f))\n    # p(x_v = -g)",
           (T_DIV_CASES, T_DIV_PROP, T_PLAN, T_JACK_PTS)),
    Mutant("plan: g keeps the lead term", SCALARS,
           "for e, c in f.terms.items() if e != lead)",
           "for e, c in f.terms.items())",
           (T_DIV_CASES, T_DIV_PROP, T_PLAN, T_TIMES, T_JACK_PTS)),
    Mutant("plan: single-term exit without `and g`", SCALARS,
           "(len(p.terms) == 1 and g)",
           "(len(p.terms) == 1)",
           (T_DIV_CASES, T_DIV_PROP, T_JACK_PTS)),
]


def failed_ids(copy: pathlib.Path, tests) -> tuple[int, set[str]]:
    """Run the tests in the copy: pytest's exit code and the failed ids."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-W", "ignore", *sorted(set(tests))],
        cwd=copy, capture_output=True, text=True, timeout=1800)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        code, failed = failed_ids(copy, [t for m in chosen for t in m.tests])
        if code != 0:
            print(f"unmutated run: exit {code}, failed {sorted(failed)}")
            return 2
        survived = 0
        for m in chosen:
            target = copy / m.path
            source = target.read_text()
            if source.count(m.old) != 1:
                print(f"ERROR     {m.name}: the edit does not match once")
                survived += 1
                continue
            target.write_text(source.replace(m.old, m.new))
            try:
                code, failed = failed_ids(copy, m.tests)
            finally:
                target.write_text(source)
            missed = [t for t in m.tests if not caught(t, failed)]
            if code == 1 and not missed:
                print(f"caught    {m.name} ({len(m.tests)} of {len(m.tests)}"
                      " tests fail)")
            else:
                survived += 1
                print(f"SURVIVED  {m.name} (pytest exit {code}; passing: "
                      f"{', '.join(t.split('::')[1] for t in missed)})")
    print(f"{len(chosen) - survived} of {len(chosen)} mutants caught")
    return 0 if survived == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
