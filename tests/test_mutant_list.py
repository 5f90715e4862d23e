"""The curated mutants of ``tests/mutants.py`` still name code that exists,
so a refactor that moves the code they quote shows here, not only in the
minutes-long mutant run."""

from mutants import MUTANTS, ROOT


def test_every_curated_edit_matches_its_file_once():
    orphans = [m.name for m in MUTANTS
               if (ROOT / m.path).read_text().count(m.old) != 1]
    assert orphans == []


def test_every_must_fail_test_is_defined():
    missing = []
    for m in MUTANTS:
        for test in m.tests:
            path, name = test.split("::")
            if f"def {name}(" not in (ROOT / path).read_text():
                missing.append((m.name, test))
    assert missing == []
