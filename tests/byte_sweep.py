"""A committed byte-identity sweep of the command line.

Run from the repository root::

    PYTHONPATH=src python tests/byte_sweep.py [--record]

Each request is an argv list for ``cherednik.cli.main``, run in this
process.  The SHA-256 of its argv, exit code, stdout and stderr is compared
with the digest recorded in ``tests/byte_sweep.json``.  Requests are grouped
into named classes; a mismatch names its class and the first differing
request, and the exit status is 1.  ``--record`` runs every request, writes
the file anew and prints which classes changed; a change that re-records a
class says so and why.

The classes:

* ``gordon-text`` and ``gordon-json`` -- every irreducible G(r,p,n) with
  r <= 12 that ``reptheory.GORDON_MONOMIAL_BUDGET`` admits, in text and
  with ``--json``; about 3 s each;
* ``gordon-truncation`` -- edge values of ``--truncation``: 1, around the
  degree n(k-1) of the graded dimension, the budget and one over it, zero,
  negative and malformed values;
* ``gordon-refusals`` -- r = 1, G(2,2,2), the trivial group G(r,r,1), a
  group over the monomial budget, invalid and malformed ``--group``;
* ``jack-generic`` -- generic ``jack --check-both`` on groups with r = 1,
  p > 1 and n = 2 with even p, every composition of each degree in one
  request, in text and with ``--json``;
* ``jack-points`` -- the same constructions at rational points (``--c0``,
  ``--c0=-1/2``, ``--kappa``, ``--cdiag``) and at ``--gordon-point``,
  some of them non-generic;
* ``jack-refusals`` -- both budgets, bad compositions, point flags that
  clash or are malformed, invalid groups;
* ``verify-suites`` -- every suite, generic and at points, in text and
  with ``--json``;
* ``verify-faults`` -- both ``--inject-fault`` values under every suite
  that runs the broken operator;
* ``verify-refusals`` -- the relation and PBW budgets, bad ``--max-deg``,
  ``--suite`` and ``--inject-fault`` values.

argparse's usage and error text can differ between Python versions, so the
file records the version it was recorded under (major.minor), and under
another version a request recorded with exit code 2 compares its exit code
alone.  :func:`tier1_slice` is the fixed part that tier-1 runs
(``tests/test_byte_sweep.py``); the file's name does not start with
``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys
from math import comb

from cherednik.cli import main as cli_main
from cherednik.reptheory import (GORDON_MONOMIAL_BUDGET, TRUNCATION_BUDGET,
                                 coxeter_number, is_irreducible)

RECORD = pathlib.Path(__file__).with_name("byte_sweep.json")
ARGPARSE_EXIT = 2
VERSION_RULE = ("under another Python major.minor than 'python', a request "
                "recorded with exit code 2 compares its exit code alone")


def gordon_groups() -> list[str]:
    """Every irreducible G(r,p,n) with 1 < r <= 12 whose solve over k e_n
    the gordon budget admits, as ``r,p,n``, by n, then r, then p.  The
    budget admits no group of rank 8 or more."""
    out = []
    for n in range(1, 8):
        for r in range(2, 13):
            for p in (p for p in range(1, r + 1) if r % p == 0):
                k = coxeter_number(r, p, n) + 1
                if is_irreducible(r, p, n) \
                        and comb(k + n - 1, n - 1) <= GORDON_MONOMIAL_BUDGET:
                    out.append(f"{r},{p},{n}")
    return out


def _gordon(group: str, *flags: str) -> tuple[str, ...]:
    return ("gordon", "--group", group, *flags)


def compositions(n: int, d: int) -> list[str]:
    """Every composition of d into n parts, as ``--mu`` values, in
    reverse lexicographic order."""
    if n == 1:
        return [str(d)]
    return [f"{a},{rest}" for a in range(d, -1, -1)
            for rest in compositions(n - 1, d - a)]


def _jack(group: str, degree: int, *flags: str) -> tuple[str, ...]:
    """``jack`` on every composition of one degree, in one request."""
    n = int(group.rsplit(",", 1)[1])
    mus = [t for mu in compositions(n, degree) for t in ("--mu", mu)]
    return ("jack", "--group", group, *mus, *flags)


# (group, the highest degree swept): r = 1, p > 1, n = 2 with even p
JACK_GROUPS = (("1,1,2", 5), ("1,1,3", 3), ("2,1,2", 4), ("2,2,2", 4),
               ("3,1,2", 4), ("3,3,2", 4), ("4,2,2", 4), ("4,4,2", 4),
               ("2,1,3", 3), ("2,2,3", 3), ("3,3,3", 3), ("1,1,4", 4),
               ("2,1,4", 3), ("3,3,4", 4))
# the point flags of each jack-points group, beside --gordon-point
JACK_POINTS = (("--c0", "1/3"), ("--c0=-1/2",), ("--c0", "1", "--kappa", "2"),
               ("--c0", "1"), ("--c0", "0"))
CDIAG = {"3,1,2": ("1/3,0", "=-1/2,2"), "4,2,2": ("1/5", "=-2/3")}
VERIFY_GROUPS = ("1,1,3", "2,1,2", "2,2,2", "3,1,2", "3,3,2", "4,2,2",
                 "2,1,3", "2,2,3")
SUITES = ("all", "relations", "commutators", "pbw", "intertwiners")


def _verify(group: str, *flags: str) -> tuple[str, ...]:
    return ("verify", "--group", group, *flags)


def _jack_classes() -> dict[str, list[tuple[str, ...]]]:
    generic = [_jack(g, d, "--check-both", *json) for g, top in JACK_GROUPS
               for d in range(top + 1) for json in ((), ("--json",))]
    points = []
    for g, top in JACK_GROUPS:
        flags = [*JACK_POINTS, *(("--c0", "1/3", "--cdiag" + ("" if c[0] == "="
                                                             else " ") + c)
                                 for c in CDIAG.get(g, ()))]
        flags = [tuple(" ".join(f).split()) for f in flags]
        if not g.startswith("1,"):
            flags.append(("--gordon-point",))
        for f in flags:
            points += [_jack(g, top - 1, *f, "--check-both"),
                       _jack(g, top - 1, *f, "--json")]
    refusals = [("jack", "--group", "1,1,2", "--mu", "60,0"),
                ("jack", "--group", "1,1,2", "--mu", "53,0"),
                ("jack", "--group", "2,1,8", "--mu", "3,3,3,3,3,3,3,3"),
                ("jack", "--group", "1,1,2", "--mu", "2000,0", "--c0", "1"),
                ("jack", "--group", "2,1,2", "--mu", "1,0,0"),
                ("jack", "--group", "2,1,2", "--mu", "1,-1"),
                ("jack", "--group", "2,1,2", "--mu", "a,b"),
                ("jack", "--group", "2,1,2", "--mu", ""),
                ("jack", "--group", "2,1,2"),
                ("jack", "--group", "2,1,2", "--mu", "1,0", "--kappa", "2"),
                ("jack", "--group", "2,1,2", "--mu", "1,0", "--cdiag", "1"),
                ("jack", "--group", "2,1,2", "--mu", "1,0", "--c0", "1",
                 "--gordon-point"),
                ("jack", "--group", "3,1,2", "--mu", "1,0", "--c0", "1",
                 "--cdiag", "1"),
                ("jack", "--group", "3,1,2", "--mu", "1,0", "--c0", "1",
                 "--cdiag", "x,1"),
                ("jack", "--group", "2,1,2", "--mu", "1,0", "--c0", "1/0"),
                ("jack", "--group", "2,1,2", "--mu", "1,0", "--c0", "-1/2"),
                ("jack", "--group", "1,1,2", "--mu", "1,0", "--gordon-point"),
                ("jack", "--group", "2,3,2", "--mu", "1,0"),
                ("jack", "--group", "2,1", "--mu", "1,0"),
                ("jack", "--mu", "1,0")]
    refusals += [argv + ("--json",) for argv in refusals[:6]]
    return {"jack-generic": generic, "jack-points": points,
            "jack-refusals": refusals}


def _verify_classes() -> dict[str, list[tuple[str, ...]]]:
    suites = []
    for g in VERIFY_GROUPS:
        for suite in SUITES:
            for point in ((), ("--c0", "1/3"), ("--gordon-point",)):
                if point and g.startswith("1,") and point[0] != "--c0":
                    continue
                suites += [_verify(g, "--suite", suite, "--max-deg", "3",
                                   *point),
                           _verify(g, "--suite", suite, "--max-deg", "2",
                                   *point, "--json")]
    faults = [_verify(g, "--suite", suite, "--max-deg", "3",
                      "--inject-fault", fault, *json)
              for g in ("2,1,2", "3,1,2", "2,2,3")
              for fault, runs in (("dunkl-sign", ("all", "relations",
                                                  "commutators")),
                                  ("pi-sign", ("all", "intertwiners")))
              for suite in runs for json in ((), ("--json",))]
    refusals = [_verify("2,1,3", "--max-deg", "30"),
                _verify("2,1,3", "--suite", "commutators", "--max-deg", "30"),
                _verify("4,1,4", "--suite", "pbw"),
                _verify("2,1,2", "--max-deg", "0"),
                _verify("2,1,2", "--max-deg", "-1"),
                _verify("2,1,2", "--max-deg", "x"),
                _verify("2,1,2", "--suite", "none"),
                _verify("2,1,2", "--inject-fault", "other"),
                _verify("2,1,2", "--kappa", "2"),
                _verify("2,3,2"),
                _verify("2,1", "--max-deg", "2"),
                ("verify",)]
    refusals += [argv + ("--json",) for argv in refusals[:6]]
    return {"verify-suites": suites, "verify-faults": faults,
            "verify-refusals": refusals}


def classes() -> dict[str, list[tuple[str, ...]]]:
    """The requests of each class, in a fixed order."""
    groups = gordon_groups()
    truncation = [_gordon("2,1,2", "--truncation", t, "--json")
                  for t in ("1", str(TRUNCATION_BUDGET),
                            str(TRUNCATION_BUDGET + 1), "0", "-1", "x",
                            "1.5")]
    # n(k-1) is the degree of the graded dimension ((1 - t^k)/(1 - t))^n
    for group, top in (("2,1,2", 8), ("3,1,1", 3), ("3,3,3", 18)):
        for t in (top - 1, top, top + 1):
            truncation += [_gordon(group, "--truncation", str(t)),
                           _gordon(group, "--truncation", str(t), "--json")]
    refusals = [_gordon(g, *flags) for g in
                ("1,1,3", "1,1,1", "2,2,2", "2,2,1", "3,3,1", "2,1,8",
                 "3,1,9", "2,3,2", "0,1,2", "2,1,0", "2,1", "a,b,c", "",
                 "2,,1")
                for flags in ((), ("--json",))]
    refusals.append(("gordon",))
    return {"gordon-text": [_gordon(g) for g in groups],
            "gordon-json": [_gordon(g, "--json") for g in groups],
            "gordon-truncation": truncation,
            "gordon-refusals": refusals,
            **_jack_classes(), **_verify_classes()}


def tier1_slice() -> list[tuple[str, int]]:
    """(class, index) of each request tier-1 runs, in about 3 s: every
    request of the ``jack`` and ``verify`` classes, every ``gordon``
    refusal, every truncation but the budget itself, and every ``gordon``
    group of rank at most 4 in each form."""
    requests = classes()
    ranks = [int(g.rsplit(",", 1)[1]) for g in gordon_groups()]
    picks = [(name, i) for name, argvs in requests.items()
             if name.startswith(("jack", "verify", "gordon-refusals"))
             for i in range(len(argvs))]
    picks += [("gordon-truncation", i)
              for i, argv in enumerate(requests["gordon-truncation"])
              if str(TRUNCATION_BUDGET) not in argv]
    picks += [(name, i) for name in ("gordon-text", "gordon-json")
              for i, rank in enumerate(ranks) if rank <= 4]
    return picks


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one request, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse refuses bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def digest(argv, code: int, out: str, err: str) -> str:
    blob = json.dumps([list(argv), code, out, err], ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def entry(argv) -> list:
    """[exit code, digest] of one request."""
    code, out, err = run(argv)
    return [code, digest(argv, code, out, err)]


def version() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def load() -> dict:
    return json.loads(RECORD.read_text())


def same(recorded: list, got: list, recorded_version: str) -> bool:
    """Whether a request's [exit code, digest] matches its record."""
    if recorded_version != version() and recorded[0] == ARGPARSE_EXIT:
        return got[0] == recorded[0]
    return got == recorded


def mismatches(picks=None) -> list[str]:
    """One message per class whose requests (all, or the (class, index)
    pairs of ``picks``) differ from the record, naming the first that
    differs."""
    record = load()
    requests = classes()
    picks = picks or [(name, i) for name, argvs in requests.items()
                      for i in range(len(argvs))]
    out, failed = [], set()
    for name, i in picks:
        if name in failed:
            continue
        argv = requests[name][i]
        got = entry(argv)
        if not same(record["classes"][name][i], got, record["python"]):
            failed.add(name)
            out.append(f"{name}: request {i} differs, exit {got[0]}: "
                       f"{' '.join(argv)}")
    return out


def record() -> list[str]:
    """Run every request, write the record, return the changed classes."""
    old = load()["classes"] if RECORD.exists() else {}
    new = {name: [entry(argv) for argv in argvs]
           for name, argvs in classes().items()}
    text = json.dumps({"python": version(), "rule": VERSION_RULE,
                       "classes": new}, indent=1)
    # one request per line
    RECORD.write_text(re.sub(r"\[\s+(\d+),\s+(\"\w+\")\s+\]", r"[\1, \2]",
                             text) + "\n")
    return [name for name in new if old.get(name) != new[name]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--record", action="store_true",
                    help="re-record every class")
    args = ap.parse_args(argv)
    if args.record:
        changed = record()
        print("changed classes: " + (", ".join(changed) or "none"))
        return 0
    bad = mismatches()
    for line in bad:
        print(line)
    if not bad:
        total = sum(map(len, classes().values()))
        print(f"{total} requests match {RECORD.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
