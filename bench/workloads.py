"""The benchmark's workloads: the argv lists handed to ``cherednik.cli.main``.

The seed picks the ``jack`` compositions and the job order; the program only
ever sees the generated argv lists.

* ``gordon`` -- the Coxeter-point quotient pipeline.  Specialized ``Cyc``
  arithmetic and loops over all of W; no ``mp_gcd`` calls.  The groups mix
  r = 2 (phi(r) = 1) with r = 3 and r = 4 (phi(r) = 2).  G(2,1,5) is left
  out: it spends about 37 s in ``singular_vector_check``.
* ``jack`` -- generic-mode ``jack --check-both``: ``RatFunc`` division and
  ``mp_gcd`` through ``jack`` and ``intertwiners``, never enumerating W.
* ``verify`` -- every verification suite at degree 6: the relations and
  commutators suites multiply and add ``RatFunc`` values without any
  ``mp_gcd`` call; the intertwiners suite divides.
"""

from __future__ import annotations

import random

WORKLOADS = ("gordon", "jack", "verify")
DEFAULT_SEED = 1

GORDON_GROUPS = ("2,1,4", "3,3,4", "3,1,3", "4,2,3")
VERIFY_GROUPS = ("2,1,3", "3,1,2")
VERIFY_MAX_DEG = "6"

# The jack families, cut into bands: compositions of one family whose
# single-job times (Python 3.11, Fraction rationals, one core) lay close
# together in a probe.  Each pass runs one composition per band, so a pass
# costs about the same whatever the seed draws.
JACK_BANDS: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...] = (
    # G(1,1,4), |mu| = 8-9: about 2.5 s, 1.0 s and 0.3 s
    ("1,1,4", ((5, 0, 3, 1), (3, 5, 0, 1))),
    ("1,1,4", ((4, 0, 1, 4), (2, 5, 1, 1))),
    ("1,1,4", ((2, 4, 1, 1), (1, 1, 5, 1), (2, 2, 0, 4))),
    # G(2,1,4), even parts, |mu| = 12: about 0.7 s and 0.45 s
    ("2,1,4", ((6, 4, 2, 0), (2, 8, 2, 0), (0, 8, 0, 4))),
    ("2,1,4", ((2, 0, 8, 2), (0, 6, 6, 0), (6, 4, 0, 2))),
    # G(3,3,4), |mu| = 12: about 0.2 s and 0.15 s
    ("3,3,4", ((6, 3, 3, 0), (0, 6, 6, 0), (5, 0, 0, 7))),
    ("3,3,4", ((6, 1, 5, 0), (1, 1, 1, 9))),
)


def jack_argv(group: str, mu) -> tuple[str, ...]:
    return ("jack", "--group", group, "--mu", ",".join(map(str, mu)),
            "--check-both", "--json")


def gordon_argv(group: str) -> tuple[str, ...]:
    return ("gordon", "--group", group, "--json")


def verify_argv(group: str) -> tuple[str, ...]:
    return ("verify", "--group", group, "--max-deg", VERIFY_MAX_DEG, "--json")


def jobs(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The job list of one pass, in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gordon":
        out = [gordon_argv(g) for g in GORDON_GROUPS]
    elif workload == "verify":
        out = [verify_argv(g) for g in VERIFY_GROUPS]
    elif workload == "jack":
        out = [jack_argv(g, rng.choice(band)) for g, band in JACK_BANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def every_job() -> list[tuple[str, ...]]:
    """Every argv any seed can produce, for recording digests."""
    out = [gordon_argv(g) for g in GORDON_GROUPS]
    out += [verify_argv(g) for g in VERIFY_GROUPS]
    out += [jack_argv(g, mu) for g, band in JACK_BANDS for mu in band]
    return out
