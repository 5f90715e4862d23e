"""Benchmark of the ``cherednik`` command line: one client, closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload gordon|jack|verify --seed N \\
        --seconds S --trace 0|1

Each run is one process.  Jobs go through ``cherednik.cli.main(argv)`` one
after another (the next starts only after the previous returns, no threads)
with stdout captured, in passes over the seed's job list, for about
``--seconds``.  The package is imported from ``src/``.  Every time reported
is scaled to a reference host speed (see ``hostspeed``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
pass (between two untraced ones) after the timed passes and prints the
per-layer metrics.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable report and the run record come before it.  The
record and, for traced runs, every span are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh-interpreter imports: a few before the timed passes and a couple
# after each pass, so the samples spread over the whole run.  The child
# times the import, then ticks for the host's speed (see ``hostspeed``).
SETUP_BEFORE, SETUP_PER_PASS = 3, 2
SETUP_CODE = ("import sys, time; t = time.perf_counter(); "
              "import cherednik, cherednik.cli; "
              "t = time.perf_counter() - t; "
              "sys.path.insert(0, sys.argv[1]); import hostspeed; "
              "print(t, *hostspeed.ticks(2 * hostspeed.CAL_AROUND))")

END_TO_END = {
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# small enough to run on every invocation; each must be reported as failing
NEGATIVE_CONTROLS = (
    ("verify", "--group", "2,1,2", "--max-deg", "3", "--suite", "relations",
     "--inject-fault", "dunkl-sign", "--json"),
    ("verify", "--group", "2,1,2", "--max-deg", "3", "--suite",
     "intertwiners", "--inject-fault", "pi-sign", "--json"),
)


def run_job(main, argv) -> tuple[int, str, float]:
    """Run one CLI job in this process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), time.perf_counter() - start


def run_pass(main, jobs, tracer=None, raw=None) -> tuple[float, list]:
    """One closed-loop pass over the job list: (seconds, results).

    Each job starts on a freshly collected heap, as it would in a new
    process.  The collection and the host-speed ticks are not timed; each
    result's time is scaled to the reference host speed (see ``hostspeed``),
    and the pass time is the sum of the scaled job times.  The unscaled job times
    are appended to ``raw`` when it is given.
    """
    results = []
    before = hostspeed.ticks()
    for k, argv in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.job_id = k
        with hostspeed.Sampler() as inside:
            code, stdout, seconds = run_job(main, argv)
        seconds -= sum(inside.times)
        if tracer is not None:
            tracer.end_job()
        after = hostspeed.ticks()
        factor = hostspeed.factor(before + inside.times + after)
        results.append((code, stdout, seconds * factor))
        if raw is not None:
            raw.append(seconds)
        before = after
    return sum(res[2] for res in results), results


def measure_setup(repeats: int) -> list[float]:
    """Times for fresh interpreters to import the package and the CLI,
    scaled to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=120)
        seconds, *ticks = map(float, done.stdout.split())
        times.append(seconds * hostspeed.factor(ticks))
    return times


def git_sha(root: pathlib.Path):
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cherednik").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment_record() -> dict:
    from cherednik.cyclotomic import Q
    return {
        "rationals": "gmpy2" if Q.__module__.startswith("gmpy2")
        else "Fraction",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "source_sha256_16": source_digest(),
    }


def end_to_end_metrics(walls, passes, setup_s, peak_rss_mb) -> dict:
    """wall_s: median pass time; job_s_p50 / job_s_max: median and largest
    over jobs of each job's median time across passes."""
    per_job = [statistics.median(res[k][2] for res in passes)
               for k in range(len(passes[0]))]
    return {
        "wall_s": statistics.median(walls),
        "job_s_p50": statistics.median(per_job),
        "job_s_max": max(per_job),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def judge_passes(gate, workload, jobs, passes, digests):
    """Failed job executions and the first reason per failing job.

    Each ``jack`` output of the first pass is also checked with the
    z-oracle; a vector that fails it fails every execution of its job.
    """
    failed_runs, failures = Counter(), {}
    for res in passes:
        for k, (code, stdout, _) in enumerate(res):
            reason = gate.judge(jobs[k], code, stdout, digests)
            if reason is not None:
                failed_runs[k] += 1
                failures.setdefault(k, reason)
    if workload == "jack":
        for k, (_, stdout, _) in enumerate(passes[0]):
            if k not in failures:
                bad = gate.oracle_failures(stdout)
                if bad:
                    failed_runs[k] = len(passes)
                    failures[k] = f"z-oracle: {', '.join(bad)}"
    return sum(failed_runs.values()), failures


def negative_controls(gate, cli_main, argv, result, digests) -> dict:
    """The gate's verdict on broken operators and on a wrong digest; every
    verdict must be a failure reason."""
    controls = {}
    for bad in NEGATIVE_CONTROLS:
        code, stdout, _ = run_job(cli_main, bad)
        controls[bad[-2]] = gate.judge(bad, code, stdout, digests)
    wrong = dict(digests, **{gate.job_key(argv): "0" * 64})
    code, stdout, _ = result
    controls["wrong-digest"] = gate.judge(argv, code, stdout, wrong)
    return controls


def traced_metrics(cli_main, jobs, untraced, tracer):
    """Per-layer metrics from one traced pass, and whether its outputs
    equal the untraced ones.

    Untraced passes right before and after the traced one give the base of
    ``trace.overhead_share``, so slow drift of the machine's speed cancels.
    """
    before, _ = run_pass(cli_main, jobs)
    with tracer:
        traced_wall, traced = run_pass(cli_main, jobs, tracer)
    after, _ = run_pass(cli_main, jobs)
    same = [(c, o) for c, o, _ in traced] == [(c, o) for c, o, _ in untraced]
    layer = tracer.layer_metrics()
    base = (before + after) / 2
    layer["trace.overhead_share"] = (traced_wall - base) / base
    return layer, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    try:
        from cherednik.cli import main as cli_main
        import gate
        import oracles  # noqa: F401  (needed by the gate's z-oracle)
        import workloads
        from tracer import LAYER_METRICS, Tracer
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    jobs = workloads.jobs(args.workload, seed)
    digests = gate.load_digests()

    setup = measure_setup(SETUP_BEFORE)

    # the timed region: closed-loop passes, tracing off
    walls, passes, raw = [], [], []
    begin = time.perf_counter()
    # start a pass only if it should end within half a pass of the deadline
    while not passes or \
            time.perf_counter() - begin + walls[-1] / 2 < args.seconds:
        wall, results = run_pass(cli_main, jobs, raw=raw)
        walls.append(wall)
        passes.append(results)
        setup += measure_setup(SETUP_PER_PASS)
    setup_s = statistics.median(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the gate and the negative controls, outside the timed region
    failed, failures = judge_passes(gate, args.workload, jobs, passes,
                                    digests)
    attempted = len(passes) * len(jobs)
    controls = negative_controls(gate, cli_main, jobs[0], passes[0][0],
                                 digests)
    correct = not failures and all(controls.values())

    e2e = end_to_end_metrics(walls, passes, setup_s, peak_rss_mb)
    record = {"workload": args.workload, "seed": seed,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, 1 client, in-process", "passes": len(passes),
              "cal_ref_s": hostspeed.CAL_REF_S,
              **environment_record()}
    lines = [
        f"workload {args.workload}, seed {seed}: {len(passes)} passes x "
        f"{len(jobs)} jobs = {attempted} job samples (closed loop, 1 client)",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<12} {e2e[name]:.6g} {unit}")
    scaled_jobs = [res[2] for results in passes for res in results]
    lines.append(f"  (times at the reference host speed; median job time "
                 f"{statistics.median(scaled_jobs):.6g} s scaled, "
                 f"{statistics.median(raw):.6g} s unscaled)")
    lines.append(f"  {'failed_share':<12} {failed / attempted:.6g} "
                 f"({failed}/{attempted})")
    for k, reason in sorted(failures.items()):
        lines.append(f"  FAILED {' '.join(jobs[k])}: {reason}")
    for name, reason in controls.items():
        lines.append(f"  negative control {name}: "
                     + (f"caught ({reason})" if reason
                        else "NOT CAUGHT by the gate"))
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}

    if args.trace:
        tracer = Tracer()
        layer, same = traced_metrics(cli_main, jobs, passes[0], tracer)
        if not same:
            correct = False
            lines.append("  TRACED OUTPUT DIFFERS from the untraced run")
        units = dict(LAYER_METRICS, **{"trace.overhead_share": "share"})
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in units}
        for name, unit in units.items():
            lines.append(f"  {name:<48} {layer[name]:.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{seed}.json.gz")
        record["per_layer"] = layer

    OUT.mkdir(exist_ok=True)
    details = dict(record, end_to_end=e2e, failed_share=failed / attempted,
                   pass_s=walls,
                   unscaled_job_samples_s=raw,
                   job_samples_s={" ".join(argv): [res[k][2] for res in passes]
                                  for k, argv in enumerate(jobs)})
    (OUT / f"BENCH_{args.workload}_seed{seed}_trace{args.trace}.json") \
        .write_text(json.dumps(details, indent=2) + "\n")

    print("\n".join(lines))
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k != "per_layer"}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
