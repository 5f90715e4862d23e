"""Self-checks of the benchmark: tracer, gate, seeds and the metric list.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

import run

sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from cherednik.cli import main as cli_main  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

# one small job per subcommand, touching every traced layer
SMALL_JOBS = [
    ("gordon", "--group", "2,1,2", "--json"),
    ("jack", "--group", "2,1,3", "--mu", "2,0,1", "--check-both", "--json"),
    ("verify", "--group", "2,1,2", "--max-deg", "3", "--json"),
]


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if not k.endswith("self_s") and k != "trace.overhead_share"}


@pytest.fixture(scope="module")
def small_runs():
    _, untraced = run.run_pass(cli_main, SMALL_JOBS)
    tracers = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            _, traced = run.run_pass(cli_main, SMALL_JOBS, tracer)
        tracers.append((tracer, traced))
    return untraced, tracers


def test_traced_and_untraced_outputs_identical(small_runs):
    untraced, tracers = small_runs
    for code, _, _ in untraced:
        assert code == 0
    for _, traced in tracers:
        assert [(c, o) for c, o, _ in traced] == \
            [(c, o) for c, o, _ in untraced]


def test_tracer_restores_the_package(small_runs):
    from cherednik import cli, operators, reptheory, scalars
    assert cli.singular_vector_check is reptheory.singular_vector_check
    assert reptheory.jack_by_solve.__module__ == "cherednik.jack"
    assert scalars.RatFunc.__radd__ is scalars.RatFunc.__add__
    assert operators.PolyRep.dunkl.__qualname__ == "PolyRep.dunkl"


def test_every_child_span_lies_inside_its_parent(small_runs):
    _, tracers = small_runs
    for tracer, _ in tracers:
        assert len(tracer.start) > 1000
        assert max(tracer.parent) >= 0
        assert tracer.check_nesting() == []
        assert set(tracer.job) == {0, 1, 2}


def test_every_layer_is_reached(small_runs):
    _, tracers = small_runs
    metrics = tracers[0][0].layer_metrics()
    assert set(metrics) == set(LAYER_METRICS)
    quiet = {k for k in metrics if k.endswith(".raised")}
    for name, value in metrics.items():
        if name not in quiet:
            assert value > 0, name
    assert all(metrics[k] == 0 for k in quiet)


def test_counts_repeat_exactly(small_runs):
    _, ((first, _), (second, _)) = small_runs
    assert _counts(first.layer_metrics()) == _counts(second.layer_metrics())


def test_gcd_counts_are_outermost_and_recursive(small_runs):
    metrics = small_runs[1][0][0].layer_metrics()
    assert metrics["scalars.mp_gcd.calls"] > metrics["scalars.mp_gcd.top_calls"]
    assert 0 < metrics["scalars.mp_gcd.nontrivial_share"] <= 1


def test_host_speed_ticks_inside_a_job_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as inside:
        code, _, seconds = run.run_job(cli_main, SMALL_JOBS[2])
    assert code == 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(inside.times) >= seconds / hostspeed.CAL_INTERVAL_S / 2
    assert 0 < sum(inside.times) < seconds
    assert hostspeed.factor([hostspeed.CAL_REF_S]) == 1.0


def test_gate_catches_broken_operators():
    digests = gate.load_digests()
    for argv in run.NEGATIVE_CONTROLS:
        code, stdout, _ = run.run_job(cli_main, argv)
        assert gate.judge(argv, code, stdout, digests) is not None


def test_gate_checks_digest_and_oracle():
    digests = gate.load_digests()
    argv = workloads.jobs("jack", workloads.DEFAULT_SEED)[0]
    code, stdout, _ = run.run_job(cli_main, argv)
    assert gate.judge(argv, code, stdout, digests) is None
    assert gate.oracle_failures(stdout) == []
    wrong = dict(digests, **{gate.job_key(argv): "0" * 64})
    assert gate.judge(argv, code, stdout, wrong) is not None
    # a vector with one coefficient changed is not an eigenvector
    data = json.loads(stdout)
    term = data["eigenvectors"][0]["terms"][-1]
    term["coeff"] = f"2*({term['coeff']})"
    assert gate.oracle_failures(json.dumps(data)) != []


def test_second_seed_draws_other_compositions_that_pass():
    first = workloads.jobs("jack", workloads.DEFAULT_SEED)
    second = workloads.jobs("jack", workloads.DEFAULT_SEED + 1)
    assert first == workloads.jobs("jack", workloads.DEFAULT_SEED)
    assert set(first) != set(second)
    family = set(workloads.every_job())
    assert set(second) <= family
    digests = gate.load_digests()
    for argv in second:
        code, stdout, _ = run.run_job(cli_main, argv)
        assert gate.judge(argv, code, stdout, digests) is None, argv
        assert gate.oracle_failures(stdout) == [], argv


def test_digests_cover_every_job():
    assert {gate.job_key(a) for a in workloads.every_job()} == \
        set(gate.load_digests())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        dict(LAYER_METRICS, **{"trace.overhead_share": "share"})


def _bench(*args) -> dict:
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_two_traced_runs_of_one_seed_count_the_same():
    args = ("--workload", "jack", "--seed", "3", "--seconds", "0",
            "--trace", "1")
    first, second = _bench(*args), _bench(*args)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(LAYER_METRICS) | \
        {"trace.overhead_share"}
    values = [{k: m["value"] for k, m in res["metrics"].items()}
              for res in (first, second)]
    assert _counts(values[0]) == _counts(values[1])
    assert values[0]["scalars.mp_gcd.calls"] > 0
    assert values[0]["groups.group_elements.yielded"] == 0


def test_refuses_to_run_without_the_program(tmp_path: pathlib.Path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "digests.json").write_text(gate.DIGESTS.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "jack", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
