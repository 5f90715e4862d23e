"""The command-line surface: flags, exit codes, JSON schema, golden files."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik
from cherednik import (
    GenericParameters, ParamPoint, PolyRep, SpecializedParameters,
    jack_by_solve, poly_from_json, weight_of,
)
from cherednik import cli
from cherednik.cli import main
from cherednik.jack import JACK_MONOMIAL_BUDGET, require_jack_budget
from cherednik.operators import (
    RELATION_MONOMIAL_BUDGET, monomials_of_degree, monomials_up_to,
    require_relation_budget,
)
from cherednik.reptheory import (
    GORDON_MONOMIAL_BUDGET, TRUNCATION_BUDGET, coxeter_number,
    require_gordon_budget,
)

from oracles import l1_dimension_by_counting, l1_series_by_counting

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    # argparse refuses bad arguments by raising SystemExit(2)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_refused_argv_leaves_the_parser_as_it_was(capsys):
    # main builds its parser once per process; a refusal after a --mu has
    # been read must not reach the next call
    bad = ["jack", "--group", "2,1,2", "--mu", "1,0", "--kappa", "1/0"]
    good = ["jack", "--group", "2,1,2", "--mu", "0,1", "--json"]
    warm = [run_cli(capsys, *bad), run_cli(capsys, *good)]
    fresh = []
    for argv in (bad, good):
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [2, 0]
    assert cli._parser() is cli._parser()


def test_jack_text_output(capsys):
    code, out, _ = run_cli(capsys, "jack", "--group", "2,1,2", "--mu", "1,0",
                           "--check-both")
    assert code == 0
    assert "f_(1,0) = x1" in out
    assert "constructions agree" in out


def test_jack_trivial_composition(capsys):
    code, out, _ = run_cli(capsys, "jack", "--group", "2,1,2", "--mu", "0,0")
    assert code == 0
    assert "f_(0,0) = 1" in out


def test_jack_json_schema_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "jack", "--group", "3,1,2", "--mu", "2,1",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == [3, 1, 2] and data["mode"] == "generic"
    entry = data["eigenvectors"][0]
    par = GenericParameters(3, 1)
    poly = poly_from_json({"n": 2, "terms": entry["terms"]}, par)
    rep = PolyRep(3, 1, 2, par)
    assert poly == jack_by_solve(rep, (2, 1)).poly


def test_jack_requires_mu(capsys):
    code, _, err = run_cli(capsys, "jack", "--group", "2,1,2")
    assert code == 2 and "--mu" in err


def test_jack_non_generic_point_exits_two(capsys):
    code, _, err = run_cli(capsys, "jack", "--group", "2,1,2",
                           "--mu", "2,0", "--c0", "1")
    assert code == 2
    assert "non-generic" in err


def test_jack_non_generic_point_json_names_violations(capsys):
    code, out, err = run_cli(capsys, "jack", "--group", "2,1,2",
                             "--mu", "2,0", "--c0", "1", "--json")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["status"] == "non-generic"
    assert report["simple_spectrum_violations"] == [
        "c0 = 1/1 lies in (1/1)Z_>0", "c0 = 2/2 lies in (1/2)Z_>0"]


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "3,1,2",
                           "--max-deg", "4")
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(capsys, "verify", "--group", "2,2,2",
                           "--suite", "pbw")
    assert code == 0 and "pbw: pass" in out


def test_verify_defaults_to_degree_4(capsys):
    # every golden verify file passes --max-deg, so this pins the default
    code, out, _ = run_cli(capsys, "verify", "--group", "2,1,2", "--suite",
                           "relations", "--json")
    assert code == 0 and json.loads(out)["max_degree"] == 4


def test_verify_fault_injection_prints_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "2,1,2",
                           "--max-deg", "2", "--suite", "relations",
                           "--inject-fault", "dunkl-sign")
    assert code == 1
    assert "witness" in out and "FAIL" in out
    code, out, _ = run_cli(capsys, "verify", "--group", "2,1,2",
                           "--max-deg", "2", "--suite", "intertwiners",
                           "--inject-fault", "pi-sign")
    assert code == 1


# Points where sigma_i f_mu = 0 is what sigma_i^2 = 1 - (c0 pi_i/delta)^2
# predicts: the factor is exactly 0 at the first mu named.
NON_GENERIC_VERIFY = [
    (["--group", "2,1,2", "--c0", "1/2", "--max-deg", "4"], (2, 0)),
    (["--group", "3,1,2", "--c0", "1/2", "--max-deg", "4"], (3, 0)),
    (["--group", "3,3,2", "--c0", "1/2", "--max-deg", "4"], (3, 0)),
    (["--group", "2,1,3", "--c0", "1/3", "--max-deg", "3", "--suite",
      "intertwiners"], (0, 2, 0)),
]


@pytest.mark.parametrize("argv,mu", NON_GENERIC_VERIFY,
                         ids=[" ".join(a) for a, _ in NON_GENERIC_VERIFY])
def test_verify_vanishing_sigma_at_a_non_generic_point_exits_two(
        capsys, argv, mu):
    code, out, err = run_cli(capsys, "verify", *argv, "--json")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["status"] == "non-generic"
    assert f"for mu={mu}" in report["error"]
    assert report["simple_spectrum_violations"]


def test_verify_pi_sign_fault_still_fails_with_its_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "2,1,3",
                           "--max-deg", "3", "--suite", "intertwiners",
                           "--inject-fault", "pi-sign", "--json")
    assert code == 1
    report = json.loads(out)["reports"]["intertwiners"]
    assert report == {"status": "fail", "identity": "image eigenvector",
                      "mu": [2, 0, 0], "i": 0}


def test_gordon_main_case(capsys):
    code, out, _ = run_cli(capsys, "gordon", "--group", "2,1,2")
    assert code == 0
    assert "h = 4" in out and "k = h+1 = 5" in out
    assert "dim L(1) = 25" in out
    assert "value 6 at t=1" in out
    assert "PASS" in out


def test_gordon_rank_three(capsys):
    code, out, _ = run_cli(capsys, "gordon", "--group", "3,3,3")
    assert code == 0
    assert "h = 6" in out and "dim L(1) = 343" in out and "PASS" in out


def test_gordon_not_well_generated(capsys):
    # the quotient theorem holds for G(4,2,2); the Catalan identity is not
    # asserted there and must not fail the pipeline
    code, out, _ = run_cli(capsys, "gordon", "--group", "4,2,2")
    assert code == 0
    assert "dim L(1) = 49" in out
    assert "not asserted" in out and "PASS" in out


def test_a_non_integral_invariant_coefficient_fails_the_catalan_match(
        capsys, monkeypatch):
    # the invariant series is compared with the Catalan one exactly: a
    # coefficient of 1/2 over the right one must not be rounded away
    real = cherednik.cli.invariant_char_series

    def off_by_a_half(*args):
        series = real(*args)
        series[3] += Fraction(1, 2)
        return series

    monkeypatch.setattr(cherednik.cli, "invariant_char_series", off_by_a_half)
    code, out, _ = run_cli(capsys, "gordon", "--group", "2,1,3", "--json")
    payload = json.loads(out)
    assert code == 1
    assert payload["status"] == "fail"
    assert payload["catalan_invariant_match"] is False


def test_jack_at_gordon_point(capsys):
    code, out, _ = run_cli(capsys, "jack", "--group", "2,1,2",
                           "--mu", "0,5", "--gordon-point", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "specialized"
    entry = data["eigenvectors"][0]
    assert entry["mu"] == [0, 5]
    # z-eigenvalues at the specialized point are plain rationals
    assert all("/" in v or v.lstrip("-").isdigit()
               for v in entry["weight"]["z"])


def test_gordon_caveat_222(capsys):
    code, out, _ = run_cli(capsys, "gordon", "--group", "2,2,2")
    assert code == 2
    assert "p = r = 2" in out


def test_gordon_r_one_unsupported(capsys):
    code, _, _ = run_cli(capsys, "gordon", "--group", "1,1,2")
    assert code == 2


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("r", [2, 3])
def test_trivial_group_at_the_gordon_point_exits_two(capsys, r, json_flag):
    # G(r,r,1) is trivial, so h = 0 and the Gordon point (h+1)/h is
    # undefined; gordon refuses the same group with a caveat
    group = f"{r},{r},1"
    code, out, err = run_cli(capsys, "verify", "--group", group,
                             "--gordon-point", *json_flag)
    assert (code, out) == (2, "")
    assert err == f"error: G({group}) is the trivial group: h = 0, so " \
        "c = (h+1)/h is undefined\n"
    code, out, _ = run_cli(capsys, "gordon", "--group", group, *json_flag)
    assert code == 2 and "does not act irreducibly" in out


def test_a_failing_guard_exits_two_with_its_record(capsys, monkeypatch):
    # no correct point fails the guard, so the record is staged; the
    # stages after the guard must not run
    failing = {"ok": False, "k": 5, "bound": 16,
               "violations": ["point lies on H_{2,1}"]}
    monkeypatch.setattr(cli, "genericity_guard", lambda point, k, n: failing)

    def no_stage(*args):
        raise AssertionError("a stage ran after a failed guard")

    monkeypatch.setattr(cli, "singular_vector_check", no_stage)
    code, out, err = run_cli(capsys, "gordon", "--group", "2,1,2", "--json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"status": "guard-failure", "h": 4, "k": 5,
                               "guard": failing}
    code, out, err = run_cli(capsys, "gordon", "--group", "2,1,2")
    assert (code, out, err) == (
        2, "guard failed: ['point lies on H_{2,1}']\n", "")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_jack_check_both_disagreement_exits_one(capsys, monkeypatch,
                                                json_flag):
    # the two constructions agree on a correct program, so one is made to
    # return the vector of another composition
    real = cli.jack_by_intertwiners
    monkeypatch.setattr(cli, "jack_by_intertwiners",
                        lambda rep, mu: real(rep, mu[::-1]))
    code, out, err = run_cli(capsys, "jack", "--group", "2,1,2", "--mu",
                             "0,0", "--mu", "1,0", "--check-both", *json_flag)
    assert (code, err) == (1, "")
    if json_flag:
        assert json.loads(out) == {"status": "fail", "mu": [1, 0]}
    else:
        assert out == "constructions disagree at mu=(1, 0)\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "2,1,2", "--max-deg", "0"],
    ["verify", "--group", "2,1,2", "--max-deg", "-3", "--json"],
    ["gordon", "--group", "2,1,2", "--truncation", "0"],
    ["gordon", "--group", "2,1,2", "--truncation", "-1", "--json"],
], ids=lambda argv: " ".join(argv[3:]))
def test_a_non_positive_cap_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: degree caps and truncations must be positive\n"


def test_bad_group_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "4,3,2")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("group", ["2,1", "2,1,2,1", "2,x,2"])
def test_malformed_group_says_what_is_expected(capsys, group):
    code, _, err = run_cli(capsys, "jack", "--group", group, "--mu", "1,0")
    assert code == 2
    assert "--group must be r,p,n" in err


@pytest.mark.parametrize("mu", ["1,a", "1;0", "", "1/2,0"])
def test_malformed_mu_says_what_is_expected(capsys, mu):
    code, out, err = run_cli(capsys, "jack", "--group", "2,1,2",
                             "--mu", "1,0", "--mu", mu)
    assert code == 2 and out == ""
    assert f"--mu must be a comma list of integers like 1,0, got {mu!r}" \
        in err


@pytest.mark.parametrize("flags,reason", [
    (["--c0", "1/0"], "argument --c0: zero denominator in '1/0'"),
    (["--c0", "1", "--kappa", "1/0"],
     "argument --kappa: zero denominator in '1/0'"),
    (["--c0", "1/3", "--cdiag", "1/0,1"],
     "--cdiag must be a comma list of rationals like 1/3,0, got '1/0,1'"),
], ids=["c0", "kappa", "cdiag"])
@pytest.mark.parametrize("command", ["jack", "verify"])
def test_zero_denominator_names_its_flag(capsys, command, flags, reason):
    code, out, err = run_cli(capsys, *_point_job(command, *flags))
    assert code == 2 and out == ""
    assert reason in err


@pytest.mark.parametrize("cdiag", ["1,a", "1;0", "1,", "1.5.2,0", ""])
def test_malformed_cdiag_says_what_is_expected(capsys, cdiag):
    # an empty list is malformed too, not a request for every c_l = 0
    code, out, err = run_cli(capsys, *_point_job(
        "jack", "--c0", "1/3", "--cdiag", cdiag))
    assert code == 2 and out == ""
    assert "--cdiag must be a comma list of rationals like 1/3,0, got " \
        f"{cdiag!r}" in err


@pytest.mark.parametrize("command", ["jack", "verify"])
@pytest.mark.parametrize("cdiag,count", [("1,2,3", 3), ("1/2", 1)])
def test_wrong_cdiag_count_names_the_flag(capsys, command, cdiag, count):
    # G(3,1,2) has two diagonal class parameters, c_1 and c_2
    code, out, err = run_cli(capsys, *_point_job(
        command, "--c0", "1/3", "--cdiag", cdiag))
    assert code == 2 and out == ""
    assert "--cdiag must list 2 values c_p, ..., c_(r-p) for G(3,1,2), " \
        f"got {count}" in err


def test_invalid_group_is_refused_before_the_point(capsys):
    code, out, err = run_cli(capsys, "jack", "--group", "2,0,2", "--c0", "1",
                             "--mu", "1,0")
    assert code == 2 and out == ""
    assert "invalid group (2,0,2)" in err


def test_group_is_required(capsys):
    code, out, err = run_cli(capsys, "gordon", "--json")
    assert code == 2 and out == ""
    assert "the following arguments are required: --group" in err


def test_python_dash_m_runs_the_cli(capsys):
    src = str(pathlib.Path(cherednik.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = ["gordon", "--group", "2,1,2", "--json"]
    proc = subprocess.run([sys.executable, "-m", "cherednik", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and proc.stdout == out


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_stdout_exits_141_and_prints_nothing(unbuffered):
    # the reader closes its end before the child writes: unbuffered, the
    # print inside the command fails; buffered, the flush at its end
    src = str(pathlib.Path(cherednik.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cherednik", "verify", "--group", "2,1,2",
         "--suite", "relations", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (cli.CLOSED_PIPE, b"")


@pytest.mark.parametrize("group", ["2,1,5", "3,1,4"])
def test_gordon_reaches_larger_groups(capsys, group):
    code, out, _ = run_cli(capsys, "gordon", "--group", group, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["singular_vectors"]["status"] == "pass"
    if group == "2,1,5":
        assert data["catalan_invariant_match"] is True


@pytest.mark.parametrize("group", ["2,1,1", "2,1,2", "2,1,3", "2,1,4",
                                   "2,1,5", "3,1,2", "3,3,3", "4,2,2"])
def test_gordon_quotient_series_matches_counting(capsys, group):
    # by_degree is read off the identity character in closed form; the
    # oracle counts the compositions with every part below k
    code, out, _ = run_cli(capsys, "gordon", "--group", group, "--json")
    assert code == 0
    data = json.loads(out)
    n, k = data["group"][2], data["k"]
    assert data["dim_L1"]["count"] == l1_dimension_by_counting(n, k)
    assert data["dim_L1"]["by_degree"] \
        == l1_series_by_counting(n, k, n * (k - 1))


def _args_file(tmp_path, *lines):
    """An argument file, one argument per line, and its ``@`` argument."""
    path = tmp_path / "job.args"
    path.write_text("".join(line + "\n" for line in lines))
    return "@" + str(path)


def test_argument_file_matches_flags_byte_for_byte(tmp_path, capsys):
    flags = ["--group=2,1,2", "--mu=2,1", "--mu=0,1", "--check-both",
             "--json"]
    code, expected, _ = run_cli(capsys, "jack", *flags)
    assert code == 0
    code, out, _ = run_cli(capsys, "jack", _args_file(tmp_path, *flags))
    assert code == 0 and out == expected
    # a flag and its value may also sit on two lines
    code, out, _ = run_cli(capsys, "jack", _args_file(
        tmp_path, "--group", "2,1,2", "--mu", "2,1", "--mu", "0,1",
        "--check-both", "--json"))
    assert code == 0 and out == expected


def test_config_file_with_flag_override(tmp_path, capsys):
    job = _args_file(tmp_path, "--group=2,1,2", "--mu=1,0")
    code, out, _ = run_cli(capsys, "jack", job, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == [2, 1, 2]
    assert [e["mu"] for e in data["eigenvectors"]] == [[1, 0]]
    # a later --group wins; --mu accumulates across the file and the
    # command line, in order
    code, out, _ = run_cli(capsys, "jack", job, "--group", "3,1,2",
                           "--mu", "0,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == [3, 1, 2]
    assert [e["mu"] for e in data["eigenvectors"]] == [[1, 0], [0, 1]]
    # an earlier --group loses to the file
    code, out, _ = run_cli(capsys, "jack", "--group", "3,1,2", job, "--json")
    assert code == 0 and json.loads(out)["group"] == [2, 1, 2]


def test_missing_argument_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.args"
    code, out, err = run_cli(capsys, "gordon", "@" + str(missing))
    assert code == 2 and out == ""
    assert "No such file or directory" in err and str(missing) in err


def test_verify_argument_file_refuses_an_unknown_suite(tmp_path, capsys):
    # a misspelt suite must not run nothing and report a pass
    code, out, err = run_cli(capsys, "verify", _args_file(
        tmp_path, "--group=2,1,2", "--suite=relation"))
    assert code == 2 and out == ""
    assert "invalid choice: 'relation'" in err
    for suite in ("all", "relations", "commutators", "pbw", "intertwiners"):
        assert f"'{suite}'" in err


@pytest.mark.parametrize("command", ["jack", "verify", "gordon"])
def test_config_flag_is_gone(tmp_path, capsys, command):
    # argument files replaced the key=value files of --config
    cfg = tmp_path / "job.cfg"
    cfg.write_text("group=2,1,2\n")
    tail = ["--mu", "1,0"] if command == "jack" else []
    code, out, err = run_cli(capsys, command, "--group", "2,1,2", *tail,
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unrecognized arguments: --config" in err


@pytest.mark.parametrize("line,key", [("threads=4", "threads"),
                                      ("max-deg=3", "max-deg")])
def test_config_file_rejects_unknown_keys(tmp_path, capsys, line, key):
    job = _args_file(tmp_path, "--group=2,1,2", "--mu=1,0", "--" + line)
    code, out, err = run_cli(capsys, "jack", job)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --{key}" in err


@pytest.mark.parametrize("flag", [["--c0", "1"], ["--kappa", "1"],
                                  ["--cdiag", "1"], ["--mode", "generic"],
                                  ["--gordon-point"], ["--bound", "30"]])
def test_gordon_takes_no_parameter_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["gordon", "--group", "2,1,2", "--json", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command,line,key", [
    ("gordon", "c0=1", "c0"), ("gordon", "suite=pbw", "suite"),
    ("gordon", "mu=1,0", "mu"), ("gordon", "max_deg=3", "max_deg"),
    ("gordon", "bound=5", "bound"),
    ("jack", "bound=5", "bound"), ("jack", "truncation=5", "truncation"),
    ("jack", "max_deg=3", "max_deg"),
    ("verify", "mu=1,0", "mu"), ("verify", "bound=5", "bound"),
])
def test_config_keys_are_per_subcommand(tmp_path, capsys, command, line,
                                        key):
    # each file line is the flag of the same name, checked like one
    flag = "--" + key.replace("_", "-")
    tail = ["--mu=1,0"] if command == "jack" else []
    job = _args_file(tmp_path, "--group=2,1,2",
                     "--" + line.replace("_", "-"), *tail)
    code, out, err = run_cli(capsys, command, job)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}=" in err


def _point_job(command, *flags):
    tail = ["--mu", "1,0"] if command == "jack" else ["--max-deg", "1"]
    return [command, "--group", "3,1,2", *flags, *tail, "--json"]


_IGNORED_POINT = [
    (["--cdiag", "1"], "--cdiag specializes only together with --c0"),
    (["--kappa", "2"], "--kappa specializes only together with --c0"),
    (["--gordon-point", "--kappa", "2"],
     "--kappa specializes only together with --c0"),
    (["--gordon-point", "--c0", "1"], "--gordon-point and --c0"),
]


@pytest.mark.parametrize("command", ["jack", "verify"])
@pytest.mark.parametrize("flags,reason", _IGNORED_POINT, ids=[
    "cdiag", "kappa", "gordon-kappa", "gordon-c0"])
def test_point_flags_that_would_be_ignored_exit_2(capsys, command, flags,
                                                  reason):
    code, out, err = run_cli(capsys, *_point_job(command, *flags))
    assert code == 2 and out == ""
    assert reason in err


@pytest.mark.parametrize("command", ["jack", "verify"])
@pytest.mark.parametrize("lines,flags,reason", [
    (["--cdiag=1"], [], "--cdiag specializes only together with --c0"),
    (["--kappa=2"], [], "--kappa specializes only together with --c0"),
    (["--c0=1"], ["--gordon-point"], "--gordon-point and --c0"),
], ids=["cdiag", "kappa", "flag-gordon-c0"])
def test_point_keys_that_would_be_ignored_exit_2(tmp_path, capsys, command,
                                                 lines, flags, reason):
    # the point checks see file lines and command-line flags together
    job = _args_file(tmp_path, *lines)
    code, out, err = run_cli(capsys, *_point_job(command, job, *flags))
    assert code == 2 and out == ""
    assert reason in err


@pytest.mark.parametrize("command", ["jack", "verify"])
@pytest.mark.parametrize("flags,point", [
    (["--c0=-1/2"], (1, Fraction(-1, 2), [0, 0])),
    (["--c0", "1/3", "--kappa=-1/2"],
     (Fraction(-1, 2), Fraction(1, 3), [0, 0])),
    (["--c0", "1/3", "--cdiag=-1/3,0"],
     (1, Fraction(1, 3), [Fraction(-1, 3), 0])),
], ids=["c0", "kappa", "cdiag"])
def test_a_negative_fraction_takes_the_equals_form(capsys, command, flags,
                                                   point):
    # argparse reads a separate word like -1/2 as an option, since only
    # plain negative numbers such as -1 count as values; --help says so
    *rest, last = flags
    flag, value = last.split("=")
    code, out, err = run_cli(capsys, *_point_job(command, *rest, flag, value))
    assert code == 2 and out == ""
    assert f"argument {flag}: expected one argument" in err
    code, out, _ = run_cli(capsys, *_point_job(command, *flags))
    assert code == 0
    if command == "jack":
        par = SpecializedParameters(ParamPoint.from_c(3, 1, *point))
        assert json.loads(out)["eigenvectors"][0]["weight"]["z"] == [
            str(z) for z in weight_of((1, 0), par).zvals]
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0 and last in " ".join(out.split())


def test_kappa_and_cdiag_specialize_with_c0(tmp_path, capsys):
    job = _args_file(tmp_path, "--c0=1/3", "--kappa=2")
    runs = [_point_job("jack", "--c0", "1/3", "--kappa", "2", "--cdiag",
                       "1/5,1/7"),
            _point_job("jack", "--c0", "1/3"),
            _point_job("jack", job, "--cdiag", "1/5,1/7")]
    zs = []
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "specialized"
        zs.append(data["eigenvectors"][0]["weight"]["z"])
    assert zs[0] == zs[2] != zs[1]


def test_gordon_config_file_with_its_own_keys(tmp_path, capsys):
    job = _args_file(tmp_path, "--group=2,1,2", "--truncation=3")
    code, out, _ = run_cli(capsys, "gordon", job, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["guard"]["bound"] == 16  # max(2k, 4h) with h = 4, k = 5
    assert len(data["identity_character"]["series"]) == 4


@pytest.mark.parametrize("command", ["jack", "verify"])
def test_mode_flag_is_gone(capsys, command):
    # the mode is read off --c0 / --gordon-point
    with pytest.raises(SystemExit) as exc:
        main(_point_job(command, "--mode", "specialized", "--c0", "1/3"))
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_verify_refuses_an_oversized_pbw_check_at_once(capsys,
                                                      monkeypatch):
    # |W| = 122,880 on G(4,1,5); the refusal comes before any suite runs
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite started")

    monkeypatch.setattr(cherednik.cli, "PolyRep", no_suite)
    code, out, err = run_cli(capsys, "verify", "--group", "4,1,5")
    assert code == 2 and out == ""
    assert "PBW check on G(4,1,5) needs 309,657,600 form comparisons" in err
    assert "budget of 2,000,000" in err


def test_jack_refuses_an_oversized_composition_at_once(capsys, monkeypatch):
    # C(50+3, 3) = 23,426 monomials of degree 50 in 4 variables
    def no_rep(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(cherednik.cli, "PolyRep", no_rep)
    code, out, err = run_cli(capsys, "jack", "--group", "1,1,4",
                             "--mu", "1,0,0,0", "--mu", "20,10,10,10")
    assert code == 2 and out == ""
    assert "mu=(20, 10, 10, 10) has 23,426 monomials of degree 50" in err
    assert "budget of 2,000" in err


# whole-process --check-both times before the work estimate: 6.4 s, 20.4 s,
# over 60 s and 19.8 s, each under the monomial budget
@pytest.mark.parametrize("group,mu,work", [
    ("1,1,2", "60,0", "105,408,000"),
    ("1,1,2", "80,0", "331,776,000"),
    ("1,1,2", "120,0", "1,672,704,000"),
    ("1,1,3", "30,0,0", "361,584,000"),
])
def test_jack_refuses_a_slow_composition_at_once(capsys, monkeypatch, group,
                                                 mu, work):
    def no_rep(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(cherednik.cli, "PolyRep", no_rep)
    code, out, err = run_cli(capsys, "jack", "--group", group, "--mu", mu,
                             "--check-both")
    assert code == 2 and out == ""
    assert f"work estimate C(E+n-1, n-1) (nD)^3 = {work}" in err
    assert "budget of 60,000,000" in err


def test_jack_work_estimate_is_for_generic_parameters(capsys):
    # the same composition at a specialized point has numeric coefficients
    code, out, err = run_cli(capsys, "jack", "--group", "1,1,2",
                             "--mu", "60,0", "--c0", "1/3", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["mode"] == "specialized"
    with pytest.raises(ValueError, match="work estimate"):
        require_jack_budget(2, (60, 0))
    assert require_jack_budget(2, (60, 0), generic=False) == 61


@pytest.mark.parametrize("r,mu", [
    (1, (40, 0)),         # 1.5 s
    (1, (52, 0)),         # 3.5 s, the largest accepted (k, 0) on G(1,1,2)
    (1, (300, 299)),      # 0.16 s: one rearrangement below it
    (1, (20, 0, 0)),      # 3.2 s
    (2, (60, 0)),         # 0.5 s on G(2,1,2)
    (1, (6, 6, 0, 0, 0)),  # 4.9 s, the slowest accepted case measured
])
def test_jack_accepts_the_fast_compositions(r, mu):
    n = len(mu)
    assert require_jack_budget(n, mu, r) \
        == len(list(monomials_of_degree(n, sum(mu))))


@pytest.mark.parametrize("suite", ["all", "relations", "commutators"])
def test_verify_refuses_an_oversized_relation_check_at_once(capsys,
                                                            monkeypatch,
                                                            suite):
    # C(40+3, 3) = 12,341 monomials of degree <= 40 in 3 variables
    def no_construction(*args, **kwargs):
        raise AssertionError("a suite started")

    for name in ("PolyRep", "GenericParameters", "rca_forms"):
        monkeypatch.setattr(cherednik.cli, name, no_construction)
    code, out, err = run_cli(capsys, "verify", "--group", "2,1,3",
                             "--max-deg", "40", "--suite", suite)
    assert code == 2 and out == ""
    assert "up to degree 40 check 12,341 monomials" in err
    assert "budget of 5,000" in err


def test_gordon_accepts_the_truncation_budget(capsys):
    # about 0.3 s on G(2,1,2); each printed series has 20,001 coefficients
    code, out, err = run_cli(capsys, "gordon", "--group", "2,1,2",
                             "--truncation", str(TRUNCATION_BUDGET), "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert TRUNCATION_BUDGET == 20_000
    assert len(payload["catalan"]["coefficients"]) == TRUNCATION_BUDGET + 1
    assert len(payload["identity_character"]["series"]) \
        == TRUNCATION_BUDGET + 1
    assert payload["catalan_invariant_match"] is True


@pytest.mark.parametrize("truncation", [TRUNCATION_BUDGET + 1, 2_000_000])
def test_gordon_refuses_an_oversized_truncation_at_once(capsys, monkeypatch,
                                                        truncation):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage started")

    for name in ("gordon_point", "genericity_guard", "singular_vector_check",
                 "invariant_char_series", "catalan_series"):
        monkeypatch.setattr(cherednik.cli, name, no_stage)
    code, out, err = run_cli(capsys, "gordon", "--group", "2,1,4",
                             "--truncation", str(truncation), "--json")
    assert code == 2 and out == ""
    assert f"truncation of {truncation:,} is over the budget of 20,000" \
        in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_gordon_refuses_an_oversized_group_at_once(capsys, monkeypatch,
                                                   json_flag):
    # G(2,1,9): k = 19, C(27, 8) = 2,220,075 monomials of degree 19; the
    # solve over k e_n would run for minutes
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage started")

    for name in ("gordon_point", "genericity_guard", "singular_vector_check",
                 "invariant_char_series", "catalan_series"):
        monkeypatch.setattr(cherednik.cli, name, no_stage)
    code, out, err = run_cli(capsys, "gordon", "--group", "2,1,9",
                             *json_flag)
    assert code == 2 and out == ""
    assert err == ("error: the singular vector over 19 e_9 has 2,220,075 "
                   "monomials of degree 19 in 9 variables, over the budget "
                   "of 100,000\n")


def test_gordon_budget_admits_the_golden_and_benchmark_groups():
    # G(2,1,7) has 54,264 monomials (about 2 s); G(2,2,8) 170,544 (6 s)
    groups = [(2, 1, 7), (3, 3, 2), (2, 1, 5), (3, 1, 4), (3, 1, 5),
              (2, 1, 6), (5, 1, 3), (3, 3, 4), (4, 2, 3), (6, 3, 3),
              (2, 2, 4), (2, 1, 4), (3, 1, 3)]
    assert GORDON_MONOMIAL_BUDGET == 100_000
    for r, p, n in groups:
        assert require_gordon_budget(n, coxeter_number(r, p, n) + 1) \
            <= GORDON_MONOMIAL_BUDGET
    for r, p, n in [(2, 2, 8), (2, 1, 8), (3, 3, 7)]:
        with pytest.raises(ValueError, match="over the budget of 100,000"):
            require_gordon_budget(n, coxeter_number(r, p, n) + 1)


def test_budget_counts_are_the_monomial_counts():
    for n in range(1, 5):
        for d in range(7):
            assert require_jack_budget(n, [d] + [0] * (n - 1)) \
                == len(list(monomials_of_degree(n, d)))
            assert require_relation_budget(n, d) \
                == len(list(monomials_up_to(n, d)))
            if d:
                assert require_gordon_budget(n, d) \
                    == len(list(monomials_of_degree(n, d)))


def test_benchmark_jobs_are_under_the_budgets():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).parents[1] / "bench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for argv in workloads.every_job():
        args = dict(zip(argv[1::2], argv[2::2]))
        n = int(args["--group"].split(",")[2])
        if argv[0] == "jack":
            mu = [int(v) for v in args["--mu"].split(",")]
            assert require_jack_budget(n, mu) <= JACK_MONOMIAL_BUDGET
        elif argv[0] == "verify":
            assert require_relation_budget(n, int(args["--max-deg"])) \
                <= RELATION_MONOMIAL_BUDGET


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "2,1,2", "--max-deg", "2",
              "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


GOLDEN_CASES = [
    ("jack_212_mu10.json",
     ["jack", "--group", "2,1,2", "--mu", "1,0", "--json"], 0),
    ("gordon_332.json",
     ["gordon", "--group", "3,3,2", "--json"], 0),
    ("gordon_215.json",
     ["gordon", "--group", "2,1,5", "--json"], 0),
    ("gordon_314.json",
     ["gordon", "--group", "3,1,4", "--json"], 0),
    ("verify_212_dunkl_sign.json",
     ["verify", "--group", "2,1,2", "--max-deg", "3", "--suite",
      "relations", "--inject-fault", "dunkl-sign", "--json"], 1),
    ("verify_213_dunkl_sign.json",
     ["verify", "--group", "2,1,3", "--max-deg", "3", "--suite",
      "relations", "--inject-fault", "dunkl-sign", "--json"], 1),
    ("gordon_315.json",
     ["gordon", "--group", "3,1,5", "--json"], 0),
    ("gordon_216.json",
     ["gordon", "--group", "2,1,6", "--json"], 0),
    # r = 5, phi(r) = 4: the general product loop of Cyc, end to end
    ("gordon_513.json",
     ["gordon", "--group", "5,1,3", "--json"], 0),
    # a passing run of every suite; the verify files above pin failures
    ("verify_213_deg6.json",
     ["verify", "--group", "2,1,3", "--max-deg", "6", "--json"], 0),
    # the heaviest benchmark composition and one with p > 1, both ways
    ("jack_114_5031.json",
     ["jack", "--group", "1,1,4", "--mu", "5,0,3,1", "--check-both",
      "--json"], 0),
    ("jack_334_6150.json",
     ["jack", "--group", "3,3,4", "--mu", "6,1,5,0", "--check-both",
      "--json"], 0),
    # p > 1 at n >= 3, where the invariant series sums characters a >= 1
    ("gordon_334.json", ["gordon", "--group", "3,3,4", "--json"], 0),
    ("gordon_423.json", ["gordon", "--group", "4,2,3", "--json"], 0),
    ("gordon_633.json", ["gordon", "--group", "6,3,3", "--json"], 0),
    ("gordon_224.json", ["gordon", "--group", "2,2,4", "--json"], 0),
    # the benchmark's other verify job, where phi(3) = 2
    ("verify_312_deg6.json",
     ["verify", "--group", "3,1,2", "--max-deg", "6", "--json"], 0),
    # an injected sign fault in the exchange operator, caught at once
    ("verify_213_pi_sign.json",
     ["verify", "--group", "2,1,3", "--max-deg", "4", "--suite",
      "intertwiners", "--inject-fault", "pi-sign", "--json"], 1),
]


@pytest.mark.parametrize(
    "name,argv,exit_code", GOLDEN_CASES,
    ids=[f"{case[0]}-argv{k}" for k, case in enumerate(GOLDEN_CASES)])
def test_golden_files(capsys, name, argv, exit_code):
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    expected = (GOLDEN / name).read_text()
    assert out == expected


# -- random small requests ---------------------------------------------------

FUZZ_RATIONALS = ["0", "1", "-1", "1/2", "-1/2", "1/3", "2/3", "1/4", "3/5",
                  "-2/7", "1/6"]


@st.composite
def cli_requests(draw):
    """A well-formed argv of a small request, valid or not: p need not
    divide r, a composition may have the wrong length, a point may be
    non-generic."""
    command = draw(st.sampled_from(["jack", "verify", "gordon"]))
    r = draw(st.integers(1, 4))
    p = draw(st.integers(1, r))
    n = draw(st.integers(1, 3))
    argv = [command, "--group", f"{r},{p},{n}"]
    if command == "gordon":
        if draw(st.booleans()):
            argv.append(f"--truncation={draw(st.integers(1, 8))}")
    else:
        rational = st.sampled_from(FUZZ_RATIONALS)
        point = draw(st.sampled_from(["generic", "gordon", "c0"]))
        if point == "gordon":
            argv.append("--gordon-point")
        elif point == "c0":
            argv.append(f"--c0={draw(rational)}")
            if draw(st.booleans()):
                argv.append(f"--kappa={draw(rational)}")
            if draw(st.booleans()) and r % p == 0:
                cdiag = draw(st.lists(rational, min_size=r // p - 1,
                                      max_size=r // p - 1))
                argv.append(f"--cdiag={','.join(cdiag)}")
    if command == "jack":
        for _ in range(draw(st.integers(1, 2))):
            size = draw(st.sampled_from([n, n, n, n + 1]))
            mu = draw(st.lists(st.integers(0, 4), min_size=size,
                               max_size=size))
            argv.append(f"--mu={','.join(map(str, mu))}")
        if draw(st.booleans()):
            argv.append("--check-both")
    if command == "verify":
        argv += [f"--max-deg={draw(st.integers(1, 3))}", "--suite",
                 draw(st.sampled_from(["all", "relations", "commutators",
                                       "pbw", "intertwiners"]))]
        fault = draw(st.sampled_from([None, None, "dunkl-sign", "pi-sign"]))
        if fault:
            argv.append(f"--inject-fault={fault}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=100, deadline=timedelta(seconds=20), derandomize=True)
@given(cli_requests())
def test_random_small_requests_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), argv
    # exit 1 is a failed verification, which only a fault can cause
    assert code != 1 or any(a.startswith("--inject-fault") for a in argv), \
        (argv, out.getvalue(), err.getvalue())
    # main turns any other exception into "internal error" and exit 1
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
