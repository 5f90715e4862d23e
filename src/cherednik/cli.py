"""Command-line surface: ``cherednik jack | verify | gordon``.

Machine-readable output with ``--json``; deterministic ordering throughout so
outputs can be kept as golden files.  ``cherednik jack @job.args`` reads
arguments from a file, one per line, spliced in where ``@job.args`` stands:
a later flag wins and ``--mu`` accumulates.

Exit codes: 0 success, 1 internal error or failed verification,
2 precondition/guard failure (bad arguments, non-generic point, caveats).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .jack import (
    NonGenericError, jack_by_intertwiners, jack_by_solve, require_jack_budget,
)
from .groups import check_group
from .operators import PolyRep, monomials_up_to, require_relation_budget
from .pbw import check_pbw, rca_forms, require_pbw_budget
from .polynomials import render_terms
from .intertwiners import verify_braid_and_quadratic
from .reptheory import (
    catalan_series, coxeter_number, exponents_and_freeness, genericity_guard,
    gordon_point, invariant_char_series, is_irreducible, is_well_generated,
    l1_graded_dimension, require_gordon_budget, require_truncation_budget,
    simple_spectrum_violations, singular_vector_check,
)
from .scalars import GenericParameters, ParamPoint, SpecializedParameters

OK, INTERNAL, PRECONDITION = 0, 1, 2


@dataclass
class JobConfig:
    """Validated knobs shared by the subcommands.  An option the subcommand
    lacks is ``None``; every default lives in the argument parser."""

    r: int
    p: int
    n: int
    point: Optional[ParamPoint] = None
    mus: list[tuple[int, ...]] = field(default_factory=list)
    max_deg: Optional[int] = None
    truncation: Optional[int] = None
    suite: Optional[str] = None
    check_both: bool = False
    inject_fault: Optional[str] = None
    as_json: bool = False

    def validate(self):
        check_group(self.r, self.p, self.n)
        if any(v is not None and v <= 0
               for v in (self.max_deg, self.truncation)):
            raise ValueError("degree caps and truncations must be positive")
        for mu in self.mus:
            if len(mu) != self.n or any(v < 0 for v in mu):
                raise ValueError(f"bad composition {mu} for rank {self.n}")

    def params(self):
        if self.point is not None:
            return SpecializedParameters(self.point)
        return GenericParameters(self.r, self.p)


def _build_config(args) -> JobConfig:
    try:
        r, p, n = (int(t) for t in args.group.split(","))
    except ValueError:
        raise ValueError(f"--group must be r,p,n, got {args.group!r}") \
            from None
    mus = []
    for mu in getattr(args, "mu", []):
        try:
            mus.append(tuple(int(t) for t in mu.split(",")))
        except ValueError:
            raise ValueError("--mu must be a comma list of integers like "
                             f"1,0, got {mu!r}") from None
    c0 = getattr(args, "c0", None)
    kappa = getattr(args, "kappa", None)
    cdiag = getattr(args, "cdiag", None)
    at_gordon = getattr(args, "gordon_point", False)
    # a point flag that would be ignored is an error
    for name, val in (("kappa", kappa), ("cdiag", cdiag)):
        if c0 is None and val is not None:
            raise ValueError(f"--{name} specializes only together with --c0")
    if at_gordon and c0 is not None:
        raise ValueError("--gordon-point and --c0 pick different points; "
                         "give one")
    job = JobConfig(
        r=r, p=p, n=n, mus=mus,
        max_deg=getattr(args, "max_deg", None),
        truncation=getattr(args, "truncation", None),
        suite=getattr(args, "suite", None),
        check_both=getattr(args, "check_both", False),
        inject_fault=getattr(args, "inject_fault", None),
        as_json=args.json,
    )
    job.validate()  # before the point, which needs a valid group
    if at_gordon:
        job.point = gordon_point(r, p, n)
    elif c0 is not None:
        m = r // p - 1
        try:
            cvals = [Fraction(0)] * m if cdiag is None \
                else [Fraction(t) for t in cdiag.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValueError("--cdiag must be a comma list of rationals "
                             f"like 1/3,0, got {cdiag!r}") from None
        if len(cvals) != m:
            raise ValueError(f"--cdiag must list {m} values c_p, ..., c_(r-p) "
                             f"for G({r},{p},{n}), got {len(cvals)}")
        job.point = ParamPoint.from_c(
            r, p, Fraction(1) if kappa is None else kappa, c0, cvals)
    return job


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_jack(job: JobConfig) -> int:
    for mu in job.mus:  # refuse an oversized composition before any work
        require_jack_budget(job.n, mu, job.r, job.point is None)
    rep = PolyRep(job.r, job.p, job.n, job.params())
    results = []
    for mu in job.mus:
        jv = jack_by_solve(rep, mu)
        entry = jv.to_json()  # prints each coefficient once, for both keys
        entry["polynomial"] = render_terms(
            (t["exp"], t["coeff"]) for t in entry["terms"])
        if job.check_both:
            other = jack_by_intertwiners(rep, mu)
            agree = other.poly == jv.poly and other.weight == jv.weight
            entry["constructions_agree"] = agree
            if not agree:
                _emit({"status": "fail", "mu": list(mu)}, job.as_json,
                      [f"constructions disagree at mu={mu}"])
                return INTERNAL
        results.append(entry)
    mode = "generic" if job.point is None else "specialized"
    payload = {"group": [job.r, job.p, job.n], "mode": mode,
               "eigenvectors": results}
    lines = []
    for entry in results:
        mu = ",".join(str(v) for v in entry["mu"])
        lines.append(f"f_({mu}) = {entry['polynomial']}")
        lines.append(f"  z-eigenvalues: {entry['weight']['z']}")
        lines.append(f"  zeta-exponents: {entry['weight']['zeta']}")
        if "constructions_agree" in entry:
            lines.append("  constructions agree")
    _emit(payload, job.as_json, lines)
    return OK


def _operator_suites(job: JobConfig) -> dict:
    """The relation, commutator and PBW suites, on one parameter field
    that is released (with its scalar memos) when they return."""
    wanted = job.suite
    if wanted in ("all", "relations", "commutators"):
        require_relation_budget(job.n, job.max_deg)
    params = job.params()
    if wanted in ("all", "pbw"):
        # refuse an oversized PBW check before any suite runs
        family = rca_forms(job.r, job.p, job.n, params)
        require_pbw_budget(family)
    rep = PolyRep(job.r, job.p, job.n, params,
                  fault_dunkl_sign=job.inject_fault == "dunkl-sign")
    reports = {}
    if wanted in ("all", "relations"):
        reports["relations"] = rep.check_relations(job.max_deg)
    if wanted in ("all", "commutators"):
        reports["commutators"] = rep.commutator_report(job.max_deg)
    if wanted in ("all", "pbw"):
        reports["pbw"] = check_pbw(family)
    return reports


def _verify_suites(job: JobConfig) -> dict:
    reports = _operator_suites(job)
    if job.suite in ("all", "intertwiners"):
        grid = [mu for mu in monomials_up_to(job.n, min(job.max_deg, 4))]
        clean = PolyRep(job.r, job.p, job.n, job.params())
        reports["intertwiners"] = verify_braid_and_quadratic(
            clean, grid, fault_pi_sign=job.inject_fault == "pi-sign")
    return reports


def cmd_verify(job: JobConfig) -> int:
    reports = _verify_suites(job)
    ok = all(rep.get("status") == "pass" for rep in reports.values())
    payload = {"group": [job.r, job.p, job.n], "suite": job.suite,
               "max_degree": job.max_deg,
               "status": "pass" if ok else "fail", "reports": reports}
    lines = [f"group G({job.r},{job.p},{job.n}), suite {job.suite}:"]
    for name, rep in reports.items():
        lines.append(f"  {name}: {rep['status']}")
        if rep["status"] != "pass":
            detail = {k: v for k, v in rep.items()
                      if k not in ("status", "group")}
            lines.append(f"    witness: {detail}")
    lines.append("PASS" if ok else "FAIL")
    _emit(payload, job.as_json, lines)
    return OK if ok else INTERNAL


def cmd_gordon(job: JobConfig) -> int:
    require_truncation_budget(job.truncation)
    r, p, n = job.r, job.p, job.n
    if r == 1:
        _emit({"status": "unsupported", "reason": "r must exceed 1"},
              job.as_json, ["r must exceed 1"])
        return PRECONDITION
    if not is_irreducible(r, p, n):
        caveat = ("G(2,2,2) is reducible: the rank-2 case with p = r = 2 "
                  "is outside the diagonal-coinvariant theorems"
                  if (r, p, n) == (2, 2, 2)
                  else f"G({r},{p},{n}) does not act irreducibly")
        _emit({"status": "caveat", "caveat": caveat}, job.as_json, [caveat])
        return PRECONDITION
    h = coxeter_number(r, p, n)
    k = h + 1
    require_gordon_budget(n, k)
    point = gordon_point(r, p, n)
    guard = genericity_guard(point, k, n)
    if not guard["ok"]:
        _emit({"status": "guard-failure", "h": h, "k": k, "guard": guard},
              job.as_json,
              [f"guard failed: {guard['violations']}"])
        return PRECONDITION
    singular = singular_vector_check(r, p, n, point, k)
    dim_count = k ** n
    # ((1 - t^k)/(1 - t))^n, the graded dimension of the quotient
    ident = l1_graded_dimension(n, k, job.truncation)
    by_degree = ident[:n * (k - 1) + 1]
    dim_char = sum(by_degree)
    cat = catalan_series(r, p, n, job.truncation)
    inv_series = invariant_char_series(r, p, n, k, job.truncation)
    expf = exponents_and_freeness(r, p, n, k)
    # the q-Catalan identity is only asserted for well-generated groups
    catalan_match = inv_series == cat["coefficients"] \
        if is_well_generated(r, p, n) else None
    dims_agree = dim_char == dim_count
    ok = (singular["status"] == "pass" and dims_agree
          and catalan_match is not False
          and expf["det_identity"] and expf["multiset_match"])
    payload = {
        "status": "pass" if ok else "fail",
        "group": [r, p, n], "h": h, "k": k,
        "point": {"c": f"{k}/{h}"},
        "guard": guard,
        "singular_vectors": singular,
        "dim_L1": {"count": dim_count, "k_power": k ** n,
                   "character_limit": str(dim_char),
                   "by_degree": by_degree},
        "identity_character": {
            "series": [str(c) for c in ident[:job.truncation + 1]]},
        "catalan": cat,
        "catalan_invariant_match": catalan_match,
        "exponents": expf,
    }
    lines = [
        f"G({r},{p},{n}): h = {h}, k = h+1 = {k}, c_s = {k}/{h}",
        f"guard: {'pass' if guard['ok'] else guard['violations']}",
        f"singular vectors: {singular['status']}",
        f"dim L(1) = {dim_count} (= (h+1)^n = {k ** n}; "
        f"character limit {dim_char})",
        f"Catalan series: {cat['coefficients']} (value {cat['at_one']} at t=1)",
        "invariant character matches Catalan series: "
        + ("not asserted (group is not well-generated)"
           if catalan_match is None else str(catalan_match)),
        f"exponents: {expf['exponents']} "
        f"(multiset match: {expf['multiset_match']})",
        "PASS" if ok else "FAIL",
    ]
    _emit(payload, job.as_json, lines)
    return OK if ok else INTERNAL


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--group", required=True, help="r,p,n")
    sp.add_argument("--json", action="store_true", help="machine output")


def _fraction(text: str) -> Fraction:
    """A rational flag value.  argparse turns a ValueError from ``type``
    into a usage error but lets ZeroDivisionError ('1/0') escape, so both
    become ArgumentTypeError here."""
    try:
        return Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"zero denominator in {text!r}") from None


def _add_point(sp):
    """The parameter-point flags; gordon always runs at the Coxeter point."""
    sp.add_argument("--kappa", type=_fraction, default=None)
    sp.add_argument("--c0", type=_fraction, default=None,
                    help="specialize c0 (rational)")
    sp.add_argument("--cdiag", default=None,
                    help="comma list of the diagonal class parameters")
    sp.add_argument("--gordon-point", action="store_true",
                    help="specialize at c_s = (h+1)/h")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a build costs about ten
    parses, and parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="cherednik",
        description="Exact rational Cherednik computations for G(r,p,n)",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("jack", help="construct eigenvectors f_mu")
    _add_common(sp)
    _add_point(sp)
    sp.add_argument("--mu", action="append", required=True,
                    help="composition, e.g. 1,0")
    sp.add_argument("--check-both", action="store_true",
                    help="cross-check both constructions")

    sp = sub.add_parser("verify", help="run verification suites")
    _add_common(sp)
    _add_point(sp)
    sp.add_argument("--suite", default="all",
                    choices=["all", "relations", "commutators", "pbw",
                             "intertwiners"])
    sp.add_argument("--max-deg", dest="max_deg", type=int, default=4)
    sp.add_argument("--inject-fault", dest="inject_fault", default=None,
                    choices=["dunkl-sign", "pi-sign"],
                    help="deliberately break an operator (for testing)")

    sp = sub.add_parser("gordon", help="reproduce the coinvariant quotient")
    _add_common(sp)
    sp.add_argument("--truncation", type=int, default=12)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        job = _build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION
    try:
        if args.command == "jack":
            return cmd_jack(job)
        if args.command == "verify":
            return cmd_verify(job)
        return cmd_gordon(job)
    except NonGenericError as exc:
        report = {"status": "non-generic", "error": str(exc)}
        if job.point is not None:
            report["simple_spectrum_violations"] = \
                simple_spectrum_violations(job.point, job.n)
        print(json.dumps(report, indent=2) if job.as_json
              else f"non-generic point: {exc}", file=sys.stderr)
        return PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
