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
from fractions import Fraction

from .jack import (
    NonGenericError, jack_by_intertwiners, jack_by_solve, require_jack_budget,
)
from .groups import check_group
from .operators import PolyRep, monomials_up_to, require_relation_budget
from .pbw import check_pbw, rca_forms, require_pbw_budget
from .polynomials import render_terms, x_monomial
from .intertwiners import verify_braid_and_quadratic
from .reptheory import (
    catalan_series, coxeter_number, exponents_and_freeness, genericity_guard,
    gordon_point, invariant_char_series, is_irreducible, is_well_generated,
    l1_graded_dimension, require_gordon_budget, require_truncation_budget,
    simple_spectrum_violations, singular_vector_check,
)
from .scalars import GenericParameters, ParamPoint, SpecializedParameters

OK, INTERNAL, PRECONDITION = 0, 1, 2


def _request(args) -> None:
    """Check the parsed arguments, then set ``args.r``, ``args.p`` and
    ``args.n``, ``args.mu`` to integer tuples and ``args.point`` to the
    ParamPoint or None.  A refusal raises ValueError."""
    try:
        r, p, n = (int(t) for t in args.group.split(","))
    except ValueError:
        raise ValueError(f"--group must be r,p,n, got {args.group!r}") \
            from None
    mus = []
    for mu in args.mu:
        try:
            mus.append(tuple(int(t) for t in mu.split(",")))
        except ValueError:
            raise ValueError("--mu must be a comma list of integers like "
                             f"1,0, got {mu!r}") from None
    # a point flag that would be ignored is an error
    for name in ("kappa", "cdiag"):
        if args.c0 is None and getattr(args, name) is not None:
            raise ValueError(f"--{name} specializes only together with --c0")
    if args.gordon_point and args.c0 is not None:
        raise ValueError("--gordon-point and --c0 pick different points; "
                         "give one")
    check_group(r, p, n)  # before the point, which needs a valid group
    if any(v is not None and v <= 0 for v in (args.max_deg, args.truncation)):
        raise ValueError("degree caps and truncations must be positive")
    for mu in mus:
        if len(mu) != n or any(v < 0 for v in mu):
            raise ValueError(f"bad composition {mu} for rank {n}")
    args.r, args.p, args.n, args.mu, args.point = r, p, n, mus, None
    if args.gordon_point:
        args.point = gordon_point(r, p, n)
    elif args.c0 is not None:
        m = r // p - 1
        try:
            cvals = [Fraction(0)] * m if args.cdiag is None \
                else [Fraction(t) for t in args.cdiag.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValueError("--cdiag must be a comma list of rationals "
                             f"like 1/3,0, got {args.cdiag!r}") from None
        if len(cvals) != m:
            raise ValueError(f"--cdiag must list {m} values c_p, ..., c_(r-p) "
                             f"for G({r},{p},{n}), got {len(cvals)}")
        args.point = ParamPoint.from_c(
            r, p, Fraction(1) if args.kappa is None else args.kappa, args.c0,
            cvals)


def _params(args):
    if args.point is not None:
        return SpecializedParameters(args.point)
    return GenericParameters(args.r, args.p)


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_jack(args) -> int:
    for mu in args.mu:  # refuse an oversized composition before any work
        require_jack_budget(args.n, mu, args.r, args.point is None)
    rep = PolyRep(args.r, args.p, args.n, _params(args))
    results = []
    for mu in args.mu:
        jv = jack_by_solve(rep, mu)
        entry = jv.to_json()  # prints each coefficient once, for both keys
        entry["polynomial"] = render_terms(
            ((x_monomial(t["exp"]), t["coeff"]) for t in entry["terms"]), True)
        if args.check_both:
            other = jack_by_intertwiners(rep, mu)
            agree = other.poly == jv.poly and other.weight == jv.weight
            entry["constructions_agree"] = agree
            if not agree:
                _emit({"status": "fail", "mu": list(mu)}, args.json,
                      [f"constructions disagree at mu={mu}"])
                return INTERNAL
        results.append(entry)
    mode = "generic" if args.point is None else "specialized"
    payload = {"group": [args.r, args.p, args.n], "mode": mode,
               "eigenvectors": results}
    lines = []
    for entry in results:
        mu = ",".join(str(v) for v in entry["mu"])
        lines.append(f"f_({mu}) = {entry['polynomial']}")
        lines.append(f"  z-eigenvalues: {entry['weight']['z']}")
        lines.append(f"  zeta-exponents: {entry['weight']['zeta']}")
        if "constructions_agree" in entry:
            lines.append("  constructions agree")
    _emit(payload, args.json, lines)
    return OK


def _operator_suites(args) -> dict:
    """The relation, commutator and PBW suites, on one parameter field
    that is released (with its scalar memos) when they return."""
    wanted = args.suite
    if wanted in ("all", "relations", "commutators"):
        require_relation_budget(args.n, args.max_deg)
    params = _params(args)
    if wanted in ("all", "pbw"):
        # refuse an oversized PBW check before any suite runs
        family = rca_forms(args.r, args.p, args.n, params)
        require_pbw_budget(family)
    rep = PolyRep(args.r, args.p, args.n, params,
                  fault_dunkl_sign=args.inject_fault == "dunkl-sign")
    reports = {}
    if wanted in ("all", "relations"):
        reports["relations"] = rep.check_relations(args.max_deg)
    if wanted in ("all", "commutators"):
        reports["commutators"] = rep.commutator_report(args.max_deg)
    if wanted in ("all", "pbw"):
        reports["pbw"] = check_pbw(family)
    return reports


def _verify_suites(args) -> dict:
    reports = _operator_suites(args)
    if args.suite in ("all", "intertwiners"):
        grid = [mu for mu in monomials_up_to(args.n, min(args.max_deg, 4))]
        clean = PolyRep(args.r, args.p, args.n, _params(args))
        reports["intertwiners"] = verify_braid_and_quadratic(
            clean, grid, fault_pi_sign=args.inject_fault == "pi-sign")
    return reports


def cmd_verify(args) -> int:
    reports = _verify_suites(args)
    ok = all(rep.get("status") == "pass" for rep in reports.values())
    payload = {"group": [args.r, args.p, args.n], "suite": args.suite,
               "max_degree": args.max_deg,
               "status": "pass" if ok else "fail", "reports": reports}
    lines = [f"group G({args.r},{args.p},{args.n}), suite {args.suite}:"]
    for name, rep in reports.items():
        lines.append(f"  {name}: {rep['status']}")
        if rep["status"] != "pass":
            detail = {k: v for k, v in rep.items()
                      if k not in ("status", "group")}
            lines.append(f"    witness: {detail}")
    lines.append("PASS" if ok else "FAIL")
    _emit(payload, args.json, lines)
    return OK if ok else INTERNAL


def cmd_gordon(args) -> int:
    require_truncation_budget(args.truncation)
    r, p, n = args.r, args.p, args.n
    if r == 1:
        _emit({"status": "unsupported", "reason": "r must exceed 1"},
              args.json, ["r must exceed 1"])
        return PRECONDITION
    if not is_irreducible(r, p, n):
        caveat = ("G(2,2,2) is reducible: the rank-2 case with p = r = 2 "
                  "is outside the diagonal-coinvariant theorems"
                  if (r, p, n) == (2, 2, 2)
                  else f"G({r},{p},{n}) does not act irreducibly")
        _emit({"status": "caveat", "caveat": caveat}, args.json, [caveat])
        return PRECONDITION
    h = coxeter_number(r, p, n)
    k = h + 1
    require_gordon_budget(n, k)
    point = gordon_point(r, p, n)
    guard = genericity_guard(point, k, n)
    if not guard["ok"]:
        _emit({"status": "guard-failure", "h": h, "k": k, "guard": guard},
              args.json,
              [f"guard failed: {guard['violations']}"])
        return PRECONDITION
    singular = singular_vector_check(r, p, n, point, k)
    dim_count = k ** n
    # ((1 - t^k)/(1 - t))^n, the graded dimension of the quotient
    ident = l1_graded_dimension(n, k, args.truncation)
    by_degree = ident[:n * (k - 1) + 1]
    dim_char = sum(by_degree)
    cat = catalan_series(r, p, n, args.truncation)
    inv_series = invariant_char_series(r, p, n, k, args.truncation)
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
            "series": [str(c) for c in ident[:args.truncation + 1]]},
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
    _emit(payload, args.json, lines)
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
    # the value of each option that a subcommand lacks
    parser.set_defaults(mu=(), c0=None, kappa=None, cdiag=None,
                        gordon_point=False, max_deg=None, truncation=None)

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
        _request(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION
    try:
        if args.command == "jack":
            return cmd_jack(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_gordon(args)
    except NonGenericError as exc:
        report = {"status": "non-generic", "error": str(exc)}
        if args.point is not None:
            report["simple_spectrum_violations"] = \
                simple_spectrum_violations(args.point, args.n)
        print(json.dumps(report, indent=2) if args.json
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
