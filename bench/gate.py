"""The benchmark's correctness gate.

A job fails when it exits nonzero, when the program's own cross-check fails
(``gordon`` and ``verify`` report ``status == "pass"``, every ``jack``
eigenvector reports ``constructions_agree``), or when its canonical JSON
differs from the digest recorded in ``digests.json``.  Independently of the
program, :func:`oracle_failures` checks each ``jack`` vector's
z-eigen-equations with ``oracle_z`` from ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

DIGESTS = pathlib.Path(__file__).with_name("digests.json")


def job_key(argv) -> str:
    return " ".join(argv)


def load_digests(path=DIGESTS) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data) -> str:
    """sha256 of the canonical JSON form of a parsed output."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def own_check_failure(argv, code: int, stdout: str):
    """Why the job fails by its exit code or its own cross-check, or None.

    Returns ``(reason, parsed output)``.
    """
    if code != 0:
        return f"exit code {code}", None
    try:
        data = json.loads(stdout)
    except ValueError:
        return "output is not JSON", None
    if argv[0] == "jack":
        if not all(e.get("constructions_agree") is True
                   for e in data.get("eigenvectors", ())):
            return "the two constructions disagree", data
    elif data.get("status") != "pass":
        return f"status {data.get('status')!r}", data
    return None, data


def judge(argv, code: int, stdout: str, digests: dict[str, str]):
    """The reason a job fails the gate, or None when it passes."""
    reason, data = own_check_failure(argv, code, stdout)
    if reason is not None:
        return reason
    expected = digests.get(job_key(argv))
    if expected is None:
        return "no recorded digest"
    if digest(data) != expected:
        return "output differs from the recorded digest"
    return None


def oracle_failures(stdout: str) -> list[str]:
    """Check z_i f = w_i f for every eigenvector of a generic ``jack``
    output, with z_i rebuilt from the literal group class sums.

    The check runs on D f, where D clears the denominators of f: the
    operators are linear over the parameter field and D is nonzero, so the
    equations are equivalent, and polynomial coefficients keep the oracle's
    arithmetic free of gcds.
    """
    from cherednik import GenericParameters, PolyRep, RatFunc, poly_from_json
    from cherednik.parsing import parse_scalar
    from cherednik.scalars import mp_gcd
    from oracles import oracle_z

    data = json.loads(stdout)
    r, p, n = data["group"]
    params = GenericParameters(r, p)
    rep = PolyRep(r, p, n, params)
    one = params.one.num
    bad = []
    for entry in data["eigenvectors"]:
        f = poly_from_json({"n": n, "terms": entry["terms"]}, params)
        den = one
        for c in f.terms.values():
            den = den * c.den.divexact(mp_gcd(den, c.den))
        f = f.scaled(RatFunc(den, one))
        for i, text in enumerate(entry["weight"]["z"]):
            if oracle_z(rep, i, f) != f.scaled(parse_scalar(text, params)):
                bad.append(f"mu={entry['mu']} z_{i + 1}")
    return bad
