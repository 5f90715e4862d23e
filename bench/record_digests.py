"""Record the canonical-output digest of every job any seed can produce.

Run from the repository root after a change that is meant to alter outputs::

    python3 bench/record_digests.py

A job is recorded only if it passes the program's own cross-check and, for
``jack``, the independent z-oracle; otherwise the script exits 1 and writes
nothing.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]
    from cherednik.cli import main as cli_main
    import gate
    import workloads

    digests, bad = {}, []
    for argv in workloads.every_job():
        code, stdout, seconds = run.run_job(cli_main, argv)
        reason, data = gate.own_check_failure(argv, code, stdout)
        if reason is None and argv[0] == "jack":
            oracle = gate.oracle_failures(stdout)
            reason = f"z-oracle: {oracle}" if oracle else None
        key = gate.job_key(argv)
        print(f"{seconds:8.3f} s  {key}: {reason or 'ok'}", flush=True)
        if reason is not None:
            bad.append(key)
        else:
            digests[key] = gate.digest(data)
    if bad:
        print(f"not recorded: {len(bad)} failing jobs", file=sys.stderr)
        return 1
    gate.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
