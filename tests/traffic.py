"""Which lines of ``src/cherednik`` no command-line request reaches.

Run from the repository root::

    PYTHONPATH=src python tests/traffic.py

It runs every request of ``tests/byte_sweep.py`` and every job of
``bench/workloads.every_job()`` in this process, under ``sys.settrace``,
and prints, per module of ``src/cherednik``, the statement lines in
function bodies that no request executed, as ranges; a module that no
request imports is reported as such.  ``bench/workloads.py`` is only read
(``runpy``), so no bytecode is written under ``bench/``.  The trace starts
before the package is imported, so the functions that run at import count;
the lines of module and class bodies, which only run at import, are not
listed.  The full run takes about 45 s, so it is a tool to run on demand;
tier-1 runs it on three requests (``tests/test_traffic.py``).  The file's
name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import inspect
import pathlib
import runpy
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cherednik"


def body_lines(path: pathlib.Path) -> set[int]:
    """The lines of every function body of one source file: the lines its
    compiled function code objects carry, the first one included."""
    out: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class
            out.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return out


def reach(requests) -> dict[str, set[int]]:
    """Run each argv of the iterable ``requests`` through
    ``cherednik.cli.main`` under a trace, which also sees what iterating
    ``requests`` runs: the lines executed, per source file of
    ``src/cherednik`` (the first line of a function when it is called)."""
    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = hits.setdefault(path, set())
        lines.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        import byte_sweep  # imports the package under the trace
        for argv in requests:
            byte_sweep.run(argv)
    finally:
        sys.settrace(before)
    return hits


def unreached(hits: dict[str, set[int]]) -> dict[str, list | None]:
    """Per module name, the unreached (first, last) line ranges of its
    function bodies (a range spans no reached line), or None when the
    module was not imported."""
    out: dict[str, list | None] = {}
    for path in sorted(SRC.glob("*.py")):
        if f"cherednik.{path.stem}" not in sys.modules \
                and path.stem != "__init__":
            out[path.name] = None
            continue
        got = hits.get(str(path), set())
        ranges: list[list[int]] = []
        last_hit = True
        for line in sorted(body_lines(path)):
            if line in got:
                last_hit = True
            elif last_hit:
                ranges.append([line, line])
                last_hit = False
            else:
                ranges[-1][1] = line
        if ranges:
            out[path.name] = [tuple(r) for r in ranges]
    return out


def every_request():
    """Every byte-sweep request, then every benchmark job.  A generator, so
    that ``reach`` imports the package under its trace."""
    import byte_sweep
    for argvs in byte_sweep.classes().values():
        yield from argvs
    yield from runpy.run_path(str(ROOT / "bench" / "workloads.py"))[
        "every_job"]()


def report(gaps: dict[str, list | None]) -> str:
    lines = []
    for name, ranges in gaps.items():
        if ranges is None:
            lines.append(f"{name}: not imported")
        else:
            text = ", ".join(str(a) if a == b else f"{a}-{b}"
                             for a, b in ranges)
            lines.append(f"{name}: {text}")
    return "\n".join(lines)


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    print("function-body lines that no request reached:")
    print(report(unreached(reach(every_request()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
