"""Which functions of ``src/repro`` do the entry points enter?

Usage, from the root of a checkout::

    python scripts/reachability_audit.py

Every function and method in ``src/repro`` is listed from the source by
AST.  Then the entry points run in this process under ``sys.setprofile``
and ``threading.setprofile``:

* the CLI commands: the quick scorecard, ``optimize`` with and without
  ``--warm-start``, ``check``, ``trace``, ``stats --prometheus``,
  ``diagnose``, ``top --plain``, ``chaos --quick``, ``serve --smoke``
  with and without ``--harden``, ``bench-diff`` and ``lint src``, on the
  base workload that ``export-workload`` writes;
* every example under ``examples/``;
* each llabench workload with ``--trace 0`` and with ``--trace 1``
  (seed 1, 1 s).

A function counts as entered when the profiler sees a call of its code.
The report gives each entry point's exit status and wall time, the
entered and total function counts, and every function never entered,
with its line count, file by file.  Code that only tests, benchmarks or
CI-only flags reach is listed as never entered.  The entry points run in
a temporary directory and their output is discarded; the whole audit
takes about 90 s on a 2-vCPU VM.
"""

from __future__ import annotations

import ast
import contextlib
import logging
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

log = logging.getLogger("reachability_audit")

#: ``(real path, first line, name)`` of a function: its first line is its
#: first decorator's, as in the code object's ``co_firstlineno``.
Key = Tuple[str, int, str]


class Function(NamedTuple):
    path: str
    first: int
    last: int
    qualname: str

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def list_functions() -> Dict[Key, Function]:
    """Every ``def`` and ``async def`` under ``src/repro``, nested ones
    included (``ROOT`` is resolved, so the paths are real paths)."""
    functions: Dict[Key, Function] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect(tree, str(path), "", functions)
    return functions


def _collect(node: ast.AST, filename: str, prefix: str,
             out: Dict[Key, Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            out[(filename, first, child.name)] = Function(
                path=os.path.relpath(filename, ROOT), first=first,
                last=child.end_lineno or child.lineno, qualname=qualname)
            _collect(child, filename, qualname + ".<locals>.", out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, filename, prefix + child.name + ".", out)
        else:
            _collect(child, filename, prefix, out)


class EntryPoint(NamedTuple):
    label: str
    run: Callable[[], object]


def _cli(*argv: str) -> EntryPoint:
    def run() -> object:
        # Imported under the profiler, so that calls made at import time
        # (such as the experiment registrations) count as entered.
        from repro.cli import main
        return main(list(argv))
    return EntryPoint("repro " + " ".join(argv), run)


def _example(path: Path) -> EntryPoint:
    def run() -> object:
        runpy.run_path(str(path), run_name="__main__")
        return 0
    return EntryPoint(f"examples/{path.name}", run)


def _llabench(workload: str, trace: int) -> EntryPoint:
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]

    def run() -> object:
        from llabench.run import main
        return main(argv)
    return EntryPoint("llabench/run.py " + " ".join(argv), run)


def entry_points() -> List[EntryPoint]:
    points = [
        _cli("export-workload", "base", "-o", "wl.json"),
        _cli("experiment", "--all", "--quick", "-o", "scorecard.json"),
        _cli("optimize", "wl.json", "--trace", "run.jsonl"),
        _cli("optimize", "wl.json", "--warm-start", "--trace", "warm.jsonl"),
        _cli("check", "wl.json"),
        _cli("trace", "run.jsonl"),
        _cli("stats", "run.jsonl", "--prometheus"),
        _cli("diagnose", "run.jsonl", "--workload", "wl.json"),
        _cli("top", "wl.json", "--rounds", "40", "--plain"),
        _cli("chaos", "--quick"),
        _cli("serve", "--smoke"),
        _cli("serve", "--smoke", "--harden"),
        _cli("bench-diff", "scorecard.json", "scorecard.json"),
        _cli("lint", str(SRC)),
    ]
    points += [_example(p) for p in sorted((ROOT / "examples").glob("*.py"))]
    points += [_llabench(w, t)
               for w in ("solve", "nonlinear", "serve") for t in (0, 1)]
    return points


class Outcome(NamedTuple):
    label: str
    status: str
    seconds: float

    def line(self) -> str:
        return f"  {self.status:<8s} {self.seconds:6.1f} s  {self.label}"


def _status(point: EntryPoint) -> str:
    """The entry point's exit status.  An exception is logged and
    reported, not propagated: one broken entry point must not end the
    audit."""
    try:
        code = point.run()
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        log.exception("%s raised", point.label)
        return f"raised {type(exc).__name__}"
    return f"exit {code or 0}"


def run_entry_points(points: List[EntryPoint], workdir: str
                     ) -> Tuple[List[Outcome], Set[Key]]:
    """Run ``points`` in ``workdir`` under the profilers; their outcomes
    and the key of every code object called."""
    seen: Dict[int, CodeType] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code

    outcomes: List[Outcome] = []
    cwd = os.getcwd()
    os.chdir(workdir)
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with open(os.devnull, "w") as sink:
            for point in points:
                started = time.perf_counter()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    status = _status(point)
                outcomes.append(Outcome(point.label, status,
                                        time.perf_counter() - started))
                print(outcomes[-1].line(), file=sys.stderr, flush=True)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(cwd)
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno,
               code.co_name) for code in seen.values()}
    return outcomes, called


def report(functions: Dict[Key, Function], called: Set[Key],
           outcomes: List[Outcome]) -> str:
    never = sorted((f for key, f in functions.items() if key not in called),
                   key=lambda f: (f.path, f.first))
    # Distinct lines: a nested function's lines count once.
    lines_never = {(f.path, line) for f in never
                   for line in range(f.first, f.last + 1)}
    out = ["entry points:"] + [outcome.line() for outcome in outcomes]
    out.append("")
    out.append(f"entered {len(functions) - len(never):,} of "
               f"{len(functions):,} functions in src/repro")
    out.append(f"never entered: {len(never):,} functions, "
               f"{len(lines_never):,} lines")
    path: Optional[str] = None
    for f in never:
        if f.path != path:
            path = f.path
            out.append("")
            out.append(path)
        out.append(f"  {f.first:5d}  {f.qualname} ({f.lines} lines)")
    return "\n".join(out)


def main() -> int:
    # The handler keeps the real stderr while the entry points' output
    # is redirected.
    log.addHandler(logging.StreamHandler(sys.stderr))
    log.propagate = False
    sys.path[:0] = [str(SRC), str(ROOT)]
    functions = list_functions()
    with tempfile.TemporaryDirectory() as workdir:
        outcomes, called = run_entry_points(entry_points(), workdir)
    print(report(functions, called, outcomes))
    return 1 if any(o.status.startswith("raised") for o in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main())
