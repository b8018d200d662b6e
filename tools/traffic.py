"""Workload traffic: which statements of gradedmat one round of each benchmark workload runs.

Builds one round of each workload of gmbench/workloads.py at seed 1 and runs it in this
process under sys.settrace, with line events taken only in frames of src/gradedmat.
`cli` operations call gradedmat.cli.main in process instead of starting a child, with the
operation's GMK_MAX_DIM and with stdin, stdout and stderr captured.  Every result is checked
with its operation's own check, outside the trace.  Prints the operations and failures per
workload, then, per function of src/gradedmat, the statement lines that no workload
executed ("never called" when none of its statements ran).  Exits 1 when an operation
fails or its check does.

Run from the repository root:  python tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import traceback
from pathlib import Path
from typing import Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gradedmat"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "gmbench")]

from gradedmat import cli  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SEED = 1
Executed = Set[Tuple[str, int]]


class InProcessRunner:
    """Stands in for workloads.CliRunner: runs `gradedmat ARG...` through cli.main."""

    def run(self, argv: Sequence[str], extra_env=None) -> workloads.ChildResult:
        saved = os.environ.copy()
        os.environ.pop("GMK_MAX_DIM", None)
        os.environ.update(extra_env or {})
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO("")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse exits on --help and on usage errors
                    code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
                except Exception:  # a child would print the traceback and exit 1
                    traceback.print_exc()
                    code = 1
        finally:
            sys.stdin = stdin
            os.environ.clear()
            os.environ.update(saved)
        return workloads.ChildResult(code, out.getvalue(), err.getvalue(), 0)


def _tracer(executed: Executed):
    source = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(source) else None

    return global_


def run_workload(name: str, executed: Executed) -> List[str]:
    """Runs one round of the workload; returns the failures, one line each."""
    ops = workloads.build(name, SEED, False, InProcessRunner())
    ctx: dict = {}
    failures = []
    for op in ops:
        sys.settrace(_tracer(executed))
        try:
            result, error = op.run(ctx), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            sys.settrace(None)
        if error is None:
            try:
                op.check(result, ctx)
            except oracles.CheckFailed as exc:
                error = str(exc)
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        ctx[op.name] = result
        if error is not None:
            failures.append(f"{name}/{op.name}: {error}")
    print(f"{name:<12} {len(ops):>4} ops {len(failures):>3} failed")
    return failures


def _statements(body: Sequence[ast.stmt]) -> Iterator[Tuple[int, int]]:
    """(first, last) lines of each statement of a body, nested bodies included; a compound
    statement counts by its header, and a nested def or class by its header alone."""
    for node in body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        inner = getattr(node, "body", None)
        if not isinstance(inner, list):
            yield first, node.end_lineno
            continue
        if not isinstance(node, ast.Try):  # a try header runs no code of its own
            yield first, max(first, inner[0].lineno - 1)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _statements(inner)
        for handler in getattr(node, "handlers", ()):
            yield from _statements(handler.body)
        yield from _statements(getattr(node, "orelse", ()))
        yield from _statements(getattr(node, "finalbody", ()))


def _functions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, name + ".")
        elif not isinstance(node, (ast.expr, ast.Lambda)):
            yield from _functions(node, prefix)


def unexecuted(executed: Executed) -> Iterator[str]:
    """One line per function with statements that did not run."""
    for path in sorted(SRC.glob("*.py")):
        lines = {line for file, line in executed if file == str(path)}
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _functions(tree):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]  # the docstring
            spans = list(_statements(body))
            missed = [first for first, last in spans
                      if not any(line in lines for line in range(first, last + 1))]
            if not missed:
                continue
            where = "never called" if len(missed) == len(spans) else ", ".join(map(str, missed))
            yield f"{path.name}:{node.lineno} {name}: {where}"


def main() -> int:
    os.chdir(ROOT)  # where the cli workload runs its children
    executed: Executed = set()
    failures: List[str] = []
    for name in workloads.WORKLOADS:
        failures += run_workload(name, executed)
    print("\nstatement lines that no workload executed, per function (file:line of the def):")
    for line in unexecuted(executed):
        print(line)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
