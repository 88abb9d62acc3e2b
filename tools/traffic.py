"""Which statements of src/algspec the tests and the bench's op lists run.

    python3 tools/traffic.py [--seeds 1 2]

Run from anywhere: the program is imported from the src directory of the
checkout this file sits in.  Every line that runs in src/algspec is
recorded with `sys.settrace` from three sources, in this order:

- import: importing every module of the package, credited to both sources
  below;
- bench: building the op lists of each workload with the checkout's
  bench/workloads.py at the given seeds, read only, in a temporary work
  directory, as tools/digest_outputs.py builds them, and one call of every
  op; the checks are not run;
- tests: the tier-1 tests, run in this process by `pytest.main`.  A test
  that starts a subprocess (the CLI entry point, the demos) is not traced:
  what it runs counts as reached by neither source.

A statement is reached when a line of its head runs (a simple statement's
lines, a compound statement's lines before its body), or when a statement
of its body is reached.  The script prints, per module, its lines, its code
lines (without blank lines, comments and docstrings) and its statements,
and how many of those no source reached and how many the tests alone
reached; then each of those statements, in runs of source lines.  The
tests' own exit status is printed first; a failing test still counts.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import os
import pkgutil
import random
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "algspec"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"


class LineTracer:
    """Records the (file, line) pairs run in PACKAGE into `into`, the set
    of the current source, or nowhere when it is None."""

    def __init__(self):
        self.imported, self.bench, self.tests = set(), set(), set()
        self.into: set | None = None
        self.prefix = str(PACKAGE) + "/"

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        return self._line

    def _line(self, frame, event, arg):
        if event == "line" and self.into is not None:
            self.into.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def _docstring_lines(tree: ast.Module) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str, tree: ast.Module) -> set[int]:
    """The lines that hold code: not blank, not only a comment, not part of
    a docstring."""
    out = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            out.update(range(tok.start[0], tok.end[0] + 1))
    return out - _docstring_lines(tree)


def _children(node) -> list[ast.stmt]:
    """The statements directly under node, through its except clauses and
    match cases."""
    out = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                out += _children(child)
            else:
                out.append(child)
    return out


def statements(tree: ast.Module) -> list[tuple[ast.stmt, range, list]]:
    """(statement, head lines, child statements) for every statement but
    the docstrings, each parent before its children."""
    docs = _docstring_lines(tree)
    out = []

    def visit(node):
        for child in _children(node):
            if child.lineno in docs:
                continue
            kids = _children(child)
            start = min([child.lineno] + [d.lineno for d in getattr(
                child, "decorator_list", ())])
            end = max(start, kids[0].lineno - 1) if kids else child.end_lineno
            out.append((child, range(start, end + 1), kids))
            visit(child)

    visit(tree)
    return out


def reached_statements(stmts, lines: set[int]) -> set[int]:
    """The ids of the statements reached by these lines: by a line of
    their head or through a reached statement of their body."""
    reached = {id(s) for s, head, _ in stmts if any(k in lines for k in head)}
    for s, _, kids in reversed(stmts):     # children before their parents
        if any(id(k) in reached for k in kids):
            reached.add(id(s))
    return reached


def run_bench(tracer: LineTracer, seeds) -> None:
    sys.path.insert(0, str(BENCH))
    tracer.into = tracer.bench
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        for name, make_ops in WORKLOADS.items():
            for seed in seeds:
                where = Path(tmp) / f"{name}-{seed}"
                where.mkdir()
                # the same seed string as bench/run.py, so the same inputs
                for op in make_ops(random.Random(f"{name}:{seed}"), where):
                    try:
                        op.call()
                    except Exception:    # a raising op ran its lines too
                        pass
    tracer.into = None


def _runs(lines: list[int], marked: set[int]) -> list[str]:
    """The marked statement lines, in runs of consecutive statements."""
    out, run = [], []
    for line in lines + [None]:
        if line in marked:
            run.append(line)
        elif run:
            out.append(f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}")
            run = []
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    # the tests that start the CLI or a demo in a subprocess import it too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    tracer = LineTracer()
    with tracer:
        tracer.into = tracer.imported
        import algspec
        for mod in pkgutil.iter_modules(algspec.__path__):
            importlib.import_module(f"algspec.{mod.name}")
        tracer.into = None
        run_bench(tracer, args.seeds)
        tracer.into = tracer.tests
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir",
                              str(ROOT), str(TESTS)])
        tracer.into = None
    print(f"tests exit status: {int(status)}")

    rows, unreached, tests_only = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        stmts = statements(tree)
        ran = {k for f, k in tracer.imported if f == str(path)}
        by_bench = reached_statements(stmts, ran | {
            k for f, k in tracer.bench if f == str(path)})
        by_tests = reached_statements(stmts, ran | {
            k for f, k in tracer.tests if f == str(path)})
        none = [s.lineno for s, _, _ in stmts
                if id(s) not in by_bench and id(s) not in by_tests]
        only = [s.lineno for s, _, _ in stmts
                if id(s) in by_tests and id(s) not in by_bench]
        rows.append((path.name, text.count("\n"), len(code_lines(text, tree)),
                     len(stmts), len(none), len(only)))
        heads = sorted({s.lineno for s, _, _ in stmts})
        unreached += [f"{path.name}:{r}" for r in _runs(heads, set(none))]
        tests_only += [f"{path.name}:{r}" for r in _runs(heads, set(only))]

    head = ("module", "lines", "code", "stmts", "unreached", "tests-only")
    print(f"{head[0]:<20}" + "".join(f"{h:>11}" for h in head[1:]))
    for name, *counts in rows + [("total", *map(sum, zip(*(r[1:]
                                                        for r in rows))))]:
        print(f"{name:<20}" + "".join(f"{c:>11}" for c in counts))
    print("\nstatements no source reached:")
    print("\n".join(f"  {x}" for x in unreached) or "  (none)")
    print("\nstatements only the tests reached:")
    print("\n".join(f"  {x}" for x in tests_only) or "  (none)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
