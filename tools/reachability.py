"""Which ``src/repro`` functions does no entry point reach?

Runs every documented entry point under a call profiler, lists each
function definition in ``src/repro`` that none of them called, and holds
that list to ``tools/reachability_allow.txt``::

    make reachability        # or: python tools/reachability.py
    python tools/reachability.py --unique

The entry points are the shell commands of README.md and
docs/usage.md (plus the diversity rows the README only names), every
example, every ``benchmarks/bench_*.py`` through its test functions,
``benchmarks/perf/run.py --smoke`` and ``tools/gc_share.py``.  A few
minutes on two cores.

``--unique`` lists, per entry point, the definitions no *other* entry
point reached instead: what deleting that command would leave
unreached.  A command whose unique lines are only argument parsing and
printing produces nothing the others do not.

How it counts, and why each part is there:

* A ``sitecustomize.py`` put first on ``PYTHONPATH`` installs
  ``sys.setprofile`` and ``threading.setprofile`` in every Python
  process the entry points start, gated by the ``REPRO_REACH_OUT``
  variable.  Each process writes the ``(file, co_firstlineno)`` of every
  code object it entered when it exits — at interpreter exit, or just
  before ``os._exit``, which is how a forked pool worker ends — so
  ``repro serve`` children and pool workers are counted.
* The bench files run with ``-p no:benchmark`` and a pass-through
  ``benchmark`` fixture: pytest-benchmark's timed call hides the timed
  function's callees from the profiler.
* Everything runs in a temporary copy of the tree, because the bench
  files rewrite ``benchmarks/results/``.
* Each entry point dumps into its own directory, so a definition's
  reachers are known per entry point.
* A decorated function's code object starts at its first decorator
  line, so that is the line a definition is matched on.

Default output: each outermost unreached definition with its line span — a class
with its own ``__init__`` when none of its methods ran, else the methods
themselves — then the totals.

The allowlist is a ratchet.  It names each definition that may stay
unreached as ``path::Qualname`` (no line numbers, so moving code is
free), under a ``# reason`` header.  The run fails on an unreached
definition the list does not name, and on a listed one that is now
reached or gone: the list can only shrink, one deletion at a time.
Exit status 1 on either, or if an entry point failed (its reach is then
incomplete).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWLIST = ROOT / "tools" / "reachability_allow.txt"

ENTRY_POINTS: list[list[str]] = [
    # README.md, in order of appearance.
    ["-m", "repro", "tables", "table3", "--processes", "auto"],
    ["-m", "repro", "report", "--budget", "0.3", "--processes", "auto"],
    ["-m", "repro", "scenario", "aggressive", "--seed", "7", "--counters"],
    ["-m", "repro", "tables", "table3", "--counters"],
    ["-m", "repro", "trace", "record", "aggressive", "--algorithm", "AD-2",
     "--seed", "7", "--out", "run.jsonl"],
    ["-m", "repro", "trace", "replay", "run.jsonl"],
    ["-m", "repro", "trace", "summarize", "run.jsonl"],
    ["-m", "repro", "chaos", "--intensities", "0", "1", "2",
     "--replications", "1", "2", "3"],
    ["-m", "repro", "trace", "record", "non-historical", "--algorithm", "AD-4",
     "--chaos", "2", "--seed", "20045960", "--out", "witness.jsonl"],
    ["-m", "repro", "chaos", "--churn", "--intensities", "1", "2", "--trials", "12"],
    ["-m", "repro", "trace", "record", "aggressive", "--seed", "5", "--updates",
     "14", "--replication", "2", "--membership", "--out", "healed.jsonl"],
    ["-m", "repro", "trace", "replay", "healed.jsonl"],
    ["-m", "repro", "feed", "record", "aggressive", "--algorithm", "AD-3",
     "--seed", "7", "--updates", "60", "--out", "run.feed"],
    ["-m", "repro", "feed", "conform", "run.feed"],
    ["SERVE", "-m", "repro", "feed", "send", "run.feed", "--conform"],
    ["-m", "repro", "quality", "--trials", "20", "--row", "aggressive"],
    ["-m", "repro", "quality", "--trials", "6", "--updates", "20", "--check",
     "--json", "q.json"],
    ["-m", "repro", "quality", "--row", "zipfian", "--matrix", "multi",
     "--algorithms", "AD-1", "AD-5", "adaptive", "--trials", "8"],
    # The other diversity rows the README names: bursty in both matrices.
    ["-m", "repro", "quality", "--row", "correlated", "--matrix", "multi",
     "--algorithms", "AD-1", "AD-5", "adaptive", "--trials", "8"],
    ["-m", "repro", "quality", "--row", "bursty", "--matrix", "multi",
     "--algorithms", "AD-1", "AD-5", "adaptive", "--trials", "8"],
    ["-m", "repro", "quality", "--row", "bursty", "--trials", "8"],
    ["-m", "repro", "list"],
    ["-m", "repro", "tables", "table1", "table3"],
    ["-m", "repro", "scenario", "aggressive", "--seed", "7", "--timeline"],
    # Also docs/usage.md's one shell command.
    ["-m", "repro", "fuzz", "--row", "aggressive", "--algorithm", "AD-1",
     "--target", "consistency", "--minimize"],
    ["-m", "repro", "fuzz", "--target", "consistency", "--budget", "2000",
     "--minimize"],
    ["-m", "repro", "compare", "aggressive", "--seed", "5"],
    ["-m", "repro", "chaos", "--trials", "30"],
    ["-m", "repro", "chaos", "--churn"],
    ["-m", "repro", "feed", "record", "aggressive", "--seed", "7", "--out",
     "run.feed"],
    ["-m", "repro", "feed", "conform", "run.feed"],
    ["-m", "repro", "report", "--budget", "0.2", "--output", "report.md"],
    # make perf / perf-pairs / gc-share.
    ["benchmarks/perf/run.py", "--smoke"],
    ["tools/gc_share.py", "--seed", "7"],
]

SITECUSTOMIZE = '''\
import os

if os.environ.get("REPRO_REACH_OUT"):
    import atexit
    import sys
    import tempfile
    import threading

    _entered = set()

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _entered.add((code.co_filename, code.co_firstlineno))

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        fd, _ = tempfile.mkstemp(
            dir=os.environ["REPRO_REACH_OUT"], prefix=f"{os.getpid()}-")
        with os.fdopen(fd, "w") as out:
            out.writelines(f"{line}\\t{path}\\n" for path, line in _entered)

    def _dump_then_exit(status, _exit=os._exit):
        _dump()
        _exit(status)

    os._exit = _dump_then_exit
    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''

PASS_THROUGH_PLUGIN = '''\
import pytest


class PassThrough:
    """``benchmark(fn, ...)`` and ``benchmark.pedantic(fn, ...)``, each one
    plain call of ``fn``."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_timing):
        return fn(*args, **(kwargs or {}))


@pytest.fixture
def benchmark():
    return PassThrough()
'''

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def first_line(node: ast.AST) -> int:
    """The line a definition's code object starts on: its first decorator."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def definitions(tree: ast.AST) -> list[tuple[int, int, str]]:
    """Every function of one module as ``(first, last, qualified name)``."""
    spans: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                if isinstance(child, _FUNCTIONS):
                    spans.append((first_line(child), child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(spans)


def unreached(tree: ast.AST, entered: set[int]) -> list[tuple[int, int, str, int]]:
    """The outermost unreached definitions of one module.

    ``entered`` holds the first lines of the module's code objects that
    ran.  Each span ``(first, last, qualified name, functions inside)``
    is a function that never ran (whatever it nests) or a class with its
    own ``__init__`` none of whose methods ran.  A class without one may
    still be built (a dataclass's generated ``__init__`` has no source
    line), so only its methods are judged.
    """
    spans: list[tuple[int, int, str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                visit(child, prefix)
                continue
            inner = [n for n in ast.walk(child) if isinstance(n, _FUNCTIONS)]
            if isinstance(child, ast.ClassDef):
                missed = any(
                    isinstance(n, _FUNCTIONS) and n.name == "__init__" for n in child.body
                ) and not any(first_line(n) in entered for n in inner)
            else:
                missed = first_line(child) not in entered
            if missed:
                spans.append((first_line(child), child.end_lineno, prefix + child.name, len(inner)))
            else:
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return spans


def qualnames(tree: ast.AST) -> set[str]:
    """Every function and class of one module, by qualified name."""
    names: set[str] = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def parse_allowlist(text: str) -> dict[str, str]:
    """``{path::Qualname: reason}`` from the allowlist's text: each entry
    takes the ``# reason`` header above it."""
    allowed: dict[str, str] = {}
    reason = None
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("#"):
            reason = line.lstrip("#").strip()
        elif line:
            if reason is None or "::" not in line or line in allowed:
                raise ValueError(f"allowlist line {number}: {line!r} needs a "
                                 "reason header, a path::Qualname and no twin")
            allowed[line] = reason
    return allowed


def ratchet(unreached: list[str], defined: set[str], allowed: dict[str, str]) -> list[str]:
    """What holds the unreached list to the allowlist: each unreached
    definition it does not name, and each name it lists that is reached
    or gone.  Empty when the two agree."""
    missed = set(unreached)
    problems = [f"unreached but not allowlisted: {name}"
                for name in unreached if name not in allowed]
    problems += [
        f"allowlisted but {'reached' if name in defined else 'gone'}: {name}"
        for name in allowed if name not in missed
    ]
    return problems


def run_entry_points(tree: Path, env: dict[str, str], out: Path) -> tuple[list[str], list[str]]:
    """Run every entry point in ``tree``, each dumping into its own
    numbered directory under ``out``: every entry point as shown, and
    the ones that failed."""
    benches = sorted(str(p.relative_to(tree)) for p in tree.glob("benchmarks/bench_*.py"))
    examples = sorted(str(p.relative_to(tree)) for p in tree.glob("examples/*.py"))
    commands = [
        *ENTRY_POINTS,
        *([example] for example in examples),
        ["-m", "pytest", "-q", "-p", "no:benchmark", "-p", "reach_plugin",
         "-p", "no:cacheprovider", *benches],
    ]
    failed, shown_all = [], []
    for index, args in enumerate(commands, 1):
        started = time.monotonic()
        dump = out / str(index)
        dump.mkdir()
        env = dict(env, REPRO_REACH_OUT=str(dump))
        server = None
        if args[0] == "SERVE":
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--once"],
                cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
            )
            port = server.stdout.readline().split()[-1].rsplit(":", 1)[1]
            args = [*args[1:], "--port", port]
        done = subprocess.run(
            [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True,
        )
        if server is not None:
            server.communicate(timeout=60)
        shown = " ".join(args)
        shown_all.append(shown)
        print(f"[{index}/{len(commands)}] {time.monotonic() - started:6.1f}s  {shown}",
              file=sys.stderr, flush=True)
        if done.returncode != 0:
            failed.append(shown)
            print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
    return shown_all, failed


def print_unique(tree: Path, shown: list[str], reachers: dict[tuple[str, int], set[int]]) -> None:
    """Per entry point, the outermost definitions only it reached."""
    only: dict[int, list[tuple[str, int, int, str]]] = {}
    for path in sorted((tree / "src" / "repro").rglob("*.py")):
        inside = (0, 0)
        for first, last, name in definitions(ast.parse(path.read_text())):
            who = reachers.get((str(path), first), set())
            if len(who) == 1 and not inside[0] <= first <= inside[1]:
                inside = (first, last)
                only.setdefault(next(iter(who)), []).append(
                    (str(path.relative_to(tree)), first, last, name))
    for index, command in enumerate(shown, 1):
        spans = only.get(index, [])
        lines = sum(last - first + 1 for _, first, last, _ in spans)
        print(f"\n{command}: {len(spans)} definitions no other entry point "
              f"reaches, {lines:,} lines")
        for path, first, last, name in spans:
            print(f"  {path}:{first}-{last}  {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--unique", action="store_true",
        help="per entry point, list the definitions only it reaches",
    )
    unique = parser.parse_args().unique
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        tree, hook, out = (Path(scratch) / name for name in ("tree", "hook", "out"))
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
        ))
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        (hook / "reach_plugin.py").write_text(PASS_THROUGH_PLUGIN)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(hook), str(tree / "src")]))
        shown, failed = run_entry_points(tree, env, out)

        entered: dict[str, set[int]] = {}
        reachers: dict[tuple[str, int], set[int]] = {}
        for dump in out.glob("*/*"):
            for row in dump.read_text().splitlines():
                line, path = row.split("\t", 1)
                entered.setdefault(path, set()).add(int(line))
                reachers.setdefault((path, int(line)), set()).add(int(dump.parent.name))

        if unique:
            print_unique(tree, shown, reachers)
        total = missed = lines = 0
        names: list[str] = []
        defined: set[str] = set()
        for path in sorted((tree / "src" / "repro").rglob("*.py")):
            module = ast.parse(path.read_text())
            relative = path.relative_to(tree)
            total += sum(isinstance(n, _FUNCTIONS) for n in ast.walk(module))
            defined |= {f"{relative}::{name}" for name in qualnames(module)}
            for first, last, name, functions in unreached(module, entered.get(str(path), set())):
                missed += functions
                lines += last - first + 1
                names.append(f"{relative}::{name}")
                if not unique:
                    print(f"{relative}:{first}-{last}  {name}  ({last - first + 1} lines)")
    print(f"\nunreached: {missed} of {total} function definitions, "
          f"{lines:,} lines in {len(names)} outermost definitions")
    problems = ratchet(names, defined, parse_allowlist(ALLOWLIST.read_text()))
    for problem in problems:
        print(f"RATCHET: {problem}")
    for command in failed:
        print(f"FAILED: {command}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
