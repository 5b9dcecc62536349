#!/usr/bin/env python3
"""The functions under ``src/repro`` that no run reaches.

Runs every example at CI's seeds and flags, each ``benchmarks/test_*.py``
with ``--benchmark-disable``, ``run_perf.py --quick`` and the four ledger
workloads at 1 ms, one process at a time.  Each process records the
functions it enters with ``sys.setprofile``, installed by a temporary
``sitecustomize`` on ``PYTHONPATH``.  It then prints the functions that
never ran, per module, with their line counts, and the totals.

A function's lines are the lines of its ``def`` (decorators included),
less those of the functions nested in it, so no line counts twice.

Recording slows a run about threefold, so this is a tool to run by hand:

    python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Each run: arguments to ``python``, from the repository root.
RUNS: List[List[str]] = (
    [[f"examples/{name}.py"] for name in (
        "quickstart", "coherence_tracing", "config_sweep", "custom_memory_controller",
        "further_use_cases", "multitenant_fpga", "power_instrumentation", "smart_nic",
    )]
    + [["examples/fault_soak.py", "--seed", seed, *health]
       for health in ([], ["--health"]) for seed in ("7", "1017", "424242")]
    + [[f"examples/{name}.py", "--seed", seed, "--json"]
       for name, seeds in (
           ("rack_kvs", ("5", "9001", "990951")),
           ("partition_soak", ("5", "9001", "990951")),
           ("checkpoint_fork", ("11", "990951")),
           ("traffic_slo", ("5", "990951")),
           ("chaos_serving", ("5", "9001", "990951")),
       ) for seed in seeds]
    + [["examples/partition_soak.py", "--seed", seed, "--kill"] for seed in ("5", "990951")]
    + [["examples/chaos_serving.py", "--seed", seed] for seed in ("7", "11", "42", "1017", "424242")]
    + [["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
        str(path.relative_to(ROOT))] for path in sorted((ROOT / "benchmarks").glob("test_*.py"))]
    + [["benchmarks/run_perf.py", "--quick", "--out", "{tmp}/perf.json"]]
    + [["benchmarks/ledger/workloads.py", "--workload", workload, "--duration-ms", "1"]
       for workload in ("flash_crowd", "write_heavy", "accel_only", "chaos")]
)

#: Installed as ``sitecustomize``: records ``(file, first line)`` of every
#: function entered under ``src/repro`` and writes them at exit.
RECORDER = """\
import atexit, os, sys

_seen = set()

def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.add((code.co_filename, code.co_firstlineno))

def _write():
    sys.setprofile(None)
    with open(os.path.join({tmp!r}, f"calls-{{os.getpid()}}.txt"), "w") as out:
        for path, line in _seen:
            # The examples put "examples/../src" on sys.path.
            path = os.path.realpath(path)
            if path.startswith({src!r}):
                out.write(f"{{line}} {{path}}\\n")

sys.setprofile(_record)
atexit.register(_write)
"""


def functions(path: Path) -> Dict[int, Tuple[str, int]]:
    """``{first line: (qualified name, own lines)}`` for every ``def`` in
    ``path``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: Dict[int, Tuple[str, int]] = {}

    def visit(node: ast.AST, prefix: str) -> int:
        """Walk ``node``'s children; return the lines their defs span."""
        nested = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - first + 1
                inner = visit(child, f"{prefix}{child.name}.")
                found[first] = (prefix + child.name, span - inner)
                nested += span
            elif isinstance(child, ast.ClassDef):
                nested += visit(child, f"{prefix}{child.name}.")
            else:
                nested += visit(child, prefix)
        return nested

    visit(ast.parse(path.read_text()), "")
    return found


def record(tmp: Path) -> Set[Tuple[str, int]]:
    """Run every entry of :data:`RUNS` under the recorder; return the
    ``(path, first line)`` of each function that ran."""
    (tmp / "sitecustomize.py").write_text(RECORDER.format(tmp=str(tmp), src=str(SRC)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp), str(SRC)]))
    for args in RUNS:
        args = [arg.format(tmp=tmp) for arg in args]
        print("recording:", " ".join(args), file=sys.stderr, flush=True)
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if done.returncode:
            # pytest reports a failure on stdout, a crashing script on stderr.
            tails = "".join(
                f"--- last 40 lines of {name}:\n"
                + "".join(f"{line}\n" for line in text.splitlines()[-40:])
                for name, text in (("stdout", done.stdout), ("stderr", done.stderr))
            )
            sys.exit(f"{' '.join(args)} failed ({done.returncode}):\n{tails}")
    ran = set()
    for calls in tmp.glob("calls-*.txt"):
        for line in calls.read_text().splitlines():
            first, path = line.split(" ", 1)
            ran.add((path, int(first)))
    return ran


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ran = record(Path(tmp))
    total_functions = total_lines = idle_functions = idle_lines = 0
    idle: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for first, (name, lines) in sorted(functions(path).items()):
            total_functions += 1
            total_lines += lines
            if (str(path), first) not in ran:
                idle_functions += 1
                idle_lines += lines
                idle[module].append((name, lines))
    for module, entries in idle.items():
        print(f"{module}: {len(entries)} functions, {sum(n for _, n in entries)} lines")
        for name, lines in entries:
            print(f"    {name} ({lines})")
    print(
        f"never run: {idle_functions} of {total_functions} functions, "
        f"{idle_lines} of {total_lines} function lines"
    )


if __name__ == "__main__":
    main()
