#!/usr/bin/env python3
"""Which functions under src/repro does the product run?

The product is every non-pytest ``python`` step of ci.yml (read from it,
``--jobs N`` rewritten to ``--jobs 1``: a forked worker's hits are lost)
plus one pass of each ``BENCHMARK.json`` workload.  Each ci.yml job runs
in a fresh copy of the tree, in interpreters whose ``sitecustomize``
records, through ``sys.monitoring``, the first ``PY_START`` of each code
object under ``src/repro`` and then returns ``DISABLE`` (so a censused
run costs about a plain one, and a step that spawns Python, such as
``pins.py check perfbench``, is censused through its child).

``tests/data/reach.json`` lists per module the public functions the
product reaches, plus a hand-written ``kept`` map (function or class ->
reason).  Public: a top-level function or a method of a public class, in
a public module, with no leading underscore; stubs (docstring, ``pass``,
``...``, ``raise NotImplementedError``) are exempt.
``tests/test_reach_census.py`` checks the rule from the file alone.

Usage (CPython 3.12+, stdlib only; ~10 min on 2 vCPUs)::

    python3.12 scripts/reach_census.py --record   # rewrite the product list
    python3.12 scripts/reach_census.py --check    # exit 1 if it moved
    python3.12 scripts/reach_census.py --tier1    # report product / tier-1 only / none

Where 3.12 is installed through pyenv but is not the active version,
select it for the one command::

    PYENV_VERSION=3.12.1 python3.12 scripts/reach_census.py --check

``--tier1`` also censuses ``python -m pytest -x -q`` (put a pytest this
interpreter can import on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REACH = ROOT / "tests" / "data" / "reach.json"
WORKERS = 2  # runs at a time: each is one single-threaded interpreter
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".repro-cache", ".hypothesis",
                                 ".pytest_cache", "out")

#: Runs at start-up of every censused interpreter (as ``sitecustomize``).
HOOK = '''\
import atexit, os, sys
_root, _out, _hits, _mon = os.environ["REACH_ROOT"], os.environ["REACH_OUT"], set(), sys.monitoring
def _start(code, offset):
    if code.co_filename.startswith(_root):
        _hits.add(code.co_filename[len(_root):] + ":" + code.co_qualname)
    return _mon.DISABLE
_mon.use_tool_id(_mon.COVERAGE_ID, "reach-census")
_mon.register_callback(_mon.COVERAGE_ID, _mon.events.PY_START, _start)
_mon.set_events(_mon.COVERAGE_ID, _mon.events.PY_START)
@atexit.register
def _dump():
    with open(os.path.join(_out, "%d.txt" % os.getpid()), "a") as handle:
        handle.write("".join(hit + "\\n" for hit in _hits))
'''


# ----------------------------------------------------------------------
# The rule, from source alone (imported by tests/test_reach_census.py)
# ----------------------------------------------------------------------
def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or (isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt))
        for stmt in body
    )


def public_functions(src: pathlib.Path = SRC) -> Dict[str, Dict[str, bool]]:
    """module -> public function qualname -> is it a stub."""
    found: Dict[str, Dict[str, bool]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = module_of(path.relative_to(src).as_posix())
        if any(p.startswith("_") and not p.endswith("__") for p in module.split(".")):
            continue
        names = found.setdefault(module, {})
        todo: List[Tuple[str, ast.AST]] = [("", ast.parse(path.read_text()))]
        while todo:
            prefix, scope = todo.pop()
            for node in scope.body:
                if getattr(node, "name", "_").startswith("_"):
                    continue
                if isinstance(node, ast.ClassDef):
                    todo.append((f"{prefix}{node.name}.", node))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + node.name
                    names[name] = names.get(name, True) and _is_stub(node)
    return found


def module_of(relpath: str) -> str:
    """``repro/net/__init__.py`` -> ``repro.net``."""
    parts = pathlib.PurePosixPath(relpath).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def kept_matches(key: str, module: str, name: str) -> bool:
    """A ``kept`` key names a function or a class (all of its methods)."""
    target = f"{module}:{name}"
    return target == key or target.startswith(key + ".")


# ----------------------------------------------------------------------
# The product: ci.yml steps and benchmark workloads
# ----------------------------------------------------------------------
def ci_jobs(path: pathlib.Path = ROOT / ".github" / "workflows" / "ci.yml"
            ) -> Dict[str, List[str]]:
    """job id -> its ``run:`` commands, in order (folded blocks joined)."""
    jobs: Dict[str, List[str]] = {}
    lines = path.read_text().splitlines()
    job = None
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        head = re.match(r"^  ([\w-]+):\s*$", line)
        if head:
            job = jobs.setdefault(head.group(1), [])
            continue
        run = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not run or job is None:
            continue
        if run.group(2) not in (">", "|"):
            job.append(run.group(2))
            continue
        block = []
        while i < len(lines) and (not lines[i].strip()
                                  or len(lines[i]) - len(lines[i].lstrip()) > len(run.group(1))):
            block.append(lines[i].strip())
            i += 1
        job.append(" ".join(part for part in block if part))
    return jobs


def product_argv(command: str) -> Tuple[Dict[str, str], List[str]]:
    """``VAR=x python ARGS`` -> (env, argv for this interpreter); argv is
    empty for a step that is not a censused Python run."""
    words = shlex.split(command)
    env = {}
    while words and re.match(r"^\w+=", words[0]):
        key, _, value = words.pop(0).partition("=")
        env[key] = value
    tooling = words[1:2] == ["-m"] and words[2:3] in (["pytest"], ["pip"])
    if words[:1] not in (["python"], ["python3"]) or tooling:
        return env, []
    argv = [sys.executable] + words[1:]
    for k in range(len(argv) - 1):
        if argv[k] == "--jobs":
            argv[k + 1] = "1"
    return env, argv


def product_runs() -> List[Tuple[str, List[Tuple[Dict[str, str], List[str]]]]]:
    runs = []
    for job, commands in ci_jobs().items():
        steps = [step for step in map(product_argv, commands) if step[1]]
        if steps:
            runs.append((job, steps))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        runs.append((f"benchmark:{workload['name']}", [({}, [
            sys.executable, "perfbench/run.py", "--workload", workload["name"],
            "--passes", "1"])]))
    return runs


def census(runs, work: str) -> List[Set[str]]:
    """Run each (name, steps) in its own copy of the tree as it was when
    the census started; per run, its hits as ``module:qualname``.  Exits
    if any step fails: a census of a broken product proves nothing."""
    tree = pathlib.Path(work, "tree")
    shutil.copytree(ROOT, tree, ignore=SKIPPED)
    failed: List[str] = []

    def one(run) -> Set[str]:
        name, steps = run
        with tempfile.TemporaryDirectory(prefix="reach-", dir=work) as tmp:
            copy, out = pathlib.Path(tmp, "tree"), pathlib.Path(tmp, "hits")
            shutil.copytree(tree, copy)
            out.mkdir()
            for env, argv in steps:
                outer = os.environ.get("PYTHONPATH")
                path = os.pathsep.join(
                    [work, env.get("PYTHONPATH", "src")] + ([outer] if outer else []))
                done = subprocess.run(
                    argv, cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    env={**os.environ, **env, "PYTHONPATH": path, "PYTHONHASHSEED": "0",
                         "REACH_ROOT": f"{copy}/src/", "REACH_OUT": str(out)})
                status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
                print(f"[{name}] {status}: {shlex.join(argv[1:])}", flush=True)
                if done.returncode:
                    failed.append(f"[{name}] {shlex.join(argv[1:])}")
                    sys.stderr.write(done.stderr.decode(errors="replace")[-2000:])
            hits = set()
            for dump in out.iterdir():
                for hit in dump.read_text().splitlines():
                    rel, _, qualname = hit.partition(":")
                    hits.add(f"{module_of(rel)}:{qualname}")
            return hits

    with ThreadPoolExecutor(WORKERS) as pool:
        hits = list(pool.map(one, runs))
    if failed:
        sys.exit("census steps failed:\n" + "\n".join(failed))
    return hits


def reach_table(hits: Set[str]) -> Dict[str, List[str]]:
    return {
        module: reached
        for module, names in public_functions().items()
        if (reached := sorted(n for n in names if f"{module}:{n}" in hits))
    }


def report(product: Set[str], tier1: Set[str]) -> None:
    """Per package: functions (nested included) by product / tier-1 only / none."""
    rows: Dict[str, List[int]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_of(str(path.relative_to(SRC)))
        package = ".".join(module.split(".")[:2])
        row = rows.setdefault(package, [0, 0, 0])
        stack: List[Tuple[str, ast.AST]] = [("", ast.parse(path.read_text()))]
        while stack:
            prefix, scope = stack.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}{node.name}.", node))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{module}:{prefix}{node.name}"
                    row[0 if name in product else 1 if name in tier1 else 2] += 1
                    if name not in product:
                        print(("tier-1 only " if name in tier1 else "unreached   ") + name)
                    stack.append((f"{prefix}{node.name}.<locals>.", node))
                else:
                    stack.append((prefix, node))
    print(f"{'package':24} {'product':>8} {'tier-1':>8} {'none':>8}")
    for package, (a, b, c) in rows.items():
        print(f"{package:24} {a:8} {b:8} {c:8}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite tests/data/reach.json")
    mode.add_argument("--check", action="store_true", help="exit 1 if the file would change")
    mode.add_argument("--tier1", action="store_true", help="report product / tier-1 / none")
    args = parser.parse_args()
    if sys.version_info < (3, 12):
        parser.exit(2, "reach_census.py needs CPython 3.12+ (sys.monitoring)\n")
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        work = os.path.realpath(work)
        pathlib.Path(work, "sitecustomize.py").write_text(HOOK)
        runs = product_runs()
        if args.tier1:
            runs.append(("tier-1", [({}, [sys.executable, "-m", "pytest", "-x", "-q"])]))
        runs.sort(key=lambda run: run[0] not in ("experiments-md", "tier-1"))  # longest first
        hits = dict(zip((name for name, _ in runs), census(runs, work)))
    tier1 = hits.pop("tier-1", set())
    product = set().union(*hits.values())
    if args.tier1:
        report(product, tier1 - product)
        return 0
    old = json.loads(REACH.read_text()) if REACH.exists() else {"kept": {}}
    new = {"kept": old["kept"], "product": reach_table(product)}
    text = json.dumps(new, indent=1, sort_keys=True) + "\n"
    if args.check:
        if text != REACH.read_text():
            print("reach.json moved; rerun with --record", file=sys.stderr)
            return 1
        print("reach.json reproduced")
        return 0
    REACH.write_text(text)
    print(f"wrote {REACH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
