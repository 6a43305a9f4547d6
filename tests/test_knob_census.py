"""Every config field and every defaulted parameter earns a product caller.

A dataclass field or a defaulted parameter that nothing ever sets is a
constant written in two places: as the default and again wherever the
value is read.  A setting only tests vary is the same constant plus a
code path the product never runs.  These scans walk the library, the
scripts, the benchmarks and the examples (the documented front door,
each run by CI), but not the tests.

* Every field of the simulator's config classes is set somewhere
  outside its own class body: as a call keyword (constructor or
  ``replace()``), an attribute write, or a key of a strategy's
  ``config_overrides``.
* Every defaulted parameter of a public function, method or
  constructor under ``src/repro`` is passed by some call to a callee of
  that name (a constructor's callee is its class, a subclass that
  inherits it, or ``super().__init__`` in a subclass): by keyword, or
  positionally far enough.  A ``*args`` / ``**kwargs`` spread names
  nothing, so it passes nothing: a relay names what it passes on, and a
  setting that reaches its callee only through a spread is flagged.

A field or parameter that fails here should become a module constant
(or a local with the same value) instead, unless a tier-1 test needs a
second value for a reason the product shares: ``EXEMPT`` names that
test.  An exemption the scans no longer flag fails as stale.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "scripts", "perfbench", "benchmarks", "examples")

#: (file under src/repro, class name) of every config class under census.
CONFIG_CLASSES = (
    ("tcp/connection.py", "TCPConfig"),
    ("bittorrent/client.py", "ClientConfig"),
    ("wp2p/client.py", "WP2PConfig"),
    ("scale/model.py", "FluidParams"),
    ("scale/model.py", "PeerClass"),
    ("scale/hybrid.py", "HybridSpec"),
    ("scale/assets.py", "AssetClassParams"),
)


#: Settings only tier-1 tests set: label (as the scans report it) ->
#: (the test that needs a second value, why).
EXEMPT = {
    "FluidParams.efficiency": (
        "tests/test_oracles_fluid.py::test_completion_respects_the_download_and_capacity_bounds",
        "the Kumar–Ross bounds are exact only at efficiency 1 and no start-up delay",
    ),
    "FluidParams.startup_delay": (
        "tests/test_oracles_fluid.py::test_doubling_rates_and_halving_times_halves_completion_exactly",
        "the scaling law divides every time, the start-up delay too, by c",
    ),
    "TCPConfig.delack_segments": (
        "tests/test_tcp_flow_control.py::test_delack_segments_one_acks_every_segment",
        "the ACK policy's other value; ROADMAP items 3 and 12 sweep it",
    ),
    "audit/__init__.py:audited(raise_on_violation)": (
        "tests/test_audit.py::test_audited_context_keeps_auditors_inspectable",
        "collect mode: the alarm-ring tests plant violations and read them back",
    ),
}


def _unexempted(unset: List[str], scanned: str) -> List[str]:
    """``unset`` minus ``EXEMPT``; fails on a stale exemption of this scan's
    kind (a field label has no parenthesis) or one naming no test."""
    stale = [
        label for label in EXEMPT
        if ("(" in label) == (scanned == "parameters") and label not in unset
    ]
    assert not stale, f"stale EXEMPT entries (something passes them now): {stale}"
    for test, _ in EXEMPT.values():
        path, name = test.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(), f"EXEMPT names no test {test}"
    return [label for label in unset if label not in EXEMPT]


def _fields(cls: ast.ClassDef) -> List[str]:
    return [
        node.target.id for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _settings(tree: ast.AST, own: Set[str]) -> Set[str]:
    """Names this module sets: keywords, attribute writes and
    ``config_overrides`` keys, outside the bodies of the ``own`` classes."""
    found: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name in own:
            continue
        if isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
            if node.arg == "config_overrides" and isinstance(node.value, ast.Dict):
                found.update(
                    key.value for key in node.value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_config_field_is_set_somewhere():
    fields: Dict[str, List[str]] = {}
    owners: Dict[pathlib.Path, Set[str]] = {}
    for rel, name in CONFIG_CLASSES:
        path = ROOT / "src" / "repro" / rel
        (cls,) = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name == name
        ]
        fields[name] = _fields(cls)
        owners.setdefault(path, set()).add(name)
    pending = {field for names in fields.values() for field in names}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            if any(field in text for field in pending):  # else nothing to parse for
                tree = ast.parse(text, filename=str(path))
                pending -= _settings(tree, owners.get(path, set()))
    unset = [
        f"{name}.{field}" for name, names in fields.items()
        for field in names if field in pending
    ]
    unset = _unexempted(unset, "fields")
    assert not unset, f"config fields nothing sets: {unset}"


#: Calls the name match cannot resolve: (file, callee name) -> the
#: public callees the call reaches.  One entry per call expression.
UNRESOLVED = {
    # SwarmScenario.add_wireless_peer calls the class passed as
    # ``client_factory``: BitTorrentClient by default, else WP2PClient.
    ("src/repro/bittorrent/swarm.py", "client_factory"): ("BitTorrentClient", "WP2PClient"),
}

#: Bound-method aliases of public methods, callable anywhere: the kernel
#: caches ``EventQueue.push``/``post`` as ``sim._push``/``sim._post``.
ALIASES = {"_push": "push", "_post": "post"}

Param = Tuple[str, Optional[int]]  # (name, positional index past self)


def _defaulted(fn: ast.FunctionDef, shift: int) -> List[Param]:
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found: List[Param] = [
        (arg.arg, index - shift) for index, arg in enumerate(positional) if index >= first
    ]
    found += [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _callables(src: pathlib.Path) -> Tuple[Dict[str, List[Tuple[str, List[Param]]]],
                                           Dict[str, List[str]]]:
    """callee name -> [(label, defaulted parameters)] for every public
    function, method and constructor under ``src/repro``; and class name
    -> base names for the classes that inherit their constructor."""
    callables: Dict[str, List[Tuple[str, List[Param]]]] = {}
    inherits: Dict[str, List[str]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src / "repro").as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                params = _defaulted(node, 0)
                if params:
                    callables.setdefault(node.name, []).append((f"{rel}:{node.name}", params))
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [fn for fn in node.body if isinstance(fn, ast.FunctionDef)]
            if not any(fn.name == "__init__" for fn in methods):
                inherits[node.name] = [
                    base.id for base in node.bases if isinstance(base, ast.Name)
                ]
            if node.name.startswith("_"):
                continue
            for fn in methods:
                if fn.name.startswith("_") and fn.name != "__init__":
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                params = _defaulted(fn, 0 if static else 1)
                if params:
                    callee = node.name if fn.name == "__init__" else fn.name
                    callables.setdefault(callee, []).append(
                        (f"{rel}:{node.name}.{fn.name}", params)
                    )
    return callables, inherits


def _calls(path: pathlib.Path, rel: str) -> Iterator[Tuple[str, ast.Call]]:
    """(callee name, call) for every call in one file; a
    ``super().__init__`` call is a call to each base of its class."""
    todo: List[Tuple[ast.AST, List[str]]] = [(ast.parse(path.read_text()), [])]
    while todo:
        node, bases = todo.pop()
        if isinstance(node, ast.ClassDef):
            bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                if func.attr == "__init__" and isinstance(func.value, ast.Call):
                    for base in bases:
                        yield base, node
                else:
                    yield func.attr, node
            name = getattr(func, "id", getattr(func, "attr", None))
            for callee in UNRESOLVED.get((rel, name), ()):
                yield callee, node
            if name in ALIASES:
                yield ALIASES[name], node
        todo.extend((child, bases) for child in ast.iter_child_nodes(node))


def _unpassed(root: pathlib.Path, scanned: Tuple[str, ...] = SCANNED) -> List[str]:
    """Labels of the defaulted parameters under ``root/src/repro`` that no
    call in the ``scanned`` trees of ``root`` passes by name or position."""
    callables, inherits = _callables(root / "src")

    def callees(name: str) -> List[str]:
        """``name`` itself, or the bases whose constructor it inherits."""
        found, todo = [], [name]
        while todo:
            name = todo.pop()
            if name in callables:
                found.append(name)
            todo.extend(inherits.get(name, ()))
        return found

    passed: Set[Tuple[str, str]] = set()
    for top in scanned:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for name, call in _calls(path, rel):
                keywords = {keyword.arg for keyword in call.keywords}
                positional = next(
                    (i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
                    len(call.args),
                )
                for callee in callees(name):
                    for label, params in callables[callee]:
                        passed.update(
                            (label, param) for param, index in params
                            if param in keywords
                            or (index is not None and index < positional)
                        )
    return sorted(
        f"{label}({param})"
        for entries in callables.values() for label, params in entries
        for param, _ in params if (label, param) not in passed
    )


def test_every_defaulted_parameter_is_passed_somewhere():
    unset = _unexempted(_unpassed(ROOT), "parameters")
    assert not unset, f"defaulted parameters no call passes: {unset}"


def test_a_spread_passes_nothing(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "relay.py").write_text(
        "def callee(x=1, y=2):\n    return x + y\n\n\n"
        "def relay(*args, **kw):\n    return callee(*args, **kw)\n\n\n"
        "relay(x=3, y=4)\n"
    )
    assert _unpassed(tmp_path, ("src",)) == ["relay.py:callee(x)", "relay.py:callee(y)"]
