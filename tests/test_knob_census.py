"""Every config field earns a caller.

A dataclass field that nothing ever sets is a constant written in two
places: as the field's default and again wherever the value is read.
This scan walks the library, the scripts, the tests, the benchmarks and
the examples and requires every field of the simulator's config classes
to be set somewhere outside its own class body: as a call keyword
(constructor or ``replace()``), an attribute write, or a key of a
strategy's ``config_overrides``.  A field that fails here should become
a module constant (or a component default) instead.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "scripts", "tests", "perfbench", "benchmarks", "examples")

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
    assert not unset, f"config fields nothing sets: {unset}"
