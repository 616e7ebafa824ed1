"""The package's public names: what ``__all__`` promises is there."""

import ast
from pathlib import Path

import fsmcheck


def test_every_public_name_resolves():
    assert len(set(fsmcheck.__all__)) == len(fsmcheck.__all__)
    assert [name for name in fsmcheck.__all__ if not hasattr(fsmcheck, name)] == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from fsmcheck import *", namespace)
    assert set(fsmcheck.__all__) <= namespace.keys()


def test_the_oracles_import_no_private_name():
    """``oracles.py`` checks the package from outside: it imports no
    underscore name from ``fsmcheck`` and no underscore module of it."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    ours = [name.split(".") for name in imported if name.split(".")[0] == "fsmcheck"]
    assert ours, "the oracles import nothing from fsmcheck"
    assert [".".join(parts) for parts in ours if any(p.startswith("_") for p in parts)] == []
