import ast
import importlib
import pkgutil
from pathlib import Path

import laakso


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(laakso.__path__):
        mod = importlib.import_module(f"laakso.{info.name}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (info.name, missing)


def test_every_package_import_resolves():
    tree = ast.parse(Path(laakso.__file__).read_text())
    names = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [name for name in names if not hasattr(laakso, name)] == []
