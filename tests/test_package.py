import ast
import importlib
import importlib.util
import pkgutil
from fractions import Fraction
from pathlib import Path

import laakso

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_benchmark_tracer_installs_and_uninstalls():
    # The benchmark's tracer wraps library functions by name and refuses to
    # install when one it reads is gone; this makes a stale name fail here.
    spec = importlib.util.spec_from_file_location("laakso_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = [importlib.import_module(f"laakso.{layer}") for layer in tracing.LAYERS]
    core = layers[tracing.LAYERS.index("core")]
    kernel = core.nearest_wormhole_gap
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.nearest_wormhole_gap is not kernel
        assert core.nearest_wormhole_gap(Fraction(1, 2), 1) == (Fraction(1, 6), Fraction(1, 6))
        assert tracer.calls["core.nearest_wormhole_gap"] == 1
    finally:
        tracer.uninstall()
    assert core.nearest_wormhole_gap is kernel
