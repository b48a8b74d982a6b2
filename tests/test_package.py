import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import laakso
from laakso import constructions, core, oracle, profiles, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


# Imports kept on purpose: perfbench's tracer self-test checks that its
# tracer rebinds `laakso.cli.distance` along with `laakso.metric.distance`.
_KEPT_IMPORTS = {"cli": {"distance"}}


def test_no_module_imports_unused_names():
    # No linter is installed; this catches the imports a deletion leaves behind.
    unused = []
    for path in sorted(Path(laakso.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = _KEPT_IMPORTS.get(path.stem, set())
        unused += [(path.stem, name) for name in sorted(imported - used - kept)]
    assert unused == []


def test_every_private_name_is_referenced():
    # A module-level private function, class or constant that no code of
    # the package reads is left over from a cut: only tests could still
    # call it.  A reference is a name read or an attribute of that name,
    # anywhere in the package.
    defined, used = [], set()
    for path in sorted(Path(laakso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(path.stem, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert [(stem, name) for stem, name in defined if name not in used] == []


def test_one_json_writer():
    # `cli._json_dumps` writes the `profile` and `reduce` replies and
    # `cmd_distance` its own fixed layout; no module calls `json`'s writer,
    # which formats indented text in pure Python at twice the cost.
    writers = []
    for path in sorted(Path(laakso.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    writers.append((path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                writers += [(path.stem, node.lineno) for a in node.names if a.name in ("dump", "dumps")]
    assert writers == []


def test_one_owner_for_the_wire_format_and_the_line_denominator():
    # `cli` alone builds the JSON wire dicts: no other module defines a
    # function or method with "json" in its name.  A profile's denominator
    # is held by its line scale alone: `KinkProfile` keeps no `den` of its own.
    json_functions = []
    for path in sorted(Path(laakso.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "json" in node.name.lower():
                json_functions.append((path.stem, node.name))
    assert json_functions == []
    assert [f.name for f in dataclasses.fields(profiles.KinkProfile)] == ["line", "runs", "scale"]


def test_witness_records_keep_only_what_they_are_built_from():
    # A schedule is its center, side and orders (gaps and slopes are read
    # off them), a sampled function its samples (its ratio is measured), a
    # hole its bound, start, center, order and anchor (lam follows from the
    # bound) and a probe verdict its first violated order.
    def init_fields(record):
        return [f.name for f in dataclasses.fields(record) if f.init]

    assert init_fields(constructions.BandSchedule) == ["center", "jump_side", "levels"]
    assert init_fields(constructions.SampledFunction) == ["samples"]
    assert init_fields(constructions.PorosityWitness) == ["bound", "start_level", "t0", "order", "anchor"]
    assert init_fields(core.GapRatioVerdict) == ["violated_at"]


def _enclosing(node, parents) -> str:
    """The dotted names of the classes and functions around `node`."""
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
    return ".".join(reversed(names))


def test_one_gap_query_and_one_distance_read():
    # The integer layer has one gap query, `core._gaps`, over the one grid
    # kernel `core._grid_index`, which outside `core` only `metric`'s
    # interval search reads; and one distance read, `metric._Pair.shortest`,
    # the only code that takes the first interval of a `search()`.  In the
    # modules that work on grids, the kernel's one `divmod` is the only
    # one: an inlined copy of the kernel fails here.
    kernel_modules, first_reads, gap_definitions, divisions = set(), [], [], []
    grid_modules = {"core", "metric", "profiles", "constructions", "verify"}
    for path in sorted(Path(laakso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            else:
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "_grid_index":
                kernel_modules.add(path.stem)
            defines = isinstance(node, ast.FunctionDef) or isinstance(getattr(node, "ctx", None), ast.Store)
            if name == "_gaps" and defines:
                gap_definitions.append(path.stem)
            if path.stem in grid_modules and isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod":
                divisions.append((path.stem, _enclosing(node, parents)))
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "search"
                and isinstance(node.slice, ast.Constant)
                and node.slice.value == 0
            ):
                first_reads.append((path.stem, _enclosing(node, parents)))
    assert kernel_modules == {"core", "metric"}
    assert first_reads == [("metric", "_Pair.shortest")]
    assert gap_definitions == ["core"]
    assert divisions == [("core", "_grid_index")]


def test_one_line_scale_per_profiled_line():
    # A profiled line's scale is built once and read by everything that
    # needs it: only `profiles` builds a `_LineScale` or calls
    # `_closed_form` (which reads the scale's gaps), and inside `profiles`
    # only `_LineScale` queries `_gaps`.
    builders, gap_queries = set(), set()
    for path in sorted(Path(laakso.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("_LineScale", "_closed_form"):
                builders.add((path.stem, name))
            elif name == "_gaps" and path.stem == "profiles":
                gap_queries.add(_enclosing(node, parents).partition(".")[0])
    assert builders == {("profiles", "_LineScale"), ("profiles", "_closed_form")}
    assert gap_queries == {"_LineScale"}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look up their module while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_benchmark_tracer_installs_and_uninstalls():
    # The benchmark's tracer wraps library functions by name and refuses to
    # install when one it reads is gone; this makes a stale name fail here.
    tracing = _load(TRACING, "laakso_bench_tracing")
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


def test_benchmark_tracer_counts_settled_search_vertices():
    # The tracer reads the search's return shape (one entry per vertex,
    # None where nothing settled); a change to it must fail here.
    tracing = _load(TRACING, "laakso_bench_tracing")
    g = oracle.build_level_graph(3)
    x, y = g.vertex_point(0), g.vertex_point(g.vertex_count - 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "op.full")
        oracle.graph_distance(g, x, y)  # the far corner: every vertex settles
        tracer.end_op()
        full = tracer.metrics(1, 0)["oracle.vertices_per_search"]
        tracer.begin_op(1, "op.ball")
        oracle.ball_measure(g, x, Fraction(1, 9))  # stops at the radius
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert full == g.vertex_count
    assert tracer.counts["search_runs"] == 2
    assert 0 < tracer.counts["search_vertices"] - g.vertex_count < g.vertex_count


def test_benchmark_tracer_sees_the_witness_layer():
    # The witness builds share one private tail; the tracer must still see
    # both builds, every Lipschitz pair and every difference quotient of
    # `verify constructions`.
    tracing = _load(TRACING, "laakso_bench_tracing")
    for layer in tracing.LAYERS:
        importlib.import_module(f"laakso.{layer}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "op.constructions")
        verify.run_suite("constructions")
        tracer.end_op()
        metrics = tracer.metrics(1, 0)
    finally:
        tracer.uninstall()
    assert metrics["constructions.witness_builds"] == 2
    assert metrics["constructions.lipschitz_pairs"] == 934
    assert metrics["calculus.quotient_calls"] == 26


def test_benchmark_runs_every_verify_suite():
    # The verify-suites workload sends `laakso verify <suite>` for each name
    # in its own list; a suite renamed or added here must show up there.
    workloads = _load(PERFBENCH / "workloads.py", "laakso_bench_workloads")
    assert workloads.SUITES == tuple(verify.SUITES)


def test_benchmark_plant_anchor_is_in_cli():
    # perfbench/plant.py plants its known cost at one line of cli.py and
    # refuses when that line is not there exactly once.
    plant = _load(PERFBENCH / "plant.py", "laakso_bench_plant")
    cli = Path(laakso.__file__).parent / "cli.py"
    assert cli.read_text().count(plant.ANCHOR) == 1


def test_profile_work_per_request(monkeypatch):
    # Over the `deep-profiles` universe, a `profile` reply canonicalizes its
    # base point twice (`vertical_lines` and the printed point) and queries
    # each order's gaps once per line, plus `cli._binding_order`'s one; and
    # `verify kinks` builds one scale per profiled line.
    from laakso import cli

    workloads = _load(PERFBENCH / "workloads.py", "laakso_bench_workloads")
    calls = {"canonicalize": 0, "_gaps": 0, "_LineScale": 0, "profile_distance_on_line": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    for info in pkgutil.iter_modules(laakso.__path__):
        mod = importlib.import_module(f"laakso.{info.name}")
        for name in ("canonicalize", "_gaps"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(name, vars(mod)[name]))
    ops = workloads.WORKLOADS["deep-profiles"].universe()
    assert len(ops) == 200
    for op in ops:
        assert workloads.run_cli(cli.main, op.args)[0] == 0
    # At most 2 and 2.55 per op, compared in integers.
    assert calls["canonicalize"] <= 2 * len(ops) and 100 * calls["_gaps"] <= 255 * len(ops), calls
    for owner, name, key in (
        (profiles._LineScale, "__init__", "_LineScale"),
        (profiles, "profile_distance_on_line", "profile_distance_on_line"),
    ):
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    assert all(row.passed for row in verify.check_kinks(seed=3))
    assert calls["_LineScale"] == calls["profile_distance_on_line"] == 110
