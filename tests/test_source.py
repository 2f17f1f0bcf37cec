import ast
import importlib
import subprocess
import sys
from pathlib import Path

import hurwitz


def test_library_has_no_assert_statements():
    # `assert` vanishes under `python -O`; invariants raise AssertionError
    # explicitly instead
    package = Path(hurwitz.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_module_imports_dataclasses():
    # dataclasses builds each class's methods through exec when the class is
    # created, and pulls inspect, ast, dis and tokenize into every CLI process;
    # the value classes are __slots__ classes on partitions.Record instead
    package = Path(hurwitz.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert not found, found


def test_cli_import_loads_no_dataclasses_or_source_parsers():
    # a cold CLI query pays for every module `import hurwitz.cli` loads
    src = Path(hurwitz.__file__).parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import hurwitz.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "hurwitz.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded


def _package_imports(path: Path) -> set[str]:
    """The short names of the hurwitz modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"hurwitz.{base}" if base else "hurwitz"
            if base == "hurwitz":  # from . import ring
                modules = [f"hurwitz.{alias.name}" for alias in node.names]
            else:
                modules = [base]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("hurwitz."))
    return found


def test_series_kernel_and_ring_stay_independent():
    # the literal q/y-series operators are checked against the ring
    # operators; that check means something only while the two sides
    # share no arithmetic, normaliser included
    package = Path(hurwitz.__file__).parent
    assert "ring" not in _package_imports(package / "series.py")
    assert not {"series", "qyseries"} & _package_imports(package / "ring.py")


def test_literal_operators_take_only_the_element_type_from_the_ring():
    # `operator-series-oracle` checks the literal operators of qyseries
    # against the ring's; they may read a RingElement's numerators, but
    # may use none of the ring's kernels, so the two sides compute apart
    package = Path(hurwitz.__file__).parent
    tree = ast.parse((package / "qyseries.py").read_text())
    from_ring = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # neither `from . import ring` nor `import hurwitz.ring`
            assert not any(alias.name.split(".")[-1] == "ring" for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module in ("ring", "hurwitz.ring"):
            from_ring.update(alias.name for alias in node.names)
    assert from_ring == {"RingElement"}, from_ring
    ring = ast.parse((package / "ring.py").read_text())
    kernels = {node.name for node in ring.body if isinstance(node, ast.FunctionDef)}
    assert {"_add_times", "_reduced", "apply_T", "_t_row"} <= kernels
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert not kernels & used, sorted(kernels & used)


def test_cli_and_verify_import_no_private_names():
    # the front ends use each route through its public names only
    package = Path(hurwitz.__file__).parent
    for name in ("cli.py", "verify.py"):
        tree = ast.parse((package / name).read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("hurwitz"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert not private, (name, private)


def test_verify_reads_values_through_the_cli_routes():
    # the value rows of `verify` read each route through cli.compute_value,
    # so they check the answers `compute` prints; a second wiring of the
    # routes (formulas, forms or join-cut reads imported here) would not.
    # Join-cut tables are built only by the check that compares every r
    package = Path(hurwitz.__file__).parent
    tree = ast.parse((package / "verify.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    names = {name for _, name in imported}
    banned = {
        "monotone_genus0", "monotone_genus1", "classical_genus0", "classical_genus1",
        "value_from_form", "genus1_closed",
    }
    assert not banned & names, sorted(banned & names)
    assert not {("joincut", "genus_value"), (None, "joincut")} & imported
    solvers = {"solve_monotone", "solve_classical"}
    callers = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and solvers & {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
    }
    assert callers == {"check_joincut_vs_oracle"}, callers


def test_route_modules_import_only_their_allowlist():
    # the five routes check each other only while each stays apart: the
    # oracle and join-cut use no other route's code, the closed formulas
    # only the combinatorial helpers, and no route reaches the front ends,
    # the literal operators or the interpolation verify's checks use; the
    # literal operators build eta from its formula, not from a route's
    # change of variables, and take only the ring's element type
    package = Path(hurwitz.__file__).parent
    allowed = {
        "oracle.py": {"partitions"},
        "joincut.py": {"partitions"},
        "closedforms.py": {"combinat", "partitions"},
        "qyseries.py": {"partitions", "ring", "series"},
    }
    for name, modules in allowed.items():
        assert _package_imports(package / name) == modules, name
    for name in ("oracle.py", "joincut.py", "closedforms.py", "pipeline.py", "inversion.py"):
        found = _package_imports(package / name) & {"cli", "verify", "qyseries", "polynomials"}
        assert not found, (name, sorted(found))


def test_literal_oracle_shares_no_kernel_or_reduction():
    # `oracle-literal-vs-characters` checks two counters against each other;
    # that check means something only while the literal counter shares
    # neither the character totals nor their inclusion-exclusion
    package = Path(hurwitz.__file__).parent
    tree = ast.parse((package / "oracle.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # every name the counter references, through the oracle functions it calls
    reached, todo = set(), ["literal_counts"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in functions:
            todo.extend(node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name))
    assert "compose" in reached
    forbidden = {
        "_character", "_eigenvalues", "_totals", "_monotone_totals", "_classical_totals",
        "aut_order", "_reduction_plan", "transitive_counts", "subpartitions",
    }
    assert not forbidden & reached, sorted(reached)


def _referenced_names(node, own=frozenset()):
    """The names a node references, except those of the functions it lies
    in: a function's own body does not count as its caller."""
    if isinstance(node, ast.FunctionDef):
        own = own | {node.name}
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    if name is not None and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _referenced_names(child, own)


def test_every_public_function_has_a_library_caller():
    # library code that only tests call is deleted, not kept: every public
    # module-level function and every public method or property of a class;
    # __init__.py does not count as a caller, since it only re-exports
    package = Path(hurwitz.__file__).parent
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined.append((f"{path.name}:{top.name}", top.name))
            elif isinstance(top, ast.ClassDef):
                defined.extend(
                    (f"{path.name}:{top.name}.{item.name}", item.name)
                    for item in top.body
                    if isinstance(item, ast.FunctionDef)
                )
        referenced.update(_referenced_names(tree))
    unused = [label for label, name in defined if not name.startswith("_") and name not in referenced]
    assert not unused, unused


def test_every_name_the_bench_tracer_wraps_exists():
    # the benchmark's tracer wraps layers and reads caches by name; a
    # deleted or renamed one fails here, not first in a traced bench run.
    # The tracer's source is only read and executed here, never imported,
    # so nothing is written under bench/
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tracing = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    missing = []
    for table in ("LAYERS", "CACHES"):
        for specs in tracing[table].values():
            for module, attr in specs:
                importlib.import_module(f"hurwitz.{module}")
                try:
                    value = tracing["_resolve"](module, attr)[2]
                except AttributeError:
                    missing.append((table, module, attr))
                    continue
                if table == "CACHES" and not hasattr(value, "cache_info"):
                    missing.append((table, module, attr, "no cache_info"))
    assert not missing, missing
