import ast
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


def test_counting_routes_share_only_partitions():
    # the oracle and join-cut check each other only while neither uses
    # the other's code, or any other route's
    package = Path(hurwitz.__file__).parent
    for name in ("oracle.py", "joincut.py"):
        assert _package_imports(package / name) == {"partitions"}, name


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
