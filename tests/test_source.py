"""Source checks on the library itself."""

import ast
import re
import sys
import types
from collections import Counter
from pathlib import Path

import supercalc

SOURCE = Path(supercalc.__file__).parent


def test_no_assert_statements():
    """Input checks must raise real exceptions: `python -O` strips asserts."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def _public_names(tree: ast.Module):
    """Public top-level functions, classes and assigned names, and the
    public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (sub.name for sub in node.body if isinstance(sub, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_no_unreferenced_public_names():
    """A public name that occurs only at its definition across the library,
    the tests and the benchmark has no caller and no test: dead or untested."""
    repo = Path(__file__).resolve().parent.parent
    files = [*SOURCE.glob("*.py"), *(repo / "tests").glob("*.py"), *(repo / "perfbench").glob("*.py")]
    words = Counter(w for path in files for w in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unreferenced = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unreferenced += [
            f"{path.name}:{name}"
            for name in _public_names(tree)
            if not name.startswith("_") and words[name] <= 1
        ]
    assert not unreferenced, f"public names with no reference: {unreferenced}"


def _module_references(tree: ast.Module, modules: set[str]):
    """The (module, name) pairs a file refers to: a name imported from a
    package module, and an attribute read off a name bound to one, so
    `exactmat.identity` counts for `exactmat` and `Metric.identity` does not."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("supercalc").lstrip(".")
            if node.level == 0 and not (node.module or "").startswith("supercalc"):
                continue
            for alias in node.names:
                if not source and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif source in modules:
                    yield source, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, source = alias.name.partition(".")
                if package == "supercalc" and source in modules and alias.asname:
                    bound[alias.asname] = source
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            yield bound[node.value.id], node.attr


def test_public_functions_have_a_caller_outside_the_tests():
    """A public module-level function is used by the library (apart from
    its own definition) or by the benchmark; an export in
    `supercalc.__all__` counts through the package's own import of it.
    Code that only the tests reach is deleted, or moved into the test that
    uses it as a reference."""
    repo = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in [*SOURCE.glob("*.py"), *(repo / "perfbench").glob("*.py")]}
    modules = {path.stem for path in SOURCE.glob("*.py")}
    used = {ref for tree in trees.values() for ref in _module_references(tree, modules)}
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        body = trees[path].body
        for node in body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            local = any(
                isinstance(sub, ast.Name) and sub.id == node.name
                for other in body if other is not node for sub in ast.walk(other)
            )
            if not (local or (path.stem, node.name) in used):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public functions only the tests reach: {unused}"


def test_library_does_not_import_the_harness():
    """Oracle and sampling code stays out of the library: only the suites
    and the command line import `suites` or `randomgen`."""
    harness = {"suites", "randomgen"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name in ("suites.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.rpartition(".")[2] in harness for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"library modules importing the harness: {found}"


def test_library_imports_only_the_standard_library():
    """The package has no runtime dependency: every absolute import names a
    standard-library module."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, f"imports outside the standard library: {found}"


def test_public_methods_are_accessed():
    """A public method that is never read as an attribute (`.name`) in the
    library, the tests or the benchmark has no caller: word counts miss it
    when another definition shares its name."""
    repo = Path(__file__).resolve().parent.parent
    files = [*SOURCE.glob("*.py"), *(repo / "tests").glob("*.py"), *(repo / "perfbench").glob("*.py")]
    accessed = {
        node.attr
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute)
    }
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            unused += [
                f"{path.name}:{cls.name}.{sub.name}"
                for sub in cls.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_") and sub.name not in accessed
            ]
    assert not unused, f"public methods never accessed: {unused}"


def test_static_and_class_methods_are_reached_through_their_class():
    """A public static or class method is read as `Class.name` by the
    library or the benchmark, where Class is its class or a subclass, a
    name bound to one of them (`CliffordContext = Metric`, an `import ...
    as`), or `self`/`cls` inside one of their bodies.  The guards above
    miss these: a word count and an attribute read see `Metric.identity`
    for `GradedMatrix.identity` too, and the caller check reads
    module-level functions only."""
    repo = Path(__file__).resolve().parent.parent
    library = sorted(SOURCE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in [*library, *(repo / "perfbench").glob("*.py")]}
    classes = {node.name: (path, node) for path in library for node in trees[path].body
               if isinstance(node, ast.ClassDef)}
    names = {name: {name} for name in classes}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            pairs = []
            if isinstance(node, ast.ImportFrom):
                pairs = [(alias.name, alias.asname) for alias in node.names]
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                pairs = [(node.value.id, t.id) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((node.value.id, node.attr))
            for name, alias in pairs:
                if name in classes and alias:
                    names[name].add(alias)
    for name, (_, cls) in classes.items():
        reads.update((name, node.attr) for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))

    def family(name: str) -> set[str]:
        """The class and its subclasses in the library."""
        subs = [other for other, (_, node) in classes.items() if name in (getattr(b, "id", None) for b in node.bases)]
        return {name}.union(*map(family, subs))

    unreached = [
        f"{path.stem}.{name}.{sub.name}"
        for name, (path, cls) in classes.items()
        for sub in cls.body
        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
        and {ast.unparse(d) for d in sub.decorator_list} & {"staticmethod", "classmethod"}
        and not any((alias, sub.name) in reads for member in family(name) for alias in names[member])
    ]
    assert not unreached, f"static and class methods the library and the benchmark never reach: {unreached}"


def test_no_payload_attribute():
    """Forms, densities and Fock states are kernel elements themselves:
    nothing in the library reads a `poly` attribute off an element."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "poly"
        ]
    assert not found, f"payload attribute reads in the library: {found}"


def test_only_the_kernel_divides_out_content():
    """`graded_poly._element` is the one constructor that divides out
    content: no other library module imports or reads `_normal`."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "graded_poly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            names += [node.attr] if isinstance(node, ast.Attribute) else []
            names += [node.id] if isinstance(node, ast.Name) else []
            if "_normal" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"library modules using _normal: {found}"


def test_exports_are_the_public_package_names():
    """`supercalc.__all__` lists each public name of the package that is
    not a submodule exactly once, so deleting code cannot leave an export
    behind or drop one silently."""
    public = {
        name
        for name, obj in vars(supercalc).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(supercalc.__all__) == len(set(supercalc.__all__))
    assert set(supercalc.__all__) == public


def test_identity_rows_only_compose_operators():
    """The rows of `suites.IDENTITIES` read the operators that their family
    entries carry: no row lambda, and no suites function that a row names,
    builds an operator (`op_*`), a coordinate field or a field bracket."""
    tree = ast.parse((SOURCE / "suites.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "IDENTITIES"
    )
    found, helpers, todo = [], set(), [table]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name) and node.id in functions and node.id not in helpers:
                helpers.add(node.id)
                todo.append(functions[node.id])
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name.startswith("op_") or name in ("coordinate_basis", "bracket"):
                    found.append(f"suites.py:{node.lineno}:{name}")
    assert {"_ladder", "_scalar_divergence", "lie_density_classical"} <= helpers
    assert not found, f"operators built inside identity rows: {found}"


def test_sampled_suites_run_only_through_the_driver():
    """`run_grassmann`, `run_berezin` and `run_linalg` are check rows over
    `suites.evaluate_checks`: none of them, nor a function nested in one,
    counts cases itself through `CheckResult.expect` or `SuiteReport.check`."""
    tree = ast.parse((SOURCE / "suites.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("run_grassmann", "run_berezin", "run_linalg"):
        calls = [node for node in ast.walk(functions[name]) if isinstance(node, ast.Call)]
        assert any(getattr(call.func, "id", None) == "evaluate_checks" for call in calls), name
        found += [f"{name}:{call.lineno}" for call in calls if getattr(call.func, "attr", None) in ("expect", "check")]
    assert not found, f"sampled suites counting cases outside the driver: {found}"


def test_cases_are_counted_only_through_expect():
    """Every suite counts a case through `CheckResult.expect`: no other
    code in `suites.py` sets or increments a `cases` field or appends to a
    `failures` list."""
    tree = ast.parse((SOURCE / "suites.py").read_text(encoding="utf-8"))
    result = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CheckResult")
    expect = next(node for node in result.body if isinstance(node, ast.FunctionDef) and node.name == "expect")
    inside = {id(node) for node in ast.walk(expect)}
    found = []
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        writes = [t for t in targets if isinstance(t, ast.Attribute) and t.attr == "cases"]
        appends = (
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append"
            and getattr(node.func.value, "attr", None) == "failures"
        )
        if (writes or appends) and id(node) not in inside:
            found.append(f"suites.py:{node.lineno}")
    assert not found, f"cases counted outside CheckResult.expect: {found}"


def test_the_reader_keys_names_only_through_generator_key():
    """`_parse_expr` takes a generator's key `g` from the context's name
    table, which it fills from `Context.generator_key` and nothing else;
    `exprlang` keeps no module-level memo and imports no `functools`
    cache, so the table lives and dies with its `Context`."""
    tree = ast.parse((SOURCE / "exprlang.py").read_text(encoding="utf-8"))
    parse = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_parse_expr")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "generator_key"]
    assert len(calls) == 1, "generator_key is called once in exprlang"
    fill = next(node for node in ast.walk(parse) if isinstance(node, ast.Assign) and node.value is calls[0])
    assert [ast.unparse(t) for t in fill.targets] == ["g", "name_keys[text]"]
    sources = [ast.unparse(node.value) for node in ast.walk(parse) if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "g" for t in node.targets)]
    assert sorted(sources) == ["ctx.generator_key(text, at)", "name_keys.get(text)"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            found += [f"exprlang.py:{node.lineno}" for name in names if name in ("functools", "cache", "lru_cache")]
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, (ast.Dict, ast.Set, ast.DictComp)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "set", "defaultdict")
        ):
            found.append(f"exprlang.py:{node.lineno}")
    assert not found, f"module-level memos or caches in exprlang: {found}"
