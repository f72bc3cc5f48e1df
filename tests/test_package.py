"""The package's public surface and the README's list of it, the README
library example, the documented policy table, no unused imports and no
unread private module-level names in ``src/ldesc_sim``, references in
``tests/`` that use no private library name and no access generation code,
slotted per-access records, no enum member read on the per-access path, a
placement reference that reads none of the search's code, and the functions
the benchmark tracer wraps."""

import ast
import contextlib
import enum
import importlib.util
import io
import re
import types
from pathlib import Path

import pytest

import ldesc_sim
from ldesc_sim import engine
from ldesc_sim.config import POLICIES

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ldesc_sim").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_every_public_name_resolves():
    assert len(set(ldesc_sim.__all__)) == len(ldesc_sim.__all__)
    for name in ldesc_sim.__all__:
        assert hasattr(ldesc_sim, name), name


def test_readme_public_surface_is_all():
    readme = (ROOT / "README.md").read_text()
    surface = readme.split("`ldesc_sim.__all__` is the public surface", 1)[1]
    listed = re.findall(r"`(\w+)`", surface.split("\n\n", 2)[1])
    assert len(listed) == len(set(listed))
    assert set(listed) == set(ldesc_sim.__all__)


def test_readme_example_imports_only_public_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "ldesc_sim"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(ldesc_sim.__all__)


def test_readme_example_prints_its_working_set():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), "README.md", "exec"), {})
    assert out.getvalue() == "[64, 32, 32, 32]\n"


def test_policy_table_matches_config():
    # docs/formats.md's policy table says what config.POLICIES does.
    schedules = {"round robin": "rr", "consecutive CTA pairs": "bcs",
                 "descriptor clusters": "clusters"}
    insertion = {"plain LRU": False, "bypass/soft/hard pins": True}
    prefetch = {"off": False, "nextline/stride": True}
    doc = (ROOT / "docs" / "formats.md").read_text()
    rows = {}
    for name, sched, ins, pref in re.findall(
        r"^\| `([\w-]+)` +\| ([^|]+?) +\| ([^|]+?) +\| ([^|]+?) +\|$", doc, re.M
    ):
        rows[name] = (schedules[sched], insertion[ins], prefetch[pref])
    assert rows == POLICIES


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _names_read(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module reads, those in quoted annotations, and those it lists
    in ``__all__``."""
    used = _names_read(tree)
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _names_read(ast.parse(ann.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _private_definitions(tree: ast.Module):
    """(name, node) of each private name the module defines at top level:
    a function, a class or an assigned name; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _reads(tree: ast.Module):
    """(name, node) of each name a module reads, as a name, an attribute or
    an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_private_name_is_read():
    # Code that no path of the package reads any more belongs in
    # tests/oracles.py, or nowhere; a private name cannot be read from
    # outside the package, so one that the package never reads is left over.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _reads(tree):
            reads.setdefault(name, []).append(node)
    unread = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in reads.get(name, [])):
                unread.append(f"{module}:{definition.lineno}: {name}")
    assert not unread, "private names nothing reads: " + ", ".join(unread)


def test_references_use_no_private_library_name():
    # A reference that reads engine internals inherits their bugs, so they
    # cannot show: tests/oracles.py reads no private ldesc_sim name, imported
    # or through a module, and no test class subclasses _Simulation.
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imports = [(importlib.import_module(node.module), alias) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("ldesc_sim")
               for alias in node.names]
    modules = {alias.asname or alias.name for module, alias in imports
               if isinstance(getattr(module, alias.name), types.ModuleType)}
    private = [alias.name for _, alias in imports if alias.name.startswith("_")]
    private += [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    for path in sorted((ROOT / "tests").glob("*.py")):
        private += [f"{path.name}: class {node.name}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ClassDef)
                    and any(ast.unparse(b).split(".")[-1] == "_Simulation" for b in node.bases)]
    assert not private, "private library names in references: " + ", ".join(private)


# Access generation, which no reference may read: the reference engine and
# the generation property would share its slips and could not show them.
_GENERATION_PARTS = {"generate_accesses", "cta_warp_queues", "dtile_byte_runs"}


def test_references_share_no_access_generation_code():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    found = [f"oracles.py:{node.lineno}: {name}" for name, node in _reads(tree)
             if name in _GENERATION_PARTS]
    assert not found, "access generation code in the references: " + ", ".join(found)


def test_per_access_records_are_slotted():
    # A slotted field reads faster than a NamedTuple's, whose fields are
    # properties over tuple items (about 8 ns against 19 ns on Python 3.11).
    for record in (engine._Row, engine._Sm, engine._WarpSlot, engine._Cta, engine._Due):
        assert "__slots__" in vars(record), record.__name__
        assert not issubclass(record, tuple), record.__name__


# The search's own building blocks, which the placement reference may not
# read: with them, it would share their slips and could not show them.
_SEARCH_PARTS = {"TileTable", "box_ctas", "majority_zone", "place_and_partition"}


def test_placement_reference_shares_no_search_code():
    # placement_plan and every top-level name of tests/oracles.py that it
    # reads, followed through, read no private name that oracles.py does not
    # define itself and none of the search's building blocks.
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    todo, seen, found = ["placement_plan"], set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for read, node in _reads(defined[name]):
            private = read.startswith("_") and not read.endswith("__")
            if read in _SEARCH_PARTS or (private and read not in defined):
                found.append(f"oracles.py:{node.lineno}: {read} in {name}")
            elif read in defined:
                todo.append(read)
    assert {"placement_plan", "affinity_partition", "local_utility"} <= seen
    assert not found, "search code in the placement reference: " + ", ".join(found)


# The functions every demand access or prefetch runs, by module; nested
# functions, such as run_live's and run_replay's ``issue``, are checked too.
_PER_ACCESS = {
    "cache": ["CacheModel.access", "CacheModel.fill", "CacheModel.reserve",
              "CacheModel.lookup_fill", "CacheModel._install"],
    "engine": ["_Simulation._issue", "_Simulation._memory_latency",
               "_Simulation._maybe_prefetch", "_Simulation._due_at",
               "_Simulation._schedule_fill", "_Simulation._run", "_Simulation.run_live",
               "_Simulation.run_replay"],
    "prefetch": ["on_miss"],
    "grid": ["TileTable.dtile_at"],
}


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    body = tree.body
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == part), None)
        assert node is not None, f"{qualname} not found"
        body = node.body
    return node


def _resolve(node: ast.expr, namespace: dict):
    """The object a name or dotted name denotes in a module's namespace, or
    None when it is not one there (a local, a call, a subscript)."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def test_per_access_paths_read_no_enum_member():
    # An Enum member read goes through the Enum metaclass, several times
    # slower than a module-level alias of the member on Python 3.10/3.11.
    found = []
    for name, qualnames in _PER_ACCESS.items():
        module = importlib.import_module(f"ldesc_sim.{name}")
        path = ROOT / "src" / "ldesc_sim" / f"{name}.py"
        tree = ast.parse(path.read_text(), str(path))
        for qualname in qualnames:
            for node in ast.walk(_function(tree, qualname)):
                if not isinstance(node, ast.Attribute):
                    continue
                base = _resolve(node.value, vars(module))
                if isinstance(base, type) and issubclass(base, enum.Enum):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)} in {qualname}")
    assert not found, "enum member reads: " + ", ".join(found)


def test_every_traced_function_resolves():
    # perfbench's tracer wraps each (owner, attribute) where the simulator
    # looks it up; one that no longer resolves would silently read 0.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner, attr, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
