"""Every module-level name in src/hetnetsim is used by the program.

A function, class or constant that only the tests reach belongs in the
tests (tests/oracles.py holds the reference implementations).  The check
parses each module with ast and looks for a use of each module-level name
anywhere in the package outside that name's own definition: a bare name,
or an attribute of a package module (``kernels.containing_disc``).
Likewise every name a module imports is read in that module, save the
package's re-exports in __init__.py and ``from __future__ import``.

Every result file is written by engine.write_file: no other code in the
package opens a file or makes a directory.  And every command stages its
files through engine.staged: no other code renames or removes a file.
engine._run_group alone builds a RunResult, and none changes after.

The layering checks keep config, the scenario schema, below every other
module: it imports nothing from the package, so no module needs a
``TYPE_CHECKING`` import to break a cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hetnetsim"

# names used from outside src/hetnetsim only, by design
ALLOWED = {
    # the package's public exports (__init__.py)
    ("config", "Scenario"), ("config", "parse_scenario"),
    ("engine", "run_scenario"), ("engine", "build_geometry"),
    ("engine", "compute_ee"), ("topology", "Topology"),
    ("topology", "build_monet"), ("topology", "build_coe"),
    ("topology", "build_udc"),
    ("cli", "main"),                        # the console entry point
    ("kernels", "USING_NUMBA"),             # read by perfbench/sample.py
    # called only by the round-trip tests of test_config_cli.py; the run
    # and sweep manifests that ROADMAP item 12 plans would write it
    ("config", "serialize_scenario"),
}


def module_names(tree: ast.Module) -> list[str]:
    """Every module-level def, class and assignment target of tree."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


def uses(node: ast.AST, modules: set[str]):
    """Names read in node: bare names, and attributes of package modules."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            yield sub.attr


def unused_names(package: Path) -> list[tuple[str, str]]:
    """(module, name) of each module-level name of package that no code
    of package uses, a def's or class's uses of itself aside."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in tree.body:
            own = getattr(node, "name", None)
            used.update(name for name in uses(node, set(trees)) if name != own)
    return [(module, name) for module, tree in trees.items()
            for name in module_names(tree)
            if name not in used and not name.startswith("__")]


def test_every_module_level_name_is_used_in_the_package():
    unused = [(m, n) for m, n in unused_names(PACKAGE) if (m, n) not in ALLOWED]
    assert not unused, f"names no code in src/ uses: {unused}"


def imported_names(tree: ast.Module) -> set[str]:
    """Every name the imports of tree bind, ``from __future__`` aside."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names}


def test_every_imported_name_is_used_in_its_module():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's exports
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unused = sorted(imported_names(tree) - read)
        assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_allowlist_names_exist():
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in module_names(tree), (module, name)


def test_config_imports_nothing_from_the_package():
    for node in ast.walk(ast.parse((PACKAGE / "config.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            assert getattr(node, "level", 0) == 0, ast.unparse(node)
            assert not any(m.split(".")[0] == "hetnetsim" for m in modules), ast.unparse(node)


def test_no_module_uses_type_checking():
    for path in sorted(PACKAGE.glob("*.py")):
        # a bare name, an attribute (typing.TYPE_CHECKING) or an imported name
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 or getattr(node, "name", None)
                 for node in ast.walk(ast.parse(path.read_text()))}
        assert "TYPE_CHECKING" not in names, path.name


# calls that open a file for writing or make a directory, as bare names
# (open) or attributes (Path.open, Path.write_text, os.makedirs, ...)
WRITE_CALLS = {"open", "write_text", "write_bytes", "mkdir", "makedirs"}
# calls that rename or remove a file or directory (Path.replace,
# os.rename, Path.unlink, Path.rmdir, os.remove, ...)
MOVE_CALLS = {"replace", "rename", "unlink", "rmdir", "remove"}


def calls_outside(owner: tuple[str, str], names: set[str]) -> list[str]:
    """"file:line: call" of each call in the package, outside the
    top-level def owner (module, name), whose bare or attribute name is in
    names; a method of a string literal or f-string (str.replace) is no
    file operation."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.stem, getattr(top, "name", None)) == owner:
                continue
            found += [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
                      and not isinstance(getattr(node.func, "value", None),
                                         (ast.Constant, ast.JoinedStr))]
    return found


def test_only_the_one_writer_opens_files_or_makes_directories():
    found = calls_outside(("engine", "write_file"), WRITE_CALLS)
    assert not found, f"files opened or directories made outside engine.write_file: {found}"


def test_only_the_stage_renames_or_removes_files():
    """Every command stages its files through engine.staged, which alone
    gives side files their final names and removes what a failed command
    wrote."""
    found = calls_outside(("engine", "staged"), MOVE_CALLS)
    assert not found, f"files renamed or removed outside engine.staged: {found}"


def run_result_fields() -> set[str]:
    """The field names of engine.RunResult, read off its class body."""
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "RunResult"]
    return {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}


def test_every_run_result_is_built_once_in_one_place():
    """engine._run_group alone builds RunResults, each whole: no other code
    calls RunResult, and no code sets an attribute named after one of its
    fields, so no result changes after it is built."""
    found = calls_outside(("engine", "_run_group"), {"RunResult"})
    assert not found, f"RunResult built outside engine._run_group: {found}"
    fields = run_result_fields()
    assert {"ee_mean", "hist_counts"} <= fields
    stores = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in fields]
    assert not stores, f"RunResult fields assigned after the build: {stores}"
