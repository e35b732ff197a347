"""The public API the benchmark and the demos rely on, and the package's
own source rules.

The tests never run ``bench/`` or import it, so a name removed from the
package would break the benchmark without failing a test. These checks
read the import statements of ``bench/*.py`` and ``demos/*.py`` with
``ast`` and resolve each name against the installed package, without
running the scripts. The source of ``asmp`` is read the same way: it holds
no ``assert`` statement, since a broken invariant raises an error, and it
imports nothing outside the standard library and itself, since the package
has no runtime dependencies. Nor does it call ``recurrent_classes`` or
``MarkovChain.reachable``: the first returns ``mc.recurrent`` and the second
every node id, and both stay only for the benchmark and the demos.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import asmp

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
SOURCES = sorted(ROOT.glob("src/asmp/*.py"))


def source_nodes():
    """(file name, node) for every AST node of the package source."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def asmp_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from asmp… import name`` in a script,
    and (module, "") for each ``import asmp…``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "asmp" or node.module.startswith("asmp."):
                found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, "")
                for alias in node.names
                if alias.name == "asmp" or alias.name.startswith("asmp.")
            ]
    return found


def test_scripts_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SCRIPTS}
    assert {"bench/workloads.py", "demos/ring_synthesis.py"} <= names


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[p.relative_to(ROOT).as_posix() for p in SCRIPTS]
)
def test_script_imports_resolve(path):
    missing = []
    for module, name in asmp_imports(path):
        mod = importlib.import_module(module)
        if name and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_all_lists_exactly_the_public_names_bound():
    tree = ast.parse(Path(asmp.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    public = {name for name in bound if not name.startswith("_")}
    assert len(set(asmp.__all__)) == len(asmp.__all__)
    assert set(asmp.__all__) == public


def test_sources_are_found():
    assert {"model.py", "reduction.py", "cli.py"} <= {p.name for p in SOURCES}


def test_the_package_holds_no_assert():
    found = [
        f"{name}:{node.lineno}"
        for name, node in source_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_imports_only_the_standard_library_and_itself():
    allowed = set(sys.stdlib_module_names) | {"asmp"}
    found = []
    for name, node in source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{name}:{node.lineno}: {m}"
            for m in modules
            if m.split(".")[0] not in allowed
        ]
    assert found == []


def test_the_package_calls_no_forwarding_chain_query():
    found = [
        f"{name}:{node.lineno}"
        for name, node in source_nodes()
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "recurrent_classes"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in ("recurrent_classes", "reachable")
        )
    ]
    assert found == []
