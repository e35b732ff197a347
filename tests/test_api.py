"""The public API the benchmark and the demos rely on.

The tests never run ``bench/`` or import it, so a name removed from the
package would break the benchmark without failing a test. These checks
read the import statements of ``bench/*.py`` and ``demos/*.py`` with
``ast`` and resolve each name against the installed package, without
running the scripts.
"""

import ast
import importlib
from pathlib import Path

import pytest

import asmp

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))


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
