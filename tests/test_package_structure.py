"""Package layout rules that no behavioural test would notice breaking."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diamond_entropy"


def _private_imports(path: Path) -> list[str]:
    """`from <package module> import _name` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("diamond_entropy"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}"
                             f"{node.module or ''} import {alias.name}")
    return found


def test_no_module_imports_another_modules_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [line for path in sources for line in _private_imports(path)]
    assert found == []


def test_the_check_sees_relative_and_absolute_private_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from . import __version__\n"
                      "from .renyi_functions import eta, _eta_reflected\n"
                      "from diamond_entropy.quadrature import _legendre_rule\n"
                      "from numpy import _core\n")
    assert _private_imports(source) == [
        "sample.py:2: from .renyi_functions import _eta_reflected",
        "sample.py:3: from diamond_entropy.quadrature import _legendre_rule",
    ]
