"""Module boundaries inside the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bineffect"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_another_modules_private_names(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("bineffect"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{module} imports private names {private}"


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("core.py", "__init__.py")),
)
def test_estimand_kind_is_mapped_only_in_core(module):
    """Estimators see an estimand only through `EstimandSpec.contrast`."""
    assert "EstimandKind" not in (PACKAGE / module).read_text(encoding="utf-8")
