"""Every module of the package uses each name it imports at module level."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fraclab"

# (module, name) imported for a reader outside the module, with the reason
ALLOWED = {
    ("analysis", "thread_count"): "perfbench's tracer imports it from fraclab.analysis",
}


def _unused_imports(tree: ast.Module) -> list:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_module_uses_every_import(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert [name for name in unused if (path.stem, name) not in ALLOWED] == []
