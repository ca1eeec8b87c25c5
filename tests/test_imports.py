"""Every module of the package uses each name it imports at module level,
and every public name has a use outside the tests."""

import ast
import re
from pathlib import Path

import pytest

import fraclab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fraclab"

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


# public names whose only callers are tests: the paper's subcritical
# asymptotics, which tests/test_analysis.py checks
UNCALLED_PUBLIC = {"singular_convergence_rates", "l2_stability_check", "weighted_decay_check"}


def _references(path: Path) -> set:
    """Names a module reads, reads as an attribute or imports; a def or
    class statement does not count as a use of its own name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_by_the_package_the_criteria_or_readme():
    users = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_references, users), _references(ROOT / "tests" / "test_acceptance.py"))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert [name for name in fraclab.__all__[1:] if name not in used | UNCALLED_PUBLIC] == []


def _import_sites(tree: ast.AST, top: str, scope: str = "") -> list:
    """Qualified names of the functions (or "" for module level) that
    import package top, one entry per import statement."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            sites += _import_sites(node, top, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]  # a relative import names a fraclab module
        else:
            sites += _import_sites(node, top, scope)
            continue
        sites += [scope for module in modules if module.partition(".")[0] == top]
    return sites


def test_scipy_is_imported_only_for_wide_octants():
    # every lattice step is numpy's; scipy.fft serves only the DCT-I of an
    # octant wider than GEMM_MAX on d >= 2
    sites = [f"{path.stem}:{site}" for path in sorted(SRC.glob("*.py"))
             for site in _import_sites(ast.parse(path.read_text(), str(path)), "scipy")]
    assert sites == ["field:SpectralPropagator.__call__"]


def test_modules_read_numpy_through_the_package_handle():
    # `from . import np` defers numpy to its first read; a module-level
    # numpy import would load it with the package.  Imports inside a
    # function (leggauss) stay allowed.
    sites = [path.stem for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for site in _import_sites(ast.parse(path.read_text(), str(path)), "numpy") if not site]
    assert sites == []
