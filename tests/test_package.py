"""Each public name is declared once, in its layer's `__all__`, read from the
source: the package re-exports the layers' lists and lists no name itself,
and every import between modules goes through a declared name."""

import ast
import importlib
from pathlib import Path

import pytest

import codelattice

PACKAGE = Path(codelattice.__file__).parent
LAYERS = ("exact", "lattices", "enumeration", "sublattice_search", "codes", "invariants")


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _relative_imports(tree):
    """(module, names) of each `from .module import names` in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [alias.name for alias in node.names]


def test_every_relative_import_names_a_declared_name():
    for path in sorted(PACKAGE.glob("*.py")):
        for module, names in _relative_imports(ast.parse(path.read_text())):
            target = importlib.import_module("codelattice" + (f".{module}" if module else ""))
            for name in names:
                if name == "*" or (module is None and name in LAYERS):
                    continue
                assert name in target.__all__, (path.name, module, name)


def test_package_exports_exactly_the_layers():
    modules = [importlib.import_module(f"codelattice.{layer}") for layer in LAYERS]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared in two layers"
    assert codelattice.__all__ == declared + ["__version__"]
    for name in codelattice.__all__:
        assert hasattr(codelattice, name), name


def test_package_has_no_other_lazy_attribute():
    # the module __getattr__ imports cli and verify, and nothing else
    with pytest.raises(AttributeError, match="no_such_name"):
        codelattice.no_such_name


def test_package_lists_no_public_name():
    public = set(codelattice.__all__) - {"__version__"}
    tree = _tree("__init__")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            assert node.value not in public, node.value
        if isinstance(node, ast.Name):
            assert node.id not in public, node.id
    for module, names in _relative_imports(tree):
        assert names == ["*"] or module is None, (module, names)


def test_codes_keeps_to_its_own_objects():
    tree = _tree("codes")
    for module, names in _relative_imports(tree):
        assert not [name for name in names if name.startswith("_")], (module, names)
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        for target in targets:
            if isinstance(target, ast.Attribute):
                # an attribute of a name, not of an attribute: no slot of an
                # object held by another object, such as a dual's lattice
                assert isinstance(target.value, ast.Name), ast.unparse(target)
                assert target.attr != "_lattice" or target.value.id == "self", ast.unparse(target)
