"""No module of the library imports or reads another module's underscore
names, nor another object's underscore attributes: what a second module
needs is public in the module that owns it, so each private name can change
without reading another module.  Read from the source with ``ast``."""

import ast
from pathlib import Path
from typing import Optional

import trajhedge

SRC = Path(trajhedge.__file__).parent
PACKAGE = "trajhedge"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_of(dotted: Optional[str], level: int) -> Optional[str]:
    """The package's module named by an import (None: the package itself or
    an outside module)."""
    if level:
        return dotted.split(".")[0] if dotted else None
    parts = (dotted or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == PACKAGE else None


def borrowed_names(source: str) -> list[str]:
    """Underscore names (module.name) that a library module takes from
    another module of the package, by import, attribute or ``getattr``."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> the package module it holds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _module_of(node.module, node.level)
            for alias in node.names:
                if owner is not None and _private(alias.name):
                    found.append(f"{owner}.{alias.name}")
                elif owner is None and (node.level or node.module == PACKAGE):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                owner = _module_of(alias.name, 0)
                if owner is not None and alias.asname:
                    modules[alias.asname] = owner

    def module_named(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id == PACKAGE:
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = module_named(node.value)
            if owner is not None:
                found.append(f"{owner}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) >= 2:
            owner, name = module_named(node.args[0]), node.args[1]
            if owner is not None and isinstance(name, ast.Constant) \
                    and isinstance(name.value, str) and _private(name.value):
                found.append(f"{owner}.{name.value}")
    return sorted(found)


def test_the_guard_sees_borrowed_names():
    source = (
        "from .pricing import _a, b\n"
        "from trajhedge.model import _c, __doc__\n"
        "from . import poly\n"
        "import trajhedge.lp as lp\n"
        "import trajhedge.analysis\n"
        "x = poly._d + lp._e + poly.f + getattr(lp, '_g') + getattr(lp, 'h')\n"
        "y = trajhedge.analysis._h\n"
        "def _own(tree):\n"
        "    return _own, tree._cache\n"
    )
    assert borrowed_names(source) == [
        "analysis._h", "lp._e", "lp._g", "model._c", "poly._d", "pricing._a"]


def test_no_module_borrows_another_modules_private_names():
    found = {
        path.name: borrowed_names(path.read_text()) for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


ATTRIBUTE_CALLS = ("getattr", "setattr", "hasattr", "delattr")


def foreign_private_attributes(source: str) -> list[str]:
    """Underscore attributes (``x._y``) that a module reads or writes on an
    object other than ``self`` or ``cls``: by attribute access, or by
    ``getattr``/``setattr``/``hasattr``/``delattr`` with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner, name = node.value, node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ATTRIBUTE_CALLS and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            owner, name = node.args[0], node.args[1].value
        else:
            continue
        if _private(name) and not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
            found.append(f"{ast.unparse(owner)}.{name}")
    return sorted(found)


def test_the_guard_sees_foreign_private_attributes():
    source = (
        # the two forms of a module-owned cache on another module's object
        "cached = getattr(tree, '_analysis_cache', None)\n"
        "tree._analysis_cache = analysis\n"
        "setattr(node, '_seen', True)\n"
        "x = a.b._c + hasattr(y, '_d')\n"
        # allowed: own attributes, dunders, public names, computed names
        "def m(self, cls, other):\n"
        "    return self._x, cls._y, getattr(self, '_z'), other.__class__, \\\n"
        "        other.public, getattr(other, name), setattr(self, '_w', 1)\n"
    )
    assert foreign_private_attributes(source) == [
        "a.b._c", "node._seen", "tree._analysis_cache", "tree._analysis_cache", "y._d"]


def test_no_module_reads_another_objects_private_attributes():
    found = {
        path.name: foreign_private_attributes(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: attrs for name, attrs in found.items() if attrs} == {}
