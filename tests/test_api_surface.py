"""No public name exists only to be tested.

Every name ``raygeo/__init__.py`` exports, and every public method of an
exported class that is not a property, must be referenced from the
library (its own ``def`` and the re-export aside), from ``demos/`` or
from ``bench/``.  Attribute access counts only on names bound to raygeo
modules or exported classes, so ``np.linalg.norm`` or ``str.join`` is
no reference to a raygeo name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "raygeo"
MODULE = "raygeo"  # what a name bound to the package or one of its modules maps to


def _exports() -> dict[str, str]:
    """Exported name → the module (``rays``, …) it is imported from."""
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {a.asname or a.name: n.module for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}


def _methods(exports) -> set[str]:
    """``Class.method`` for the public non-property methods of exported classes."""
    found = set()
    for mod in set(exports.values()):
        for node in ast.parse((PKG / f"{mod}.py").read_text()).body:
            if isinstance(node, ast.ClassDef) and exports.get(node.name) == mod:
                found |= {
                    f"{node.name}.{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                    and not any(getattr(d, "id", None) == "property" for d in f.decorator_list)
                }
    return found


def _references(path, exports) -> set[str]:
    """The exports and ``Class.method`` names that ``path`` references."""
    tree = ast.parse(path.read_text())
    own = path.parent == PKG and path.stem
    bound = {n: n for n, mod in exports.items() if mod == own}  # local name → export, or MODULE
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or MODULE: MODULE for a in node.names if a.name.startswith(MODULE)}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(MODULE)):
            package = node.module in (None, MODULE)
            for a in node.names:
                if package and (PKG / f"{a.name}.py").exists():
                    bound[a.asname or a.name] = MODULE
                elif a.name in exports:
                    bound[a.asname or a.name] = a.name
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            refs.add(bound[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            owner = bound[node.value.id]
            refs.add(node.attr if owner == MODULE else f"{owner}.{node.attr}")
    return refs


def test_every_export_has_a_caller_outside_tests():
    exports = _exports()
    wanted = set(exports) | _methods(exports)
    files = [p for p in PKG.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(_references(p, exports) for p in files))
    assert not sorted(wanted - used), f"reachable only from tests: {sorted(wanted - used)}"
