"""Two source guards, each a parse of the package's modules.

No float enters a combinatorial layer: in the exact modules a float
literal, a `float(...)` call, a numpy import or any `math` name but `gcd`
and `lcm` is reported.  `render` and `amoeba` draw and sample in floats, so
they are not checked.

No module imports a name it does not use: every name a module imports is
read in it or listed in its `__all__`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tropline"
EXACT_MODULES = ("geometry", "tropical", "building", "matching", "moduli", "_linalg")
EXACT_MATH = {"gcd", "lcm"}


def float_uses(source: str) -> list[str]:
    """`line: what` for each floating construct in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Constant) and type(node.value) is float:
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            what = "float(...) call"
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
            what = names and f"import {', '.join(names)}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root == "numpy":
                what = f"from {node.module} import"
            elif root == "math" and {a.name for a in node.names} - EXACT_MATH:
                what = f"from math import {', '.join(a.name for a in node.names)}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            what = f"math.{node.attr}"
        if what:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_holds_no_float(module):
    assert float_uses((PACKAGE / f"{module}.py").read_text()) == []


def test_guard_reports_each_floating_construct():
    source = (
        "import math\nimport numpy as np\nfrom numpy import linalg\nfrom math import sqrt\n"
        "x = 0.5\ny = float(3)\nz = math.sqrt(2)\ng = math.gcd(4, 6) + math.lcm(2, 3)\n"
    )
    assert float_uses(source) == [
        "2: import numpy",
        "3: from numpy import",
        "4: from math import sqrt",
        "5: float literal 0.5",
        "6: float(...) call",
        "7: math.sqrt",
    ]


def unused_imports(source: str) -> list[str]:
    """`line: name` for each name that `source` imports and neither reads
    nor lists in a literal `__all__`; `__future__` imports are features,
    not names."""
    imported, used, exported = {}, set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            exported.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    unused = [(line, name) for name, line in imported.items() if name not in used | exported]
    return [f"{line}: {name}" for line, name in sorted(unused)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_reports_each_unused_import():
    source = (
        "from __future__ import annotations\nimport math\nimport os.path\n"
        "from . import amoeba as amoeba_mod\nfrom .geometry import Fan, _cleared, locate\n"
        "__all__ = ['Fan']\nx = math.gcd(2, 4)\n\ndef f():\n    import numpy\n    return locate\n"
    )
    assert unused_imports(source) == ["3: os", "4: amoeba_mod", "5: _cleared", "10: numpy"]
