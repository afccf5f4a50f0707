"""The package reaches numpy and scipy through their public names only.

The one exception is ``numpy.linalg._umath_linalg`` in ``maxmin``, the
LAPACK solve gufunc under ``np.linalg.solve`` (see
``maxmin._regularised_solve``), whose answers
``test_regularised_solve_equals_numpys_solve`` guards.  The walk below finds
every import of a numpy or scipy name with a component that starts with
``_``, and every such attribute read off a name bound to a numpy or scipy
module.  Dunder names (``np.__version__``) are public.
"""
import ast
from pathlib import Path

import pytest

import pbopt

PACKAGE = Path(pbopt.__file__).parent
ALLOWED = {("maxmin.py", "numpy.linalg._umath_linalg")}
ROOTS = ("numpy", "scipy")


def _private(dotted: str) -> bool:
    return any(part.startswith("_") and not (part.startswith("__") and part.endswith("__")) for part in dotted.split("."))


def private_names(source: str) -> list[str]:
    """The private numpy and scipy names that the module source imports or reads, as dotted paths."""
    found, bound = [], {}  # bound: local name -> the numpy or scipy path it holds
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ROOTS:
                    found.append(alias.name)
                    bound[alias.asname or alias.name.split(".")[0]] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in ROOTS:
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                found.append(path)
                bound[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append(".".join([bound[base.id], *reversed(chain)]))
    return sorted({name for name in found if _private(name)})


def test_the_package_reads_no_private_numpy_or_scipy_name_but_the_solve_kernel():
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in private_names(path.read_text(encoding="utf-8")):
            # the kernel's own attributes (``_umath_linalg.solve``) come with it
            allowed = [p for f, p in ALLOWED if f == path.name and (name == p or name.startswith(p + "."))]
            assert allowed, f"{path.name} reads the private name {name}"
            seen.add((path.name, allowed[0]))
    assert seen == ALLOWED


@pytest.mark.parametrize(
    "source, name",
    [
        ("import numpy as np\nnp._core.umath.clip(a, lo, hi)", "numpy._core"),
        ("import numpy\nnumpy.linalg._umath_linalg.solve(a, b)", "numpy.linalg._umath_linalg"),
        ("from numpy._core import umath", "numpy._core.umath"),
        ("from numpy.linalg import _umath_linalg as k", "numpy.linalg._umath_linalg"),
        ("import scipy.optimize._linprog as lp", "scipy.optimize._linprog"),
        ("from scipy import optimize\noptimize._minimize.minimize(f, x)", "scipy.optimize._minimize"),
        ("import numpy.linalg as la\nla._umath_linalg.solve(a, b)", "numpy.linalg._umath_linalg"),
    ],
)
def test_the_walk_finds_a_private_name(source, name):
    assert any(found == name or found.startswith(name + ".") for found in private_names(source)), private_names(source)


def test_the_walk_passes_public_and_dunder_names():
    source = "import numpy as np\nfrom scipy.optimize import linprog\nnp.linalg.solve(a, b)\nnp.__version__\nother._private"
    assert private_names(source) == []
