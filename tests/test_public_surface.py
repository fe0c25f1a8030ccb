"""Every public function of the package has a caller outside the unit tests.

A public function or method counts as used when its name is referenced
(called, read as an attribute or imported) by a module of the package other
than ``__init__``, by the benchmark under ``perfbench/``, or by the
acceptance suite.  Unit tests alone do not keep a helper alive: a claim they
check goes through the code the program runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfsgauge"

#: public names kept without a caller, each with the reason
ALLOWED = {
    "dirac_box.MomentumMode.four_momentum":
        "the sea mode's k = (-omega, k_vec); a test copy would be as long",
    "manifold.chart_metric":
        "the only evaluation of the metric pulled back to a chart",
    "perturbation.basis_waves":
        "the only construction of the distinguished basis waves",
    "perturbation.gauged_basis":
        "the only evaluation of the gauged basis waves by both routes",
    "randoms.random_krein_symmetric":
        "counterpart of random_krein_unitary; a test copy would be as long",
    "wave_charts.symmetrize":
        "the only move of a point to its symmetric orbit representative",
}


def public_definitions():
    """``module.name`` or ``module.Class.name`` -> bare name, per def."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{item.name}", item)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qualname, item in members:
                if not item.name.startswith("_"):
                    found[f"{path.stem}.{qualname}"] = item.name
    return found


def referenced_names():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_function_has_a_caller():
    used = referenced_names()
    unused = {qualname for qualname, name in public_definitions().items()
              if name not in used}
    assert not unused - set(ALLOWED), "public without a caller"
    assert not set(ALLOWED) - unused, "allowed name is used or gone"
