"""Every public function, option and field of the package has a caller
outside the unit tests, and every name has one import path.

A public function or method counts as used when its name is referenced
(called, read as an attribute or imported) by a module of the package other
than ``__init__``, by the benchmark under ``perfbench/``, or by the
acceptance suite.  A parameter with a default counts as used when one call
from those sources passes it, by name or by position.  An annotated field of
a public class counts as used when those sources read an attribute of its
name.  Unit tests alone do not keep a helper, an option or a field alive: a
claim they check goes through the code the program runs.  The package root
binds no name, so each one is imported from the module that defines it.
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
    "wave_charts.symmetrize":
        "the only move of a point to its symmetric orbit representative",
}

#: public fields kept without a reader, each with the reason
ALLOWED_FIELDS = {
    "closed_chain.ExpansionReport.coefficient_fd":
        "the derivative the reported coefficient deviation is measured on",
    "closed_chain.ExpansionReport.residuals":
        "the residuals the reported ratios are formed from",
    "manifold.GaussianReport.residuals":
        "the residuals the reported ratios are formed from",
    "perturbation.BasisWaves.alpha":
        "the scale alpha of P(x, x) = alpha gamma^0 that chi is divided by",
}


def public_functions():
    """``module.name`` or ``module.Class.name`` -> its def node."""
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
                    found[f"{path.stem}.{qualname}"] = item
    return found


def caller_trees():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sources]


def public_fields():
    """``module.Class.field`` for each annotated field of a public class."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found |= {f"{path.stem}.{node.name}.{item.target.id}"
                          for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)}
    return found


def read_attributes():
    return {node.attr for tree in caller_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def referenced_names():
    names = set()
    for tree in caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def defaulted_parameters(node):
    """(name, position or None) of each parameter that has a default.

    The position counts positional arguments of a call, so a method's
    ``self`` or ``cls`` is not counted; a keyword-only parameter has none.
    """
    positional = node.args.posonlyargs + node.args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(node.args.defaults)
    found = [(arg.arg, i - skip) for i, arg in enumerate(positional)
             if i >= first]
    found += [(arg.arg, None) for arg, default
              in zip(node.args.kwonlyargs, node.args.kw_defaults)
              if default is not None]
    return found


def passed_arguments():
    """Bare callee name -> (most positional arguments, keyword names)."""
    calls = {}
    for tree in caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            count = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            keywords = {k.arg for k in node.keywords}
            most, names = calls.get(name, (0, set()))
            calls[name] = (max(most, count), names | keywords)
    return calls


def test_every_public_function_has_a_caller():
    used = referenced_names()
    unused = {qualname for qualname, node in public_functions().items()
              if node.name not in used}
    assert not unused - set(ALLOWED), "public without a caller"
    assert not set(ALLOWED) - unused, "allowed name is used or gone"


def test_package_root_binds_no_name():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = [ast.dump(node) for node in tree.body
             if not (isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant))]
    assert not bound, "import names from their modules"


def test_every_public_field_is_read():
    read = read_attributes()
    unread = {name for name in public_fields()
              if name.rsplit(".", 1)[1] not in read}
    assert not unread - set(ALLOWED_FIELDS), "public fields nothing reads"
    assert not set(ALLOWED_FIELDS) - unread, "allowed field is read or gone"


def test_every_keyword_option_is_passed():
    calls = passed_arguments()
    unset = []
    for qualname, node in public_functions().items():
        if qualname in ALLOWED:
            continue
        most, keywords = calls.get(node.name, (0, set()))
        if None in keywords:  # a ** argument may pass any keyword
            continue
        unset += [f"{qualname}({name})"
                  for name, position in defaulted_parameters(node)
                  if name not in keywords
                  and (position is None or most <= position)]
    assert not unset, "keyword options no caller sets"
