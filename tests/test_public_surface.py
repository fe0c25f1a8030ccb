"""Every public function, option and field of the package has a caller
outside the unit tests, and every name has one import path.

A public function counts as used when its name is read (called, read as
an attribute or imported) by a module of the package other than
``__init__``, by the benchmark under ``perfbench/``, or by the acceptance
suite; a method or property of a class only when those sources read an
attribute of its name, and a public module-level constant only when they
read its name.  A parameter with a default counts as used when one call
from those sources passes it, by name or by position.  An annotated field of
a public class counts as used when those sources read an attribute of its
name.  Unit tests alone do not keep a helper, an option or a field alive: a
claim they check goes through the code the program runs.  Likewise every
module-level private function is read by the package outside its own
definition, so no helper lives on for a test alone.  The package root
binds no name, so each one is imported from the module that defines it,
and no caller reads ``module.name`` through a module that only imports it.
Every name a module of the package imports is read there.
Every error type is raised or caught somewhere in the package.  Only
``krein._adjoint`` spells a conjugate transpose, and ``hermitize`` its
in-place form; every other module takes adjoints through ``krein``.  An SVD
runs only where a small singular value decides, and ``krein.opnorm`` takes
every norm.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfsgauge"

#: public names kept without a caller, each with the reason
ALLOWED = {
    "dirac_box.MomentumMode.four_momentum":
        "the sea mode's k = (-omega, k_vec); a test copy would be as long",
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


def public_constants():
    """``module.NAME`` for each public module-level assignment."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            found |= {f"{path.stem}.{target.id}" for target in targets
                      if isinstance(target, ast.Name)
                      and not target.id.startswith("_")}
    return found


def caller_paths():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    return sorted(sources)


def caller_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in caller_paths()]


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


def names_in(tree):
    """Every name and attribute read, and every name imported, under ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def referenced_names():
    return set().union(*map(names_in, caller_trees()))


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
    used, read = referenced_names(), read_attributes()
    unused = {qualname for qualname, node in public_functions().items()
              if node.name not in (read if qualname.count(".") == 2 else used)}
    assert not unused - set(ALLOWED), "public without a caller"
    assert not set(ALLOWED) - unused, "allowed name is used or gone"


def test_every_public_constant_is_read():
    used = referenced_names()
    unread = {name for name in public_constants()
              if name.rsplit(".", 1)[1] not in used}
    assert not unread, "public constants nothing reads"


def test_every_private_function_has_a_reader():
    statements = [node for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    unread = [own.name for own in statements
              if isinstance(own, ast.FunctionDef)
              and own.name.startswith("_") and not own.name.startswith("__")
              and not any(own.name in names_in(node)
                          for node in statements if node is not own)]
    assert not unread, "private helpers only tests call"


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


def raised_or_caught_names():
    """Names in a ``raise``, an ``except`` or the error slot of ``_refuse``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                named = [getattr(node.exc, "func", node.exc)]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = getattr(node.type, "elts", [node.type])
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_refuse"):
                named = node.args[1:2]
            else:
                continue
            names |= {getattr(n, "id", None) or getattr(n, "attr", None)
                      for n in named}
    return names


def test_every_error_type_is_raised_or_caught():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert defined, "errors.py defines no error type"
    dead = sorted(defined - raised_or_caught_names())
    assert not dead, f"never raised or caught: {dead}"


#: the top-level functions that spell a conjugate transpose
TRANSPOSE_OWNERS = {"krein._adjoint", "correlation.hermitize"}
CONJUGATES = {"conj", "conjugate"}
TRANSPOSES = {"T", "mT", "swapaxes", "transpose"}


def acted_on(node, names):
    """The operand of ``x.name``, ``x.name(...)`` or ``np.name(x, ...)``."""
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", None) in names or (
                getattr(func, "attr", None) in names
                and getattr(func.value, "id", None) == "np"):
            return node.args[0] if node.args else None
        node = func
    if (isinstance(node, ast.Attribute) and node.attr in names
            and getattr(node.value, "id", None) != "np"):
        return node.value
    return None


def is_conjugate_transpose(node) -> bool:
    """Whether ``node`` transposes a conjugate or conjugates a transpose."""
    for outer, inner in ((TRANSPOSES, CONJUGATES), (CONJUGATES, TRANSPOSES)):
        operand = acted_on(node, outer)
        if operand is not None and acted_on(operand, inner) is not None:
            return True
    return False


def conjugate_transposes():
    """(``module.owner``, line) of each conjugate transpose, the owner its
    top-level definition."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            found |= {(owner, node.lineno) for node in ast.walk(top)
                      if is_conjugate_transpose(node)}
    return found


def test_only_krein_spells_a_conjugate_transpose():
    found = conjugate_transposes()
    strays = sorted(f"{owner}:{line}" for owner, line in found
                    if owner not in TRANSPOSE_OWNERS)
    assert not strays, "take adjoints through krein._adjoint"
    assert {owner for owner, _ in found} == TRANSPOSE_OWNERS, \
        "an owner no longer spells the transpose"


#: the top-level functions that call ``np.linalg.svd``: each reads a
#: smallest singular value, which the Gram of ``opnorm`` would square
SVD_OWNERS = {"wave_charts.gauge_orbit_witness", "manifold.chart_inverse",
              "manifold.chart_jacobian_rank"}


def test_only_small_singular_values_take_an_svd():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            found |= {owner for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "svd"}
    assert found == SVD_OWNERS, "take norms through krein.opnorm"


def defined_names(tree):
    """The names a module's own top-level statements define (not import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def module_aliases(tree):
    """Local name -> package module, for each package module imported whole."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 and node.module is None
                or node.level == 0 and node.module == "cfsgauge"):
            aliases |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname: a.name.split(".", 1)[1] for a in node.names
                        if a.asname and a.name.startswith("cfsgauge.")}
    return aliases


def test_every_name_is_read_from_its_defining_module():
    defined = {path.stem: defined_names(ast.parse(
        path.read_text(encoding="utf-8"))) for path in PACKAGE.glob("*.py")}
    strays = []
    for path in caller_paths():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = module_aliases(tree)
        strays += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases
                   and node.attr not in defined[aliases[node.value.id]]]
    assert not strays, "import each name from the module that defines it"


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.stem}.{name}" for name in (
                    a.asname or a.name.split(".", 1)[0] for a in node.names)
                           if name not in read]
    assert not unread, "imported names nothing reads"
