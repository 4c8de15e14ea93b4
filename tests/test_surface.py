"""No dead surface: every function, class and method that src/ defines is
used somewhere in src/ or perfbench/ outside its own definition, every
defaulted parameter is set by some call there, and every attribute a
method of src/ sets on self is read there.

A use is a read of a name (``ast.Name``), of an attribute
(``ast.Attribute``), or a string constant that is an identifier, since
the CLI's operation table names its functions by string.  A def in a
class body is reached only as an attribute or by string, so a bare-name
read does not use it: a local variable of a method's name does not hide
the method.  A parameter is set by a call to a function of its name that
passes it by keyword, passes enough positional arguments to reach it, or
unpacks ``*``/``**`` arguments; a constructor's parameters are set
through calls to its class.  Dunders are exempt, as are the independent
routes kept to cross-check the engine (the oracle's public names and
parameters), the entry point, and the parameters in KEPT_PARAMS.  Code
that only tests call belongs next to those tests.

An attribute is read by an attribute load of its name or by an
identifier string, as a ``FIELDS`` entry that the serializer reads with
``getattr``; the entries of a ``__slots__`` tuple declare, so they do not
count.  Attributes that callers outside src/ read, as entries of KEPT,
are named ``Class.attribute``.

Blind spot: both checks match by name, not by object.  A method counts
as used when any attribute read of its name occurs, so one whose name
another definition or an operation shares goes unseen: that is how
``GradedMatrix.column`` (read as ``ParseError``'s ``column`` argument),
``GBResult.contains`` (as ``TrustWindow.contains``), ``ModuleMap.compose``
(as ``GradedMatrix.compose``), ``Resolution.certified``/``betti`` (as
``InvariantTable.certified`` and the "betti" operation),
``FreeComplex.validate`` and ``ChainMap.validate`` (as
``ModuleMap.validate``), ``GradedMatrix.scale`` (as ``Polynomial.scale``),
``QuotientRing.is_zero`` (as ``Polynomial.is_zero``),
``QuotientRing.zero`` (as ``PolyRing.zero``), ``HilbertSeries.shifted``
(as ``GradedFree.shifted``) and ``GradedMatrix.add``/``negate`` (read
only by ``ChainMap.validate``, and ``add`` as ``set.add``) outlived their
last caller.  Likewise a parameter counts as set when a call to any
function of that name sets it.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "homcalc"

KEPT = {
    ("cli", "main"),
    # the located parse error's column, read by callers (tests/test_core.py)
    ("ring", "PolyParseError.column"),
}

KEPT_PARAMS = {
    # a certified floor makes the biduality windows unconditional;
    # tests/test_complexes.py::test_biduality_pinned_floor_is_stable pins
    # the stability contract (raising the bound never changes a trusted
    # reading) through it
    ("complexes", "biduality_rep", "floor"),
}


def _kept(module, name):
    return (module, name) in KEPT or (module == "oracle"
                                      and not name.startswith("_"))


def _trees():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {f: ast.parse(f.read_text(), str(f)) for f in files}


def _uses(tree):
    """(bare-name reads, attribute reads and identifier strings)."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attrs[node.value] += 1
    return names, attrs


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield node


def _methods(tree):
    """ids of the defs in a class body: no bare name reaches them."""
    return {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}


def unused_definitions():
    trees = _trees()
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names += n
        attrs += a
    found = []
    for f, tree in trees.items():
        if f.parent != SRC:
            continue
        methods = _methods(tree)
        for node in _definitions(tree):
            own_names, own_attrs = _uses(node)
            uses = attrs[node.name] - own_attrs[node.name]
            if id(node) not in methods:
                uses += names[node.name] - own_names[node.name]
            if uses <= 0:
                found.append((f.stem, node.name))
    return found


def test_every_definition_is_used():
    assert [d for d in unused_definitions() if not _kept(*d)] == []


def test_kept_names_exist():
    defined = set()
    for f in SRC.glob("*.py"):
        tree = ast.parse(f.read_text())
        defined |= {(f.stem, n.name) for n in _definitions(tree)}
        defined |= {(f.stem, a) for a in _self_attributes(tree)}
    assert KEPT <= defined


# ---------------------------------------------------------------------------
# attributes set on self


def _reads(tree):
    """Attribute loads and identifier strings, but for __slots__ entries."""
    slots = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and all(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in node.targets)
             for n in ast.walk(node.value)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in slots:
            out[node.value] += 1
    return out


def _self_attributes(tree):
    """Class.attribute for every self.attribute a method of a class sets."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    yield f"{cls.name}.{node.attr}"


def unread_attributes():
    trees = _trees()
    reads = sum(map(_reads, trees.values()), Counter())
    return sorted({(f.stem, a) for f, tree in trees.items() if f.parent == SRC
                   for a in _self_attributes(tree)
                   if not reads[a.split(".")[1]]})


def test_every_attribute_set_is_read():
    assert [a for a in unread_attributes() if a not in KEPT] == []


# ---------------------------------------------------------------------------
# defaulted parameters


def _functions(tree):
    """(names a call reaches it by, def node, whether a bound method)."""
    for owner in ast.walk(tree):
        if not isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            continue
        for fn in owner.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            in_class = isinstance(owner, ast.ClassDef)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            names = {fn.name}
            if in_class and fn.name == "__init__":
                names.add(owner.name)
            yield names, fn, in_class and not static


def _defaulted(fn, method):
    """(name, index among a caller's positional arguments or None) of
    every parameter of fn with a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i in range(first, len(pos)):
        yield pos[i].arg, i - method
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield p.arg, None


def _sets(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred)
                                         for a in call.args)


def unset_parameters():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    found = []
    for f, tree in trees.items():
        if f.parent != SRC:
            continue
        for names, fn, method in _functions(tree):
            for param, index in _defaulted(fn, method):
                if not any(_sets(c, param, index)
                           for n in names for c in calls.get(n, [])):
                    found.append((f.stem, fn.name, param))
    return found


def test_every_defaulted_parameter_is_set():
    assert [p for p in unset_parameters()
            if p not in KEPT_PARAMS and p[0] != "oracle"] == []


def test_kept_parameters_are_defaulted_and_unset():
    assert KEPT_PARAMS <= set(unset_parameters())


# ---------------------------------------------------------------------------
# names the benchmark's tracer wraps


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_names_resolve():
    """Every (module, attribute) the traced benchmark run wraps exists, so
    a rename fails here rather than only in the traced run."""
    tracer = _tracer()
    missing = []
    for prefix, modname, attr, *_ in tracer.SPANS:
        owner = importlib.import_module(f"homcalc.{modname}")
        if attr == "verify_*":
            found = any(n.startswith("verify_") for n in vars(owner))
        elif "." in attr:
            cls, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(prefix)
    for prefix, modname, cls, meths, _ in tracer.COUNTS:
        owner = importlib.import_module(f"homcalc.{modname}")
        missing += [f"{prefix}:{cls}.{m}" for m in meths
                    if m not in vars(getattr(owner, cls, object))]
    assert missing == []


# ---------------------------------------------------------------------------
# the oracle stays independent


def _imported_modules(tree):
    """homcalc module names a source file imports, relatively or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.startswith("homcalc"):
                base = (node.module or "").removeprefix("homcalc").lstrip(".")
                yield from [base] if base else (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.removeprefix("homcalc.") for a in node.names)


def test_only_the_oracle_uses_the_oracle_and_its_linear_algebra():
    """The oracle is an independent route only while the engine borrows
    nothing from it: no module imports oracle, which holds the dense numpy
    elimination it sits on."""
    users = {(f.stem, mod) for f in SRC.glob("*.py")
             for mod in _imported_modules(ast.parse(f.read_text()))
             if mod == "oracle"}
    assert users == set()


def test_cli_import_loads_neither_oracle_nor_numpy():
    code = ("import sys, homcalc.cli; print(sorted(m for m in sys.modules "
            "if m in ('numpy', 'homcalc.oracle')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"
