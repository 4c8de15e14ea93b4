"""No dead surface: every function, class and method that src/ defines is
used somewhere in src/ or perfbench/ outside its own definition.

A use is a read of a name (``ast.Name``), of an attribute
(``ast.Attribute``), or a string constant that is an identifier, since
the CLI's operation table names its functions by string.  Dunders are
exempt, as are the independent routes kept to cross-check the engine
(the oracle's public names and artinian_homology_dims) and the entry
point.  Code that only tests call belongs next to those tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "homcalc"

KEPT = {("complexes", "artinian_homology_dims"), ("cli", "main")}


def _kept(module, name):
    return (module, name) in KEPT or (module == "oracle"
                                      and not name.startswith("_"))


def _uses(tree):
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield node


def unused_definitions():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {f: ast.parse(f.read_text(), str(f)) for f in files}
    total = Counter()
    for tree in trees.values():
        total += _uses(tree)
    found = []
    for f, tree in trees.items():
        if f.parent != SRC:
            continue
        for node in _definitions(tree):
            if total[node.name] - _uses(node)[node.name] <= 0:
                found.append((f.stem, node.name))
    return found


def test_every_definition_is_used():
    assert [d for d in unused_definitions() if not _kept(*d)] == []


def test_kept_names_exist():
    defined = set()
    for f in SRC.glob("*.py"):
        defined |= {(f.stem, n.name)
                    for n in _definitions(ast.parse(f.read_text()))}
    assert KEPT <= defined
