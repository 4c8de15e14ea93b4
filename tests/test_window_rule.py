"""One window rule: outside complexes.py, a complex's trust window is read
through TrustWindow.first/run or the readers in modules built on them
(trusted_homology, first_homology, extreme_homology), which never
certify across an untrusted degree.  A walk that tested membership
itself could, so this test fails on any call of ``.window.contains`` or
read of ``.window.parts`` outside complexes.py, except in ALLOWED:

* modules.trusted_homology, the whole-window reader;
* invariants._homology_at, the one single-degree check (Ext/Tor tables);
* modules._arg_key, which keys the ring memo by the window's parts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "homcalc"

ALLOWED = {
    ("modules", "trusted_homology"),
    ("modules", "_arg_key"),
    ("invariants", "_homology_at"),
}


def _reads_window_directly(node):
    return any(isinstance(n, ast.Attribute) and n.attr in ("contains", "parts")
               and isinstance(n.value, ast.Attribute)
               and n.value.attr == "window"
               for n in ast.walk(node))


def direct_window_reads():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    found = set()
    for f in files:
        if f.name == "complexes.py":
            continue
        # each top-level statement by its name: a function, a class with
        # its methods, or "<module>" for code outside both
        for node in ast.parse(f.read_text(), str(f)).body:
            if _reads_window_directly(node):
                found.add((f.stem, getattr(node, "name", "<module>")))
    return found


def test_window_is_read_only_through_the_walks():
    assert direct_window_reads() <= ALLOWED


def test_allowed_readers_still_read_the_window():
    assert ALLOWED <= direct_window_reads()
