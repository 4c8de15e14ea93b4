"""The shipped corpus report, byte for byte.

golden/corpus.json is the output of ``homcalc --format json`` (the whole
corpus at its own bounds, canonical form without timing).  A change that
alters any byte of it changes an answer, and is a regression unless the
golden file is regenerated on purpose.
"""

from pathlib import Path

from homcalc.cli import corpus_run, emit_report, has_fail

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"


def test_corpus_report_matches_golden():
    doc = corpus_run()
    assert not has_fail(doc)
    errors = [(run["problem"], e["index"], e["error"])
              for run in doc["runs"] for e in run["entries"] if "error" in e]
    assert errors == []
    assert emit_report(doc) == GOLDEN.read_text()
