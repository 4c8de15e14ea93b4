"""The shipped corpus report, byte for byte.

golden/corpus.json is the output of ``homcalc --format json`` (the whole
corpus at its own bounds, canonical form without timing), and
golden/corpus.txt is the text report of the same run with its timing
stripped.  A change that alters any byte of either changes an answer or
its summary, and is a regression unless the golden file is regenerated
on purpose.  Both tests read one corpus run.
"""

from pathlib import Path

import pytest

from homcalc.cli import (corpus_run, emit_report, has_fail, render_text,
                         _strip_timing)

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"
GOLDEN_TEXT = Path(__file__).parent / "golden" / "corpus.txt"


@pytest.fixture(scope="module")
def corpus_doc():
    return corpus_run()


def test_corpus_report_matches_golden(corpus_doc):
    assert not has_fail(corpus_doc)
    errors = [(run["problem"], e["index"], e["error"])
              for run in corpus_doc["runs"] for e in run["entries"]
              if "error" in e]
    assert errors == []
    assert emit_report(corpus_doc) == GOLDEN.read_text()


def test_corpus_text_report_matches_golden(corpus_doc):
    assert render_text(_strip_timing(corpus_doc)) == GOLDEN_TEXT.read_text()
