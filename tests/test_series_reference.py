"""The grouped Hilbert series against the per-component one it replaced.

modules._series sums one numerator per distinct lead ideal of a module's
components, taken from the ring memo (QuotientRing.numerator), and
QuotientRing.hilbert_series reads R's numerator from the same memo.
Before that, _series computed one hilbert_numerator per generator and
the ring one per call.  old_series and old_ring_series below are that
code, verbatim except for their names, the ring method taking its ring
as the first argument, and HilbertSeries.shifted(a), since removed,
written as its equal times([a]).

Over the shipped corpus and the benchmark's nine template rings in the
coordinates its seed 1 draws (perfbench/workloads.py), every problem
built and all its tasks run as the CLI runs them, every _series call and
every QuotientRing.hilbert_series call equals the old one, and each
(ring, lead-shift key) misses the ring memo at most once.
"""

import pytest

from homcalc import modules
from homcalc.groebner import HilbertSeries, QuotientRing, hilbert_numerator
from homcalc.modules import _component_leads

from test_workload_calls import DOCS, _run


def old_series(m, gb) -> HilbertSeries:
    """HS(M) from a Groebner basis gb of its relations: the series of
    each generator's standard monomials, shifted by its twist."""
    P = m.ring.ambient
    total = HilbertSeries(P.weights, {})
    for a, leads in enumerate(_component_leads(m, gb)):
        hs = HilbertSeries(P.weights, hilbert_numerator(leads, P))
        total = total.plus(hs.times([m.gens.twists[a]]))
    return total


def old_ring_series(self):
    numer = hilbert_numerator(self.lead_ideal_min_gens(), self.ambient)
    return HilbertSeries(self.ambient.weights, numer)


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d["name"])
def test_grouped_series_match_per_component_series(doc):
    series = modules._series
    ring_series, numerator = QuotientRing.hilbert_series, QuotientRing.numerator
    calls, misses, bad = [], [], []

    def checked_series(m, gb):
        out = series(m, gb)
        calls.append("_series")
        if out != old_series(m, gb):
            bad.append(("_series", m))
        return out

    def checked_ring_series(self):
        out = ring_series(self)
        calls.append("hilbert_series")
        if out != old_ring_series(self):
            bad.append(("hilbert_series", self))
        return out

    def counted_numerator(self, shifts):
        if ("numerator", shifts) not in self.memo:
            # the ring itself is kept, so no id is reused in the pass
            misses.append((id(self), shifts, self))
        return numerator(self, shifts)

    _run(doc, [(modules, "_series", checked_series),
               (QuotientRing, "hilbert_series", checked_ring_series),
               (QuotientRing, "numerator", counted_numerator)])
    assert "_series" in calls
    assert bad == []
    keys = [(r, shifts) for r, shifts, _ in misses]
    assert misses and len(keys) == len(set(keys))
