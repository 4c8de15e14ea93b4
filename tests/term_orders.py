"""The position-over-term module order, for tests.

The engine orders module terms by TermOverPosition alone; on one
component that order is PositionOverTerm, since mono_key starts with the
weighted degree.  The Groebner tests also run Buchberger with the
component first over several components.
"""

from operator import neg

from homcalc.groebner import _TermOrder


class PositionOverTerm(_TermOrder):
    """Component dominates; lower component index wins, then the ring order."""

    __slots__ = ()

    def _key(self, c, e):
        return (c,) + tuple(map(neg, self.ring.mono_key(e)))
