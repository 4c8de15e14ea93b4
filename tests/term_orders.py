"""The position-over-term module order, for tests.

The engine orders module terms by TermOverPosition alone; on one
component that order is PositionOverTerm, since the twisted degree is
the weighted degree plus a constant.  The Groebner tests also run
Buchberger with the component first over several components.
"""

from homcalc.groebner import TermOverPosition
from homcalc.ring import FIELD


class PositionOverTerm(TermOverPosition):
    """Component dominates; lower component index wins, then the ring order.

    A term packs as under TermOverPosition with zero twists, plus its
    component in one more field above the others: a lower component is a
    smaller int, so a larger term.  A shift or a divisibility test is
    taken within one component, where that field cancels.
    """

    __slots__ = ()

    def __init__(self, ring, rank):
        super().__init__(ring, [0] * rank)
        top = ring.deg_shift + 2 * FIELD
        self.bases = tuple(b + (c << top) for c, b in enumerate(self.bases))
