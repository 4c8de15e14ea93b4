"""Ext read off presentations, the reference for the routes that read
sizes and vanishing off Hilbert series (modules.ext_series and the
readers built on it).

These are the engine's earlier routes, kept here to cross-check it:
mu^i(m, M) as the generator count of a minimal presentation of
Ext^i(k, M), and the first nonzero Ext as a scan that builds each
Ext^i(M, N) and asks whether it is the zero module.
"""

from homcalc.invariants import residue_field
from homcalc.modules import ext_module, minimal_presentation


def presentation_mu(m, i):
    """mu^i(m, M) as the minimal generator count of Ext^i(k, M), a
    k-vector space."""
    return minimal_presentation(
        ext_module(residue_field(m.ring), m, i)).gens.rank


def presentation_first_ext(m, n, lo, hi):
    """The first i in lo..hi with Ext^i(M, N) != 0 as a presented module,
    or None."""
    return next((i for i in range(lo, hi + 1)
                 if not ext_module(m, n, i).is_zero_module()), None)
