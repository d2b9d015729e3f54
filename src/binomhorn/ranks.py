"""Generic holonomic rank of a binomial Horn system.

The rank at generic parameters is a sum over the block decompositions
whose mixed block is square and invertible: each contributes the product
of its bounded-component count, its lattice index, and the normalized
volume of its column configuration.  A full-dimensional Andean direction
means the system is non-holonomic for every parameter, reported as an
infinite verdict instead of a number.  Both functions here read the
decompositions the input caches, so together they enumerate once, and
neither computes a direction.  The verdict comes first, from the input's
lazy walk, which stops at the first Andean block with rank(M) = q: a
non-holonomic input gets it without being enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import HornInput


@dataclass(frozen=True)
class RankSummand:
    label: str
    rowset: tuple  # 1-based row indices for display
    mu: int
    g: int
    vol: int

    @property
    def product(self):
        return self.mu * self.g * self.vol


@dataclass(frozen=True)
class RankReport:
    total: int | None  # None exactly when infinite
    infinite: bool
    summands: tuple
    generically_holonomic: bool
    note: str = ""


def generic_rank(hi: HornInput, cap: int = 1000) -> RankReport:
    """Evaluate the rank formula, or report the infinite verdict.

    The verdict is ``hi.andean.generically_holonomic``: some Andean
    block with rank(M) = q gives a full-dimensional direction, and the
    walk stops at the first one, so an infinite rank is reported without
    enumerating the decompositions; only a finite one reads them all.
    The directions themselves are not computed here
    (``hi.andean.directions`` computes them when read), nor are the
    translates of lower dimensional ones, which pick out the special
    parameters with infinite rank inside a generically finite family.
    """
    note = ("translates of Andean directions not computed; verdicts are "
            "for generic parameters")
    if not hi.andean.generically_holonomic:
        return RankReport(total=None, infinite=True, summands=(),
                          generically_holonomic=False, note=note)
    summands = []
    for dec in hi.decompositions:
        if not dec.is_toral:
            continue
        atlas = dec.atlas(cap)
        summands.append(RankSummand(
            label=dec.label,
            rowset=tuple(i + 1 for i in dec.rowset_Jbar),
            mu=atlas.mu, g=dec.g, vol=dec.cone.volume))
    total = sum(s.product for s in summands)
    return RankReport(total=total, infinite=False, summands=tuple(summands),
                      generically_holonomic=True, note=note)


def degree_cross_check(hi: HornInput) -> int | None:
    """Product of the generator degrees, when the hypotheses for it hold.

    Applicable exactly when the column sums of B vanish (the system is
    standard Z-graded) and no decomposition is Andean; then the product
    of the generator degrees d_k = sum_j max(b_jk, 0) must equal the
    generic rank.  Returns None when not applicable.
    """
    B = hi.B
    for k in range(hi.m):
        if sum(B.data[j][k] for j in range(hi.n)) != 0:
            return None
    if any(not dec.is_toral for dec in hi.decompositions):
        return None
    out = 1
    for k in range(hi.m):
        out *= sum(max(B.data[j][k], 0) for j in range(hi.n))
    return out
