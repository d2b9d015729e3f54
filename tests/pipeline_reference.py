"""References for pipeline stages that no library code calls.

``gamma_series`` builds one hypergeometric series from the library's
word and Gamma-ratio tables, the inner series that solution assembly
sums without building, through ``column_terms``, the library's route
of a row plan and column products; ``gamma_terms`` multiplies out those
tables one word at a time, where the library works one coordinate at a
time;
``component_of`` explores one component of the translation graph with
the atlas's breadth-first core; ``sheet_bases`` lists the base
exponents of a support's sheets.  ``word_coordinates``,
``word_length`` and ``covered`` decide, one offset and one sheet at a
time, whether a truncated series knows its full value at an offset:
the per-term test that ``Truncation.coverage`` answers from integer
forms.  They solve by the Fraction elimination of ``linalg_reference``,
apart from those forms.  Tests read them as small, separately checkable
pieces of the pipeline.
"""

from fractions import Fraction
from operator import add, sub

from binomhorn import (
    BinomHornError,
    IntMatrix,
    LatticeBasis,
    ResonanceError,
    Scalar,
)
from binomhorn.series import PuiseuxSeries, Support, Truncation
from binomhorn.decomp import WordTable, _words
from binomhorn.solutions import _gamma_terms, _ratio_tables, _zero_cut
from binomhorn.subgraph import Component, _explore, _steps
from linalg_reference import lattice_coordinates


def _check_kernel(A_J: IntMatrix, L: LatticeBasis):
    for vec in L.vectors:
        if any(x != 0 for x in A_J.mul_vec(vec)):
            raise BinomHornError("lattice is not in the kernel of A_J")


def gamma_series(A_J: IntMatrix, L: LatticeBasis, v, T: int,
                 offset=None) -> PuiseuxSeries:
    """Hypergeometric series with coefficients normalized at the base
    exponent v, truncated to lattice word length at most T.

    The term at lattice offset u carries, in each coordinate j, the ratio
    Gamma(v_j + 1) / Gamma(v_j + t + 1) with t = w_j + u_j: a falling
    factorial for t < 0 and the reciprocal of a rising factorial for
    t > 0.  The ratio depends on t alone, so each coordinate gets one
    table of integer numerators and denominators, built by single steps
    over the t range the word ball reaches, and a coefficient is a
    product of one lookup per coordinate, reduced once.  Terms whose
    ratio vanishes are dropped.  A vanishing rising factorial raises
    ResonanceError naming the first such term (in the order of the word
    coordinates) and its coordinate.

    With an integer ``offset`` w the result realizes the inverse
    derivative partial^{-w} of the unshifted series in the solution-space
    sense: the series has base v + w and keeps the term at u under the
    key u.  This differs from integrating term by term exactly when the
    unshifted series has terms on an integration boundary (an integer
    coordinate reaching zero), where honest antiderivatives leave the
    solution space.
    """
    nj = A_J.ncols
    v = tuple(Fraction(x) for x in v)
    if len(v) != nj:
        raise ValueError("exponent length mismatch")
    if L.ambient_dim != nj:
        raise ValueError("lattice ambient mismatch")
    w = tuple(int(x) for x in offset) if offset is not None else (0,) * nj
    if len(w) != nj:
        raise ValueError("offset length mismatch")
    _check_kernel(A_J, L)
    words, reach = _words(L, T)
    trunc = Truncation(basis=L.vectors, bound=T, dim=nj)
    terms = {z: Scalar.rational(Fraction(num, den))
             for z, num, den in column_terms(words, reach, trunc,
                                             _ratio_tables(v, [w], reach), w)}
    base = tuple(a + b for a, b in zip(v, w))
    return PuiseuxSeries(
        nj, {tuple(map(sub, z, w)): c for z, c in terms.items()},
        truncation=trunc, support=Support(alpha=base, translates=((0,) * nj,)))


def column_terms(words, reach, trunc, tables, w):
    """(z, numerator, denominator) of the Gamma-ratio product of every
    word where it is nonzero, in word order, z = w + u the word's offset
    from the unshifted base: the library's column-wise route through a
    ``WordTable`` on every coordinate, whose row plan at the translate w
    keeps the words above the zero cut."""
    table = WordTable(words=tuple(words), reach=reach,
                      lifted=tuple(u for _, u in words), truncation=trunc,
                      coords=None)
    cut = _zero_cut(table.columns or [()] * len(w), tables, w)
    offsets, _, zcols = table.row_plan(tuple(w), cut)
    return zip(offsets, *_gamma_terms(zcols, tables))


def gamma_terms(words, tables, w):
    """Yield (z, numerator, denominator) of the Gamma-ratio product of
    every word where it is nonzero, in word order, z = w + u the word's
    offset: one word at a time, one lookup per coordinate, the reference
    for ``column_terms``.

    ``tables`` come from ``_ratio_tables`` and are indexed by t = w_j +
    u_j.  A vanishing rising factorial raises ResonanceError naming the
    first such term and its coordinate.
    """
    for _, u in words:
        num = den = 1
        z = tuple(map(add, w, u))
        for j, (nums, dens, _, _) in enumerate(tables):
            if nums[z[j]] is None:
                raise ResonanceError(
                    "rising factorial vanished at coordinate "
                    f"{j + 1} for offset {list(u)}",
                    term=u, coordinate=j)
            num *= nums[z[j]]
            den *= dens[z[j]]
        if num:
            yield z, num, den


def word_coordinates(trunc: Truncation, offset):
    """Integer coordinates of an integer or rational offset in the basis
    of ``trunc``, or None when it is off the lattice."""
    if len(offset) != trunc.dim:
        raise ValueError(f"offset of length {len(offset)}, "
                         f"expected {trunc.dim}")
    if any(Fraction(x).denominator != 1 for x in offset):
        return None
    return lattice_coordinates(trunc.basis, offset)


def word_length(trunc: Truncation, offset):
    """The l1 norm of ``word_coordinates``, or None off the lattice."""
    k = word_coordinates(trunc, offset)
    return None if k is None else sum(abs(x) for x in k)


def covered(trunc: Truncation, sheets, y):
    """True when the full series value at integer offset y is known
    exactly: either y is off every declared sheet (given by its integer
    translate), or it lies within the word bound."""
    for t in sheets:
        word = word_length(trunc, tuple(a - b for a, b in zip(y, t)))
        if word is not None and word > trunc.bound:
            return False
    return True


def sheet_bases(support: Support):
    """alpha + t for each sheet translate t of the support."""
    return tuple(tuple(a + t for a, t in zip(support.alpha, tr))
                 for tr in support.translates)


def component_of(M: IntMatrix, gamma) -> Component:
    """Breadth-first exploration of the component of gamma in N^q.

    Stops with the full vertex set (bounded) or with an unboundedness
    witness the moment two distinct comparable points have both been seen.
    """
    gamma = tuple(int(x) for x in gamma)
    if len(gamma) != M.nrows:
        raise ValueError("seed length != number of rows of M")
    if any(x < 0 for x in gamma):
        raise ValueError("seed outside N^q")
    comp = _explore(_steps(M), gamma)
    assert comp.bounded or comp.witness is not None
    return comp
