"""Exact polyhedral data of the column configurations A_J, one cone each.

A ``Cone`` rewrites the columns of A_J in a basis of their own integer
column span, once: the basis is the one column Hermite form of A_J, and
the coordinates follow from its pivots by forward substitution.  It
reads everything else lazily from one scan for the facets of
conv(0, columns) in those coordinates:

- the cells: 0 coned over a triangulation of each facet not containing
  it, each with its integer volume in the column lattice;
- the normalized volume, r! times the Euclidean volume in those
  coordinates, as the sum of the cells;
- the primitive support functions of the facets through 0: rational
  functionals, nonnegative on the columns, vanishing exactly on the
  facet, normalized to take value group Z on the column lattice.

Coning from any point of a polytope subdivides it, so 0 need not be a
vertex: the volume of an unvalidated A is read the same way.  Taking
the coordinates in the column lattice makes every result invariant
under any invertible rational change of row coordinates, which is what
allows published coordinate choices for A to differ by more than a
unimodular transformation without changing any output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .errors import BinomHornError
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    bareiss_det,
    column_hnf,
    frac_solve,
    rref,
)


# -- exact convex hull machinery ----------------------------------------------

def _facet_hyperplanes(points, dim):
    """Supporting hyperplanes of conv(points), full-dimensional in Q^dim.

    Returns a list of (normal, offset, facet_points) with normal . x <= offset
    for all points and equality exactly on facet_points.  Brute force over
    dim-subsets; fine at desk scale.  A subset spans a hyperplane exactly
    when the rref of its differences leaves one free column, and the
    integer normal is read off that column.
    """
    facets = {}
    for sub in combinations(range(len(points)), dim):
        base = points[sub[0]]
        pivots, red, d = rref([[x - y for x, y in zip(points[i], base)]
                               for i in sub[1:]], dim)
        if len(pivots) != dim - 1:
            continue
        free, = set(range(dim)).difference(pivots)
        nu = [d if c == free else 0 for c in range(dim)]
        for c, row in zip(pivots, red):
            nu[c] = -row[free]
        off = sum(a * b for a, b in zip(nu, base))
        vals = [sum(a * b for a, b in zip(nu, p)) - off for p in points]
        if all(v <= 0 for v in vals):
            pass
        elif all(v >= 0 for v in vals):
            nu = [-x for x in nu]
            off = -off
            vals = [-v for v in vals]
        else:
            continue
        members = tuple(i for i, v in enumerate(vals) if v == 0)
        facets[members] = (tuple(nu), off)
    return [(nu, off, members) for members, (nu, off) in sorted(facets.items())]


def _triangulate_rec(pts, labels, dim):
    """Deterministic triangulation of conv(pts), of affine dimension dim,
    as a sorted list of label tuples: the lexicographically smallest
    point coned over the recursively triangulated facets not containing
    it."""
    distinct = sorted(set(pts))
    if dim == 0:
        return [(labels[pts.index(distinct[0])],)]
    if dim == 1:
        # chain through every distinct point so collinear configuration
        # points subdivide the segment (finer cells mean finer exponent
        # lattices downstream); lexicographic order is monotone on a line
        first = {}
        for p, l in zip(pts, labels):
            if p not in first or l < first[p]:
                first[p] = l
        return sorted((first[a], first[b]) if first[a] < first[b]
                      else (first[b], first[a])
                      for a, b in zip(distinct, distinct[1:]))
    if len(distinct) == dim + 1:
        used = []
        seen = set()
        for p, l in zip(pts, labels):
            if p not in seen:
                seen.add(p)
                used.append(l)
        return [tuple(used)]
    # coordinates within the affine hull so facet enumeration is full-dim:
    # with the differences from the first distinct point as columns, the
    # rref's pivots are the greedy basis among them, and column j holds d
    # times the coordinates of point j + 1 in it; scaling by |d| keeps
    # the lexicographic order and the facets
    base = distinct[0]
    _, red, d = rref([[p[t] - base[t] for p in distinct[1:]]
                      for t in range(len(base))], len(distinct) - 1)
    sign = 1 if d > 0 else -1
    at = {p: tuple(sign * row[j] for row in red[:dim])
          for j, p in enumerate(distinct[1:])}
    at[base] = (0,) * dim
    local = [at[p] for p in pts]
    apex_pos = min(range(len(local)), key=lambda i: (local[i], labels[i]))
    out = []
    for nu, off, members in _facet_hyperplanes(local, dim):
        if apex_pos in members:
            continue
        sub_pts = [local[i] for i in members]
        sub_labels = [labels[i] for i in members]
        for simplex in _triangulate_rec(sub_pts, sub_labels, dim - 1):
            out.append((labels[apex_pos],) + simplex)
    return sorted(out)


# -- the cone over one column configuration -----------------------------------

def own_lattice_coordinates(A_J: IntMatrix):
    """Columns of A_J rewritten in a canonical basis of their own span.

    Returns (lattice, coords) where coords[j] is an integer vector of
    length rank(A_J).  The one column Hermite form of A_J is the basis,
    and the coordinates come from it by forward substitution on its
    pivots (``LatticeBasis.coordinates``), with no further elimination.
    """
    lattice = LatticeBasis._of_hermite(A_J.nrows, column_hnf(A_J).columns())
    coords = list(map(lattice.coordinates, A_J.columns()))
    if None in coords:
        raise BinomHornError("column outside its own lattice")
    return lattice, coords


@dataclass(frozen=True)
class SupportFunction:
    """Primitive support function of one facet of the cone over A_J.

    ``facet`` holds 0-based column indices; ``nu`` is a rational linear
    functional on Q^d with nu >= 0 on all columns, nu = 0 exactly on the
    facet columns, and nu(column lattice) = Z.
    """

    facet: tuple
    nu: tuple

    def value(self, beta):
        return sum(a * Fraction(b) for a, b in zip(self.nu, beta))


class Cone:
    """conv(0, columns of A_J) in the coordinates of its column lattice.

    ``lattice`` is the basis of the column lattice that normalizes every
    volume.  ``cells``, ``volume`` and ``supports`` are computed when
    first read, from one facet scan over the distinct points of
    {0} and the columns; a configuration with only rank + 1 distinct
    points is a simplex, whose single cell needs no scan.
    """

    def __init__(self, A_J: IntMatrix):
        if A_J.ncols == 0:
            raise BinomHornError("degenerate point set: no columns")
        self.lattice, self.coords = own_lattice_coordinates(A_J)
        self.rank = self.lattice.rank
        if self.rank == 0:
            raise BinomHornError("degenerate point set: rank 0")
        # distinct points, 0 first, each labelled by its first column
        first = {}
        for j, k in enumerate(self.coords):
            first.setdefault(k, j)
        origin = (0,) * self.rank
        first.pop(origin, None)
        self._points = [origin, *first]
        self._labels = [None, *first.values()]

    @cached_property
    def _facets(self):
        return _facet_hyperplanes(self._points, self.rank)

    @cached_property
    def cells(self):
        """Sorted (column index tuple, normalized volume) pairs, one per
        cell of the triangulation with apex 0."""
        pts, labels, r = self._points, self._labels, self.rank
        if len(pts) == r + 1:
            simplices = [tuple(labels[1:])]
        else:
            simplices = [
                simplex
                for _, _, members in self._facets if 0 not in members
                for simplex in _triangulate_rec([pts[i] for i in members],
                                                [labels[i] for i in members],
                                                r - 1)]
        return sorted(
            (simplex, abs(bareiss_det(IntMatrix([self.coords[j]
                                                 for j in simplex]))))
            for simplex in simplices)

    @cached_property
    def volume(self) -> int:
        """Normalized volume: a lattice simplex of the column lattice has
        volume 1."""
        return sum(vol for _, vol in self.cells)

    @cached_property
    def supports(self) -> tuple:
        """One primitive support function per facet of the cone over the
        columns, sorted by facet; the columns must span Q^d."""
        if self.rank != self.lattice.ambient_dim:
            raise BinomHornError("support functions need a full-rank column set")
        out = []
        for normal, _, members in self._facets:
            if 0 not in members:
                continue
            # the inward normal, primitive on the lattice coordinates
            g = gcd(*normal)
            inward = [-x // g for x in normal]
            facet = tuple(j for j, k in enumerate(self.coords)
                          if sum(a * b for a, b in zip(inward, k)) == 0)
            nu = frac_solve([list(v) for v in self.lattice.vectors], inward)
            out.append(SupportFunction(facet=facet, nu=nu))
        return tuple(sorted(out, key=lambda sf: sf.facet))


@dataclass(frozen=True)
class VeryGenericReport:
    ok: bool
    violations: tuple  # (gamma, facet) pairs


def very_generic_check(beta, dec, atlas) -> VeryGenericReport:
    """For a toral decomposition: no primitive support-function value of
    beta - A_Jbar(gamma) may be an integer, for any representative gamma.
    """
    if not dec.is_toral:
        raise BinomHornError("very-generic check applies to toral blocks only")
    supports = dec.cone.supports
    violations = []
    for gamma in atlas.representatives:
        shift = _shift_beta(beta, dec, gamma)
        for sf in supports:
            if sf.value(shift).denominator == 1:
                violations.append((gamma, sf.facet))
    return VeryGenericReport(ok=not violations, violations=tuple(violations))


def _shift_beta(beta, dec, gamma):
    """beta - A_Jbar(gamma) in the ambient beta coordinates."""
    d = dec.A_J.nrows
    shift = [Fraction(b) for b in beta]
    if dec.q:
        A_Jbar = dec.A_Jbar
        for i in range(d):
            shift[i] -= sum(A_Jbar.data[i][t] * gamma[t] for t in range(dec.q))
    return tuple(shift)
