"""Exact polyhedral computations for the column configurations A_J.

Volumes are normalized against the lattice generated by the columns
themselves: the columns are rewritten in a basis of their own integer
column span, and the volume of conv(0, columns) is r! times the Euclidean
volume in those coordinates.  This makes the result invariant under any
invertible rational change of row coordinates, which is what allows
published coordinate choices for A to differ by more than a unimodular
transformation without changing any output.

Facets of the cone over the columns come with primitive support
functions: rational functionals, nonnegative on the columns, vanishing
exactly on the facet, normalized to take value group Z on the column
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BinomHornError
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    column_hnf,
    frac_nullspace,
    frac_rank,
    frac_solve,
    int_rank,
)


# -- exact convex hull machinery ----------------------------------------------

def _affine_rank(points):
    if len(points) <= 1:
        return 0
    p0 = points[0]
    rows = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return frac_rank(rows)


def _facet_hyperplanes(points, dim):
    """Supporting hyperplanes of conv(points), full-dimensional in Q^dim.

    Returns a list of (normal, offset, facet_points) with normal . x <= offset
    for all points and equality exactly on facet_points.  Brute force over
    dim-subsets; fine at desk scale.
    """
    facets = {}
    for sub in combinations(range(len(points)), dim):
        base = points[sub[0]]
        rows = [[points[i][k] - base[k] for k in range(dim)] for i in sub[1:]]
        if rows and frac_rank(rows) != dim - 1:
            continue
        normals = frac_nullspace(rows, dim) if rows else frac_nullspace([[Fraction(0)] * dim], dim)
        if len(normals) != 1:
            continue
        nu = normals[0]
        off = sum(a * b for a, b in zip(nu, base))
        vals = [sum(a * b for a, b in zip(nu, p)) - off for p in points]
        if all(v <= 0 for v in vals):
            pass
        elif all(v >= 0 for v in vals):
            nu = tuple(-x for x in nu)
            off = -off
            vals = [-v for v in vals]
        else:
            continue
        members = tuple(i for i, v in enumerate(vals) if v == 0)
        facets[members] = (nu, off)
    return [(nu, off, members) for members, (nu, off) in sorted(facets.items())]


def _triangulate(points):
    """Deterministic exact triangulation of conv(points).

    points live in Q^k and affinely span dimension dim <= k.  Returns a
    list of (dim+1)-tuples of point indices.  Construction: fan from the
    lexicographically smallest vertex over recursively triangulated
    facets not containing it.
    """
    idx = sorted(range(len(points)), key=lambda i: points[i])
    pts = [tuple(Fraction(x) for x in points[i]) for i in range(len(points))]
    dim = _affine_rank([pts[i] for i in idx])
    return _triangulate_rec([pts[i] for i in idx], idx, dim)


def _triangulate_rec(pts, labels, dim):
    distinct = sorted(set(pts))
    if dim == 0:
        return [(labels[pts.index(distinct[0])],)]
    if dim == 1:
        # chain through every distinct point so collinear configuration
        # points subdivide the segment (finer cells mean finer exponent
        # lattices downstream); lexicographic order is monotone on a line
        chain = sorted(set(pts))
        first = {}
        for p, l in zip(pts, labels):
            if p not in first or l < first[p]:
                first[p] = l
        return sorted((first[a], first[b]) if first[a] < first[b]
                      else (first[b], first[a])
                      for a, b in zip(chain, chain[1:]))
    if len(distinct) == dim + 1:
        used = []
        seen = set()
        for p, l in zip(pts, labels):
            if p not in seen:
                seen.add(p)
                used.append(l)
        return [tuple(used)]
    # coordinates within the affine hull so facet enumeration is full-dim
    base = distinct[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in distinct[1:]]
    basis = _row_space_basis(diffs, dim)
    local = [_in_basis_coords(p, base, basis) for p in pts]
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


def _row_space_basis(rows, rank):
    basis = []
    for row in rows:
        trial = basis + [row]
        if frac_rank(trial) > len(basis):
            basis.append(row)
        if len(basis) == rank:
            break
    return basis


def _in_basis_coords(p, base, basis):
    diff = [x - y for x, y in zip(p, base)]
    cols = [[basis[j][i] for j in range(len(basis))] for i in range(len(diff))]
    sol = frac_solve(cols, diff)
    if sol is None:
        raise BinomHornError("point outside the affine hull of its polytope")
    return tuple(sol)


def _simplex_volume_normalized(simplex_points):
    """|det| of the edge matrix from the first vertex: r! x Euclidean."""
    p0 = simplex_points[0]
    rows = [[x - y for x, y in zip(p, p0)] for p in simplex_points[1:]]
    n = len(rows)
    det = Fraction(1)
    m = [list(map(Fraction, r)) for r in rows]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return abs(det)


# -- public results ------------------------------------------------------------

@dataclass(frozen=True)
class VolumeResult:
    value: int
    lattice: LatticeBasis  # basis of the column lattice used to normalize


def own_lattice_coordinates(A_J: IntMatrix):
    """Columns of A_J rewritten in a canonical basis of their own span.

    Returns (lattice, coords) where coords[j] is an integer vector of
    length rank(A_J).
    """
    cols = A_J.columns()
    h = column_hnf(A_J)
    basis_cols = [c for c in h.columns() if any(x != 0 for x in c)]
    lattice = LatticeBasis(A_J.nrows, basis_cols)
    coords = []
    for c in cols:
        k = lattice.coordinates(c)
        if k is None:
            raise BinomHornError("column outside its own lattice")
        coords.append(k)
    return lattice, coords


def normalized_volume(A_J: IntMatrix) -> VolumeResult:
    """Lattice-normalized volume of conv(0, columns of A_J).

    The normalization makes a lattice simplex of the column lattice have
    volume 1; the result is a nonnegative integer.
    """
    if A_J.ncols == 0:
        raise BinomHornError("degenerate point set: no columns")
    r = int_rank(A_J)
    if r == 0:
        raise BinomHornError("degenerate point set: rank 0")
    lattice, coords = own_lattice_coordinates(A_J)
    pts = [tuple(Fraction(0) for _ in range(r))] + \
          [tuple(Fraction(x) for x in k) for k in coords]
    total = Fraction(0)
    for simplex in _triangulate(pts):
        if len(simplex) != r + 1:
            raise BinomHornError("triangulation produced a degenerate cell")
        total += _simplex_volume_normalized([pts[i] for i in simplex])
    if total.denominator != 1:
        raise AssertionError("lattice volume must be an integer")
    return VolumeResult(value=int(total), lattice=lattice)


def cone_triangulation(A_J: IntMatrix):
    """Triangulation of conv(0, columns) using 0 as the apex of every cell.

    Returns a list of (column index tuple, cell volume) pairs; the volumes
    are normalized to the column lattice and sum to normalized_volume.
    Requires 0 to be a vertex, i.e. the columns must generate a pointed
    cone, which holds for every valid A.
    """
    if A_J.ncols == 0:
        raise BinomHornError("degenerate point set: no columns")
    r = int_rank(A_J)
    if r == 0:
        raise BinomHornError("degenerate point set: rank 0")
    _, coords = own_lattice_coordinates(A_J)
    origin = tuple(Fraction(0) for _ in range(r))
    pts = [origin] + [tuple(Fraction(x) for x in k) for k in coords]
    cells = []
    for nu, off, members in _facet_hyperplanes(pts, r):
        if 0 in members:
            continue
        sub_pts = [pts[i] for i in members]
        for simplex in _triangulate_rec(sub_pts, list(members), r - 1):
            cell = [origin] + [pts[i] for i in simplex]
            vol = _simplex_volume_normalized(cell)
            if vol == 0:
                raise BinomHornError("degenerate cone cell")
            cells.append((tuple(i - 1 for i in simplex), int(vol)))
    return sorted(cells)


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


def facet_support_functions(A_J: IntMatrix) -> list[SupportFunction]:
    """One primitive support function per facet of cone(columns of A_J).

    Requires the columns to span Q^d (full rank); lower rank is an error.
    """
    d, nj = A_J.nrows, A_J.ncols
    if nj == 0 or int_rank(A_J) != d:
        raise BinomHornError("support functions need a full-rank column set")
    cols = [tuple(Fraction(x) for x in A_J.column(j)) for j in range(nj)]
    lattice_gens = cols
    found = {}
    if d == 1:
        sign = 1 if cols[0][0] > 0 else -1
        nu = (Fraction(sign),)
        found[()] = nu
    else:
        for sub in combinations(range(nj), d - 1):
            rows = [list(cols[j]) for j in sub]
            if frac_rank(rows) != d - 1:
                continue
            normals = frac_nullspace(rows, d)
            if len(normals) != 1:
                continue
            nu = normals[0]
            vals = [sum(a * b for a, b in zip(nu, c)) for c in cols]
            if all(v >= 0 for v in vals):
                pass
            elif all(v <= 0 for v in vals):
                nu = tuple(-x for x in nu)
                vals = [-v for v in vals]
            else:
                continue
            members = tuple(j for j, v in enumerate(vals) if v == 0)
            found[members] = nu
    out = []
    for members, nu in sorted(found.items()):
        values = [sum(a * b for a, b in zip(nu, g)) for g in lattice_gens]
        gen = _rational_content(values)
        if gen == 0:
            raise BinomHornError("support function vanishes on the lattice")
        nu = tuple(x / gen for x in nu)
        out.append(SupportFunction(facet=members, nu=nu))
    return out


def _rational_content(values):
    """Positive generator of the subgroup of Q generated by the values."""
    from math import gcd, lcm
    nonzero = [Fraction(v) for v in values if v != 0]
    if not nonzero:
        return Fraction(0)
    den = 1
    for v in nonzero:
        den = lcm(den, v.denominator)
    g = 0
    for v in nonzero:
        g = gcd(g, abs(int(v * den)))
    return Fraction(g, den)


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
    supports = facet_support_functions(dec.A_J)
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
