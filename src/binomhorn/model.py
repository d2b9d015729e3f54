"""Validation of the defining matrices of a binomial Horn system.

The input is an integer matrix B (n x m, full column rank) whose integer
column span must be mixed: every nonzero vector in it has a strictly
positive and a strictly negative entry.  A companion matrix A spans the
left kernel of B; its columns generate a pointed cone.  The kernel of A
is the rational column span of B, so by Gordan's alternative B is mixed
exactly when the columns of A are pointed, and a vanishing nonnegative
combination of them is an unmixed vector of the span.  One linear
program per input settles both: maximize sum_j lam_j over A lam = A 1,
lam >= 0, solved exactly by a two-phase simplex with Bland's rule on a
fraction-free integer tableau.  It is bounded exactly when A is pointed,
and its optimal multipliers are then the witness functional; otherwise
its unbounded ray is the vanishing combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .errors import ConventionError
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    column_hnf,
    echelon_kernel,
    frac_solve,
)


def _clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


# -- pointedness by one linear program ----------------------------------------


@dataclass(frozen=True)
class PointedReport:
    """The verdict of ``is_pointed`` and its certificate.

    Pointed columns come with the optimal multipliers h of the linear
    program: h . a_j >= 1 on every column, with equality on the basic
    columns of the optimum.  Otherwise the primitive integer ray mu of
    the program comes instead: mu >= 0, mu != 0 and sum_j mu_j a_j = 0.
    """

    pointed: bool
    functional: tuple | None = None   # h with h . a_j >= 1 for all j
    combination: tuple | None = None  # integer mu >= 0 with A mu = 0


def is_pointed(A: IntMatrix) -> PointedReport:
    """Decide whether the columns of A lie in a common open half-space.

    Solves max sum_j lam_j subject to A lam = A 1 and lam >= 0.  The
    program is feasible (lam = 1), and it is bounded exactly when A is
    pointed: any h with h . a_j >= 1 bounds the sum by h . A 1, and a
    vanishing nonnegative combination mu != 0 is a ray along which the
    sum grows.  Its dual is min sum_j h . a_j subject to h . a_j >= 1,
    so the optimal multipliers are the witness functional.

    The simplex runs in two phases, on artificial variables first, with
    Bland's rule: the least improving column enters, and a tie in the
    ratio test leaves by the least basic index, so no basis repeats.
    The tableau holds D times the rational tableau, D the determinant
    of the basis, and a pivot p takes Bareiss's exact step
    (p row - f pivot_row) // D, as ``rref`` does.  An artificial that
    no pivot drives out after phase 1 sits on a zero row, where the
    rows of A are dependent.
    """
    d, n = A.shape
    signs = [-1 if sum(a) < 0 else 1 for a in A.data]
    # rows s_i [a_i | e_i | b_i] with b = A 1 and s_i = +-1 making b_i >= 0:
    # the artificial columns n .. n + d - 1 form the first basis
    t = [[s * x for x in a] + [int(k == i) for k in range(d)] + [s * sum(a)]
         for i, (a, s) in enumerate(zip(A.data, signs))]
    # objective rows of z_j - c_j: phase 1 maximizes minus the sum of the
    # artificials, phase 2 the sum of the lam_j
    t.append([0 if n <= k < n + d else -sum(row[k] for row in t)
              for k in range(n + d + 1)])
    t.append([-1] * n + [0] * (d + 1))
    basis = list(range(n, n + d))
    D = 1

    def pivot(r, c):
        nonlocal t, D
        prow = t[r]
        p = prow[c]
        t = [row if i == r else [(p * x - row[c] * y) // D
                                 for x, y in zip(row, prow)]
             for i, row in enumerate(t)]
        basis[r], D = c, p

    def simplex(z):
        """Pivot to the optimum of objective row z; returns the entering
        column of an unbounded ray, or None."""
        while True:
            c = next((j for j in range(n) if t[z][j] < 0), None)
            if c is None:
                return None
            rows = [i for i in range(d) if t[i][c] > 0]
            if not rows:
                return c
            # the least ratio t_i / t_ic: the denominators are positive,
            # so a / b < a' / b' exactly when a b' < a' b
            best = rows[0]
            for i in rows[1:]:
                lhs, rhs = t[i][-1] * t[best][c], t[best][-1] * t[i][c]
                if lhs < rhs or lhs == rhs and basis[i] < basis[best]:
                    best = i
            pivot(best, c)

    # only the lam_j enter, so an artificial that leaves stays out
    simplex(d)  # lam = 1 is feasible, so the artificials end at 0
    for r in [r for r in range(d) if basis[r] >= n]:
        c = next((j for j in range(n) if t[r][j]), None)
        if c is not None:
            if t[r][c] < 0:
                t[r] = [-x for x in t[r]]  # its right-hand side is 0
            pivot(r, c)
    ray = simplex(d + 1)
    if ray is None:
        z = t[d + 1]
        return PointedReport(pointed=True, functional=tuple(
            Fraction(s * z[n + i], D) for i, s in enumerate(signs)))
    mu = [0] * n
    mu[ray] = D
    for i, j in enumerate(basis):
        if j < n:
            mu[j] = -t[i][ray]
    return PointedReport(pointed=False, combination=_clear_denominators(mu))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str = ""
    certificate: tuple | None = None  # unmixed vector in the column span
    A: IntMatrix | None = None        # canonical A, when ok
    functional: tuple | None = None   # h with h . a_j >= 1 on A, when ok
    g: int | None = None              # [sat ZB : ZB], when ok


def validate_B(B: IntMatrix) -> ValidationReport:
    """Accept B iff rank(B) equals its column count and the rational column
    span meets the nonnegative orthant only in 0.

    The rank is read off the left kernel {y : y B = 0}, computed once
    for the canonical A by the gcd elimination of [B^T; I]
    (``echelon_kernel``): it has rank n - rank(B), so rank(B) < m
    exactly when it has more than n - m vectors.  The same elimination
    gives g = [sat ZB : ZB], the product of its pivots, which is the
    gcd of the maximal minors of B, so no Hermite form of B is needed
    for it.  The column span is the kernel of the canonical A (see
    compute_A), so by Gordan's alternative B is mixed exactly when the
    columns of A are pointed: one ``is_pointed`` program decides it.
    On acceptance the report carries A, its functional and g.  On
    rejection it carries a primitive integer certificate: a nonzero
    vector v >= 0 in the column span, namely the unbounded ray of that
    program.
    """
    n, m = B.nrows, B.ncols
    cols, g = echelon_kernel(B.transpose())
    kernel = LatticeBasis(n, cols)
    if kernel.rank != n - m:
        return ValidationReport(ok=False, reason=f"rank(B) < {m}")
    # LatticeBasis vectors are already the rows of a row Hermite form
    A = IntMatrix._of(kernel.vectors, n)
    if m == n > 0:
        # a square B spans all of Q^n, and A has no rows to test
        cert = (1,) + (0,) * (n - 1)
    else:
        pr = is_pointed(A)
        if pr.pointed:
            return ValidationReport(ok=True, A=A, functional=pr.functional,
                                    g=g)
        cert = pr.combination
    return ValidationReport(
        ok=False,
        reason=f"column span contains the unmixed vector {list(cert)}",
        certificate=cert)


def _accepted(report: ValidationReport) -> ValidationReport:
    if not report.ok:
        raise ConventionError(f"B rejected: {report.reason}",
                              certificate=report.certificate)
    return report


def compute_A(B: IntMatrix) -> IntMatrix:
    """Canonical A for a validated B: the row Hermite basis of the left
    kernel {y : y B = 0}.

    The rows span the full (saturated) left kernel, so the columns of the
    result have column index 1 in Z^d, and the output is a deterministic
    function of B.
    """
    return _accepted(validate_B(B)).A


@dataclass(frozen=True)
class HornInput:
    """A validated pair (B, A) with derived sizes and certificates.

    ``g`` is [sat ZB : ZB], read off validation's kernel elimination
    (``validate_B``), and ``a_lattice`` the column Hermite basis of ZA:
    the standard basis of Z^d for the canonical A, ``column_hnf(T)``
    for a supplied A = T A_c.  They are the lattice index and the cone
    lattice of the empty decomposition, whose B_J is B and whose A_J is
    A, so no decomposition computes them again.
    """

    B: IntMatrix
    A: IntMatrix
    n: int
    m: int
    d: int
    pointed_functional: tuple
    a_column_index: int  # index of ZA inside Z^d (1 when spanning)
    g: int
    a_lattice: LatticeBasis

    @property
    def a_spans_standard_lattice(self) -> bool:
        return self.a_column_index == 1

    @cached_property
    def _walk(self):
        """The walk over the decompositions of B, drawn lazily and kept:
        the one walk that the verdict and the enumeration share."""
        from .decomp import _walk  # decomp imports model
        return _walk(self)

    @cached_property
    def decompositions(self) -> tuple:
        """The block decompositions of B, enumerated once per input."""
        from .decomp import enumerate_decompositions
        return enumerate_decompositions(self)

    @cached_property
    def andean(self):
        """The Andean report, built once per input.  Its verdict reads
        the walk only up to the first Andean block with rank(M) = q, the
        certificate of an infinite rank, so a non-holonomic input gets
        it without enumerating; its directions read every block."""
        from .decomp import andean_report
        return andean_report(self._walk, self.d)


def make_horn_input(B: IntMatrix, A: IntMatrix | None = None, *,
                    report: ValidationReport | None = None) -> HornInput:
    """Validate B (and A when supplied) and assemble a HornInput.

    ``report`` is validate_B(B) when the caller already has it; B is then
    not validated again.  A supplied A must satisfy A B = 0 and have full
    rank d = n - m; its columns are then pointed, because its kernel is the
    column span of the validated B, and its functional is the one h with
    h A equal to the canonical functional times the canonical A, so no
    second program runs.  The checks A B = 0 and rank(A) = d, h and the
    index of ZA in Z^d all read the coordinates T of the rows of A in
    the canonical A's Hermite basis, found by substitution: a row without
    them is off the left kernel, ZA = ZT, so one column Hermite form of
    T gives rank(A), the index (the product of its pivots) and the
    lattice ``a_lattice``, and h solves h T = h_c, a d x d system.  Whether its
    columns span all of Z^d is recorded but not enforced: published
    systems are often written with an A whose column lattice has finite
    index in Z^d, and every quantity computed here is normalized against
    the relevant lattice rather than Z^d.
    """
    vr = _accepted(report if report is not None else validate_B(B))
    n, m = B.nrows, B.ncols
    d = n - m
    if A is None:
        # a basis of the saturated left kernel: its columns span Z^d
        A, functional = vr.A, vr.functional
        idx = 1
        lattice = LatticeBasis._of_hermite(d, IntMatrix.identity(d).data)
    else:
        if A.shape != (d, n):
            raise ConventionError(
                f"A has shape {A.shape}, expected {(d, n)}")
        # the rows of vr.A are a Hermite basis of the saturated left
        # kernel of B, so a row of A has coordinates in it exactly when
        # it lies in the left kernel, and then A = T vr.A
        kernel = LatticeBasis._of_hermite(n, vr.A.data)
        T = [kernel.coordinates(row) for row in A.data]
        if None in T:
            raise ConventionError("A B != 0")
        T = IntMatrix._of(tuple(T), d)
        # the columns of vr.A span Z^d, so ZA = ZT: its column Hermite
        # form has d columns exactly when rank(A) = d, and then
        # [Z^d : ZA] = |det T| is the product of its pivots; and
        # h A = h_c vr.A for the one h with h T = h_c
        H = column_hnf(T)
        if H.ncols != d:
            raise ConventionError(f"rank(A) != {d}")
        lattice = LatticeBasis._of_hermite(d, H.columns())
        idx = prod(H.data[i][i] for i in range(d))
        functional = frac_solve(T.columns(), vr.functional)
    return HornInput(B=B, A=A, n=n, m=m, d=d,
                     pointed_functional=functional, a_column_index=idx,
                     g=vr.g, a_lattice=lattice)
