"""Validation of the defining matrices of a binomial Horn system.

The input is an integer matrix B (n x m, full column rank) whose integer
column span must be mixed: every nonzero vector in it has a strictly
positive and a strictly negative entry.  A companion matrix A spans the
left kernel of B; its columns generate a pointed cone.  The kernel of A
is the rational column span of B, so by Gordan's alternative B is mixed
exactly when the columns of A are pointed, and a vanishing nonnegative
combination of them is an unmixed vector of the span.  One pointedness
test per input, decided exactly by Fourier-Motzkin elimination, settles
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import ConventionError
from .exact_linalg import (
    IntMatrix,
    int_rank,
    invariant_factors,
    left_kernel_basis,
    row_hnf,
)


# -- exact linear feasibility ----------------------------------------------

def _fm_feasible(rows, rhs):
    """Decide { x : rows[i] . x >= rhs[i] } != empty by Fourier-Motzkin.

    Returns (True, x) with a rational witness, or (False, lam) with a
    nonnegative rational Farkas certificate: sum lam_i rows[i] = 0 and
    sum lam_i rhs[i] > 0.
    """
    nvars = len(rows[0]) if rows else 0
    # each inequality carries its multiplier vector over the original rows
    ineqs = []
    for i, (row, c) in enumerate(zip(rows, rhs)):
        mult = [Fraction(0)] * len(rows)
        mult[i] = Fraction(1)
        ineqs.append(([Fraction(x) for x in row], Fraction(c), mult))

    stages = []  # per eliminated variable: the inequalities used for bounds
    for var in range(nvars - 1, -1, -1):
        pos, neg, zero = [], [], []
        for coeffs, c, mult in ineqs:
            if coeffs[var] > 0:
                pos.append((coeffs, c, mult))
            elif coeffs[var] < 0:
                neg.append((coeffs, c, mult))
            else:
                zero.append((coeffs, c, mult))
        stages.append((var, pos, neg))
        new = list(zero)
        for pc, pcst, pmult in pos:
            for nc, ncst, nmult in neg:
                a, b = pc[var], -nc[var]
                coeffs = [b * x + a * y for x, y in zip(pc, nc)]
                cst = b * pcst + a * ncst
                mult = [b * x + a * y for x, y in zip(pmult, nmult)]
                coeffs[var] = Fraction(0)
                if all(x == 0 for x in coeffs) and cst > 0:
                    return False, tuple(mult)
                new.append((coeffs, cst, mult))
        # drop duplicate inequalities up to positive scaling
        seen = {}
        for coeffs, cst, mult in new:
            scale = next((abs(x) for x in coeffs if x != 0), None)
            if scale is None:
                scale = abs(cst) if cst != 0 else Fraction(1)
            key = (tuple(x / scale for x in coeffs), cst / scale)
            if key not in seen:
                seen[key] = (coeffs, cst, mult)
        ineqs = list(seen.values())

    for coeffs, c, mult in ineqs:
        if c > 0:
            return False, tuple(mult)

    # feasible: back-substitute, picking any value between the bounds
    x = [Fraction(0)] * nvars
    for var, pos, neg in reversed(stages):
        lo, hi = None, None
        for coeffs, c, _ in pos:
            # coeffs[var] * x_var >= c - rest  with positive coefficient
            rest = sum(coeffs[j] * x[j] for j in range(nvars) if j != var)
            bound = (c - rest) / coeffs[var]
            lo = bound if lo is None or bound > lo else lo
        for coeffs, c, _ in neg:
            rest = sum(coeffs[j] * x[j] for j in range(nvars) if j != var)
            bound = (c - rest) / coeffs[var]
            hi = bound if hi is None or bound < hi else hi
        if lo is None and hi is None:
            x[var] = Fraction(0)
        elif lo is None:
            x[var] = hi
        elif hi is None:
            x[var] = lo
        else:
            x[var] = (lo + hi) / 2
    return True, tuple(x)


def _clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    from math import gcd, lcm
    den = 1
    for x in v:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


# -- validation reports ------------------------------------------------------


@dataclass(frozen=True)
class PointedReport:
    pointed: bool
    functional: tuple | None = None   # h with h . a_j > 0 for all j
    combination: tuple | None = None  # nonneg lambda with sum lambda_j a_j = 0


def is_pointed(A: IntMatrix) -> PointedReport:
    """Decide whether the columns of A lie in a common open half-space.

    True comes with a rational functional h (h . a_j > 0 for every column);
    false comes with a nontrivial nonnegative combination of columns
    summing to zero.
    """
    d, n = A.nrows, A.ncols
    if n == 0:
        return PointedReport(pointed=True, functional=tuple([Fraction(0)] * d))
    if any(all(A.data[i][j] == 0 for i in range(d)) for j in range(n)):
        j = next(j for j in range(n)
                 if all(A.data[i][j] == 0 for i in range(d)))
        lam = [Fraction(0)] * n
        lam[j] = Fraction(1)
        return PointedReport(pointed=False, combination=tuple(lam))
    rows = [[A.data[i][j] for i in range(d)] for j in range(n)]  # a_j as rows
    rhs = [1] * n
    feasible, witness = _fm_feasible(rows, rhs)
    if feasible:
        return PointedReport(pointed=True, functional=witness)
    return PointedReport(pointed=False, combination=witness)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    reason: str = ""
    certificate: tuple | None = None  # unmixed vector in the column span
    A: IntMatrix | None = None        # canonical A, when ok
    functional: tuple | None = None   # h with h . a_j > 0 on A, when ok


def validate_B(B: IntMatrix) -> ValidationReport:
    """Accept B iff rank(B) equals its column count and the rational column
    span meets the nonnegative orthant only in 0.

    The column span is the kernel of the canonical A (see compute_A), so
    by Gordan's alternative B is mixed exactly when the columns of A are
    pointed: one pointedness test decides it.  On acceptance the report
    carries A and its functional.  On rejection it carries a primitive
    integer certificate: a nonzero vector v >= 0 in the column span,
    namely the Farkas combination of the columns of A.
    """
    n, m = B.nrows, B.ncols
    if int_rank(B) != m:
        return ValidationReport(ok=False, reason=f"rank(B) < {m}")
    A = row_hnf(IntMatrix([list(v) for v in left_kernel_basis(B).vectors]))
    if m == n > 0:
        # a square B spans all of Q^n, and A has no rows to test
        cert = (1,) + (0,) * (n - 1)
    else:
        pr = is_pointed(A)
        if pr.pointed:
            return ValidationReport(ok=True, A=A, functional=pr.functional)
        cert = _clear_denominators(pr.combination)
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

    The rows span the full (saturated) left kernel, so the Smith form of
    the result has all invariant factors 1, and the output is a
    deterministic function of B.
    """
    return _accepted(validate_B(B)).A


@dataclass(frozen=True)
class HornInput:
    """A validated pair (B, A) with derived sizes and certificates."""

    B: IntMatrix
    A: IntMatrix
    n: int
    m: int
    d: int
    pointed_functional: tuple
    a_spans_standard_lattice: bool
    a_column_index: int  # index of ZA inside Z^d (1 when spanning)

    @cached_property
    def decompositions(self) -> tuple:
        """The block decompositions of B, enumerated once per input."""
        from .decomp import enumerate_decompositions  # decomp imports model
        return enumerate_decompositions(self)

    @cached_property
    def andean(self):
        """The Andean report of the decompositions, computed once per input."""
        from .decomp import andean_report
        return andean_report(self.decompositions, self.d)


def make_horn_input(B: IntMatrix, A: IntMatrix | None = None, *,
                    report: ValidationReport | None = None) -> HornInput:
    """Validate B (and A when supplied) and assemble a HornInput.

    ``report`` is validate_B(B) when the caller already has it; B is then
    not validated again.  A supplied A must satisfy A B = 0 and have full
    rank d = n - m; its columns are then pointed, because its kernel is the
    column span of the validated B.  Whether its columns span all of Z^d
    is recorded but not enforced: published systems are often written with
    an A whose column lattice has finite index in Z^d, and every quantity
    computed here is normalized against the relevant lattice rather than
    Z^d.
    """
    vr = _accepted(report if report is not None else validate_B(B))
    n, m = B.nrows, B.ncols
    d = n - m
    if A is None:
        # a basis of the saturated left kernel: its columns span Z^d
        A, functional = vr.A, vr.functional
        idx = 1
    else:
        if A.shape != (d, n):
            raise ConventionError(
                f"A has shape {A.shape}, expected {(d, n)}")
        if not A.mul(B).is_zero():
            raise ConventionError("A B != 0")
        if int_rank(A) != d:
            raise ConventionError(f"rank(A) != {d}")
        functional = is_pointed(A).functional
        idx = prod(invariant_factors(A))  # d of them: A has rank d
    return HornInput(B=B, A=A, n=n, m=m, d=d,
                     pointed_functional=functional,
                     a_spans_standard_lattice=idx == 1,
                     a_column_index=idx)
