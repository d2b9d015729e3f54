"""Exact combinatorics and truncated Puiseux solution bases for binomial
Horn hypergeometric systems defined by an integer matrix B."""

from .cyclotomic import Scalar, cyclotomic_polynomial
from .decomp import AndeanReport, Decomposition, andean_report, enumerate_decompositions
from .errors import (
    BinomHornError,
    CapExceededError,
    ConventionError,
    InfiniteRankError,
    ResonanceError,
    SizeLimitError,
    VeryGenericError,
)
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    column_hnf,
    int_rank,
    kernel_basis,
    left_kernel_basis,
    row_hnf,
)
from .geometry import Cone, SupportFunction, very_generic_check
from .model import (
    HornInput,
    compute_A,
    is_pointed,
    make_horn_input,
    validate_B,
)
from .ranks import RankReport, RankSummand, degree_cross_check, generic_rank
from .series import (
    BinomialOp,
    EulerOp,
    PuiseuxSeries,
    Support,
    ThetaOp,
    Truncation,
    apply_operator,
    euler_operators,
    horn_classical_operators,
    horn_system_operators,
    lattice_binomials,
)
from .solutions import (
    Solution,
    component_characters,
    component_polynomial,
    solution_basis,
    verify_annihilation,
)
from .subgraph import Component, SubgraphAtlas, bounded_atlas

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
