"""Whole-pipeline properties on the published fixtures.

Each property runs the full chain: decomposition, atlas, very-generic
screen, solution basis and verification, on parameters drawn by
hypothesis.
"""

from fractions import Fraction as F
from math import lcm

import pytest

from binomhorn import (
    bounded_atlas,
    generic_rank,
    horn_system_operators,
    make_horn_input,
    solution_basis,
    verify_annihilation,
    very_generic_check,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.mark.parametrize("fixture", ["erdelyi", "ds06", "gauss"])
def test_basis_has_generic_rank_and_verifies(fixture, B_erd, A_erd, B_ds,
                                             B_gauss):
    # at a very generic beta with entries p/5 and r/7 and the cyclotomic
    # order lcm(g) of the toral blocks, the basis has generic-rank many
    # members and every operator leaves an empty interior residual
    B, A = {"erdelyi": (B_erd, A_erd), "ds06": (B_ds, None),
            "gauss": (B_gauss, None)}[fixture]
    hi = make_horn_input(B, A)
    torals = [(dec, bounded_atlas(dec.M))
              for dec in hi.decompositions if dec.is_toral]
    field_root = lcm(*(dec.g for dec, _ in torals))
    rank = generic_rank(hi).total
    dens = [(5, 7)[i % 2] for i in range(hi.d)]

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True)
    @hypothesis.given(st.tuples(*(st.integers(1, 2 * q - 1)
                                  .filter(lambda p, q=q: p % q)
                                  for q in dens)))
    def prop(nums):
        beta = tuple(F(p, q) for p, q in zip(nums, dens))
        hypothesis.assume(all(very_generic_check(beta, dec, atlas).ok
                              for dec, atlas in torals))
        sols = solution_basis(hi, beta, T=8, field_root=field_root)
        assert len(sols) == rank
        ops = horn_system_operators(hi, beta, field_order=field_root)
        for sol in sols:
            for check in verify_annihilation(ops, sol.series).checks:
                assert check.interior_residual == (), (beta, sol.gamma,
                                                       check.operator)

    prop()
