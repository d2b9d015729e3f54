"""End-to-end acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality); each test prints a
single PASS line once its assertions hold, so `pytest -s` gives a
criterion-by-criterion transcript.
"""

from fractions import Fraction as F

from binomhorn import (
    Scalar,
    andean_report,
    bounded_atlas,
    component_polynomial,
    degree_cross_check,
    enumerate_decompositions,
    generic_rank,
    horn_classical_operators,
    horn_system_operators,
    make_horn_input,
    solution_basis,
    verify_annihilation,
)

import test_exact_linalg
import test_geometry
import test_solutions
import test_subgraph
from test_solutions import multinomial_poly


def test_criterion_1_erdelyi_rank(B_erd, A_erd):
    rep = generic_rank(make_horn_input(B_erd, A_erd))
    assert rep.total == 4
    parts = {s.rowset: s.product for s in rep.summands}
    assert parts == {(): 3, (2, 3): 1}
    print("\n[criterion 1] PASS: generic rank 4 = 3 (empty rowset) "
          "+ 1 (rows {2,3})")


def test_criterion_2_ds_rank(B_ds, A_ds):
    hi = make_horn_input(B_ds, A_ds)
    rep = generic_rank(hi)
    assert rep.total == 9
    s = rep.summands[0]
    assert (s.mu, s.g, s.vol) == (1, 3, 3) and len(rep.summands) == 1
    assert degree_cross_check(hi) == 9
    print("[criterion 2] PASS: rank 9 = 1*3*3 and degree cross-check 9")


def test_criterion_3_subgraph_atlas(M3):
    atlas = bounded_atlas(M3)
    assert atlas.mu == 4
    from itertools import product
    for n, comp in enumerate(atlas.bounded_components):
        assert set(comp.points) == {p for p in product(range(n + 1), repeat=3)
                                    if sum(p) == n}
        G = component_polynomial(M3, (n, 0, 0), comp)
        got = {e: c.as_rational() for e, c in G.terms.items()}
        assert got == multinomial_poly(n)
    print("[criterion 3] PASS: mu = 4 degree slices; component polynomials "
          "are (x+y+z)^n for n = 0..3")


def test_criterion_4_non_holonomicity(B_him, A_him, B_nh, A_nh):
    rep = generic_rank(make_horn_input(B_him, A_him))
    assert rep.infinite
    hi_nh = make_horn_input(B_nh, A_nh)
    ar = andean_report(enumerate_decompositions(hi_nh), hi_nh.d)
    assert len(ar.directions) == 1
    assert ar.directions[0].vectors == ((0, 1),)
    assert ar.generically_holonomic
    print("[criterion 4] PASS: full-dimensional Andean direction reported "
          "infinite; single direction beta_1 = 0 on the 4x2 system")


def test_criterion_5_gauss_operator(B_gauss):
    c1, c2, c3, c4 = F(2, 3), F(1, 5), F(4, 7), F(5, 11)
    op = horn_classical_operators(B_gauss, [c1, c2, c3, c4])[0]
    assert op.expanded_q() == {(0,): c1 * c4, (1,): c1 + c4, (2,): F(1)}
    assert op.expanded_p() == {(0,): c2 * c3, (1,): -(c2 + c3), (2,): F(1)}
    assert op.q_factors == (((F(1),), c1), ((F(1),), c4))
    assert op.p_factors == (((F(-1),), c2), ((F(-1),), c3))
    print("[criterion 5] PASS: operator is (theta+c1)(theta+c4) "
          "- z(-theta+c2)(-theta+c3) exactly")


def test_criterion_6_solution_basis(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    beta = (F(1, 2), F(1, 3))
    sols = solution_basis(hi, beta, T=6)
    assert len(sols) == 4
    ops = horn_system_operators(hi, beta)
    for s in sols:
        rep = verify_annihilation(ops, s.series)
        assert rep.ok
        for check in rep.checks:
            assert check.interior_residual == ()
    monos = [s for s in sols if s.support_rank == 0]
    assert len(monos) == 1
    mono = monos[0].series
    assert {mono.exponent(z): c for z, c in mono.terms.items()} == \
        {(F(1, 6), F(0), F(0), F(1, 9)): Scalar.one()}
    print("[criterion 6] PASS: 4 series at beta = (1/2, 1/3), all interior "
          "residuals empty, monomial x1^(1/6) x4^(1/9) exact")


def test_criterion_7_property_suites(M3, M_erd23):
    test_subgraph.test_dickson_equivalence_against_box_oracle()       # (a)+(e)
    test_solutions.test_component_polynomial_tree_independence(M3, M_erd23)  # (b)
    test_exact_linalg.test_index_dual_oracle_random()                 # (c)
    test_geometry.test_volume_unimodular_invariance()                 # (d)
    print("[criterion 7] PASS: Dickson boundedness vs box oracle (50 M), "
          "tree independence (10 trees/component), index dual oracle "
          "(100 matrices), volume unimodular invariance (50 transforms), "
          "up-closure in every explored box")
