from fractions import Fraction
from pathlib import Path

import pytest

from binomhorn import (
    IntMatrix,
    LatticeBasis,
    SizeLimitError,
    andean_report,
    decomp,
    degree_cross_check,
    enumerate_decompositions,
    generic_rank,
    kernel_basis,
    make_horn_input,
    solution_basis,
)
from binomhorn.cli import main
from linalg_reference import bareiss_det, lattice_coordinates, smith_index

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_erdelyi_decompositions(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    decs = enumerate_decompositions(hi)
    assert [d.rowset_Jbar for d in decs] == [(), (1, 2)]
    assert all(d.is_toral for d in decs)
    d23 = decs[1]
    assert d23.M == IntMatrix([[-2, 1], [1, -2]])
    assert d23.J == (0, 3)
    assert d23.B_J.shape == (2, 0)
    assert d23.label == "Jbar={2,3}"


def test_nonholonomic_decompositions(B_nh, A_nh):
    hi = make_horn_input(B_nh, A_nh)
    decs = enumerate_decompositions(hi)
    assert [d.rowset_Jbar for d in decs] == [(), (0, 1)]
    assert decs[0].is_toral
    d12 = decs[1]
    assert d12.klass == "andean"
    assert d12.M == IntMatrix([[1, 1], [-1, -1]])
    assert bareiss_det(d12.M) == 0


def test_himalayan_has_andean_block(B_him, A_him):
    hi = make_horn_input(B_him, A_him)
    decs = enumerate_decompositions(hi)
    d12 = next(d for d in decs if d.rowset_Jbar == (0, 1))
    assert d12.klass == "andean"
    assert d12.p == 3 and d12.q == 2
    assert d12.J == (2, 3, 4)


def test_empty_rowset_always_present_and_toral(B_erd, B_nh, B_ds, B_gauss):
    for B in (B_erd, B_nh, B_ds, B_gauss):
        hi = make_horn_input(B)
        decs = enumerate_decompositions(hi)
        first = decs[0]
        assert first.rowset_Jbar == ()
        assert first.is_toral
        assert first.B_J == B


def test_toral_invariants(B_erd, A_erd, B_ds, A_ds, B_nh, A_nh):
    for B, A in ((B_erd, A_erd), (B_ds, A_ds), (B_nh, A_nh)):
        hi = make_horn_input(B, A)
        for dec in enumerate_decompositions(hi):
            ker = kernel_basis(dec.A_J)
            # sat(Z B_J) always sits inside the kernel of A_J ...
            for v in dec.L_basis.vectors:
                assert lattice_coordinates(ker.vectors, v) is not None
            # ... with equality exactly in the toral case
            assert (dec.L_basis == ker) == dec.is_toral
            assert dec.g == smith_index(dec.B_J)
            if dec.is_toral:
                assert dec.q == dec.p
                if dec.q:
                    assert bareiss_det(dec.M) != 0


def test_zero_block_structure(B_ds, A_ds):
    # the block on (Jbar x complement of colset) is identically zero
    hi = make_horn_input(B_ds, A_ds)
    for dec in enumerate_decompositions(hi):
        other = [k for k in range(hi.m) if k not in dec.colset_M]
        for i in dec.rowset_Jbar:
            for k in other:
                assert hi.B.data[i][k] == 0


def test_andean_report_nh(B_nh, A_nh):
    hi = make_horn_input(B_nh, A_nh)
    rep = andean_report(enumerate_decompositions(hi), hi.d)
    assert rep.generically_holonomic
    assert len(rep.directions) == 1
    assert rep.directions[0].vectors == ((0, 1),)


def test_andean_report_him(B_him, A_him):
    hi = make_horn_input(B_him, A_him)
    rep = andean_report(enumerate_decompositions(hi), hi.d)
    assert not rep.generically_holonomic
    assert any(len(d.vectors) == hi.d for d in rep.directions)


def test_andean_report_erd(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    rep = andean_report(enumerate_decompositions(hi), hi.d)
    assert rep.directions == ()
    assert rep.generically_holonomic


def test_size_limit():
    hi = make_horn_input(IntMatrix([[1], [-1]]))
    big = IntMatrix([[1] + [0] * 30, [-1] + [0] * 30])
    # fabricate an oversized input by bypassing validation
    from binomhorn.model import HornInput
    fake = HornInput(B=IntMatrix([[1 if i == 0 else -1 if i == 1 else 0]
                                  for i in range(31)]),
                     A=IntMatrix.zero(30, 31), n=31, m=1, d=30,
                     pointed_functional=(), a_column_index=1, g=1,
                     a_lattice=LatticeBasis(30, IntMatrix.identity(30).data))
    with pytest.raises(SizeLimitError):
        enumerate_decompositions(fake)


@pytest.fixture
def count_enumerations(monkeypatch):
    calls = []
    inner = decomp.enumerate_decompositions

    def counting(hi):
        calls.append(hi)
        return inner(hi)

    monkeypatch.setattr(decomp, "enumerate_decompositions", counting)
    return calls


def test_one_enumeration_per_input(count_enumerations, B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    assert generic_rank(hi).total == 4
    assert degree_cross_check(hi) == 4
    sols = solution_basis(hi, (Fraction(1, 2), Fraction(1, 3)), T=2)
    assert len(sols) == 4
    assert count_enumerations == [hi]
    assert isinstance(hi.decompositions, tuple)
    assert hi.decompositions == enumerate_decompositions(hi)
    # the enumeration is kept on the instance, not anywhere shared
    count_enumerations.clear()
    for _ in range(2):
        generic_rank(make_horn_input(B_erd, A_erd))
    assert len(count_enumerations) == 2


@pytest.mark.parametrize("command", ["rank", "decompose"])
def test_cli_enumerates_once(count_enumerations, capsys, command):
    assert main([command, "--B", str(FIXTURES / "erdelyi.mat")]) == 0
    assert capsys.readouterr().out
    assert len(count_enumerations) == 1
