import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from coxtoric.exact import (
    IntMat,
    det,
    dot,
    eliminate,
    hermite_normal_form,
    int_row,
    kernel_lattice,
    nullspace,
    pivot,
    rank,
    rational_solve,
    rref,
)


def assert_hnf_shape(h: IntMat) -> None:
    """Check the defining properties of row-style HNF: echelon with strictly
    increasing pivot columns, positive pivots, entries above each pivot
    reduced into [0, pivot), zero rows at the bottom."""
    last_pivot = -1
    seen_zero_row = False
    for i in range(h.rows):
        row = h.row(i)
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row below a zero row"
        p = nz[0]
        assert p > last_pivot, "pivot columns not strictly increasing"
        last_pivot = p
        assert row[p] > 0, "pivot not positive"
        for k in range(i):
            above = h.row(k)[p]
            assert 0 <= above < row[p], "entry above pivot not reduced"


def maximal_minor_gcd(m: IntMat) -> int:
    """The gcd of the maximal minors of a matrix with no more rows than
    columns: 1 exactly when its rows extend to a basis of Z^cols, that is
    when they span a saturated lattice."""
    rows = m.to_rows()
    return gcd(*(det(IntMat.from_rows([[r[j] for j in cols] for r in rows]))
                 for cols in combinations(range(m.cols), m.rows)))


def fraction_rref(rows):
    """Reference reduced row echelon form over Q by Gauss-Jordan steps on
    Fractions (exact.pivot), the elimination rref used before it went
    fraction-free."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        rk = len(pivots)
        if rk == len(mat):
            break
        piv = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
        if piv is not None:
            mat[rk], mat[piv] = mat[piv], mat[rk]
            pivot(mat, rk, c)
            pivots.append(c)
    return mat[:len(pivots)], pivots


def test_maximal_minor_gcd_known_values():
    assert maximal_minor_gcd(IntMat.identity(3)) == 1
    assert maximal_minor_gcd(IntMat.from_rows([[2, 4, 6]])) == 2
    assert maximal_minor_gcd(IntMat.from_rows([[1, -1, 0], [0, 1, -1]])) == 1
    assert maximal_minor_gcd(IntMat.from_rows([[2, 0, 0], [0, 3, 0]])) == 6
    assert maximal_minor_gcd(IntMat.from_rows([[1, 2], [2, 4]])) == 0


def test_intmat_shape_validation():
    with pytest.raises(ValueError):
        IntMat(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMat.from_rows([[1, 2], [3]])


@pytest.mark.parametrize("rows", [[[1.7, True]], [[1, 2], [3, 1.0]],
                                  [[True]], [[Fraction(1)]]])
def test_intmat_rejects_non_integer_entries(rows):
    with pytest.raises(ValueError, match="must be integers"):
        IntMat.from_rows(rows)


@pytest.mark.parametrize("entries", [(True, 1), (1, 1.5), (Fraction(1), 0)])
def test_intmat_constructor_rejects_non_integer_entries(entries):
    # such a matrix would reach det, which returns a 1 x 1 entry as it is
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        IntMat(1, 2, entries)


def test_hnf_identity():
    m = IntMat.identity(3)
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == IntMat.identity(3)


def test_hnf_permutation():
    m = IntMat.from_rows([[0, 1], [1, 0]])
    h, u = hermite_normal_form(m)
    assert h == IntMat.identity(2)
    assert u.mul(m) == h
    assert abs(det(u)) == 1


def test_hnf_small_example():
    m = IntMat.from_rows([[2, 4], [1, 3]])
    h, u = hermite_normal_form(m)
    assert h == IntMat.from_rows([[1, 1], [0, 2]])
    assert u.mul(m) == h
    assert abs(det(u)) == 1
    assert_hnf_shape(h)


def test_hnf_random_properties():
    rng = random.Random(20260818)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 7)
        m = IntMat.from_rows(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        h, u = hermite_normal_form(m)
        assert u.mul(m) == h
        assert abs(det(u)) == 1
        assert_hnf_shape(h)


def test_kernel_all_ones():
    m = IntMat.from_rows([[1, 1, 1]])
    k = kernel_lattice(m)
    assert k.rows == 2
    # same lattice as the textbook basis (1,-1,0), (0,1,-1)
    expected = IntMat.from_rows([[1, -1, 0], [0, 1, -1]])
    assert hermite_normal_form(k)[0] == hermite_normal_form(expected)[0]
    assert m.mul(k.transpose()).is_zero()


def test_kernel_of_identity_is_trivial():
    k = kernel_lattice(IntMat.identity(2))
    assert k.rows == 0
    assert k.cols == 2


def test_kernel_random_properties():
    rng = random.Random(4096)
    for _ in range(50):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 6)
        m = IntMat.from_rows(
            [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        k = kernel_lattice(m)
        assert m.mul(k.transpose()).is_zero()
        assert rank(m.to_rows()) + k.rows == nc
        # saturated: the basis extends to a basis of Z^nc
        assert maximal_minor_gcd(k) == 1


def test_det_known_values():
    assert det(IntMat.from_rows([[2, 4], [1, 3]])) == 2
    assert det(IntMat.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3
    assert det(IntMat.from_rows([[1, 2], [2, 4]])) == 0
    assert det(IntMat.identity(4)) == 1


def test_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(rows) == 2
    ns = nullspace(rows)
    assert len(ns) == 1
    for row in rows:
        assert dot(row, ns[0]) == 0


def test_rref_pivots():
    red, pivots = rref([[0, 2, 4], [1, 1, 1]])
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


@pytest.mark.parametrize("fn", [rref, rank, nullspace])
@pytest.mark.parametrize("rows", [
    [[0.1, 1]],
    [[True, 2]],
    [[1, 2], [Fraction(1, 2), 1.5]],
    [[1, 0], [0, False]],
])
def test_rref_rank_nullspace_reject_floats_and_bools(fn, rows):
    # 0.1 was read as its binary expansion 3602879701896397/2^55, and True
    # as 1
    with pytest.raises(ValueError, match="integers or Fractions"):
        fn(rows)


@pytest.mark.parametrize("normal, offset", [
    ([0.1, True], 1.5),
    ([0.1, 1], 0),
    ([1, True], 0),
    ([1, 1], 0.5),
    ([Fraction(1, 2), 1], False),
])
def test_int_row_rejects_floats_and_bools(normal, offset):
    # a row [normal | offset] of the LP test oracles is built by int_row,
    # which must reject 0.5 instead of reading it as Fraction(1, 2)
    with pytest.raises(ValueError, match="integers or Fractions"):
        int_row([*normal, offset])


def test_eliminate_clears_column_with_positive_factor():
    # rows (a, b) read a.(x, y) >= b. Substituting x = (4y - 2) / 6 from
    # -6x + 4y = 2 into 3x + 2y >= 5 leaves 4y >= 6, kept primitive as
    # 2y >= 3; a negative factor on the target would turn it into <=
    target, source = [3, 2, 5], [-6, 4, 2]
    assert eliminate(target, source, 0) == [0, 2, 3]
    assert eliminate([6, 4, 10], source, 0) == [0, 2, 3]
    # x = 1/2 from 6x = 3 into -3x + y >= 0 leaves y >= 3/2
    assert eliminate([-3, 1, 0], [6, 0, 3], 0) == [0, 2, 3]
    assert eliminate([-3, 1, 0], [-6, 0, -3], 0) == [0, 2, 3]
    # the input rows are left as they were
    assert target == [3, 2, 5] and source == [-6, 4, 2]


def test_pivot_is_one_gauss_jordan_step():
    mat = [[Fraction(x) for x in row]
           for row in ([2, 4, 0, 6], [1, 3, 5, 0], [0, 7, 1, 1])]
    pivot(mat, 0, 0)
    assert mat == [[1, 2, 0, 3], [0, 1, 5, -3], [0, 7, 1, 1]]
    pivot(mat, 2, 1)
    assert mat[2] == [0, 1, Fraction(1, 7), Fraction(1, 7)]
    assert [row[1] for row in mat] == [0, 0, 1]
    assert mat[0] == [1, 0, Fraction(-2, 7), Fraction(19, 7)]


def test_rational_solve():
    rows = [[2, 0], [0, 3]]
    x = rational_solve(rows, [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    assert rational_solve([[1, 1], [1, 1]], [0, 1]) is None
    assert rational_solve([[1, 1], [2, 2]], [3, 6]) is not None
