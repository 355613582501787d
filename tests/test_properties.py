"""Property tests of the core routines against independent oracles: brute
force for the minimal-subset search, sympy for rank and determinants."""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coxtoric.exact import IntMat, det, rank  # noqa: E402
from coxtoric.incidence import _det  # noqa: E402
from coxtoric.monomials import minimal_antichain, minimal_subsets  # noqa: E402

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def matrices(elements, max_rows=5, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)) \
        .flatmap(lambda rc: st.lists(
            st.lists(elements, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0]))


@st.composite
def square_matrices(draw, elements):
    """Square matrices, half of them made singular by replacing the last
    row with a combination of the others."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(elements, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1,
                               max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                    for j in range(n)]
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          if isinstance(x, Fraction) else x for x in row]
                         for row in rows])


@settings(deadline=None)
@given(n=st.integers(0, 8), data=st.data())
def test_minimal_subsets_against_brute_force(n, data):
    every = [s for k in range(n + 1) for s in combinations(range(n), k)]
    accepted = data.draw(st.sets(st.sampled_from(every)))
    found = minimal_subsets(n, lambda s: s in accepted)
    assert tuple(found) == minimal_antichain(accepted)


@settings(deadline=None)
@given(matrices(rationals))
def test_rank_against_sympy(rows):
    assert rank(rows) == to_sympy(rows).rank()


@settings(deadline=None)
@given(square_matrices(st.integers(-5, 5)))
def test_det_against_sympy(rows):
    assert det(IntMat.from_rows(rows)) == to_sympy(rows).det()


@settings(deadline=None)
@given(square_matrices(rationals))
def test_incidence_det_zero_test_and_sign_against_sympy(rows):
    expected = to_sympy(rows).det()
    got = _det(rows)
    assert (got == 0) == (expected == 0)
    assert (got > 0) == (expected > 0)
