"""Property tests of the core routines against independent oracles: brute
force over column subsets for the Caratheodory supports S(w), enumeration
of the graded pieces for their minimal supports, sympy for rank, rref,
determinants and Hermite normal forms, the gcd of maximal minors for the
saturation check of gale_dual, Fourier-Motzkin elimination for lp_feasible
(also on the offset-1 form of homogeneous strict systems), the Fraction
Gauss-Jordan lp_feasible for its integer witness, the LP
lambda >= 0, G lambda = target for cone_member, RationalCone.contains and
the separating functionals, double description for chambers and fan
validity, the former greedy LP pass for the chamber's canonical rows (the
same rows on full-dimensional chambers, the same cone on the others) with
separating_functional for the irredundancy of each row, the heft LP
for the positivity verdict of derive_heft, rank and rational_solve for
subspace membership, coordinates and intersections, the Fraction path for
the integer fast paths of primitive, dot and generators_to_hrep, the
former pair LPs for the pair separators of validate_fan and for the
vertex replay that certifies complete projective fans, the kernel of each
wall's rays for the facet normals of its two cones, and an uncached
search under another heft for the cached radical layers, the enumerator's
first solution for the vertex decision of each member of S(d), the former
set-based union search for the bitmask one, the rank of the generators
for the span rank and pointedness read off RationalCone's H-form, the
same system without its repeated rows for lp_feasible, and the vertex
replay and the ample class of is_projective for the support function
read off the fibre vertices, the former H-form path (the equalities, the
Fraction rank of the stacked normals and Cone.facets) for the independence test, the
pointedness witness and the "drop one ray" facets of simplicial cones,
Fraction elimination for exact.rank, all pairs for the antichain check
of SquarefreeIdeal, dot products for the tight-row bitmasks of the
double description and the tight rays of Cone.facets, each command's
argparse parser for the namespaces the CLI reads off its command table,
the former regular expressions for cli.integer and the signed classes
joined to their options, and the former row-by-row replay for the
one-pass period replay of monomials._period."""

import contextlib
import io
import json
import math
import re
from fractions import Fraction
from itertools import combinations, permutations
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.matrices import normalforms  # noqa: E402

from coxtoric.chambers import (chamber_of, effective_cone,  # noqa: E402
                               spans_extremal_ray)
from coxtoric.cones import (RationalCone, _fibre_kernel,  # noqa: E402
                            _fibre_rays, cone_member, double_description,
                            generators_to_hrep, primitive,
                            separating_functional)
from coxtoric import cli, grading, linprog, monomials  # noqa: E402
from coxtoric.delpezzo import (ample_ideal,  # noqa: E402
                               anticanonical_ideal, reproduce_paper_report)
from coxtoric.exact import (IntMat, det, dot, eliminate,  # noqa: E402
                            hermite_normal_form, int_row, kernel_lattice,
                            montante, nullspace, rank, rational_solve,
                            rref)
from coxtoric.fans import (Fan, _facet_pairing,  # noqa: E402
                           _vertex_replay, fan_from_irrelevant,
                           fan_report, fibre_support, is_complete,
                           is_projective, is_simplicial, validate_fan)
from coxtoric.grading import DegreeMatrix, delpezzo4, gale_dual  # noqa: E402
from coxtoric.incidence import (ProjPoint, _det, intersect,  # noqa: E402
                                subspace_from_points)
from coxtoric.linprog import lp_feasible  # noqa: E402
from coxtoric.monomials import (SquarefreeIdeal,  # noqa: E402
                                caratheodory_supports, derive_heft,
                                fibre_vertices, irrelevant_radical,
                                minimal_supports_of_degree,
                                monomials_of_degree, radical_of_monomials)
from conftest import fresh_class_cache  # noqa: E402
from test_chambers import chamber_oracle, greedy_lp_hrep  # noqa: E402
from test_exact import fraction_rref, maximal_minor_gcd  # noqa: E402
from test_fans import (CUBE_FACES, CUBE_RAYS, DOUBLY_WOUND_CONES,  # noqa: E402
                       DOUBLY_WOUND_RAYS, direct_projectivity_oracle,
                       dot_facets, fresh_copy,
                       hrep_facet_pairing, hrep_is_complete,
                       hrep_is_pointed, hrep_span_rank,
                       lp_member, pair_lp_report, pair_lp_validate)
from test_linprog import (fm_feasible, fraction_lp_feasible,  # noqa: E402
                          sys_of)
from test_monomials import (dp3_columns, dp4_columns,  # noqa: E402
                            set_search_supports)

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


def brute_force_supports(q, w):
    """The inclusion-minimal column sets J with w in cone(q_J), from the
    Caratheodory rule: J of size at most r, independent, and w with all
    coefficients positive in q_J, decided by one rref of [q_J | w]."""
    found = []
    for size in range(q.pic_rank + 1):
        for subset in combinations(range(q.num_gens), size):
            if any(set(f) <= set(subset) for f in found):
                continue
            red, pivots = rref(list(zip(*(q.columns[j] for j in subset), w)))
            if pivots == list(range(size)) and \
                    all(row[-1] > 0 for row in red):
                found.append(subset)
    return found


@st.composite
def gradings_and_classes(draw):
    """A grading of rank 1 to 3 on 1 to 7 columns, positive or not, and a
    class: zero, the sum of a few columns, or random (often outside the
    cone of all columns)."""
    r = draw(st.integers(1, 3))
    cols = draw(st.lists(st.lists(st.integers(-2, 3), min_size=r,
                                  max_size=r).map(tuple),
                         min_size=1, max_size=7))
    kind = draw(st.sampled_from(("zero", "columns", "random")))
    if kind == "zero":
        w = (0,) * r
    elif kind == "columns":
        picks = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=4))
        w = tuple(map(sum, zip(*picks)))
    else:
        w = tuple(draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
    return DegreeMatrix.make(cols), w


@settings(deadline=None, max_examples=300)
@given(gradings_and_classes())
@example((DegreeMatrix.make([(1, 0), (0, 1), (1, 1)]), (0, 0)))
@example((DegreeMatrix.make([(1, 0), (-1, 0)]), (0, 1)))
def test_caratheodory_supports_against_brute_force(case):
    # once from a fresh double description, once from the cache
    q, w = case
    expected = brute_force_supports(q, w)
    with fresh_class_cache():
        assert caratheodory_supports(q, w) == expected
        assert caratheodory_supports(q, w) == expected


@settings(deadline=None)
@given(gradings_and_classes())
def test_caratheodory_supports_of_multiples(case):
    # {l >= 0 : q l = k w} is k times the fiber over w, so S(k w) = S(w);
    # irrelevant_radical and same_chamber read every layer off S(w)
    # S(w) is cached per primitive class, so each multiple is also given
    # its own double description with the cache cleared
    q, w = case
    supports = caratheodory_supports(q, w)
    for k in (2, 3):
        kw = tuple(k * x for x in w)
        assert caratheodory_supports(q, kw) == supports
        with fresh_class_cache():
            assert caratheodory_supports(q, kw) == supports


@st.composite
def positive_gradings_and_degrees(draw):
    """A positive grading of rank 1 to 3 on 1 to 5 columns, and a degree:
    the sum of up to three columns or a random vector. Each column has
    first entry 1 or 2 before a unimodular shear adds multiples of the
    other entries to it, so the heft (1, -shear) is rarely a unit vector."""
    r = draw(st.integers(1, 3))
    cols = draw(st.lists(
        st.tuples(st.integers(1, 2), *[st.integers(-1, 2)] * (r - 1)),
        min_size=1, max_size=5))
    shear = draw(st.lists(st.integers(-1, 1), min_size=r - 1,
                          max_size=r - 1))
    cols = [(c[0] + sum(s * x for s, x in zip(shear, c[1:])),) + c[1:]
            for c in cols]
    if draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3))
        d = tuple(map(sum, zip(*picks)))
    else:
        d = tuple(draw(st.lists(st.integers(-2, 4), min_size=r, max_size=r)))
    return DegreeMatrix.make(cols), d


@settings(deadline=None)
@given(positive_gradings_and_degrees())
def test_minimal_supports_of_degree_against_enumeration(case):
    # the unions of S(kd) probed for a monomial give the same antichain as
    # the radical of every monomial of degree kd
    q, d = case
    for k in (1, 2, 3):
        kd = tuple(k * x for x in d)
        assert minimal_supports_of_degree(q, kd) == \
            radical_of_monomials(monomials_of_degree(q, kd)).generators


@settings(deadline=None)
@given(positive_gradings_and_degrees())
# 16 members of S(-K) have period 2: depth 2 is S(-K), depth 1 is not
@example((DegreeMatrix.make(dp4_columns()), (3, -1, -1, -1, -1, -1)))
# periods 2 and 3: depth 3 is S(1), though no layer up to 3 holds both
@example((DegreeMatrix.make([(2,), (3,)]), (1,)))
@example((DegreeMatrix.make([(1, 0), (1, 1)]), (0, 0)))  # the zero class
def test_irrelevant_radical_against_enumeration(case):
    # the depth-K radical, read off the periods where it is S(w) and built
    # from searched layers where it is not, is the radical of every
    # monomial of degrees d..Kd, and it is stable exactly when the same
    # enumeration at K + 1 gives the same radical; from empty caches
    q, d = case
    monos = []
    expected = []
    for j in range(1, 5):
        monos += monomials_of_degree(q, tuple(j * x for x in d))
        expected.append(radical_of_monomials(monos))
    with fresh_class_cache():
        for depth in (1, 2, 3):
            assert irrelevant_radical(q, d, depth=depth, check_stable=True) \
                == (expected[depth - 1], expected[depth] == expected[depth - 1])


@settings(deadline=None, max_examples=300)
@given(positive_gradings_and_degrees())
@example((DegreeMatrix.make([(1,)]), (1,)))  # x = 0 on the one column
@example((DegreeMatrix.make([(2,)]), (3,)))  # x = 1/2
@example((DegreeMatrix.make([(1,), (2,)]), (4,)))  # two one-column members
@example((DegreeMatrix.make([(1, 0)]), (0, 1)))  # outside Eff: no member
@example((DegreeMatrix.make([(1, 0), (1, 1)]), (1, 1)))  # x = 1 on one of two
# at d the member's two columns have more heft than d; at 2d, x = (1, 1)
@example((DegreeMatrix.make([(1, 0), (1, 2)]), (1, 1)))
def test_achievable_matches_the_first_monomial(case):
    # on every member J of S(kd), the period decision (p_J divides
    # gcd(kd)) agrees with the enumerator's first solution on J, and so
    # does _achievable
    q, d = case
    h = derive_heft(q)
    for k in (1, 2, 3):
        kd = tuple(k * x for x in d)
        periods = monomials._fibre(q, kd)[1]
        assert list(periods) == list(fibre_vertices(q, kd))
        for subset, period in periods.items():
            residual = [x - sum(q.columns[j][i] for j in subset)
                        for i, x in enumerate(kd)]
            expected = next(monomials._exponents(q, residual, h, subset),
                            None) is not None
            assert (math.gcd(*kd) % period == 0) == \
                expected == monomials._achievable(q, kd, h, subset)


@settings(deadline=None, max_examples=300)
@given(positive_gradings_and_degrees())
# a union grown by a single column
@example((DegreeMatrix.make([(2,), (3,)]), (5,)))
# at 3d, a found support that u lacks two columns of does not stop the
# growth of u by a member that covers only one of them
@example((DegreeMatrix.make([(1, 2), (2, 1), (2, -1), (1, -1)]), (3, 0)))
def test_bitmask_search_matches_set_search(case):
    q, d = case
    h = derive_heft(q)
    for k in (1, 2, 3):
        kd = tuple(k * x for x in d)
        assert monomials._search_supports(
            q, kd, h, monomials._fibre(q, kd)[1]) == \
            set_search_supports(q, kd, h, caratheodory_supports(q, kd))


@settings(deadline=None)
@given(matrices(rationals))
def test_rank_against_sympy(rows):
    assert rank(rows) == to_sympy(rows).rank()


@settings(deadline=None, max_examples=200)
@given(st.one_of(matrices(st.integers(-5, 5), max_rows=6, max_cols=6),
                 matrices(rationals, max_rows=6, max_cols=6),
                 square_matrices(st.integers(-4, 4))))
@example([[0, 0], [0, 0]])
@example([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])
# a zero column between pivots, and a zero leading column with a row swap
@example([[1, 0, 2], [2, 0, 5]])
@example([[0, 0, 1], [0, 2, 3], [0, 4, 7]])
def test_rank_against_fraction_elimination(rows):
    # rank counts the pivots of one fraction-free (Bareiss) forward
    # elimination; Gauss-Jordan steps over Fractions, the elimination it
    # replaced, give the same count
    assert rank(rows) == len(fraction_rref(rows)[1])


@settings(deadline=None, max_examples=200)
@given(st.one_of(matrices(st.integers(-5, 5), max_rows=6, max_cols=8),
                 square_matrices(st.integers(-4, 4))))
@example([[0, 0], [0, 0]])
@example([[1, 0, 2], [2, 0, 5]])
@example([[0, 0, 1], [0, 2, 3], [0, 4, 7]])
# dependent rows, and a negative last pivot
@example([[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, -3, 0], [1, 3, -3, 1]])
@example([[97, 89, 83, 79], [71, 67, 61, 59], [53, 47, 43, 41],
          [37, 31, 29, 23]])
def test_montante_against_fraction_elimination(rows):
    # fraction-free Gauss-Jordan finds the pivots of Gauss-Jordan steps
    # over Fractions, and each of its rows is a multiple of the reduced
    # row, with the last pivot on every pivot column
    red, pivots = montante(rows)
    expected, expected_pivots = fraction_rref(rows)
    assert pivots == expected_pivots
    for row, ref, p in zip(red, expected, pivots):
        assert row[p] == red[-1][pivots[-1]]
        assert [Fraction(x, row[p]) for x in row] == ref


@st.composite
def matrices_with_zero_rows(draw):
    """Wide, tall and square matrices of ints and Fractions, some of whose
    rows are replaced by zero rows."""
    rows = draw(matrices(st.one_of(st.integers(-5, 5), rationals),
                         max_rows=6, max_cols=6))
    zeroed = draw(st.sets(st.integers(0, len(rows) - 1)))
    return [[0] * len(row) if i in zeroed else row
            for i, row in enumerate(rows)]


@settings(deadline=None)
@given(matrices_with_zero_rows())
@example([[0, 0, 0], [0, 0, 0]])
# negative pivots, in the input and after elimination
@example([[-3, 1, 2], [-6, 2, 5], [0, -7, 1]])
# coefficient growth: the integer rows of a Hilbert-like matrix
@example([[Fraction(1, i + j + 1) for j in range(6)] for i in range(5)])
@example([[97, 89, 83, 79], [71, 67, 61, 59], [53, 47, 43, 41],
          [37, 31, 29, 23]])
# Fraction rows whose denominators differ within a row
@example([[Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 4)],
          [Fraction(-1, 6), 0, Fraction(3, 5), 1]])
def test_rref_against_sympy(rows):
    red, pivots = rref(rows)
    expected, expected_pivots = to_sympy(rows).rref()
    assert pivots == list(expected_pivots)
    assert red == [[Fraction(int(x.p), int(x.q)) for x in expected.row(i)]
                   for i in range(len(pivots))]
    # lp_feasible and nullspace index and mutate these rows: each is a
    # list of its own, of Fractions only
    assert all(type(row) is list for row in red)
    assert len({id(row) for row in red}) == len(red)
    assert all(type(x) is Fraction for row in red for x in row)


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9), rationals), min_size=2,
                max_size=6).flatmap(lambda t: st.tuples(
                    st.just(t), st.lists(st.integers(-9, 9), min_size=len(t),
                                         max_size=len(t)),
                    st.integers(0, len(t) - 1))))
def test_eliminate_is_a_positive_multiple_on_the_hyperplane(case):
    # on the hyperplane source.y = 0, the new row is a positive multiple of
    # the target row, and column c is cleared
    target, source, c = case
    target = int_row(target)
    assume(source[c])
    row = eliminate(target, source, c)
    assert row[c] == 0
    assert math.gcd(*row) in (0, 1)
    # y = source[c] e_j - source[j] e_c lies on the hyperplane; target and
    # row take values of one sign there, in the same ratio for every j
    ratios = set()
    for j in range(len(target)):
        t = source[c] * target[j] - source[j] * target[c]
        r = source[c] * row[j] - source[j] * row[c]
        assert (t > 0) == (r > 0) and (t < 0) == (r < 0)
        if t:
            ratios.add(Fraction(r, t))
    assert len(ratios) <= 1


@st.composite
def linear_systems(draw):
    """(dim, equalities, inequalities) in dimension 1 to 4. Equality rows
    are fresh, a multiple of an earlier row (its offset shifted or not) or
    have a zero normal, so the equality block is often rank-deficient or
    inconsistent."""
    dim = draw(st.integers(1, 4))
    normals = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    eqs = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("fresh", "multiple", "zero")))
        if kind == "multiple" and eqs:
            normal, off = draw(st.sampled_from(eqs))
            k = draw(st.sampled_from((1, -1, 2, Fraction(1, 3))))
            shift = draw(st.sampled_from((0, 0, 1)))
            eqs.append(([k * c for c in normal], k * off + shift))
        elif kind == "zero":
            eqs.append(([0] * dim, draw(st.integers(-1, 1))))
        else:
            eqs.append((draw(normals), draw(st.integers(-3, 3))))
    ineqs = draw(st.lists(st.tuples(normals, st.integers(-4, 4)),
                          max_size=3))
    return dim, eqs, ineqs


@settings(deadline=None, max_examples=300)
@given(linear_systems())
# a draw whose Fourier-Motzkin elimination took seconds before the oracle
# kept its rows primitive and deduplicated
@example((4, [([2, 0, -3, 1], 0), ([2, 0, -3, 1], 0), ([3, 1, 1, 3], 1)],
          [([3, 2, 1, -2], 1), ([-2, -3, 3, -1], -3), ([-2, 3, -2, 1], -2)]))
def test_lp_feasible_against_fourier_motzkin(case):
    dim, eqs, ineqs = case
    got = lp_feasible(*sys_of(dim, eqs, ineqs))
    assert got.feasible == fm_feasible(
        dim, eqs, [(c, o, False) for c, o in ineqs])
    if got.feasible:
        x = got.witness
        assert all(dot(c, x) == o for c, o in eqs)
        assert all(dot(c, x) >= o for c, o in ineqs)


@settings(deadline=None, max_examples=300)
@given(linear_systems())
@example((2, [([Fraction(1, 3), Fraction(-1, 2)], Fraction(1, 3))],
          [([Fraction(2, 3), 1], Fraction(-1, 3)), ([-1, Fraction(1, 5)], 0)]))
@example((3, [([2, -1, 0], 1), ([0, 3, -3], Fraction(1, 3))],
          [([-1, -1, -1], -4), ([1, 0, 0], 1), ([1, 0, 0], Fraction(3, 2))]))
def test_lp_feasible_matches_fraction_reference(case):
    # the integer substitution and replay hand simplex_nonneg the same
    # dual tableau as the Fraction steps, so verdict and witness agree
    dim, eqs, ineqs = case
    system = sys_of(dim, eqs, ineqs)
    assert lp_feasible(*system) == fraction_lp_feasible(*system)


@settings(deadline=None)
@given(linear_systems())
def test_lp_feasible_ignores_repeated_rows(case):
    # each distinct equality row reaches int_rref once, and doubling every
    # row changes no witness
    dim, eqs, ineqs = sys_of(*case)
    reduced = []
    real = linprog.int_rref

    def rref_rows(rows):
        reduced.append([tuple(r) for r in rows])
        return real(rows)

    with patch.object(linprog, "int_rref", rref_rows):
        plain = lp_feasible(dim, eqs, ineqs)
        doubled = lp_feasible(dim, eqs + eqs, ineqs + ineqs)
    assert doubled == plain
    assert reduced[0] == reduced[1] == list(dict.fromkeys(map(tuple, eqs)))


@st.composite
def homogeneous_strict_systems(draw):
    """(dim, equality normals, inequality normals with a strict flag) in
    dimension 1 to 4, every offset 0, as chamber_of and validate_fan ask
    them; inequality normals repeat or negate earlier ones, so cones with
    lineality and empty interiors are common."""
    dim = draw(st.integers(1, 4))
    normals = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    eqs = draw(st.lists(normals, max_size=2))
    ineqs = []
    for _ in range(draw(st.integers(1, 5))):
        if ineqs and draw(st.booleans()):
            normal = [draw(st.sampled_from((1, -1, 2))) * c
                      for c in draw(st.sampled_from(ineqs))[0]]
        else:
            normal = draw(normals)
        ineqs.append((normal, draw(st.booleans())))
    return dim, eqs, ineqs


@settings(deadline=None, max_examples=300)
@given(homogeneous_strict_systems())
def test_offset_one_decides_homogeneous_strict_systems(case):
    # a.x > 0 on a cone holds at some point iff a.x >= 1 does, by scaling:
    # the oracle decides the strict system, lp_feasible the offset-1 one
    dim, eqs, ineqs = case
    expected = fm_feasible(dim, [(c, 0) for c in eqs],
                           [(c, 0, s) for c, s in ineqs])
    got = lp_feasible(*sys_of(dim, [(c, 0) for c in eqs],
                              [(c, int(s)) for c, s in ineqs]))
    assert got.feasible == expected
    if got.feasible:
        x = got.witness
        assert all(dot(c, x) == 0 for c in eqs)
        assert all(dot(c, x) > 0 if s else dot(c, x) >= 0 for c, s in ineqs)


@settings(deadline=None)
@given(square_matrices(st.integers(-5, 5)))
# a zero leading entry: the first pivot comes from a row swap
@example([[0, 2, 1], [3, 1, 0], [1, 0, 4]])
def test_det_against_sympy(rows):
    assert det(IntMat.from_rows(rows)) == to_sympy(rows).det()


def int_matrices():
    """Integer matrices up to 4 x 4, sparse and often rank-deficient: a
    doubled first row is appended to some of them."""
    return st.tuples(matrices(st.one_of(st.just(0), st.integers(-6, 6)),
                              max_rows=4, max_cols=4),
                     st.booleans()) \
        .map(lambda mb: mb[0] + [[2 * x for x in mb[0][0]]] if mb[1]
             else mb[0])


@settings(deadline=None)
@given(int_matrices())
@example([[0, 0], [0, 0]])
def test_hermite_normal_form_against_sympy(rows):
    h, u = hermite_normal_form(IntMat.from_rows(rows))
    assert u.mul(IntMat.from_rows(rows)) == h
    assert abs(det(u)) == 1
    # sympy's form (Cohen, Algorithm 2.4.5) is column-style: its columns
    # span the column lattice, each pivot is the lowest entry of its column,
    # pivots move down from left to right and the entries to the right of a
    # pivot are reduced. Reversing the coordinates and the order of the
    # nonzero rows of the row-style form of the column-reversed matrix gives
    # exactly those columns.
    rev, _ = hermite_normal_form(IntMat.from_rows([r[::-1] for r in rows]))
    ours = [list(r[::-1]) for r in rev.to_rows() if any(r)][::-1]
    expected = normalforms.hermite_normal_form(sympy.Matrix(rows).T)
    assert ours == [[int(x) for x in expected.col(j)]
                    for j in range(expected.cols)]


@st.composite
def rescaled_kernels(draw):
    """(columns, a): a full-rank grading of rank 1 or 2 with up to five
    generators, and an integer square matrix a, often singular or of
    determinant other than +-1, to multiply its saturated kernel basis by."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(r + 1, 5))
    columns = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r,
                                     max_size=r), min_size=n, max_size=n))
    assume(rank(columns) == r)
    a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n - r,
                               max_size=n - r), min_size=n - r,
                      max_size=n - r))
    return columns, a


@settings(deadline=None)
@given(rescaled_kernels())
def test_gale_saturation_against_maximal_minors(case):
    # a.k spans a sublattice of index |det a| of the kernel, so gale_dual
    # must accept it exactly when its maximal minors are coprime
    columns, a = case
    q = DegreeMatrix.make(columns)
    k = IntMat.from_rows(a).mul(kernel_lattice(q.as_intmat()))
    with patch.object(grading, "kernel_lattice", lambda m: k):
        if maximal_minor_gcd(k) == 1:
            assert grading.gale_dual(q).rays == \
                tuple(k.col(j) for j in range(k.cols))
        else:
            with pytest.raises(RuntimeError, match="not saturated"):
                grading.gale_dual(q)


@st.composite
def membership_cases(draw):
    """(dim, gens, target): up to five generators in dimension 1 to 4, zero
    generators and the empty list included; the target is a nonnegative
    rational combination of the generators or a random rational vector."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                  max_size=d).map(tuple), max_size=5))
    if gens and draw(st.booleans()):
        coeffs = draw(st.lists(st.builds(Fraction, st.integers(0, 4),
                                         st.integers(1, 3)),
                               min_size=len(gens), max_size=len(gens)))
        target = tuple(sum((c * g[i] for c, g in zip(coeffs, gens)),
                           Fraction(0)) for i in range(d))
    else:
        target = tuple(draw(st.lists(st.one_of(st.integers(-3, 3), rationals),
                                     min_size=d, max_size=d)))
    return d, gens, target


@settings(deadline=None, max_examples=300)
@given(membership_cases())
@example((2, [], (0, 0)))
@example((2, [], (1, 0)))
@example((2, [(0, 0)], (Fraction(1, 2), 0)))
def test_cone_member_against_double_description(case):
    # cone_member's "no" reads the double description that contains reads,
    # so both are checked against the LP lambda >= 0, G lambda = target
    d, gens, target = case
    expected = lp_member(gens, target, d)
    assert cone_member(gens, target, dim=d) == expected
    assert RationalCone.from_generators(gens, d).contains(target) == expected


@st.composite
def generator_sets(draw):
    """(dim, gens): up to five integer generators in dimension 1 to 4,
    zero vectors and the empty list included, sometimes joined by an
    integer combination of them and by the negatives of some, so that the
    set is dependent and cone(gens) may hold a line."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                  max_size=d).map(tuple), max_size=5))
    if gens and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens),
                               max_size=len(gens)))
        gens.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                          for i in range(d)))
    if draw(st.booleans()):
        gens += [tuple(-x for x in g) for g in gens if draw(st.booleans())]
    return d, gens


@settings(deadline=None, max_examples=300)
@given(generator_sets())
@example((2, []))
@example((2, [(0, 0), (2, 4)]))
@example((2, [(1, 0), (-1, 0)]))
@example((2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
def test_span_rank_and_pointedness_against_rank(case):
    # the span rank read off the H-form is the rank of the generators, and
    # is_pointed, which skips the rank for independent generators, is the
    # former stacked-rank definition
    d, gens = case
    cone = RationalCone.from_generators(gens, d)
    assert cone.span_rank == rank(gens)
    eqs, ineqs = cone.hrep
    stacked = list(eqs) + list(ineqs)
    assert cone.is_pointed == (rank(stacked) == d if stacked else d == 0)


@st.composite
def cone_generator_cases(draw):
    """Generators in dimension 1 to 5 of four kinds: independent,
    dependent (one a combination of the others), lower-dimensional (last
    coordinate zero, dependent or not) and with a line (a generator and its
    negative). Zero and repeated generators may occur in every kind."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("independent", "dependent", "lower",
                                 "line")))
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
    if kind == "independent":
        gens = draw(st.lists(vector, max_size=d))
        assume(len(fraction_rref(gens)[1]) == len(gens))
    elif kind == "lower":
        assume(d > 1)
        gens = [g[:-1] + (0,) for g in draw(st.lists(vector, max_size=d + 1))]
    else:
        gens = draw(st.lists(vector, min_size=1, max_size=d + 1))
        if kind == "dependent":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens),
                                   max_size=len(gens)))
            gens.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                              for i in range(d)))
        else:
            gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return d, draw(st.permutations(gens))


@settings(deadline=None, max_examples=400)
@given(cone_generator_cases())
@example((2, []))
@example((2, [(1, 0), (-1, 0)]))
@example((2, [(1, 0), (0, 1), (-1, 0)]))
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]))
@example((1, [(2,), (-3,)]))
# square and singular: three coplanar rays in dimension 3
@example((3, [(1, 0, 1), (0, 1, 1), (1, 1, 2)]))
# square, with a first generator that starts with 0
@example((3, [(0, 1, 2), (1, 0, 1), (1, 1, 0)]))
def test_cone_rank_and_pointedness_against_the_hrep_path(case):
    # independent generators skip the H-form, and dependent ones read
    # pointedness off the witness: both agree with the former path, the
    # H-form's equalities and the Fraction rank of its stacked normals
    d, gens = case
    cone = RationalCone.from_generators(gens, d)
    oracle = RationalCone.from_generators(gens, d)
    assert cone.span_rank == hrep_span_rank(oracle)
    assert cone.is_pointed == hrep_is_pointed(oracle)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=8))
# equal-size supports alone, and below a support that holds one of them
@example([{1, 2}, {1, 3}, {2, 3}, {4, 5}])
@example([{1, 2}, {1, 3}, {2, 3}, {1, 2, 4}])
# a duplicate support, once with a larger support that holds it
@example([{1, 2}, {1, 2}, {3}])
@example([{1, 2}, {1, 2}, {1, 2, 3}])
# nested across sizes: two levels apart, and from the empty support
@example([{1}, {2, 3}, {1, 4, 5, 6}])
@example([set(), {1}])
def test_squarefree_ideal_antichain_check_against_all_pairs(family):
    # the constructor compares each support with later, larger ones only;
    # on supports in canonical order that finds every nested pair
    canon = tuple(sorted({tuple(sorted(s)) for s in family},
                         key=lambda s: (len(s), s)))
    if any(set(a) <= set(b) for a, b in permutations(canon, 2)):
        with pytest.raises(ValueError, match="antichain"):
            SquarefreeIdeal(canon)
    else:
        assert SquarefreeIdeal(canon).generators == canon


@st.composite
def separation_cases(draw):
    """membership_cases, with the target sometimes made zero and some
    generators sometimes joined by their negatives, so that cone(gens)
    has lineality."""
    d, gens, target = draw(membership_cases())
    if draw(st.booleans()):
        gens = gens + [tuple(-x for x in g) for g in gens
                       if draw(st.booleans())]
    if draw(st.integers(0, 4)) == 0:
        target = (0,) * d
    return d, gens, target


@settings(deadline=None, max_examples=300)
@given(separation_cases())
@example((2, [], (0, 0)))
@example((2, [], (1, -1)))
@example((3, [(0, 0, 0)], (0, 0, 0)))
@example((2, [(1, 0), (-1, 0), (0, 1)], (3, -1)))
@example((2, [(1, 0), (-1, 0), (0, 1), (0, -1)], (Fraction(1, 2), -5)))
@example((3, [(1, 1, 0), (-1, -1, 0), (0, 0, 1)], (1, 0, 0)))
def test_separating_functional_against_cone_member(case):
    d, gens, target = case
    x = separating_functional(gens, target, d)
    assert (x is None) == cone_member(gens, target, dim=d) == \
        lp_member(gens, target, d)
    if x is not None:
        assert all(type(c) is int for c in x) and primitive(x) == x
        assert dot(x, target) < 0
        assert all(dot(g, x) >= 0 for g in gens)


@st.composite
def extremality_cases(draw):
    """A grading of rank 1 to 3 on 1 to 6 drawn columns with entries in
    -2..2: pointed (first entry positive), in the hyperplane where the
    last entry equals the first (lower-dimensional Eff for rank >= 2), or
    free (often not pointed); then some positive multiples of drawn
    columns and, one time in five, a zero column, shuffled."""
    r = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["pointed", "lower", "free"]))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        c = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        if shape != "free":
            c[0] = draw(st.integers(1, 2))
        if shape == "lower":
            c[-1] = c[0]
        cols.append(tuple(c))
    cols += [tuple(k * x for x in c) for c in cols
             for k in draw(st.lists(st.integers(2, 3), max_size=1))]
    if draw(st.integers(0, 4)) == 0:
        cols.append((0,) * r)
    cols = draw(st.permutations(cols))
    assume(any(map(any, cols)))
    return DegreeMatrix.make(cols)


@settings(deadline=None, max_examples=300)
@given(extremality_cases())
@example(DegreeMatrix.make([(1, 0), (2, 0), (0, 1)]))
@example(DegreeMatrix.make([(1, 0), (0, 1), (1, 1)]))
@example(DegreeMatrix.make([(1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 2)]))
@example(DegreeMatrix.make([(1, 0), (-1, 0), (0, 1)]))
@example(DegreeMatrix.make([(1, 0), (-2, 0)]))
@example(DegreeMatrix.make([(1, 0), (0, 0), (0, 1), (3, 0)]))
@example(DegreeMatrix.make([(2, 2), (1, 1)]))
@example(delpezzo4().degrees)
def test_spans_extremal_ray_against_separating_functional(q):
    # the former per-column check is the oracle: one separating functional
    # of the column against the cone of the non-parallel columns
    for i, col in enumerate(q.columns, start=1):
        if not any(col):
            continue
        others = [c for c in q.columns
                  if primitive(c) != primitive(col)]
        assert spans_extremal_ray(q, i) == \
            (separating_functional(others, col, q.pic_rank) is not None)


@st.composite
def graded_classes(draw):
    """(grading, class): r <= 3 rows, n <= 7 columns with entries in -2..2,
    zero and negative columns included. The class is zero, a sum of columns
    with multiplicities 0 to 2, or a random vector that may lie outside the
    effective cone."""
    r = draw(st.integers(1, 3))
    columns = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r,
                                     max_size=r).map(tuple),
                            min_size=1, max_size=7))
    kind = draw(st.sampled_from(("zero", "sum", "random")))
    if kind == "zero":
        w = (0,) * r
    elif kind == "sum":
        mult = draw(st.lists(st.integers(0, 2), min_size=len(columns),
                             max_size=len(columns)))
        w = tuple(sum(m * c[i] for m, c in zip(mult, columns))
                  for i in range(r))
    else:
        w = tuple(draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)))
    return DegreeMatrix.make(columns), w


@settings(deadline=None, max_examples=100)
@given(graded_classes())
@example((DegreeMatrix.make([(1,), (-1,)]), (0,)))
@example((DegreeMatrix.make([(1,), (0,)]), (0,)))
@example((DegreeMatrix.make([(-1,), (-2,)]), (0,)))
def test_chamber_of_against_oracle(case):
    q, w = case
    if not effective_cone(q).contains(w):
        with pytest.raises(ValueError, match="outside the effective cone"):
            chamber_of(q, w)
        return
    ch = chamber_of(q, w)
    # every chamber lies in a pointed simplicial cone, so both generator
    # forms have no lineality and their ray lists can be compared
    lin, rays, _ = double_description(q.pic_rank, (), ch.hrep)
    lin_oracle, rays_oracle = chamber_oracle(q, w)
    assert lin == lin_oracle == []
    assert sorted(rays) == sorted(rays_oracle)
    assert ch.full_dimensional == (rank(rays_oracle) == q.pic_rank)


@settings(deadline=None, max_examples=200)
@given(graded_classes())
@example((DegreeMatrix.make([(1, 0), (0, 1), (1, 1)]), (1, 1)))
@example((DegreeMatrix.make([(1, 0), (0, 1), (1, 1)]), (0, 0)))
@example((DegreeMatrix.make([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                             (0, 1, 1)]), (1, 2, 1)))
@example((DegreeMatrix.make([(1,), (-1,)]), (0,)))
@example((DegreeMatrix.make([(1, 0), (-1, 0), (0, 1)]), (0, 1)))
@example((delpezzo4().degrees, (3, -1, -1, -1, -1)))
@example((delpezzo4().degrees, (0, 0, 0, 0, 0)))
@example((delpezzo4().degrees, (11, -5, -3, -2, -1)))
def test_chamber_of_against_greedy_lp_pass(case):
    # a full-dimensional chamber has one irredundant H-form, so its rows
    # are the former LP pass's, in the same order; a lower-dimensional one
    # is the same cone in canonical form. Every reported row is
    # irredundant, and for w != 0 the chamber is full-dimensional exactly
    # when every member of S(w) has r columns
    q, w = case
    assume(effective_cone(q).contains(w))
    ch = chamber_of(q, w)
    greedy = greedy_lp_hrep(q, w)
    if ch.full_dimensional:
        assert ch.hrep == greedy
    else:
        assert sorted(double_description(q.pic_rank, (), ch.hrep)[1]) == \
            sorted(double_description(q.pic_rank, (), greedy)[1])
    for row in ch.hrep:
        others = [r for r in ch.hrep if r != row]
        assert separating_functional(others, row, q.pic_rank) is not None
    if any(w):
        assert ch.full_dimensional == all(
            len(subset) == q.pic_rank
            for subset in caratheodory_supports(q, w))


@st.composite
def heft_gradings(draw):
    """Gradings with r <= 4 rows and n <= 7 columns, entries in -2..2:
    zero columns, a column together with its negative (lineality) and
    columns spanning less than Q^r are all drawn."""
    r = draw(st.integers(1, 4))
    columns = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r,
                                     max_size=r), min_size=1, max_size=7))
    kind = draw(st.sampled_from(("any", "zero", "lineality", "low rank")))
    if kind == "zero":
        columns.append([0] * r)
    elif kind == "lineality":
        columns.append([-x for x in draw(st.sampled_from(columns))])
    elif kind == "low rank":
        k = draw(st.integers(0, r - 1))
        columns = [c[:k] + [0] + c[k + 1:] for c in columns]
    return DegreeMatrix.make([tuple(c) for c in columns])


def heft_lp_oracle(q):
    """The LP formulation: some h over Q with col.h >= 1 on every column."""
    return lp_feasible(q.pic_rank, [],
                       [[*col, 1] for col in q.columns]).feasible


@settings(deadline=None, max_examples=300)
@given(heft_gradings())
@example(DegreeMatrix.make([(1, 0), (-1, 0)]))
@example(DegreeMatrix.make([(1, 0), (0, 0)]))
@example(DegreeMatrix.make([(1, 0), (2, 0)]))
def test_derive_heft_against_lp(q):
    if not heft_lp_oracle(q):
        with pytest.raises(ValueError, match="grading not positive"):
            derive_heft(q)
        return
    heft = derive_heft(q)
    assert all(type(x) is int for x in heft)
    assert all(dot(heft, col) >= 1 for col in q.columns)


@settings(deadline=None)
@given(square_matrices(rationals))
def test_incidence_det_zero_test_and_sign_against_sympy(rows):
    expected = to_sympy(rows).det()
    got = _det(rows)
    assert (got == 0) == (expected == 0)
    assert (got > 0) == (expected > 0)


def nonzero_vectors(length):
    return st.lists(st.integers(-3, 3), min_size=length,
                    max_size=length).filter(any)


def combination(coeffs, vectors):
    return [sum(c * v[j] for c, v in zip(coeffs, vectors))
            for j in range(len(vectors[0]))]


def in_span(basis, v) -> bool:
    return rank(list(basis) + [v]) == len(basis)


@settings(deadline=None)
@given(st.data())
def test_subspace_coordinates_against_rank(data):
    m = data.draw(st.integers(2, 5))
    pts = data.draw(st.lists(nonzero_vectors(m + 1), min_size=1,
                             max_size=m + 1))
    sub = subspace_from_points([ProjPoint.make(v) for v in pts])
    on_by_construction = data.draw(st.booleans())
    if on_by_construction:
        v = combination(data.draw(st.lists(st.integers(-3, 3),
                                           min_size=len(pts),
                                           max_size=len(pts))), pts)
        assume(any(v))
    else:
        v = data.draw(nonzero_vectors(m + 1))
    p = ProjPoint.make(v)
    on = in_span(sub.basis, p.coords)
    assert on or not on_by_construction
    assert sub.contains_point(p) == on
    lam = sub.coordinates(p)
    assert (lam is not None) == on
    if on:
        assert tuple(combination(lam, sub.basis)) == p.coords
        columns = [[row[j] for row in sub.basis] for j in range(m + 1)]
        assert tuple(rational_solve(columns, p.coords)) == lam


@settings(deadline=None)
@given(st.data())
def test_intersect_against_grassmann(data):
    # shared points make the spans meet more often than chance would
    m = data.draw(st.integers(2, 5))
    shared = data.draw(st.lists(nonzero_vectors(m + 1), max_size=2))
    subs = []
    for _ in range(2):
        own = data.draw(st.lists(nonzero_vectors(m + 1),
                                 min_size=0 if shared else 1,
                                 max_size=m + 1 - len(shared)))
        subs.append(subspace_from_points(
            [ProjPoint.make(v) for v in shared + own]))
    a, b = subs
    meet = intersect(a, b)
    # dim(A n B) = dim A + dim B - dim(A + B) for the linear spans
    expected = len(a.basis) + len(b.basis) - rank(list(a.basis)
                                                  + list(b.basis))
    if expected == 0:
        assert meet is None
    else:
        assert len(meet.basis) == expected
        for row in meet.basis:
            assert in_span(a.basis, row) and in_span(b.basis, row)


def dd_fan_oracle(fan) -> bool:
    """Fan validity from double descriptions: for every pair of maximal
    cones, each extreme ray of the intersection lies in the cone on the
    common rays, and that cone is a face of both."""
    d = fan.ambient_dim
    cones = fan.maximal_cones
    for a, ca in enumerate(cones):
        for cb in cones[a + 1:]:
            common = [fan.rays[i - 1]
                      for i in set(ca.ray_indices) & set(cb.ray_indices)]
            eqa, ina = ca.geometry.hrep
            eqb, inb = cb.geometry.hrep
            _lin, meet, _ = double_description(d, eqa + eqb, ina + inb)
            if not all(cone_member(common, w, dim=d) for w in meet):
                return False
            for cone in (ca, cb):
                eqs, ineqs = cone.geometry.hrep
                tight = [n for n in ineqs
                         if all(dot(n, r) == 0 for r in common)]
                _lin, face, _ = double_description(d, list(eqs) + tight,
                                                   ineqs)
                if not all(cone_member(common, w, dim=d) for w in face):
                    return False
    return True


@st.composite
def small_fans(draw):
    """Two to four cones on up to six distinct primitive rays in dimension
    two or three."""
    d = draw(st.integers(2, 3))
    vectors = st.lists(st.integers(-2, 2), min_size=d, max_size=d) \
        .map(tuple).filter(lambda v: math.gcd(*v) == 1)
    rays = draw(st.lists(vectors, min_size=2, max_size=6, unique=True))
    index_sets = draw(st.lists(
        st.sets(st.integers(1, len(rays)), min_size=1, max_size=d + 1),
        min_size=2, max_size=4))
    return Fan.from_index_sets(rays, index_sets)


@settings(deadline=None, max_examples=300)
@given(small_fans())
@example(Fan.from_index_sets(((-1, 1, 0), (-1, 0, 0), (-2, -1, 2),
                              (-1, 1, -2)), ((3,), (1, 4), (2,))))
def test_validate_fan_against_double_description(fan):
    verdict = validate_fan(fan)
    assert verdict == pair_lp_validate(fan)
    if all(c.geometry.is_pointed for c in fan.maximal_cones):
        assert verdict.ok == dd_fan_oracle(fan)
        if not verdict.ok:
            assert "is not a face of both" in verdict.reason
    else:
        assert not verdict.ok and "not strongly convex" in verdict.reason


@st.composite
def cyclic_plane_fans(draw):
    """2-D fans on rays at increasing angles, multiples of 15 degrees,
    winding once or twice around the origin, with cyclically consecutive
    rays spanning the cones. Long gaps give cones that are not strongly
    convex or fans that are not complete."""
    # distinct directions; on the second sheet a direction comes after a
    # full turn
    residues = draw(st.sets(st.integers(0, 23), min_size=3, max_size=10))
    twice = draw(st.booleans())
    angles = sorted(r + 24 * (twice and draw(st.booleans()))
                    for r in residues)
    rays = [(round(20 * math.cos(math.radians(15 * a))),
             round(20 * math.sin(math.radians(15 * a)))) for a in angles]
    n = len(rays)
    return Fan.from_index_sets(rays, [(k + 1, (k + 1) % n + 1)
                                      for k in range(n)])


@st.composite
def cube_height_fans(draw):
    """Triangulations of the cube's surface, one diagonal per square face,
    with the cube's rays stretched along the last axis by heights 1 to 3."""
    heights = draw(st.lists(st.integers(1, 3), min_size=8, max_size=8))
    rays = [(x, y, z * h) for (x, y, z), h in zip(CUBE_RAYS, heights)]
    cones = []
    for (a, b, c, d) in CUBE_FACES:
        if draw(st.booleans()):
            cones += [(a, b, c), (a, c, d)]
        else:
            cones += [(a, b, d), (b, c, d)]
    return Fan.from_index_sets(rays, cones)


def _check_replay_against_pair_lps(fan):
    assert fan_report(fan) == pair_lp_report(fan)
    plain = validate_fan(fan)
    assert plain == pair_lp_validate(fan)
    pointed = all(c.geometry.is_pointed for c in fan.maximal_cones)
    if pointed and is_complete(fan):
        cert = is_projective(fan)
        # on a fan the wall-by-wall LP decides projectivity too; a cone
        # set that winds twice can pass it with no ample class
        if plain.ok:
            assert cert.projective == direct_projectivity_oracle(fan)
        if cert.projective:
            # the replayed support function of an ample class certifies
            # a fan, which the pair LPs confirm
            assert plain.ok and _vertex_replay(fan, cert.support_function)


@settings(deadline=None, max_examples=150)
@given(cyclic_plane_fans())
@example(Fan.from_index_sets(DOUBLY_WOUND_RAYS, DOUBLY_WOUND_CONES))
def test_vertex_replay_matches_pair_lps_in_the_plane(fan):
    _check_replay_against_pair_lps(fan)


@settings(deadline=None, max_examples=15)
@given(cube_height_fans())
def test_vertex_replay_matches_pair_lps_on_cube_fans(fan):
    _check_replay_against_pair_lps(fan)


@settings(deadline=None, max_examples=300)
@given(st.one_of(small_fans(), cyclic_plane_fans(), cube_height_fans()))
@example(Fan.from_index_sets(CUBE_RAYS, CUBE_FACES))
@example(Fan.from_index_sets(CUBE_RAYS, CUBE_FACES[:5] + (
    (2, 4, 6), (4, 6, 8))))
@example(Fan.from_index_sets(((1, 0), (2, 0), (0, 1), (-1, -1)),
                             ((1, 2, 3), (3, 4), (1, 4))))
@example(Fan.from_index_sets(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                             ((1, 2), (2, 3), (1, 3))))
def test_fan_checks_against_the_hrep_path(fan):
    # simplicial cones take their facets as "drop one ray" subsets and
    # no H-form: every per-cone answer, the facet pairing in order, and the
    # verdicts and reasons of is_simplicial and is_complete are those of
    # the former path, which read every cone's H-form
    oracle = fresh_copy(fan)
    assert [c.geometry.span_rank for c in fan.maximal_cones] == \
        [hrep_span_rank(c.geometry) for c in oracle.maximal_cones]
    assert [c.geometry.is_pointed for c in fan.maximal_cones] == \
        [hrep_is_pointed(c.geometry) for c in oracle.maximal_cones]
    assert is_simplicial(fan) == all(
        hrep_span_rank(c.geometry) == len(c.rays)
        for c in oracle.maximal_cones)
    assert list(_facet_pairing(fan).items()) == \
        list(hrep_facet_pairing(oracle).items())
    assert is_complete(fan) == hrep_is_complete(oracle)
    # the tight rays read off the double description's bitmasks are those
    # of one dot product per (facet, ray), parallel rays included
    assert [c.facets for c in fan.maximal_cones] == \
        [dot_facets(c) for c in oracle.maximal_cones]


def test_validate_fan_exempts_rays_inside_the_common_cone():
    # ray 3 lies in the cone on the common rays 1 and 2, so no functional
    # is positive on it, yet the two cones meet in a common face
    fan = Fan.from_index_sets(((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
                              ((1, 2, 3), (1, 2, 4)))
    assert validate_fan(fan).ok and dd_fan_oracle(fan)
    assert validate_fan(fan) == pair_lp_validate(fan)


def test_validate_fan_rejects_a_cone_that_is_not_strongly_convex():
    fan = Fan.from_index_sets(((1, 0), (-1, 0), (0, 1)), ((1, 2, 3),))
    verdict = validate_fan(fan)
    assert not verdict.ok
    assert "not strongly convex" in verdict.reason


@settings(deadline=None)
@given(st.lists(st.integers(-60, 60), max_size=6))
def test_primitive_int_path_matches_fraction_path(v):
    p = primitive(v)
    assert p == primitive([Fraction(x) for x in v])
    assert all(type(x) is int for x in p)
    assert math.gcd(*p) == (1 if any(v) else 0)
    # a positive multiple of v
    k = next((i for i, x in enumerate(v) if x), None)
    if k is not None:
        c = Fraction(p[k], v[k])
        assert c > 0 and all(x == c * y for x, y in zip(p, v))


@settings(deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-60, 60), rationals), min_size=n,
             max_size=n), min_size=2, max_size=2)))
def test_dot_against_fraction_sum(rows):
    u, v = rows
    assert dot(u, v) == sum((Fraction(a) * b for a, b in zip(u, v)),
                            Fraction(0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot(u + [1], v)


def _reference_project_off(v, normal, pivot, dp):
    # v * dp - pivot * (normal . v), with dp = normal . pivot > 0 so the
    # direction of v is preserved
    dv = dot(normal, v)
    return primitive(tuple(x * dp - p * dv for x, p in zip(v, pivot)))


def reference_double_description(dim, equalities=(), inequalities=()):
    """The double description with frozenset zero sets, kept as it was
    before the kernel moved to bitmasks: the kernel must return the same
    lists in the same order, since facet order reaches pinned reports."""
    if dim < 1:
        raise ValueError("ambient dimension must be positive")
    lin = [tuple(1 if i == j else 0 for j in range(dim))
           for i in range(dim)]
    rays = []

    def cut_with(normal, idx):
        nonlocal lin, rays
        porig = next((l for l in lin if dot(normal, l) != 0), None)
        if porig is not None:
            pivot = porig if dot(normal, porig) > 0 else tuple(-x for x in porig)
            dp = dot(normal, pivot)
            lin = [_reference_project_off(l, normal, pivot, dp)
                   for l in lin if l is not porig]
            new_rays = [(_reference_project_off(r, normal, pivot, dp),
                         z | {idx} if idx is not None else z)
                        for r, z in rays]
            if idx is not None:
                # the pivot itself survives on the positive side; as former
                # lineality it is tight on every previously processed row
                new_rays.append((pivot, frozenset(range(idx))))
            rays = new_rays
            return
        pos, zero, neg = [], [], []
        for r, z in rays:
            s = dot(normal, r)
            if s > 0:
                pos.append((r, z, s))
            elif s < 0:
                neg.append((r, z, s))
            else:
                zero.append((r, z | {idx} if idx is not None else z))
        if idx is None:
            kept = zero
        else:
            kept = zero + [(r, z) for r, z, _ in pos]
        combos = []
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                meet = zp & zn
                adjacent = True
                for r3, z3 in rays:
                    if r3 is rp or r3 is rn:
                        continue
                    if z3 >= meet:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                w = primitive(tuple(sp * b - sn * a for a, b in zip(rp, rn)))
                combos.append((w, meet | {idx} if idx is not None else meet))
        rays = kept + combos

    for e in equalities:
        en = primitive(e)
        if any(en):
            cut_with(en, None)
    count = 0
    for a in inequalities:
        an = primitive(a)
        if any(an):
            cut_with(an, count)
            count += 1

    return lin, [r for r, _ in rays]


@st.composite
def integer_systems(draw):
    """A homogeneous integer system in dimension 1 to 7: equalities and
    inequalities drawn from a small pool of rows, so that rows repeat, and
    from zero rows, integer multiples of pool rows and fresh rows. Few or
    dependent rows leave lineality."""
    d = draw(st.integers(1, 7))
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    pick = st.one_of(
        st.sampled_from(pool), st.just([0] * d), row,
        st.builds(lambda r, k: [k * x for x in r], st.sampled_from(pool),
                  st.integers(-2, 3)))
    eqs = draw(st.lists(pick, max_size=3))
    ineqs = draw(st.lists(pick, max_size=10))
    return d, eqs, ineqs


def fibre_system(columns, w):
    """The system {(lambda, t) >= 0 : Q lambda = t w} whose rays with
    t > 0 fibre_vertices reads: (dim, equalities, inequalities)."""
    n = len(columns)
    eqs = [list(row) + [-x] for row, x in zip(zip(*columns), w)]
    units = [[int(i == j) for i in range(n + 1)] for j in range(n + 1)]
    return n + 1, eqs, units


_BUNDLED = delpezzo4()
# the fibres of the bundled grading at its ample class and at -K, and of
# the 16-line dP4 and the 27-line dP3 at -K (56 and 621 rays)
FIBRE_SYSTEMS = (
    fibre_system(_BUNDLED.degrees.columns, _BUNDLED.ample),
    fibre_system(_BUNDLED.degrees.columns, _BUNDLED.anti_canonical),
    fibre_system(dp4_columns(), (3, -1, -1, -1, -1, -1)),
    fibre_system(dp3_columns(), (3, -1, -1, -1, -1, -1, -1)),
)
# repeated, scaled (also by Fractions) and dependent equalities, and
# equalities of full rank, which leave no lineality and no ray
EQUALITY_SYSTEMS = (
    (4, [[1, -1, 0, 0], [1, -1, 0, 0]],
     [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]),
    (4, [[2, 0, -2, 4], [-1, 0, 1, -2],
         [Fraction(1, 2), 0, Fraction(-1, 2), 1]],
     [[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, -1]]),
    (5, [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 2, 1, 0, 0]],
     [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, -1, 1], [0, 1, 0, 0, 1]]),
    (3, [[1, 0, 1], [0, 1, -1], [1, 1, 1]], [[1, 0, 0], [0, 1, 1]]),
    (4, [[0, 2, 0, 1], [3, 0, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]], []),
)


# coordinate rows +-e_j, read off entry j: of both signs, scaled, zero
# rows beside them, rows that cut the lineality, and a mix with dense rows
COORDINATE_SYSTEMS = (
    (3, [], [[1, 0, 0], [0, -1, 0], [0, 0, 1], [-1, 1, 1]]),
    (3, [], [[2, 0, 0], [0, -3, 0], [0, 0, 5], [1, 1, 1]]),
    (4, [[0, 0, 0, 0]], [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0],
                         [0, 0, -1, 0], [1, 0, 0, 1]]),
    (3, [[1, 1, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
    (4, [[1, -1, 0, 0]], [[1, 0, 0, 0], [0, 0, -1, 0], [1, 1, 1, 1],
                          [0, 0, 0, 2], [1, -2, 0, 1], [0, -4, 0, 0]]),
    (1, [], [[-2], [3]]),
)


def with_examples(cases):
    """Add each case as a hypothesis @example of the test."""
    def decorate(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return decorate


@with_examples(FIBRE_SYSTEMS + EQUALITY_SYSTEMS + COORDINATE_SYSTEMS)
@settings(deadline=None, max_examples=300)
@given(integer_systems())
@example((1, [], []))
@example((3, [[0, 0, 0]], [[1, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 0]]))
@example((2, [], [[1, 0], [-1, 0], [0, 1], [0, -1]]))
# the cone over a square cut along a diagonal: the opposite corners are
# not adjacent, and two other rays share their empty meet
@example((3, [], [[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1], [1, 1, 0]]))
@example((4, [[1, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 1, 0], [1, -1, 0, 1],
                              [0, 0, 1, 1], [-1, 0, 1, 0]]))
def test_double_description_matches_reference(case):
    # the same lineality basis and the same rays in the same order
    d, eqs, ineqs = case
    assert double_description(d, eqs, ineqs)[:2] == \
        reference_double_description(d, eqs, ineqs)


@with_examples(FIBRE_SYSTEMS + EQUALITY_SYSTEMS + COORDINATE_SYSTEMS)
@settings(deadline=None, max_examples=300)
@given(integer_systems())
@example((3, [[0, 0, 0]], [[1, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 0]]))
@example((3, [], [[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1], [1, 1, 0]]))
@example((4, [[1, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 1, 0], [1, -1, 0, 1],
                              [0, 0, 1, 1], [-1, 0, 1, 0]]))
def test_double_description_masks_are_the_tight_rows(case):
    # the bitmask kept per ray has bit k exactly when the k-th nonzero
    # inequality vanishes on it
    d, eqs, ineqs = case
    _lin, rays, masks = double_description(d, eqs, ineqs)
    rows = [a for a in ineqs if any(a)]
    assert masks == [sum(1 << k for k, a in enumerate(rows)
                         if dot(a, ray) == 0) for ray in rays]


@settings(deadline=None, max_examples=300)
@given(gradings_and_classes())
# the zero class: t meets no equality, and (0, 0, 0, 1) is the one ray
@example((DegreeMatrix.make([(1, 0), (0, 1), (1, 1)]), (0, 0)))
# a class outside Eff: the one ray (1, 1, 0) has t = 0
@example((DegreeMatrix.make([(1, 0), (-1, 0)]), (0, 1)))
# equalities of full rank: no kernel and no ray
@example((DegreeMatrix.make([(1, 0, 0)]), (0, 1, 0)))
# repeated columns
@example((DegreeMatrix.make([(1, 1), (1, 1), (0, 1), (1, 0), (0, 1)]),
          (2, 3)))
# a rational class, as cone_member passes its target
@example((DegreeMatrix.make([(1, 0), (1, 2)]), (Fraction(1, 2), 1)))
# the 27-line dP3 at -K: 621 vertices
@example((DegreeMatrix.make(dp3_columns()), (3, -1, -1, -1, -1, -1, -1)))
def test_fibre_rays_against_the_input_order(case):
    # the fibre's own cut order (free columns, then the pivot column with
    # the fewest pairs) finds the rays of the generic double description
    # that cuts by the unit rows in input order
    q, w = case
    assert sorted(_fibre_rays(_fibre_kernel(q.columns, q.pic_rank), w)) == \
        sorted(double_description(*fibre_system(q.columns, w))[1])


@st.composite
def gradings_and_class_lists(draw):
    """A grading as gradings_and_classes draws it, and its class with one
    to three more: zero, a sum of columns, random, or one of these divided
    by 2 or 3 as a Fraction class."""
    q, w = draw(gradings_and_classes())
    r = q.pic_rank
    klass = st.one_of(
        st.just((0,) * r),
        st.lists(st.sampled_from(q.columns), min_size=1,
                 max_size=4).map(lambda picks: tuple(map(sum, zip(*picks)))),
        st.lists(st.integers(-4, 4), min_size=r, max_size=r).map(tuple))
    fraction = st.builds(lambda c, k: tuple(Fraction(x, k) for x in c),
                         klass, st.integers(2, 3))
    more = draw(st.lists(st.one_of(klass, fraction), min_size=1, max_size=3))
    return q, [w, *more]


@settings(deadline=None, max_examples=300)
@given(gradings_and_class_lists())
# the zero class and a rational class after an integer one
@example((DegreeMatrix.make([(1, 0), (0, 1), (1, 1)]),
          [(1, 1), (0, 0), (Fraction(1, 2), 1),
           (Fraction(2), Fraction(2))]))
# classes outside Eff, before and after one inside it
@example((DegreeMatrix.make([(1, 0), (-1, 0)]), [(0, 1), (1, 0), (0, -2)]))
# repeated columns
@example((DegreeMatrix.make([(1, 1), (1, 1), (0, 1), (1, 0), (0, 1)]),
          [(2, 3), (1, 1), (Fraction(3, 2), 0)]))
# rank-deficient gradings: the left kernel decides whether t is free
@example((DegreeMatrix.make([(1, 0, 0)]),
          [(0, 1, 0), (2, 0, 0), (Fraction(-1, 3), 0, 0)]))
@example((DegreeMatrix.make([(1, 2), (2, 4), (-1, -2), (0, 0)]),
          [(1, 2), (0, 1), (3, 6), (0, 0)]))
# the 27-line dP3 at -K, 621 vertices, and at a class of one line
@example((DegreeMatrix.make(dp3_columns()),
          [(1, -1, 0, 0, 0, 0, 0), (3, -1, -1, -1, -1, -1, -1)]))
def test_fibres_of_one_grading_share_its_elimination(case):
    # one _fibre_kernel per grading, as monomials keeps it, and one
    # _fibre_rays per class on it: the rays of the generic double
    # description that cuts by the unit rows in input order
    q, classes = case
    kernel = _fibre_kernel(q.columns, q.pic_rank)
    for w in classes:
        assert sorted(_fibre_rays(kernel, w)) == \
            sorted(double_description(*fibre_system(q.columns, w))[1])


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=d,
                                max_size=d),
                       st.integers(1, 4)),
             max_size=6))))
def test_generators_to_hrep_int_matches_fraction(case):
    d, scaled = case
    gens = [g for g, _ in scaled]
    # the same rays given as positive rational multiples
    fracs = [[Fraction(x, k) for x in g] for g, k in scaled]
    assert generators_to_hrep(d, gens) == generators_to_hrep(d, fracs)


def _wall_normals(fan):
    """Per shared facet of _facet_pairing, in order, the pair of inward
    normals that Cone.facets gives its two cones for it, and the reference
    normal from the kernel of its rays: the primitive form of
    nullspace(tau_rays)[0]."""
    cones = fan.maximal_cones
    out = []
    for key, owners in _facet_pairing(fan).items():
        normals = [next(n for n, tight in cones[pos].facets if tight == key)
                   for pos in owners]
        tau_rays = [fan.rays[i - 1] for i in key] or \
            [[0] * fan.ambient_dim]
        basis = nullspace(tau_rays)
        assert len(basis) == 1
        out.append((normals, primitive(basis[0])))
    return out


def _check_wall_normals(fan):
    # the two cones of a wall lie on opposite sides of it: their facet
    # normals are the kernel vector of its rays, one with each sign
    walls = _wall_normals(fan)
    assert len(walls) > 0
    for normals, ref in walls:
        assert sorted(normals) == sorted([ref, tuple(-x for x in ref)])


@pytest.mark.parametrize("ideal", [ample_ideal, anticanonical_ideal],
                         ids=["ample", "anticanonical"])
def test_wall_normals_of_bundled_fans_match_nullspace(ideal):
    _check_wall_normals(fan_from_irrelevant(gale_dual(delpezzo4().degrees),
                                            ideal()))


@st.composite
def complete_grading_fans(draw):
    """Fans of the depth-2 radical at the sum of the columns of a positive
    grading of rank 1 to 3 on r + 2 to 6 columns, kept when complete
    (about two in five)."""
    r = draw(st.integers(1, 3))
    cols = draw(st.lists(
        st.tuples(st.integers(1, 2), *[st.integers(-1, 2)] * (r - 1)),
        min_size=r + 2, max_size=6))
    q = DegreeMatrix.make(cols)
    try:
        fan = fan_from_irrelevant(gale_dual(q), irrelevant_radical(
            q, tuple(map(sum, zip(*cols))), depth=2))
    except ValueError:
        assume(False)
    assume(is_complete(fan).ok)
    return fan


@settings(deadline=None, max_examples=60)
@given(complete_grading_fans())
def test_wall_normals_from_facets_match_nullspace(fan):
    _check_wall_normals(fan)


def _check_fibre_support(q, w, ideal):
    """Whenever fibre_support gives a function, it replays, m_0 = 0, its
    heights -a have a class Q a that is a positive multiple of w, and on a
    complete fan fan_report accepts it and is_projective also finds the
    fan projective."""
    try:
        fan = fan_from_irrelevant(gale_dual(q), ideal)
    except ValueError:
        return
    support = fibre_support(fan, ideal, fibre_vertices(q, w))
    if support is None:
        return
    assert _vertex_replay(fan, support)
    assert support[0] == (0,) * fan.ambient_dim
    divisor = {i: -dot(m, fan.rays[i - 1])
               for cone, m in zip(fan.maximal_cones, support)
               for i in cone.ray_indices}
    cls = tuple(sum(divisor[j + 1] * col[k] for j, col in enumerate(q.columns))
                for k in range(q.pic_rank))
    assert primitive(cls) == primitive(w)
    if not is_complete(fan):
        return
    assert is_projective(fan).projective
    report = fan_report(fan, support)
    assert report["valid"] and report["projective"]
    assert report == {**fan_report(fan),
                      "supportFunction": [list(m) for m in support]}


@settings(deadline=None, max_examples=300)
@given(positive_gradings_and_degrees())
@example((DegreeMatrix.make(dp4_columns()), (3, -1, -1, -1, -1, -1)))
@example((DegreeMatrix.make([(1,), (1,), (1,)]), (1,)))  # p2
@example((DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)]), (1, 1)))
def test_fibre_support_against_the_projectivity_lp(case):
    # the S(w) ideal itself and the radicals at depths 1 and 2, at the drawn
    # degree and at the sum of the columns, which is more often inside a
    # full-dimensional chamber; on dP4 at -K depth 2 is S(-K), and depth 1
    # a proper part of it
    q, d = case
    for w in (d, tuple(map(sum, zip(*q.columns)))):
        vertices = fibre_vertices(q, w)
        ideals = [SquarefreeIdeal.from_supports(
            [tuple(j + 1 for j in s) for s in vertices])] if vertices else []
        ideals += [irrelevant_radical(q, w, depth=k) for k in (1, 2)]
        for ideal in ideals:
            _check_fibre_support(q, w, ideal)


@settings(deadline=None)
@given(positive_gradings_and_degrees(), st.data())
def test_cached_layer_is_heft_independent(case, data):
    # the cache key leaves the heft out: an uncached search under another
    # valid heft h2 = m h + f, and the radical of every monomial of the
    # degree under h2, both give the cached layer, the depth-1 radical of
    # the degree's class
    q, d = case
    h = derive_heft(q)
    f = data.draw(st.lists(st.integers(-3, 3), min_size=q.pic_rank,
                           max_size=q.pic_rank))
    m = 1 + max(abs(dot(f, col)) for col in q.columns)
    h2 = tuple(m * a + b for a, b in zip(h, f))
    assert all(dot(h2, col) >= 1 for col in q.columns)
    cached = minimal_supports_of_degree(q, d)
    _vertices, periods, radicals = monomials._fibre(q, d)
    assert radicals[math.gcd(*d), 1].generators is cached
    assert minimal_supports_of_degree(q, d, heft=h2) is cached
    assert monomials._search_supports(q, d, h2, periods) == cached
    assert radical_of_monomials(
        monomials_of_degree(q, d, heft=h2)).generators == cached


@settings(deadline=None)
@given(positive_gradings_and_degrees())
def test_cached_layer_is_immutable(case):
    q, d = case
    layer = minimal_supports_of_degree(q, d)
    assert type(layer) is tuple
    assert all(type(s) is tuple for s in layer)
    assert monomials._fibre(q, d)[2][math.gcd(*d), 1].generators is layer


def test_reproduce_paper_computes_five_layers(monkeypatch, class_cache):
    # no layer is asked for: every member of S(a) and S(-K) has period 1,
    # so each radical is S(w) at depth 1 already, one ideal per class (6
    # layers asked for and 5 searched, a, 2a, 4a, -K and -2K, before
    # periods decided the radical; 12 asked for before the radicals were
    # cached); the 42 members of S(a) and the 22 of S(-K) are each
    # replayed once
    searched = []
    replayed = []
    search, period = monomials._search_supports, monomials._period

    def counted_period(q, w0, subset, ray):
        replayed.append((w0, subset))
        return period(q, w0, subset, ray)

    def counted_search(q, d, h, periods):
        searched.append(d)
        return search(q, d, h, periods)

    monkeypatch.setattr(monomials, "_search_supports", counted_search)
    monkeypatch.setattr(monomials, "_period", counted_period)
    assert reproduce_paper_report()["overall"]
    dp = delpezzo4()
    assert searched == []
    assert set(class_cache) == {(dp.degrees, dp.ample),
                                (dp.degrees, dp.anti_canonical)}
    assert all(len({id(r) for r in radicals.values()}) == 1
               for _v, _p, radicals in class_cache.values())
    assert len(replayed) == len(set(replayed)) == 42 + 22
    assert {w0 for w0, _subset in replayed} == {dp.ample, dp.anti_canonical}


# strings with quotes, backslashes, control characters, DEL, non-ASCII,
# U+2028 and a character outside the BMP, or any text
json_text = st.text("\"\\/\x00\x08\x1f\x7f ab\u00e9\u2028\U0001f600",
                    max_size=8) | st.text(max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text
    | st.integers(-10 ** 40, 10 ** 40),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(json_values)
@example({})
@example({"a": [], "b": {}, "c": ()})
@example({"\u00e9": "\"\x01", "": [True, False, None, -0, 10 ** 30]})
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == \
        json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    1.5, {"a": 0.5}, [set()], {1: "a"}, {"a": [{"b": b"x"}]},
])
def test_dumps_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


@st.composite
def command_lines(draw):
    """A command and an argv built from its options, as "--opt VALUE" or
    "--opt=VALUE", and its positionals, placed anywhere. A value is one the
    option takes or, one time in four, an odd token: a value argparse reads
    in another way, an option prefix, "--", "-h" or an unknown option. One
    argv in two gets one more odd token, anywhere."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    table = cli._declarations(name)
    options = sorted(table.options)
    prefixes = [o[:k] for o in options for k in range(3, len(o))]
    odd = st.sampled_from(["1,2", "-1", "-1,2", "x", "", "-", "1_0", "--",
                           "-h", "--help", "--json", "--json=1", "-x",
                           *prefixes, *(f"{p}=1" for p in prefixes)])

    def token(taken):
        return draw(st.sampled_from(taken) if draw(st.integers(0, 3))
                    else odd)

    argv = []
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        _, _, choices, flag = table.options[option]
        if flag:
            argv.append(option)
            continue
        value = token(choices or ("1", "12"))
        argv += draw(st.sampled_from(([option, value], [f"{option}={value}"])))
    for _, choices, _ in table.positionals:
        if draw(st.integers(0, 3)):
            argv.insert(draw(st.integers(0, len(argv))),
                        token(choices or ("p2.json",)))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(odd))
    return name, argv


@settings(deadline=None, max_examples=600)
@example(("basis", ["--dataset", "p2", "--degree", "1"]))
@example(("incidence", ["--seed=-1", "search", "--json"]))
@example(("gale", ["--reference=", "x"]))
@example(("basis", ["--degree=--"]))
@given(command_lines())
def test_table_parser_agrees_with_argparse(case):
    name, argv = case
    parsed = cli._parse_command(name, argv)
    if parsed is None:
        return
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            args, extra = cli._command_parser(name).parse_known_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}: {sink.getvalue()}")
    assert (vars(parsed), extra) == (vars(args), [])


# tokens near the edges of an integer: signs alone and doubled, '_',
# spaces, a newline, non-ASCII digits ('١', '²', fullwidth '１'), or any
# text
integer_texts = st.one_of(
    st.text(st.sampled_from("+-0123456789_ \n١²１x"), max_size=5),
    st.text(max_size=4))


@settings(deadline=None, max_examples=500)
@given(integer_texts)
@example("١")
@example("1_0")
@example("-")
@example("+")
@example("")
@example("-07")
@example("1\n")
def test_integer_matches_the_former_regex(text):
    if re.fullmatch(r"[+-]?[0-9]+", text):
        assert cli.integer(text) == int(text)
    else:
        with pytest.raises(ValueError, match="not an integer"):
            cli.integer(text)


def joined_with_regex(argv):
    """The former _join_signed_classes, which matched "-[0-9]" with re."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if "--" not in out and len(prev) > 2 and re.match(r"-[0-9]", tok) \
                and any(opt.startswith(prev) for opt in cli._CLASS_OPTIONS):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


@settings(deadline=None, max_examples=500)
@given(st.lists(st.one_of(
    st.sampled_from(["--degree", "--deg", "--compare", "--co", "--", "-",
                     "--seed", "chamber", "-1,2", "-h", "-١", "-x"]),
    integer_texts.map(lambda t: "-" + t), integer_texts), max_size=6))
@example(["--degree", "-١"])
@example(["--degree", "-"])
@example(["--compare", "-1_0"])
def test_join_signed_classes_matches_the_former_regex(argv):
    assert cli._join_signed_classes(argv) == joined_with_regex(argv)


def period_by_rows(q, w0, subset, ray):
    """The former replay of _period: the integrality of x = p lambda / t,
    then sum(x_j q_j) == p w0 row by row."""
    t = ray[-1]
    p = t // math.gcd(t, *(ray[j] for j in subset))
    xs = []
    for j in subset:
        x, rem = divmod(p * ray[j], t)
        if rem:
            raise RuntimeError("exponent vector failed replay")
        xs.append(x)
    if any(sum(x * q.columns[j][i] for x, j in zip(xs, subset)) != p * wi
           for i, wi in enumerate(w0)):
        raise RuntimeError("exponent vector failed replay")
    return p


@st.composite
def period_cases(draw):
    """A grading of 1 to 4 sparse columns, a subset of them, a ray
    (lambda, t) with t > 0 and a class that is, one time in two, the one
    the ray's point lies over and otherwise that class moved in one row."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    columns = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                            min_size=n, max_size=n))
    assume(all(any(c) for c in columns))
    subset = tuple(sorted(draw(st.sets(st.integers(0, n - 1),
                                       min_size=1))))
    ray = [draw(st.integers(1, 4)) if j in subset else 0 for j in range(n)]
    ray.append(draw(st.integers(1, 4)))
    t = ray[-1]
    p = t // math.gcd(t, *(ray[j] for j in subset))
    point = [sum(p * ray[j] * columns[j][i] for j in subset) // t
             for i in range(r)]
    w0 = [x // p for x in point]
    if draw(st.booleans()):
        w0[draw(st.integers(0, r - 1))] += draw(st.sampled_from([-1, 1]))
    return DegreeMatrix.make(columns), tuple(w0), subset, tuple(ray)


@settings(deadline=None, max_examples=300)
@given(period_cases())
def test_period_matches_the_row_by_row_replay(case):
    try:
        expected = period_by_rows(*case)
    except RuntimeError:
        with pytest.raises(RuntimeError,
                           match="exponent vector failed replay"):
            monomials._period(*case)
    else:
        assert monomials._period(*case) == expected
