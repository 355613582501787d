import math
from itertools import combinations, product
from random import Random

import pytest

from coxtoric import monomials
from coxtoric.delpezzo import (ample_ideal, anticanonical_ideal,
                               reproduce_paper_report)
from coxtoric.exact import dot
from coxtoric.grading import DegreeMatrix, delpezzo4
from coxtoric.monomials import (SquarefreeIdeal, caratheodory_supports,
                                derive_heft, irrelevant_radical,
                                minimal_antichain, minimal_supports_of_degree,
                                monomials_of_degree, radical_of_monomials)


def brute_force_monomials(q, d, heft):
    """Box enumeration: bound each exponent by the heft budget."""
    total = dot(heft, d)
    if total < 0:
        return ()
    bounds = [total // dot(heft, c) for c in q.columns]
    out = []
    for e in product(*(range(b + 1) for b in bounds)):
        img = tuple(sum(e[j] * q.columns[j][i] for j in range(q.num_gens))
                    for i in range(q.pic_rank))
        if img == tuple(d):
            out.append(e)
    return tuple(sorted(out))


def set_search_supports(q, d, h, supports):
    """The former union search of monomials._search_supports, kept as its
    oracle: unions as sorted tuples grown through sets, each probed for a
    monomial by the enumerator's first solution."""
    cols = q.columns

    def achievable(subset):
        residual = list(d)
        for j in subset:
            for k, x in enumerate(cols[j]):
                residual[k] -= x
        return next(monomials._exponents(q, residual, h, subset),
                    None) is not None

    by_size = [set() for _ in range(q.num_gens + 1)]
    for s in supports:
        by_size[len(s)].add(s)
    found = []
    for unions in by_size:
        for u in sorted(unions):
            if any(f <= set(u) for f in found):
                continue
            if achievable(u):
                found.append(set(u))
                continue
            for s in supports:
                v = tuple(sorted(set(u).union(s)))
                by_size[len(v)].add(v)
    return tuple(tuple(j + 1 for j in s) for s in minimal_antichain(found))


def test_p2_degree_two():
    q = DegreeMatrix.make([(1,), (1,), (1,)])
    ms = monomials_of_degree(q, (2,))
    assert len(ms) == 6
    assert ms == tuple(sorted(ms))
    assert ms == brute_force_monomials(q, (2,), (1,))


def test_p1xp1_bidegree():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    ms = monomials_of_degree(q, (1, 1))
    assert set(ms) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


def test_zero_degree():
    dp = delpezzo4()
    assert monomials_of_degree(dp.degrees, (0, 0, 0, 0, 0)) == ((0,) * 10,)
    assert irrelevant_radical(dp.degrees, (0, 0, 0, 0, 0)).generators == ((),)


def test_wrong_length_degree():
    q = DegreeMatrix.make([(1,), (1,)])
    with pytest.raises(ValueError, match="wrong length"):
        monomials_of_degree(q, (1, 0))


def test_heft_errors():
    q = DegreeMatrix.make([(1,), (-1,)])
    with pytest.raises(ValueError, match="grading not positive"):
        monomials_of_degree(q, (0,))
    q2 = DegreeMatrix.make([(1,), (1,)])
    with pytest.raises(ValueError, match="heft has wrong length"):
        monomials_of_degree(q2, (1,), heft=(1, 1))
    with pytest.raises(ValueError, match="heft not positive"):
        monomials_of_degree(q2, (1,), heft=(0,))


@pytest.mark.parametrize("search", [monomials_of_degree,
                                    minimal_supports_of_degree,
                                    irrelevant_radical])
@pytest.mark.parametrize("degree, heft", [((2.9,), None), ((2,), (1.5,)),
                                          ((True,), None), ((2,), (True,))])
def test_non_integer_degree_or_heft_rejected(search, degree, heft):
    q = DegreeMatrix.make([(1,), (1,), (1,)])
    with pytest.raises(ValueError, match="must be integers"):
        search(q, degree, heft=heft)


def test_derive_heft_positive():
    dp = delpezzo4()
    h = derive_heft(dp.degrees)
    assert all(dot(h, c) >= 1 for c in dp.degrees.columns)


@pytest.mark.parametrize("columns", [
    # a zero column: the heft is 0 on it, whatever Eff is
    [(1,), (0,)],
    [(1, 0), (0, 1), (0, 0)],
    # Eff is the whole line, with no facet: the heft is 0
    [(1,), (-1,)],
    # Eff is not full-dimensional and holds the line of (1, 0, 0)
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
    # Eff is the whole plane
    [(1, 0), (0, 1), (-1, -1)],
])
def test_derive_heft_rejects_gradings_that_are_not_positive(columns):
    with pytest.raises(ValueError, match="^grading not positive$"):
        derive_heft(DegreeMatrix.make(columns))


@pytest.mark.parametrize("columns, heft", [
    # Eff is a ray in the plane: its one facet normal is the heft
    ([(1, 0), (2, 0)], (1, 0)),
    # a pointed Eff that is not full-dimensional in rank 3
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (1, 1, 0)),
    ([(1, 0), (-1, 1), (0, 1)], (1, 2)),
])
def test_derive_heft_is_the_sum_of_the_facet_normals(columns, heft):
    q = DegreeMatrix.make(columns)
    assert derive_heft(q) == heft
    assert all(dot(heft, c) >= 1 for c in columns)


def test_heft_and_cones_need_no_rank():
    # positivity is read off the heft and pointedness off a witness, so
    # neither module ranks a matrix
    from coxtoric import cones
    assert not hasattr(monomials, "rank") and not hasattr(cones, "rank")


def test_radical_of_monomials_basics():
    # x^2 y and x y^2 share support {x, y}
    assert radical_of_monomials([(2, 1), (1, 2)]).generators == ((1, 2),)
    assert radical_of_monomials([(2, 0), (0, 3)]).generators == ((1,), (2,))
    assert radical_of_monomials([]).generators == ()


def test_antichain_and_canonical_order():
    assert minimal_antichain([(1, 2), (1, 2, 3), (3,)]) == ((3,), (1, 2))
    with pytest.raises(ValueError, match="antichain"):
        SquarefreeIdeal(((1,), (1, 2)))
    with pytest.raises(ValueError, match="canonical order"):
        SquarefreeIdeal(((1, 2), (3,)))


@pytest.mark.parametrize("generators, message", [
    # a support inside a later, larger one, adjacent or not
    (((2,), (1, 2)), "antichain"),
    (((1,), (2,), (3, 4), (2, 5, 6)), "antichain"),
    (((3, 4), (1, 2, 5), (1, 3, 4, 6)), "antichain"),
    # out of order: a larger support first, a lex inversion, a repeat;
    # the order is checked first, so a non-antichain out of order reports
    # the order
    (((1, 2), (1,)), "canonical order"),
    (((2,), (1,)), "canonical order"),
    (((1, 3), (1, 2)), "canonical order"),
    (((1,), (1,)), "canonical order"),
    # a duplicate that a larger support also holds reports the order
    (((1, 2), (1, 2), (1, 2, 3)), "canonical order"),
    # a level of equal-size supports, none inside another, below a
    # support that holds one of them
    (((1, 2), (1, 3), (2, 3), (1, 2, 4)), "antichain"),
    # a support inside one two size levels up, past a level it meets
    # but does not lie in
    (((1,), (2, 3), (1, 4, 5, 6)), "antichain"),
])
def test_squarefree_ideal_checks_order_then_antichain(generators, message):
    with pytest.raises(ValueError, match=message):
        SquarefreeIdeal(generators)


@pytest.mark.parametrize("generators, message", [
    (((2, 1),), "strictly increasing"),
    (((1, 1),), "strictly increasing"),
    (((0,),), "at least 1"),
    (((2,), (-1, 3)), "at least 1"),
    (((1.0, 2),), "support entries must be integers"),
    (((True, 2),), "support entries must be integers"),
])
def test_squarefree_ideal_rejects_non_canonical_supports(generators, message):
    # (2, 1) and (1, 2) are one support; only the increasing form is kept
    with pytest.raises(ValueError, match=message):
        SquarefreeIdeal(generators)
    assert SquarefreeIdeal(((1, 2),)) == \
        SquarefreeIdeal.from_supports([(2, 1)])


@pytest.mark.parametrize("supports, message", [
    ([(1.7, 2)], "support entries must be integers"),
    ([(True, 3)], "support entries must be integers"),
    ([(0, -2)], "at least 1"),
    ([(2,), (0, 1)], "at least 1"),
])
def test_from_supports_reads_indices_strictly(supports, message):
    # 1.7 must not be truncated to 1, nor True read as 1
    with pytest.raises(ValueError, match=message):
        SquarefreeIdeal.from_supports(supports)
    assert SquarefreeIdeal.from_supports([(3, 1), (2,), (1, 3)]).generators \
        == ((2,), (1, 3))


def test_anticanonical_radical_matches_listed_supports():
    dp = delpezzo4()
    ideal = irrelevant_radical(dp.degrees, dp.anti_canonical, heft=dp.heft)
    assert ideal == anticanonical_ideal()
    sizes = sorted(len(s) for s in ideal.generators)
    assert sizes == [4] * 10 + [5] * 12


def test_ample_radical_frozen_fixture():
    dp = delpezzo4()
    ideal = irrelevant_radical(dp.degrees, dp.ample, heft=dp.heft)
    assert ideal == ample_ideal()
    assert len(ideal.generators) == 42
    assert all(len(s) == 5 for s in ideal.generators)


def test_ample_monomial_count_and_enumeration_agreement():
    dp = delpezzo4()
    ms = monomials_of_degree(dp.degrees, dp.ample, dp.heft)
    assert len(ms) == 2038
    assert radical_of_monomials(ms) == ample_ideal()


def test_support_search_equals_enumeration_on_anticanonical():
    dp = delpezzo4()
    fast = minimal_supports_of_degree(dp.degrees, dp.anti_canonical, dp.heft)
    slow = radical_of_monomials(
        monomials_of_degree(dp.degrees, dp.anti_canonical, dp.heft))
    assert SquarefreeIdeal(fast) == slow


def test_enumeration_against_brute_force_random():
    rng = Random(20240817)
    done = 0
    while done < 50:
        r = rng.randint(1, 2)
        n = rng.randint(1, 5)
        cols = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(n)]
        if any(not any(c) for c in cols):
            continue
        q = DegreeMatrix.make(cols)
        try:
            heft = derive_heft(q)
        except ValueError:
            continue
        e_star = [rng.randint(0, 2) for _ in range(n)]
        d = tuple(sum(e_star[j] * cols[j][i] for j in range(n))
                  for i in range(r))
        if dot(heft, d) > 12:
            continue
        ms = monomials_of_degree(q, d, heft)
        assert ms == brute_force_monomials(q, d, heft)
        assert tuple(e_star) in ms
        fast = minimal_supports_of_degree(q, d, heft)
        assert SquarefreeIdeal(fast) == radical_of_monomials(ms)
        done += 1


def test_saturation_monotonicity():
    dp = delpezzo4()
    ideal = irrelevant_radical(dp.degrees, dp.anti_canonical, depth=2,
                               heft=dp.heft)
    mins = [frozenset(s) for s in ideal.generators]
    double = tuple(2 * x for x in dp.anti_canonical)
    for sup in minimal_supports_of_degree(dp.degrees, double, dp.heft):
        assert any(m <= frozenset(sup) for m in mins)


def test_stabilization_flag():
    # degree (1) has no monomials for columns 2 and 3; degree (2) does
    q = DegreeMatrix.make([(2,), (3,)])
    ideal, stable = irrelevant_radical(q, (1,), check_stable=True)
    assert ideal.generators == () and not stable
    ideal2, stable2 = irrelevant_radical(q, (6,), check_stable=True)
    assert stable2 and ideal2.generators == ((1,), (2,))
    with pytest.raises(ValueError, match="depth"):
        irrelevant_radical(q, (1,), depth=0)


@pytest.mark.parametrize("depth", [1.5, 2.0, True, "2", None])
def test_a_depth_that_is_not_an_int_is_rejected(class_cache, depth):
    # before any cache lookup, on the bundled ample class (where 1.5 and
    # True used to give the 42 supports) and at periods 2 and 3 (where 1.5
    # and 2.0 met range)
    dp = delpezzo4()
    for q, w in ((dp.degrees, dp.ample), (DegreeMatrix.make([(2,), (3,)]),
                                          (1,))):
        for check_stable in (False, True):
            with pytest.raises(ValueError,
                               match="^saturation depth must be an integer$"):
                irrelevant_radical(q, w, depth=depth,
                                   check_stable=check_stable)
    assert class_cache == {}


def test_bundled_degrees_stable_at_depth_one():
    dp = delpezzo4()
    for d in (dp.ample, dp.anti_canonical):
        ideal, stable = irrelevant_radical(dp.degrees, d, heft=dp.heft,
                                           check_stable=True)
        assert stable


# minimal supports of the degree-four del Pezzo's anticanonical radical on
# its sixteen lines, in the column order of dp4_columns()
DP4_ANTICANONICAL_SUPPORTS = (
    (1, 2, 6, 16), (1, 3, 7, 16), (1, 4, 8, 16), (1, 5, 9, 16),
    (1, 6, 7, 15), (1, 6, 8, 14), (1, 6, 9, 13), (1, 7, 8, 12),
    (1, 7, 9, 11), (1, 8, 9, 10), (2, 3, 10, 16), (2, 4, 11, 16),
    (2, 5, 12, 16), (2, 6, 10, 15), (2, 6, 11, 14), (2, 6, 12, 13),
    (2, 7, 11, 12), (2, 8, 10, 12), (2, 9, 10, 11), (3, 4, 13, 16),
    (3, 5, 14, 16), (3, 6, 13, 14), (3, 7, 10, 15), (3, 7, 11, 14),
    (3, 7, 12, 13), (3, 8, 10, 14), (3, 9, 10, 13), (4, 5, 15, 16),
    (4, 6, 13, 15), (4, 7, 11, 15), (4, 8, 10, 15), (4, 8, 11, 14),
    (4, 8, 12, 13), (4, 9, 11, 13), (5, 6, 14, 15), (5, 7, 12, 15),
    (5, 8, 12, 14), (5, 9, 10, 15), (5, 9, 11, 14), (5, 9, 12, 13),
)


def dp4_columns():
    """The sixteen lines of the degree-four del Pezzo surface on Pic = Z^6
    in the basis (H, E_1..E_5): E_i, then H - E_i - E_j, then 2H - sum E."""
    def cls(h, minus):
        return tuple([h] + [-1 if i in minus else 0 for i in range(1, 6)])
    return ([tuple(int(j == i) for j in range(6)) for i in range(1, 6)]
            + [cls(1, p) for p in combinations(range(1, 6), 2)]
            + [cls(2, range(1, 6))])


def dp3_columns():
    """The 27 lines of the cubic surface on Pic = Z^7 in the basis
    (H, E_1..E_6): E_i, then H - E_i - E_j, then 2H - sum_{j != i} E_j."""
    def cls(h, minus):
        return tuple([h] + [-1 if i in minus else 0 for i in range(1, 7)])
    return ([tuple(int(j == i) for j in range(7)) for i in range(1, 7)]
            + [cls(1, p) for p in combinations(range(1, 7), 2)]
            + [cls(2, [j for j in range(1, 7) if j != i])
               for i in range(1, 7)])


def test_dp3_anticanonical_radical_is_the_tritangent_triples(
        monkeypatch, class_cache):
    # 27 columns pass the guard once it is raised; the depth-1 radical at
    # -K is the 45 triples of lines that sum to -K, the tritangent planes,
    # and no union of two members of S(-K) fits the heft budget of -K
    monkeypatch.setattr(monomials, "MAX_SEARCH_GENS", 27)
    cols = dp3_columns()
    q = DegreeMatrix.make(cols)
    minus_k = (3, -1, -1, -1, -1, -1, -1)
    assert len(caratheodory_supports(q, minus_k)) == 621
    triples = tuple(tuple(j + 1 for j in t)
                    for t in combinations(range(27), 3)
                    if tuple(map(sum, zip(*(cols[j] for j in t)))) == minus_k)
    assert len(triples) == 45
    assert irrelevant_radical(q, minus_k).generators == triples


def test_dp4_anticanonical_radical_on_sixteen_lines():
    # sixteen generators sit at the subset-search guard
    q = DegreeMatrix.make(dp4_columns())
    ideal = irrelevant_radical(q, (3, -1, -1, -1, -1, -1), depth=1,
                               heft=(3, 1, 1, 1, 1, 1))
    assert ideal.generators == DP4_ANTICANONICAL_SUPPORTS


def test_dp4_anticanonical_radical_saturates_at_depth_two():
    # at depth 1 the radical misses supports that 2(-K) adds; depth 2 gives
    # the 56 supports of the saturated radical, and depth 3 adds none
    q = DegreeMatrix.make(dp4_columns())
    minus_k = (3, -1, -1, -1, -1, -1)
    ideal, stable = irrelevant_radical(q, minus_k, depth=1,
                                       check_stable=True)
    assert ideal.generators == DP4_ANTICANONICAL_SUPPORTS and not stable
    ideal, stable = irrelevant_radical(q, minus_k, depth=2,
                                       check_stable=True)
    assert len(ideal.generators) == 56 and stable
    assert set(DP4_ANTICANONICAL_SUPPORTS) < set(ideal.generators)


def test_dp4_anticanonical_periods():
    # 40 members of S(-K) are achievable at -K and 16 only at -2K, which
    # is why depth 2 is the first to give S(-K)
    q = DegreeMatrix.make(dp4_columns())
    vertices, periods, _ = monomials._fibre(q, (3, -1, -1, -1, -1, -1))
    assert sorted(periods.values()) == [1] * 40 + [2] * 16
    assert list(periods) == list(vertices)


@pytest.mark.parametrize("columns, w0, subset, ray", [
    # x = (1, 1) gives (1, 1): right in the first row, wrong in the last
    ([(1, 0), (0, 1)], (1, 2), (0, 1), (1, 1, 1)),
    # no column of the subset reaches the last row, which is still checked
    ([(1, 0, 0), (0, 1, 1), (1, 1, 0)], (2, 1, 1), (0, 2), (1, 0, 1, 1)),
    # integral only at the period: p = 2 and x = (1, 1) give (2, 2, 2)
    # against 2 w0 = (2, 2, 4)
    ([(2, 0, 0), (0, 2, 2), (1, 1, 0)], (1, 1, 2), (0, 1), (1, 1, 0, 2)),
])
def test_period_replay_fails_in_the_last_row(columns, w0, subset, ray):
    # each ray is integral at its period, and its point lies over p w0 in
    # every row but the last: the replay still raises
    q = DegreeMatrix.make(columns)
    with pytest.raises(RuntimeError, match="exponent vector failed replay"):
        monomials._period(q, w0, subset, ray)
    # the same ray passes against the class its point does lie over
    t = ray[-1]
    p = t // math.gcd(t, *(ray[j] for j in subset))
    point = [sum(p * ray[j] // t * columns[j][i] for j in subset)
             for i in range(len(w0))]
    assert monomials._period(q, tuple(x // p for x in point), subset,
                             ray) == p


def test_periods_two_and_three_saturate_at_depth_three(class_cache):
    # x1 of degree 2 has period 2 at the class 1 and x2 of degree 3 period
    # 3: the depth-3 radical is S(1) = {x1, x2} and stable, read off the
    # periods, though no layer up to 3 holds both members and the layer 3
    # is never asked for
    q = DegreeMatrix.make([(2,), (3,)])
    assert monomials._fibre(q, (1,))[1] == {(0,): 2, (1,): 3}
    assert irrelevant_radical(q, (1,), depth=2, check_stable=True) == \
        (SquarefreeIdeal(((1,),)), False)
    ideal, stable = irrelevant_radical(q, (1,), depth=3, check_stable=True)
    assert ideal.generators == ((1,), (2,)) and stable
    # one S(1) ideal, at depths 3 and 4 and at the class 2, where the
    # periods 2 and 3 again give depth 3, with no layer asked for; it is
    # kept as the layer at lcm(2, 3) = 6
    radicals = class_cache[q, (1,)][2]
    assert radicals[1, 3] is radicals[1, 4] is radicals[6, 1] is \
        irrelevant_radical(q, (2,), depth=3)
    # the layers 1 and 2, each of at most one support, are the only ones
    # searched
    assert set(radicals) == {(1, 1), (2, 1), (1, 2), (1, 3), (1, 4),
                             (6, 1), (2, 3)}
    assert radicals[1, 1].generators == () and \
        radicals[2, 1].generators == radicals[1, 2].generators == ((1,),)


def test_a_layer_is_searched_once_for_both_radicals_that_hold_it(
        monkeypatch, class_cache):
    # the layer 2w is the depth-1 radical at 2w: radical(w, 2), radical(2w,
    # 1) and the minimal supports of 2w share one search at 2w
    q = DegreeMatrix.make([(2,), (3,)])
    searched = []
    search = monomials._search_supports

    def counted_search(q, d, h, periods):
        searched.append(d)
        return search(q, d, h, periods)

    monkeypatch.setattr(monomials, "_search_supports", counted_search)
    assert irrelevant_radical(q, (1,), 2).generators == ((1,),)
    assert irrelevant_radical(q, (2,), 1).generators == ((1,),)
    assert minimal_supports_of_degree(q, (2,)) == ((1,),)
    assert searched == [(1,), (2,)]


def test_a_thousand_layers_below_the_saturation_depth():
    # periods 1000 and 1001: the layers 1..999 are empty, the layer 1000
    # holds x1, and depth 1001 is S(1); the depths are built in a loop, not
    # by recursion
    q = DegreeMatrix.make([(1000,), (1001,)])
    assert irrelevant_radical(q, (1,), depth=1000, check_stable=True) == \
        (SquarefreeIdeal(((1,),)), False)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bitmask_search_matches_set_search_on_dp4(k):
    # the layers k(-K) of the depth-1 to depth-3 radicals
    q = DegreeMatrix.make(dp4_columns())
    h = derive_heft(q)
    d = tuple(k * x for x in (3, -1, -1, -1, -1, -1))
    assert monomials._search_supports(q, d, h, monomials._fibre(q, d)[1]) \
        == set_search_supports(q, d, h, caratheodory_supports(q, d))


def counted_exponents(monkeypatch):
    """Count the calls of the enumerator."""
    calls = []
    real = monomials._exponents

    def counted(q, d, h, idx):
        calls.append(idx)
        return real(q, d, h, idx)

    monkeypatch.setattr(monomials, "_exponents", counted)
    return calls


def test_dependent_columns_ask_the_enumerator(monkeypatch, class_cache):
    # the union of the members (0,) and (1,) of S(3): x_1 + x_2 = 1 has two
    # solutions in nonnegative integers, and the enumerator finds the first
    calls = counted_exponents(monkeypatch)
    q = DegreeMatrix.make([(1,), (1,)])
    assert monomials._achievable(q, (3,), (1,), (0, 1))
    assert calls == [(0, 1)]


def test_reproduce_paper_radical_searches_run_no_enumerator(monkeypatch,
                                                           class_cache):
    # every member of S(w) has period 1 on the bundled grading, so every
    # radical is S(w), one ideal per class, and no layer is asked for (5
    # layers, each member decided by its fibre vertex, before periods
    # decided the radical)
    calls = counted_exponents(monkeypatch)
    reproduce_paper_report()
    assert all(len({id(r) for r in radicals.values()}) == 1
               for _v, _p, radicals in class_cache.values())
    assert calls == []


def test_dp4_radical_search_runs_no_enumerator(monkeypatch, class_cache):
    calls = counted_exponents(monkeypatch)
    q = DegreeMatrix.make(dp4_columns())
    minus_k = (3, -1, -1, -1, -1, -1)
    ideal = irrelevant_radical(q, minus_k, depth=1)
    assert ideal.generators == DP4_ANTICANONICAL_SUPPORTS
    assert list(class_cache[q, minus_k][2]) == [(1, 1)] and calls == []
