from itertools import combinations

import pytest

from coxtoric import chambers, cones, monomials
from coxtoric.chambers import (GuardExceeded, chamber_of, effective_cone,
                               same_chamber, spans_extremal_ray)
from coxtoric.cli import main
from coxtoric.cones import (RationalCone, double_description,
                            generators_to_hrep, primitive,
                            separating_functional)
from coxtoric.exact import dot
from coxtoric.fans import fan_from_irrelevant
from coxtoric.grading import DegreeMatrix, delpezzo4, gale_dual
from coxtoric.linprog import lp_feasible
from coxtoric.monomials import caratheodory_supports, irrelevant_radical
from test_monomials import dp3_columns


def chamber_oracle(q, w):
    """Intersection over every qualifying subset (not only minimal ones),
    returned as the sorted extreme-ray list of the chamber cone."""
    rows = []
    for size in range(1, q.num_gens + 1):
        for subset in combinations(range(q.num_gens), size):
            cone = RationalCone.from_generators(
                [q.columns[j] for j in subset], dim=q.pic_rank)
            if cone.contains(w):
                eqs, ineqs = cone.hrep
                for e in eqs:
                    rows.append(e)
                    rows.append(tuple(-x for x in e))
                rows.extend(ineqs)
    lin, rays, _ = double_description(q.pic_rank, (),
                                      tuple(dict.fromkeys(rows)))
    return lin, rays


def greedy_lp_hrep(q, w):
    """The former redundancy pass of chamber_of, kept as its oracle. The
    candidate rows are the hreps of the members of S(w), or of the single
    columns for the zero class, each equality with both signs; in sorted
    order, a row is dropped when no point with r.x >= 0 on the rows still
    kept has -row.x >= 1."""
    subsets = caratheodory_supports(q, w)
    if not any(w):
        subsets = [(j,) for j in range(q.num_gens)]
    rows = set()
    for subset in subsets:
        eqs, ineqs, _ = generators_to_hrep(q.pic_rank,
                                           [q.columns[j] for j in subset])
        rows.update(primitive(e) for e in eqs)
        rows.update(primitive(tuple(-x for x in e)) for e in eqs)
        rows.update(primitive(a) for a in ineqs)
    working = sorted(rows)
    for row in list(working):
        others = [r for r in working if r != row]
        probe = [[*r, 0] for r in others] + [[*(-x for x in row), 1]]
        if not lp_feasible(q.pic_rank, [], probe).feasible:
            working = others
    return tuple(working)


def test_effective_cone_small():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    eqs, ineqs = effective_cone(q).hrep
    assert eqs == ()
    assert sorted(ineqs) == [(0, 1), (1, 0)]
    p2 = DegreeMatrix.make([(1,), (1,), (1,)])
    eff = effective_cone(p2)
    assert double_description(eff.dim, *eff.hrep) == ([], [(1,)], [0])


def test_effective_cone_delpezzo_interior():
    dp = delpezzo4()
    eff = effective_cone(dp.degrees)
    assert eff.contains_interior(dp.ample)
    assert eff.contains_interior(dp.anti_canonical)


def test_spans_extremal_ray():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    assert all(spans_extremal_ray(q, i) for i in range(1, 5))
    q2 = DegreeMatrix.make([(1, 0), (0, 1), (1, 1)])
    assert spans_extremal_ray(q2, 1)
    assert spans_extremal_ray(q2, 2)
    assert not spans_extremal_ray(q2, 3)
    # parallel columns do not block each other
    q3 = DegreeMatrix.make([(1, 0), (2, 0), (0, 1)])
    assert spans_extremal_ray(q3, 1) and spans_extremal_ray(q3, 2)
    dp = delpezzo4()
    assert all(spans_extremal_ray(dp.degrees, i) for i in range(1, 11))
    with pytest.raises(ValueError, match="out of range"):
        spans_extremal_ray(q2, 4)
    q4 = DegreeMatrix.make([(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="zero"):
        spans_extremal_ray(q4, 2)


def test_chamber_of_p2():
    q = DegreeMatrix.make([(1,), (1,), (1,)])
    ch = chamber_of(q, (1,))
    assert ch.hrep == ((1,),)
    assert ch.full_dimensional


def test_chamber_of_p1xp1_with_oracle():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    ch = chamber_of(q, (1, 1))
    assert sorted(ch.hrep) == [(0, 1), (1, 0)]
    assert ch.full_dimensional
    lin, rays = chamber_oracle(q, (1, 1))
    assert lin == []
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_chamber_walls_and_interiors():
    q = DegreeMatrix.make([(1, 0), (0, 1), (1, 1)])
    inner = chamber_of(q, (2, 1))
    assert sorted(inner.hrep) == [(0, 1), (1, -1)]
    assert inner.full_dimensional
    wall = chamber_of(q, (1, 1))
    assert not wall.full_dimensional
    # the wall chamber is exactly the ray through (1,1)
    lin, rays, _ = double_description(2, (), wall.hrep)
    assert lin == [] and rays == [(1, 1)]


def test_chamber_scaling_invariance():
    dp = delpezzo4()
    a = chamber_of(dp.degrees, dp.ample)
    b = chamber_of(dp.degrees, tuple(3 * x for x in dp.ample))
    assert a.hrep == b.hrep
    assert a.full_dimensional and b.full_dimensional


def test_chamber_inside_effective_cone():
    dp = delpezzo4()
    ch = chamber_of(dp.degrees, dp.anti_canonical)
    assert not ch.full_dimensional
    # no point satisfying the chamber rows violates any effective facet;
    # the rows are homogeneous, so a violation scales to -facet.x >= 1
    _, eff_rows = effective_cone(dp.degrees).hrep
    base = [[*r, 0] for r in ch.hrep]
    for facet in eff_rows:
        probe = base + [[*(-x for x in facet), 1]]
        assert not lp_feasible(5, [], probe).feasible


def same_cone(rows_a, rows_b, dim):
    """Whether two homogeneous inequality systems cut out the same cone:
    one double description of each gives the same generator form."""
    lin_a, rays_a, _ = double_description(dim, (), rows_a)
    lin_b, rays_b, _ = double_description(dim, (), rows_b)
    return lin_a == lin_b == [] and sorted(rays_a) == sorted(rays_b)


# chamber_of at the zero class of the bundled grading, as the greedy pass
# reported it before the canonical form
DP5_ZERO_CHAMBER_GREEDY = (
    (-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0), (0, 0, 0, 0, -1), (1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 0, 0))


def test_chamber_of_zero_class():
    # the zero class lies in every nonempty column cone, so its chamber is
    # cut out by the single columns: on the bundled grading only the origin,
    # five equalities with both signs, the cone of the former nine rows
    ch = chamber_of(delpezzo4().degrees, (0, 0, 0, 0, 0))
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert ch.hrep == tuple(sorted(units + [tuple(-x for x in u)
                                            for u in units]))
    assert ch.full_dimensional is False
    assert same_cone(ch.hrep, DP5_ZERO_CHAMBER_GREEDY, 5)
    ch = chamber_of(DegreeMatrix.make([(1,), (1,), (1,)]), (0,))
    assert ch.hrep == ((1,),)
    assert ch.full_dimensional is True


def test_chamber_errors():
    q = DegreeMatrix.make([(1,), (1,), (1,)])
    with pytest.raises(ValueError, match="outside the effective cone"):
        chamber_of(q, (-1,))
    with pytest.raises(ValueError, match="wrong length"):
        chamber_of(q, (1, 0))
    wide = DegreeMatrix.make([(1,)] * 17)
    with pytest.raises(GuardExceeded, match="subset enumeration too large"):
        chamber_of(wide, (1,))
    with pytest.raises(ValueError, match="outside the effective cone"):
        same_chamber(q, (1,), (-1,))
    with pytest.raises(ValueError, match="class has wrong length"):
        same_chamber(q, (1,), (1, 0))


@pytest.mark.parametrize("w", [(3.9, -1, -1, -1, -1), (3, -1, -1, -1, True)])
def test_chamber_classes_are_not_truncated(w):
    dp = delpezzo4()
    with pytest.raises(ValueError, match="class entries must be integers"):
        chamber_of(dp.degrees, w)
    with pytest.raises(ValueError, match="class entries must be integers"):
        same_chamber(dp.degrees, w, dp.anti_canonical)
    with pytest.raises(ValueError, match="class entries must be integers"):
        same_chamber(dp.degrees, dp.anti_canonical, w)


def test_same_chamber_delpezzo():
    dp = delpezzo4()
    q = dp.degrees
    double = tuple(2 * x for x in dp.ample)
    r = same_chamber(q, dp.ample, double, check_stable=True)
    assert r.same and r.stable
    r2 = same_chamber(q, dp.ample, dp.anti_canonical, check_stable=True)
    assert not r2.same and r2.stable
    # depth 2 agrees
    assert same_chamber(q, dp.ample, double, depth=2).same
    assert not same_chamber(q, dp.ample, dp.anti_canonical, depth=2).same
    # reflexivity
    assert same_chamber(q, dp.ample, dp.ample).same


def test_same_chamber_equivalence_relation():
    q = DegreeMatrix.make([(1, 0), (0, 1), (1, 1)])
    sample = [(2, 1), (3, 1), (1, 1), (2, 2), (1, 2), (1, 3)]
    rel = {(a, b): same_chamber(q, a, b).same
           for a in sample for b in sample}
    for a in sample:
        assert rel[(a, a)]
        for b in sample:
            assert rel[(a, b)] == rel[(b, a)]
            for c in sample:
                if rel[(a, b)] and rel[(b, c)]:
                    assert rel[(a, c)]
    assert rel[((2, 1), (3, 1))]
    assert not rel[((2, 1), (1, 2))]


def test_same_chamber_gives_same_fan():
    dp = delpezzo4()
    gale = gale_dual(dp.degrees)
    double = tuple(2 * x for x in dp.ample)
    f1 = fan_from_irrelevant(gale, irrelevant_radical(dp.degrees, dp.ample,
                                                      heft=dp.heft))
    f2 = fan_from_irrelevant(gale, irrelevant_radical(dp.degrees, double,
                                                      heft=dp.heft))
    assert f1 == f2


def test_chamber_questions_lp_budget(counted_lp_calls):
    dp = delpezzo4()
    q = dp.degrees
    calls = counted_lp_calls
    # membership in the effective cone comes from S(w), positivity and
    # the heft from the effective cone's constraint form
    assert same_chamber(q, dp.ample, tuple(2 * x for x in dp.ample)).same
    irrelevant_radical(q, dp.ample)
    # redundancy and extremality are decided by separating functionals
    chamber_of(q, dp.anti_canonical)
    chamber_of(q, (0, 0, 0, 0, 0))
    assert all(spans_extremal_ray(q, i) for i in range(1, q.num_gens + 1))
    assert calls == []


def counted_support_dds(monkeypatch):
    """Count the double descriptions of fibre_vertices, the only caller of
    cones._fibre_rays in monomials; returns the list of their targets."""
    calls = []
    real = monomials._fibre_rays

    def counted(kernel, target):
        calls.append(target)
        return real(kernel, target)

    monkeypatch.setattr(monomials, "_fibre_rays", counted)
    return calls


def test_support_sets_computed_once_per_class(monkeypatch, class_cache):
    # S(k w) = S(w), so same_chamber reads every layer of both radicals off
    # the one S of its effective-cone check, and irrelevant_radical off
    # one more, at every depth
    dp = delpezzo4()
    q = dp.degrees
    calls = counted_support_dds(monkeypatch)
    doubled = tuple(2 * x for x in dp.ample)
    result = same_chamber(q, dp.ample, doubled, depth=2, check_stable=True)
    assert result.same and result.stable
    assert len(calls) == 1
    irrelevant_radical(q, dp.anti_canonical, depth=2, check_stable=True)
    assert len(calls) == 2


def test_reproduce_paper_computes_two_support_sets(monkeypatch, capsys,
                                                   class_cache):
    # S is asked for twelve times (a, 2a and -K by the radicals' periods
    # and by the chamber comparisons' effective-cone checks) and
    # S(2a) = S(a)
    calls = counted_support_dds(monkeypatch)
    assert main(["reproduce-paper", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_chamber_compare_job_computes_one_support_set(monkeypatch, capsys,
                                                      class_cache):
    # chamber_of(w) and same_chamber(w, 2w) ask for S three times
    calls = counted_support_dds(monkeypatch)
    assert main(["chamber", "--dataset", "delpezzo4", "--degree",
                 "3,-1,-1,-1,-1", "--compare", "6,-2,-2,-2,-2",
                 "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_caratheodory_supports_returns_a_fresh_list(monkeypatch,
                                                     class_cache):
    calls = counted_support_dds(monkeypatch)
    q = delpezzo4().degrees
    first = caratheodory_supports(q, (3, -1, -1, -1, -1))
    first.clear()
    again = caratheodory_supports(q, (6, -2, -2, -2, -2))
    assert again and again == caratheodory_supports(q, (3, -1, -1, -1, -1))
    assert len(calls) == 1


def test_same_chamber_reuses_the_cone_hreps_of_chamber_of(monkeypatch,
                                                          class_cache):
    # chamber_of builds the constraint form of every cone(q_J), J in S(w),
    # through the monomials cache, and same_chamber builds none of them again
    dp = delpezzo4()
    q = dp.degrees
    monomials._subset_hrep.cache_clear()
    monomials.derive_heft.cache_clear()
    misses = []
    real = monomials.generators_to_hrep

    def counted(dim, gens):
        misses.append(tuple(gens))
        return real(dim, gens)

    monkeypatch.setattr(monomials, "generators_to_hrep", counted)
    cones_of = {tuple(q.columns[j] for j in subset)
                for subset in caratheodory_supports(q, dp.anti_canonical)}
    chamber_of(q, dp.anti_canonical)
    assert cones_of <= set(misses)
    misses.clear()
    assert not same_chamber(q, dp.anti_canonical, dp.ample).same
    assert misses and not cones_of & set(misses)


def test_same_chamber_checks_depth_before_any_support_set(monkeypatch,
                                                         class_cache):
    calls = counted_support_dds(monkeypatch)
    q = delpezzo4().degrees
    outside = (-1, 0, 0, 0, 0)
    with pytest.raises(ValueError,
                       match="^saturation depth must be at least 1$"):
        same_chamber(q, outside, (3, -1, -1, -1, -1), depth=0)
    # a depth that is not an int, or is a bool, is no depth at all
    for depth in (1.5, 2.0, True):
        for check_stable in (False, True):
            with pytest.raises(ValueError,
                               match="^saturation depth must be an integer$"):
                same_chamber(q, (3, -1, -1, -1, -1), (6, -2, -2, -2, -2),
                             depth=depth, check_stable=check_stable)
    assert calls == [] and class_cache == {}
    with pytest.raises(ValueError, match="^class outside the effective cone$"):
        same_chamber(q, outside, (3, -1, -1, -1, -1))


def _line(h, minus):
    v = [h] + [0] * 5
    for i in minus:
        v[i] -= 1
    return tuple(v)


# the sixteen lines of the degree-four del Pezzo surface on Pic = Z^6:
# E_i, H - E_i - E_j and 2H - (E_1 + ... + E_5)
DP4_LINES = ([tuple(int(j == i) for j in range(6)) for i in range(1, 6)]
             + [_line(1, p) for p in combinations(range(1, 6), 2)]
             + [_line(2, range(1, 6))])

# chamber_of at -K on the sixteen-line grading, computed by the greedy LP
# pass before it was replaced; the column sum is 4(-K)
DP4_ANTICANONICAL_CHAMBER_GREEDY = (
    (-1, 0, -1, 0, -1, -1), (0, -1, 1, 0, 0, 0), (0, 0, -1, 1, 0, 0),
    (0, 0, 0, -1, 0, 1), (0, 0, 0, -1, 1, 0), (1, 1, 1, 1, 0, 0),
    (3, 2, 1, 1, 1, 1))

# the same chamber, the ray through -K, in canonical form: five equalities
# with both signs and one facet row
DP4_ANTICANONICAL_CHAMBER = (
    (-1, -1, -1, -1, -1, 0), (-1, 0, 0, 0, 0, -3), (0, -1, 0, 0, 0, 1),
    (0, 0, -1, 0, 0, 1), (0, 0, 0, -1, 0, 1), (0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, 1, -1), (0, 0, 0, 1, 0, -1), (0, 0, 1, 0, 0, -1),
    (0, 1, 0, 0, 0, -1), (1, 0, 0, 0, 0, 3))


@pytest.mark.parametrize("w", [(3, -1, -1, -1, -1, -1),
                               tuple(map(sum, zip(*DP4_LINES)))],
                         ids=["anticanonical", "column-sum"])
def test_dp4_chamber_is_pinned(w):
    ch = chamber_of(DegreeMatrix.make(DP4_LINES), w)
    assert ch.hrep == DP4_ANTICANONICAL_CHAMBER
    assert ch.full_dimensional is False
    assert same_cone(ch.hrep, DP4_ANTICANONICAL_CHAMBER_GREEDY, 6)


def test_dp3_anticanonical_chamber_is_the_ray_through_minus_k(monkeypatch,
                                                             class_cache):
    # 27 columns pass the guard once it is raised; the chamber of -K on the
    # cubic surface's lines is the ray through -K: six equalities with both
    # signs and one facet row, positive on -K
    monkeypatch.setattr(monomials, "MAX_SEARCH_GENS", 27)
    minus_k = (3, -1, -1, -1, -1, -1, -1)
    ch = chamber_of(DegreeMatrix.make(dp3_columns()), minus_k)
    assert ch.full_dimensional is False
    assert len(ch.hrep) == 13
    lin, rays, _ = double_description(7, (), ch.hrep)
    assert lin == [] and rays == [minus_k]
    equalities = [row for row in ch.hrep
                  if tuple(-x for x in row) in ch.hrep]
    assert len(equalities) == 12
    assert all(dot(row, minus_k) == 0 for row in equalities)
    (facet,) = set(ch.hrep) - set(equalities)
    assert dot(facet, minus_k) > 0


def put_column_one_on_every_facet(monkeypatch):
    """Corrupt Eff's constraint form as chambers reads it: column 1 on
    every facet. Its minimal face is then column 1 alone, every facet
    counts as tight on it, and the extremality witness M s - h with s = h
    is h itself, positive on column 1."""
    real = chambers._subset_hrep

    def bogus(q, subset):
        eqs, facets, masks = real(q, subset)
        return eqs, facets, tuple(z | 1 for z in masks)

    monkeypatch.setattr(chambers, "_subset_hrep", bogus)


def test_separating_functional_replay_failure(monkeypatch):
    put_column_one_on_every_facet(monkeypatch)
    with pytest.raises(RuntimeError,
                       match="separating functional failed replay"):
        spans_extremal_ray(delpezzo4().degrees, 1)


def test_separating_functional_replays_its_row(monkeypatch):
    # a generator's negative put first among the facets separates every
    # target with a positive product with some generator, but fails on
    # that generator itself
    real = cones.generators_to_hrep

    def bogus(dim, gens):
        eqs, ineqs, masks = real(dim, gens)
        return eqs, tuple(tuple(-x for x in g) for g in gens) + ineqs, masks

    monkeypatch.setattr(cones, "generators_to_hrep", bogus)
    columns = delpezzo4().degrees.columns
    with pytest.raises(RuntimeError,
                       match="separating functional failed replay"):
        separating_functional(columns[1:], columns[0], 5)


def test_extremality_replay_failure_exits_4(monkeypatch, capsys):
    put_column_one_on_every_facet(monkeypatch)
    assert main(["embed", "--dataset", "delpezzo4", "--json"]) == 4
    assert "separating functional failed replay" in capsys.readouterr().err


def test_chamber_replay_failure(monkeypatch, capsys):
    # a ray put first that is the negative of the first inequality row
    # violates that candidate row, which the replay of every ray against
    # every candidate row must catch
    real = chambers._intersection

    def bogus(dim, hreps):
        eqs, ineqs, lin, rays = real(dim, hreps)
        return eqs, ineqs, lin, [tuple(-x for x in ineqs[0])] + rays

    monkeypatch.setattr(chambers, "_intersection", bogus)
    dp = delpezzo4()
    with pytest.raises(RuntimeError, match="^chamber failed replay$"):
        chamber_of(dp.degrees, dp.anti_canonical)
    code = main(["chamber", "--dataset", "delpezzo4", "--degree",
                 "3,-1,-1,-1,-1", "--json"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "internal error: chamber failed replay\n"
