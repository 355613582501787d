import json
import sys
from collections import defaultdict
from itertools import combinations, product
from random import Random

import pytest

from coxtoric import delpezzo, fans, monomials
from coxtoric.cli import main
from coxtoric.delpezzo import (ample_ideal, anticanonical_ideal,
                               reproduce_paper_report)
from coxtoric.exact import dot, int_row
from coxtoric.fans import (Cone, Fan, ProjectivityCertificate, Verdict,
                           _facet_pairing, _vertex_replay,
                           _wall_connected, fan_from_irrelevant, fan_report,
                           fibre_support, is_complete, is_projective,
                           is_simplicial, validate_fan)
from coxtoric.grading import DegreeMatrix, delpezzo4, gale_dual
from coxtoric.linprog import lp_feasible
from coxtoric.monomials import (SquarefreeIdeal, fibre_vertices,
                                irrelevant_radical)
from test_exact import fraction_rref
from test_monomials import dp3_columns, dp4_columns

CUBE_RAYS = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
             (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1))

# two triangulations of the cube surface: the first admits no strictly
# convex support function, the second does
CUBE_NONPROJECTIVE = ((1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
                      (2, 4, 8), (2, 6, 8), (3, 4, 7), (3, 5, 7), (4, 7, 8),
                      (5, 6, 8), (5, 7, 8))
CUBE_PROJECTIVE = ((1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 7), (1, 5, 6),
                   (1, 5, 7), (2, 4, 8), (2, 6, 8), (3, 4, 8), (3, 7, 8),
                   (5, 6, 8), (5, 7, 8))

CUBE_FACES = ((1, 2, 4, 3), (5, 6, 8, 7), (1, 2, 6, 5),
              (3, 4, 8, 7), (1, 3, 7, 5), (2, 4, 8, 6))


def cube_fan(cones):
    return Fan.from_index_sets(CUBE_RAYS, cones)


def cube_triangulation(choices):
    cones = []
    for (a, b, c, d), pick in zip(CUBE_FACES, choices):
        if pick == 0:
            cones += [tuple(sorted((a, b, c))), tuple(sorted((a, c, d)))]
        else:
            cones += [tuple(sorted((a, b, d))), tuple(sorted((b, c, d)))]
    return cube_fan(tuple(sorted(cones)))


def direct_projectivity_oracle(fan):
    """Feasibility of the support-function system with one functional per
    maximal cone, no spanning tree: an independent implementation."""
    d = fan.ambient_dim
    nvars = len(fan.maximal_cones) * d
    pairs = defaultdict(list)
    for pos, cone in enumerate(fan.maximal_cones):
        for _, tight in cone.facets:
            pairs[tight].append(pos)
    eqs, ineqs = [], []

    def diff_row(i, j, v):
        r = [0] * nvars
        for c in range(d):
            r[i * d + c] += v[c]
            r[j * d + c] -= v[c]
        return r

    for tight, members in pairs.items():
        if len(members) != 2:
            continue
        i, j = members
        for idx in tight:
            eqs.append(diff_row(i, j, fan.rays[idx - 1]) + [0])
        for near, far in ((i, j), (j, i)):
            for idx in fan.maximal_cones[far].ray_indices:
                if idx not in tight:
                    ineqs.append(
                        diff_row(near, far, fan.rays[idx - 1]) + [1])
    for c in range(d):
        g = [0] * nvars
        g[c] = 1
        eqs.append(g + [0])
    return lp_feasible(nvars, eqs, ineqs).feasible


def lp_member(gens, target, dim):
    """Cone membership as an LP, independent of the double descriptions of
    cones: some lambda >= 0 with sum_j lambda_j gens_j = target."""
    k = len(gens)
    return lp_feasible(
        k, [int_row([*(g[i] for g in gens), target[i]]) for i in range(dim)],
        [[int(i == j) for i in range(k)] + [0] for j in range(k)]).feasible


def pair_lp_validate(fan):
    """validate_fan without a support function, as one LP per pair of
    maximal cones: a separating functional h with h = 0 on the common rays
    and h.v >= 1, -h.v >= 1 on the two sides, retried without the side rays
    that lp_member puts inside the cone on the common rays."""
    d = fan.ambient_dim
    for pos, cone in enumerate(fan.maximal_cones, start=1):
        if not cone.geometry.is_pointed:
            return Verdict(False, f"cone {pos} is not strongly convex")

    def separated(common, sides):
        return lp_feasible(d, [[*r, 0] for r in common],
                           [[*(s * x for x in r), 1] for r, s in sides]
                           ).feasible

    for (a, ca), (b, cb) in combinations(
            enumerate(fan.maximal_cones, start=1), 2):
        sa, sb = set(ca.ray_indices), set(cb.ray_indices)
        common = [fan.rays[i - 1] for i in sorted(sa & sb)]
        sides = [(fan.rays[i - 1], 1) for i in sorted(sa - sb)] + \
            [(fan.rays[i - 1], -1) for i in sorted(sb - sa)]
        if separated(common, sides):
            continue
        outside = [(r, s) for r, s in sides if not lp_member(common, r, d)]
        if len(outside) == len(sides) or not separated(common, outside):
            return Verdict(False, f"intersection of cones {a} and {b} is "
                                  f"not a face of both")
    return Verdict(True)


def hrep_span_rank(cone):
    """RationalCone.span_rank off the H-form alone: dim less the count of
    its equalities, a basis of span(generators)^perp."""
    return cone.dim - len(cone.hrep[0])


def hrep_is_pointed(cone):
    """The former RationalCone.is_pointed: independent generators, or
    stacked constraint normals of rank dim, ranked by Fraction
    elimination (test_exact.fraction_rref)."""
    if hrep_span_rank(cone) == len(cone.generators):
        return True
    eqs, ineqs = cone.hrep
    return len(fraction_rref(list(eqs) + list(ineqs))[1]) == cone.dim


def dot_facets(cone):
    """The former Cone.facets: per facet normal of the H-form, the rays
    on it found by one dot product per (facet, ray)."""
    return tuple((n, tuple(idx for idx, ray in zip(cone.ray_indices,
                                                   cone.rays)
                           if dot(n, ray) == 0))
                 for n in cone.geometry.hrep[1])


def hrep_facet_pairing(fan):
    """The former fans._facet_pairing: every cone's facet keys read off
    its double description, with the tight rays of dot_facets."""
    pairing = {}
    for pos, cone in enumerate(fan.maximal_cones):
        for _normal, tight in dot_facets(cone):
            pairing.setdefault(tight, []).append(pos)
    return pairing


def hrep_is_complete(fan):
    """The former fans.is_complete, with hrep_span_rank and
    hrep_facet_pairing."""
    for pos, cone in enumerate(fan.maximal_cones):
        if hrep_span_rank(cone.geometry) < fan.ambient_dim:
            return Verdict(False,
                           f"cone {pos + 1} is not full-dimensional")
    pairing = hrep_facet_pairing(fan)
    for key, owners in pairing.items():
        if len(owners) == 1:
            return Verdict(False,
                           f"facet with rays {key} belongs to only one "
                           f"maximal cone")
        if len(owners) > 2:
            return Verdict(False,
                           f"facet with rays {key} is shared by more than "
                           f"two maximal cones")
    if not _wall_connected(len(fan.maximal_cones), pairing.values()):
        return Verdict(False, "maximal cones are not wall-connected")
    return Verdict(True)


def fresh_copy(fan):
    """The same fan with empty per-cone caches, for an oracle to fill."""
    return Fan(fan.rays, tuple(Cone(c.ray_indices, c.rays)
                               for c in fan.maximal_cones))


def projective_space_fan(n):
    q = DegreeMatrix.make([(1,)] * (n + 1))
    ideal = irrelevant_radical(q, (1,))
    return fan_from_irrelevant(gale_dual(q), ideal)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_space_pipeline(n):
    fan = projective_space_fan(n)
    assert len(fan.maximal_cones) == n + 1
    assert validate_fan(fan)
    assert is_simplicial(fan)
    assert is_complete(fan)
    cert = is_projective(fan)
    assert cert.projective and cert.support_function is not None


def test_p1xp1_pipeline():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    fan = fan_from_irrelevant(gale_dual(q), irrelevant_radical(q, (1, 1)))
    assert len(fan.maximal_cones) == 4
    assert validate_fan(fan) and is_simplicial(fan)
    assert is_complete(fan) and is_projective(fan).projective


def test_overlapping_cones_invalid():
    fan = Fan.from_index_sets(((1, 0), (0, 1), (1, 1), (-1, 1)),
                              ((1, 2), (3, 4)))
    verdict = validate_fan(fan)
    assert not verdict
    assert "intersection" in verdict.reason or "face" in verdict.reason


def test_incomplete_fan():
    fan = Fan.from_index_sets(((1, 0), (0, 1)), ((1, 2),))
    assert validate_fan(fan)
    verdict = is_complete(fan)
    assert not verdict
    with pytest.raises(ValueError, match="complete"):
        is_projective(fan)


def test_cube_fixtures():
    bad = cube_fan(CUBE_NONPROJECTIVE)
    assert validate_fan(bad)
    assert is_simplicial(bad)
    assert is_complete(bad)
    cert = is_projective(bad)
    assert not cert.projective and cert.support_function is None

    good = cube_fan(CUBE_PROJECTIVE)
    assert validate_fan(good)
    assert is_complete(good)
    assert is_projective(good).projective


def test_projectivity_against_direct_oracle():
    # the cube fixtures, the cube's face fan (six square cones), P^3, P^2
    # with an unused ray, and all 64 triangulations of the cube's surface,
    # of which 46 are projective
    fans = [cube_fan(CUBE_NONPROJECTIVE), cube_fan(CUBE_PROJECTIVE),
            cube_fan(CUBE_FACES), projective_space_fan(3),
            Fan.from_index_sets(((1, 0), (0, 1), (-1, -1), (1, 1)),
                                ((1, 2), (2, 3), (1, 3)))]
    fans += [cube_triangulation(choices)
             for choices in product((0, 1), repeat=6)]
    verdicts = []
    for fan in fans:
        cert = is_projective(fan)
        assert cert.projective == direct_projectivity_oracle(fan)
        if cert.projective:
            assert _vertex_replay(fan, cert.support_function)
        verdicts.append(cert.projective)
    assert verdicts[:5] == [False, True, True, True, True]
    assert sum(verdicts[5:]) == 46


@pytest.mark.parametrize("rays, cones, reason", [
    (((1, 0), (0, 1)), ((1,), (2,)), "cone 1 is not full-dimensional"),
    (((1, 0), (0, 1)), ((1, 2),),
     "facet with rays (2,) belongs to only one maximal cone"),
    (((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)),
     ((1, 2), (2, 3), (3, 4), (1, 4), (1, 5)),
     "facet with rays (1,) is shared by more than two maximal cones"),
    # two disjoint triangles of cones, each complete on its own
    (((1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)),
     ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)),
     "maximal cones are not wall-connected"),
], ids=["not-full-dimensional", "one-owner", "three-owners",
        "disconnected"])
def test_is_complete_reasons(rays, cones, reason):
    assert is_complete(Fan.from_index_sets(rays, cones)) == \
        Verdict(False, reason)


def test_facet_pairing_on_complete_fans():
    for fan in (projective_space_fan(2), projective_space_fan(3),
                cube_fan(CUBE_PROJECTIVE)):
        counts = defaultdict(int)
        for cone in fan.maximal_cones:
            for _, tight in cone.facets:
                counts[tight] += 1
        assert all(v == 2 for v in counts.values())


def test_fan_from_irrelevant_errors():
    dp = delpezzo4()
    gale = gale_dual(dp.degrees)
    with pytest.raises(ValueError, match="no generators"):
        fan_from_irrelevant(gale, SquarefreeIdeal(()))
    with pytest.raises(ValueError, match="out of range"):
        fan_from_irrelevant(gale, SquarefreeIdeal(((11,),)))
    with pytest.raises(ValueError, match="empty complement"):
        fan_from_irrelevant(gale, SquarefreeIdeal((tuple(range(1, 11)),)))
    # supports near-full: complement {10} is fine, but ray 10 alone cannot
    # cover all rays
    with pytest.raises(ValueError, match="appears in no maximal cone"):
        fan_from_irrelevant(gale, SquarefreeIdeal((tuple(range(1, 10)),)))
    # a complement containing opposite rays is not strongly convex
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    g2 = gale_dual(q)
    with pytest.raises(ValueError, match="not strongly convex"):
        fan_from_irrelevant(g2, SquarefreeIdeal(((1,), (2,), (3,), (4,))))


def test_delpezzo_fan_shapes():
    dp = delpezzo4()
    gale = gale_dual(dp.degrees)
    ample_fan = fan_from_irrelevant(gale, ample_ideal())
    assert len(ample_fan.maximal_cones) == 42
    assert is_simplicial(ample_fan)
    anti_fan = fan_from_irrelevant(gale, anticanonical_ideal())
    assert len(anti_fan.maximal_cones) == 22
    assert not is_simplicial(anti_fan)
    assert validate_fan(anti_fan)
    assert is_complete(anti_fan)
    assert is_projective(anti_fan).projective
    report = fan_report(anti_fan)
    assert report["numMaximalCones"] == 22
    assert report["simplicial"] is False
    assert report["complete"] is True
    assert report["projective"] is True
    assert report["valid"] is True


def test_fan_report_incomplete():
    fan = Fan.from_index_sets(((1, 0), (0, 1)), ((1, 2),))
    report = fan_report(fan)
    assert report["valid"] is True and report["complete"] is False
    assert report["projective"] is None


@pytest.mark.parametrize("rays, index_sets", [
    (((1.7, 0), (0, 1)), ((1, 2),)),
    (((1, 0), (0, True)), ((1, 2),)),
    (((1, 0), (0, 1)), ((1, 2.9),)),
    (((1, 0), (0, 1)), ((True, 2),)),
])
def test_from_index_sets_rejects_non_integer_entries(rays, index_sets):
    with pytest.raises(ValueError, match="must be integers"):
        Fan.from_index_sets(rays, index_sets)


@pytest.mark.parametrize("index_sets", [
    ((1, 1, 2), (2, 3), (3, 1)),
    ((1, 2), (3, 3)),
])
def test_from_index_sets_rejects_a_repeated_ray_index(index_sets):
    # (1, 1, 2) must not be read as the cone (1, 2)
    rays = ((1, 0), (0, 1), (-1, -1))
    with pytest.raises(ValueError, match="repeated ray index"):
        Fan.from_index_sets(rays, index_sets)


@pytest.mark.parametrize("rays", [((1, 0), (0, 1)), ()])
def test_fan_needs_rays_and_cones(rays):
    # a fan with no maximal cones used to reach is_complete, which then
    # raised IndexError
    with pytest.raises(ValueError, match="at least one ray and one maximal"):
        Fan.from_index_sets(rays, ())


@pytest.mark.parametrize("rays, message", [
    (((1, 0), (0, 0)), "zero ray"),
    (((1, 0), (0, 1, 0)), "unequal length"),
])
def test_from_index_sets_rejects_zero_and_ragged_rays(rays, message):
    # a zero ray used to give a fan reported valid, and a ray of the wrong
    # length failed deep inside the pair loop of validate_fan
    with pytest.raises(ValueError, match=message):
        Fan.from_index_sets(rays, ((1,), (2,)))


# rays at 0, 100, 200, 300, 40, 140, 240 and 340 degrees as
# (round(10 cos), round(10 sin)), cyclically consecutive pairs as cones: a
# complete fan that winds twice around the origin
DOUBLY_WOUND_RAYS = ((10, 0), (-2, 10), (-9, -3), (5, -9),
                     (8, 6), (-8, 6), (-5, -9), (9, -3))
DOUBLY_WOUND_CONES = tuple((k + 1, (k + 1) % 8 + 1) for k in range(8))


def pair_lp_report(fan):
    """fan_report with validity from validate_fan's pair loop alone, where
    fan_report reads it off a found support function."""
    report = fan_report(fan)
    valid = validate_fan(fan)
    report.pop("validityViolation", None)
    report["valid"] = valid.ok
    if not valid.ok:
        report["validityViolation"] = valid.reason
    return report


def test_doubly_wound_fan_needs_the_global_replay():
    fan = Fan.from_index_sets(DOUBLY_WOUND_RAYS, DOUBLY_WOUND_CONES)
    assert is_complete(fan)
    # a support function that is strictly convex across every wall exists,
    # but no polyhedron has these cones as its normal cones: the complement
    # cones share no relative-interior point, so there is no ample class
    assert is_projective(fan) == ProjectivityCertificate(False, None)
    report = fan_report(fan)
    assert report["valid"] is False
    assert report["validityViolation"] == \
        "intersection of cones 1 and 4 is not a face of both"
    assert report["projective"] is None
    assert report == pair_lp_report(fan)
    assert validate_fan(fan) == pair_lp_validate(fan)


def test_complete_fan_with_a_cone_that_is_not_strongly_convex():
    fan = Fan.from_index_sets(((1, 0), (-1, 0), (0, 1), (0, -1)),
                              ((1, 2, 3), (1, 2, 4)))
    report = fan_report(fan)
    assert report["complete"] is True and report["valid"] is False
    assert report["validityViolation"] == "cone 1 is not strongly convex"
    assert report["projective"] is None
    assert report == pair_lp_report(fan)


def test_vertex_replay_on_small_fans():
    fan = projective_space_fan(2)
    support = is_projective(fan).support_function
    assert _vertex_replay(fan, support)
    # the zero functional is tight on every ray: no cone is a vertex cone
    zero = ((0, 0),) * len(fan.maximal_cones)
    assert not _vertex_replay(fan, zero)
    # one height per ray: shifting one functional breaks agreement
    shifted = (tuple(x + 1 for x in support[0]),) + tuple(support[1:])
    assert not _vertex_replay(fan, shifted)
    # cone 2 lies inside cone 1; the two functionals give ray 1 the
    # heights 2 and 0, and each is strictly above the other's heights
    # on the rays it does not contain
    nested = Fan.from_index_sets(((1, 0), (0, 1), (1, 1)), ((1, 2), (1, 3)))
    assert not _vertex_replay(nested, ((2, -1), (0, 0)))
    assert not validate_fan(nested)
    with pytest.raises(ValueError, match="one support functional"):
        _vertex_replay(fan, support[1:])
    assert _vertex_replay(cube_fan(CUBE_PROJECTIVE),
                          is_projective(cube_fan(CUBE_PROJECTIVE))
                          .support_function)


@pytest.mark.parametrize("ideal", [ample_ideal, anticanonical_ideal],
                         ids=["ample", "anticanonical"])
def test_fan_report_makes_no_lp_call(counted_lp_calls, ideal):
    # is_projective finds an ample class, and validity comes from the
    # vertex replay of its support function
    fan = fan_from_irrelevant(gale_dual(delpezzo4().degrees), ideal())
    report = fan_report(fan)
    assert report["valid"] is True and report["projective"] is True
    assert counted_lp_calls == []


@pytest.mark.parametrize("build, complete", [
    (lambda: fan_from_irrelevant(gale_dual(delpezzo4().degrees),
                                 ample_ideal()), True),
    (lambda: cube_fan(CUBE_PROJECTIVE), True),
    (lambda: cube_fan(CUBE_NONPROJECTIVE), True),
    (lambda: cube_fan(CUBE_PROJECTIVE[1:]), False),
], ids=["dp4-ample", "cube-projective", "cube-nonprojective", "incomplete"])
def test_fan_report_pairs_facets_once(monkeypatch, build, complete):
    # completeness is decided once per report: is_projective's own check
    # is not run again on a fan that fan_report has found complete
    fan = build()
    calls = []

    def counted(fan, _real=fans._facet_pairing):
        calls.append(fan)
        return _real(fan)
    monkeypatch.setattr(fans, "_facet_pairing", counted)
    assert fan_report(fan)["complete"] is complete
    assert len(calls) == 1


def test_reproduce_paper_makes_no_lp_call(counted_lp_calls):
    # both fans of the headline run are S(w) fans: their support functions
    # are read off the fibre vertices
    report = reproduce_paper_report()
    assert all(c["verdict"] for c in report["checks"])
    assert counted_lp_calls == []


def counted_exact_calls(monkeypatch, name):
    """Route `name` through a counter in every coxtoric module that binds
    it, exact itself included, and return the list of its calls."""
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "coxtoric" and \
                hasattr(module, name):
            def counted(*args, _real=getattr(module, name)):
                calls.append(args)
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
    return calls


def counted_hreps(monkeypatch):
    """The list of H-forms built: the calls of generators_to_hrep, the one
    H-form function, which RationalCone, chamber_of and the column-cone
    cache all call."""
    return counted_exact_calls(monkeypatch, "generators_to_hrep")


def test_reproduce_paper_radical_search_solves_nothing(monkeypatch,
                                                       class_cache):
    # every member of S(a) and S(-K) has period 1, so every radical of the
    # report is S(w) and no layer is searched (five searches calling
    # int_rref nowhere when each layer decided each member by its fibre
    # vertex, 170 calls when each member was one exact solve)
    calls = counted_exact_calls(monkeypatch, "int_rref")
    search = monomials._search_supports
    searched = []

    def counted_search(q, d, h, periods):
        before = len(calls)
        layer = search(q, d, h, periods)
        searched.append(len(calls) - before)
        return layer

    monkeypatch.setattr(monomials, "_search_supports", counted_search)
    assert reproduce_paper_report()["overall"]
    assert searched == []


def test_reproduce_paper_ranks_few_matrices(monkeypatch, class_cache):
    # the fan checks read ranks off an int_rref or the H-form, pointedness
    # off a witness, and derive_heft its verdict off the heft itself: one
    # call of exact.rank, gale_dual's (176 when every cone was ranked by
    # is_pointed, is_complete and is_simplicial, 15 when only dependent
    # cones and the heft were), with the per-class cache emptied
    calls = counted_exact_calls(monkeypatch, "rank")
    assert reproduce_paper_report()["overall"]
    assert len(calls) == 1


def test_reproduce_paper_makes_few_hreps(monkeypatch, class_cache):
    # cones of independent rays build no H-form, and extremality reads
    # Eff's cached one: 11 double descriptions through generators_to_hrep
    # (21 when each column's extremality built its own, 75 when every fan
    # cone had one), with the per-class, column-cone and heft caches
    # emptied
    monomials._subset_hrep.cache_clear()
    monomials.derive_heft.cache_clear()
    calls = counted_hreps(monkeypatch)
    assert reproduce_paper_report()["overall"]
    assert len(calls) == 11


def test_reproduce_paper_runs_thirteen_double_descriptions(monkeypatch,
                                                           class_cache):
    # with every cache emptied, as in a fresh process: extremality is read
    # off Eff's constraint form, which derive_heft has already built, and
    # each radical is built once per class and depth (23 double
    # descriptions when each column's extremality ran one)
    monomials._subset_hrep.cache_clear()
    monomials.derive_heft.cache_clear()
    calls = counted_exact_calls(monkeypatch, "double_description")
    assert reproduce_paper_report()["overall"]
    assert len(calls) == 13


def test_reproduce_paper_reduces_few_matrices(monkeypatch, class_cache):
    # a yes/no independence question goes to exact.bareiss, and int_rref
    # runs only where a reduced form or a kernel is read: 77 calls with
    # every cache emptied (132 when each cone of at most d rays was tested
    # by a full int_rref)
    monomials._subset_hrep.cache_clear()
    monomials.derive_heft.cache_clear()
    delpezzo.target_planes.cache_clear()
    calls = counted_exact_calls(monkeypatch, "int_rref")
    assert reproduce_paper_report()["overall"]
    assert len(calls) == 77


@pytest.mark.parametrize("make_ideal, attr, hreps", [
    (ample_ideal, "ample", 0),
    (anticanonical_ideal, "anti_canonical", 10),
])
def test_bundled_fans_build_an_hrep_per_dependent_cone(
        monkeypatch, make_ideal, attr, hreps):
    # building and reporting a fan as the CLI does builds an H-form only
    # for the cones whose rays are dependent: none of the 42 ample cones,
    # and 10 of the 22 anticanonical ones
    dp = delpezzo4()
    gale, ideal = gale_dual(dp.degrees), make_ideal()
    vertices = fibre_vertices(dp.degrees, getattr(dp, attr))
    calls = counted_hreps(monkeypatch)
    fan = fan_from_irrelevant(gale, ideal)
    report = fan_report(fan, fibre_support(fan, ideal, vertices))
    assert len(calls) == hreps
    assert report["valid"] and report["complete"] and report["projective"]
    # every cone is full-dimensional, so dependent means more than d rays
    assert sum(len(c.rays) > fan.ambient_dim
               for c in fan.maximal_cones) == hreps


def test_bundled_facet_pairing_matches_the_hrep_path():
    # facet k of a cone of independent rays omits ray k, as in its double
    # description: the pairing, in order, is the former one on the 54
    # simplicial and 10 other bundled cones
    dp = delpezzo4()
    gale = gale_dual(dp.degrees)
    for ideal in (ample_ideal(), anticanonical_ideal()):
        fan = fan_from_irrelevant(gale, ideal)
        oracle = fresh_copy(fan)
        assert list(_facet_pairing(fan).items()) == \
            list(hrep_facet_pairing(oracle).items())
        assert is_complete(fan) == hrep_is_complete(oracle) == Verdict(True)


def test_dp4_saturated_fan_makes_no_lp_call(counted_lp_calls, tmp_path,
                                           capsys):
    # the depth-2 radical of the sixteen-line dP4 at -K is S(-K), so its
    # 56-cone fan takes its support function from the fibre vertices, and
    # is_projective finds the same verdict from an ample class
    path = tmp_path / "dp4.json"
    cols = dp4_columns()
    path.write_text(json.dumps({"picRank": 6, "numGens": 16,
                                "columns": [list(c) for c in cols],
                                "labels": [f"x{i}" for i in range(16)]}))
    assert main(["fan", str(path), "--degree", "3,-1,-1,-1,-1,-1",
                 "--saturate", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["numMaximalCones"] == 56 and report["projective"] is True
    fan = Fan.from_index_sets(report["rays"], report["maximalCones"])
    assert is_projective(fan).projective
    assert counted_lp_calls == []


def test_fibre_support_needs_every_generator_in_s_w():
    # no monomial of degree (5, 3) has support {2, 3}: the radical's
    # generator (1, 3, 4) is a union of two vertex supports, not one of them
    q = DegreeMatrix.make([(1, 0), (1, 1), (1, 2), (2, 1)])
    w = (5, 3)
    vertices = fibre_vertices(q, w)
    assert list(vertices) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    ideal = irrelevant_radical(q, w)
    assert ideal.generators == ((1, 2), (2, 4), (1, 3, 4))
    fan = fan_from_irrelevant(gale_dual(q), ideal)
    assert fibre_support(fan, ideal, vertices) is None


def test_is_projective_replays_its_support_function(monkeypatch):
    # functionals that put no cone at a vertex fail the replay, and
    # is_projective raises instead of answering
    fan = projective_space_fan(2)
    monkeypatch.setattr(fans, "_functionals",
                        lambda fan, points: ((0, 0),) * len(points))
    with pytest.raises(RuntimeError,
                       match="^support function fails vertex replay$"):
        is_projective(fan)


def test_fan_report_replays_a_given_support_function():
    dp = delpezzo4()
    q, w = dp.degrees, dp.anti_canonical
    ideal = anticanonical_ideal()
    fan = fan_from_irrelevant(gale_dual(q), ideal)
    support = fibre_support(fan, ideal, fibre_vertices(q, w))
    assert support[0] == (0,) * fan.ambient_dim
    assert fan_report(fan, support) == fan_report(fan)
    bad = (support[1],) + support[1:]
    with pytest.raises(RuntimeError,
                       match="^support function fails vertex replay$"):
        fan_report(fan, bad)
    # a fan that is not complete ignores it and runs the pair separators
    part = Fan.from_index_sets(fan.rays, [c.ray_indices
                                          for c in fan.maximal_cones[1:]])
    assert fan_report(part, support[1:]) == fan_report(part)


@pytest.mark.parametrize("rays, cones", [
    (DOUBLY_WOUND_RAYS, DOUBLY_WOUND_CONES),
    (CUBE_RAYS, CUBE_NONPROJECTIVE),
], ids=["doubly-wound", "cube-nonprojective"])
def test_pair_loop_makes_no_lp_call(counted_lp_calls, rays, cones):
    # neither fan has an ample class, so validate_fan runs its pair loop
    # on every pair of cones; neither that nor is_projective solves an LP
    fan = Fan.from_index_sets(rays, cones)
    assert not is_projective(fan).projective
    assert "supportFunction" not in fan_report(fan)
    assert counted_lp_calls == []


def test_validate_fan_does_not_exempt_rays_in_the_span_of_the_common_cone():
    # ray 3 = e1 - e2 lies in the span of the common rays e1 and e2 but not
    # in their cone, and every h that vanishes on them vanishes on it too:
    # cone 1 is the plane cone on e2 and e1 - e2, which contains cone(e1, e2)
    # as a part that is not a face
    fan = Fan.from_index_sets(((1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)),
                              ((1, 2, 3), (1, 2, 4)))
    verdict = Verdict(False, "intersection of cones 1 and 2 is not a face "
                             "of both")
    assert validate_fan(fan) == verdict == pair_lp_validate(fan)


@pytest.mark.parametrize("corrupt", [
    lambda rays, common: [tuple(-x for x in r) for r in rays],
    lambda rays, common: rays + [tuple(common[0])],
], ids=["negated-rays", "ray-off-the-common-rays"])
def test_pair_separator_replay_failure(monkeypatch, corrupt):
    # a double description that returns wrong rays gives a sum that fails
    # its replay on the rows, and validate_fan raises instead of answering
    real = fans.double_description

    def corrupted(dim, equalities=(), inequalities=()):
        lin, rays, masks = real(dim, equalities, inequalities)
        return lin, corrupt(rays, equalities), masks

    monkeypatch.setattr(fans, "double_description", corrupted)
    with pytest.raises(RuntimeError, match="^pair separator failed replay$"):
        validate_fan(projective_space_fan(2))


# is_projective's support functions on fans outside the sha256-pinned
# reports: the ample class (the sum of the rays of the intersection of the
# complement cones) and the relative-interior fibre points over it decide
# them, so they move if either choice changes
CUBE_PROJECTIVE_SUPPORT = (
    (0, 0, 0), (3, -3, 0), (0, 2, -2), (3, 2, -5), (5, -3, -2), (5, 0, -5),
    (1, 0, 1), (3, -2, 1), (1, 3, -2), (3, 3, -4), (6, -2, -2), (6, 0, -4))
# six triangulations drawn from Random(7); None: not projective
RANDOM7_SUPPORT = (
    ((1, 0, 1, 0, 0, 0),
     ((0, 0, 0), (5, -5, 0), (4, 0, -4), (5, -1, -4), (0, 2, 2), (2, 2, 4),
      (7, -5, 2), (7, -3, 4), (2, 4, 2), (4, 4, 0), (9, -3, 2), (9, -1, 0))),
    ((1, 0, 0, 0, 0, 1), None),
    ((1, 0, 0, 0, 1, 0),
     ((0, 0, 0), (4, -4, 0), (5, 0, -5), (5, -4, -1), (0, 2, 2), (2, 2, 4),
      (4, 0, 4), (2, 4, 2), (7, 2, -5), (7, 4, -3), (9, 0, -1), (9, 2, -3))),
    ((0, 0, 0, 1, 0, 0),
     ((0, 0, 0), (3, -3, 0), (0, 3, -3), (1, 3, -4), (4, -3, -1), (4, 0, -4),
      (2, 0, 2), (3, -1, 2), (1, 4, -3), (2, 4, -2), (6, -1, -1),
      (6, 0, -2))),
    ((0, 0, 1, 1, 0, 0),
     ((0, 0, 0), (2, -2, 0), (0, 1, -1), (1, 1, -2), (2, 0, -2), (2, 0, 2),
      (3, -2, 1), (3, -1, 2), (1, 2, -1), (2, 2, 0), (4, -1, 1), (4, 0, 0))),
    ((1, 0, 0, 0, 1, 0),
     ((0, 0, 0), (4, -4, 0), (5, 0, -5), (5, -4, -1), (0, 2, 2), (2, 2, 4),
      (4, 0, 4), (2, 4, 2), (7, 2, -5), (7, 4, -3), (9, 0, -1), (9, 2, -3))),
)


def test_support_functions_are_pinned():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    p1xp1 = fan_from_irrelevant(gale_dual(q), irrelevant_radical(q, (1, 1)))
    pinned = [
        (projective_space_fan(2), ((0, 0), (1, 0), (0, 1))),
        (projective_space_fan(3),
         ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        (p1xp1, ((0, 0), (0, 1), (1, 0), (1, 1))),
        (cube_fan(CUBE_PROJECTIVE), CUBE_PROJECTIVE_SUPPORT),
    ]
    rng = Random(7)
    for choices, support in RANDOM7_SUPPORT:
        assert tuple(rng.randint(0, 1) for _ in range(6)) == choices
        pinned.append((cube_triangulation(choices), support))
    for fan, support in pinned:
        assert is_projective(fan).support_function == support
        if support is not None:
            assert _vertex_replay(fan, support)


def test_dp3_anticanonical_fan_is_projective(monkeypatch, class_cache):
    # 27 columns pass the guard once it is raised; the S(-K) fan of the
    # cubic surface's lines (621 cones in dimension 20) has an ample class,
    # and its replayed support function gives fan_report the verdicts of
    # the one read off the fibre vertices
    monkeypatch.setattr(monomials, "MAX_SEARCH_GENS", 27)
    q = DegreeMatrix.make(dp3_columns())
    vertices = fibre_vertices(q, (3, -1, -1, -1, -1, -1, -1))
    ideal = SquarefreeIdeal.from_supports([[j + 1 for j in s]
                                           for s in vertices])
    fan = fan_from_irrelevant(gale_dual(q), ideal)
    cert = is_projective(fan)
    assert cert.projective and _vertex_replay(fan, cert.support_function)
    report = fan_report(fan, cert.support_function)
    fibre = fan_report(fan, fibre_support(fan, ideal, vertices))
    assert report["numMaximalCones"] == 621
    assert report["valid"] and report["complete"] and report["projective"]
    del report["supportFunction"], fibre["supportFunction"]
    assert report == fibre
