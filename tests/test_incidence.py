from fractions import Fraction
from random import Random

import pytest

from coxtoric.delpezzo import (claimed_transversal, printed_points,
                               target_planes)
from coxtoric.incidence import (LineWitness, ProjPoint, ProjSubspace,
                                SearchExhausted, find_transversal_plane,
                                general_position_on_plane, intersect,
                                subspace_from_equations,
                                subspace_from_points, witness_plane_via_line)


def test_point_normalization():
    p = ProjPoint.make([0, 0, 2, 0, -2, 0])
    assert p.coords == (0, 0, 1, 0, -1, 0)
    assert p.ambient_dim == 5
    assert ProjPoint.make([-2, 0, 4]).coords == (1, 0, -2)
    assert ProjPoint.make([Fraction(1, 2), Fraction(1, 3)]).coords == (3, 2)
    assert ProjPoint.make(p.coords) == p


@pytest.mark.parametrize("coords", [[0.1, 1], [True, 2], ["1", 2]])
def test_point_rejects_floats_bools_and_strings(coords):
    with pytest.raises(ValueError, match="integers or Fractions"):
        ProjPoint.make(coords)


@pytest.mark.parametrize("coords", [(True, 0), (1.0, 0), (Fraction(1), 0)])
def test_point_constructor_rejects_non_integer_entries(coords):
    with pytest.raises(ValueError, match="point entries must be integers"):
        ProjPoint(coords)


def test_point_validation():
    with pytest.raises(ValueError, match="zero vector"):
        ProjPoint.make([0, 0, 0])
    with pytest.raises(ValueError, match="not primitive"):
        ProjPoint((2, 4))
    with pytest.raises(ValueError, match="not positive"):
        ProjPoint((-1, 2))


def test_subspace_constructions():
    full = subspace_from_equations([], 5)
    assert full.projective_dim == 5
    line = subspace_from_equations([(1, 0, 0), (0, 1, 0)], 2)
    assert line.projective_dim == 0
    assert line.as_point().coords == (0, 0, 1)
    with pytest.raises(ValueError, match="empty projective set"):
        subspace_from_equations([(1, 0), (0, 1)], 1)
    with pytest.raises(ValueError, match="wrong length"):
        subspace_from_equations([(1, 0, 0)], 1)
    span = subspace_from_points([ProjPoint.make([1, 0, 0]),
                                 ProjPoint.make([0, 1, 0])])
    assert span.projective_dim == 1
    assert span.contains_point(ProjPoint.make([3, -2, 0]))
    assert not span.contains_point(ProjPoint.make([0, 0, 1]))
    with pytest.raises(ValueError, match="not a point"):
        span.as_point()


def test_equations_round_trip():
    for sub in (*target_planes(), claimed_transversal()):
        back = subspace_from_equations(sub.equations(), sub.ambient_dim)
        assert sub == back
    point = subspace_from_points([ProjPoint.make([0, 1, 0, 0, 0, 0])])
    assert len(point.equations()) == 5
    assert subspace_from_equations([], 5).equations() == ()


def test_claimed_plane_meets_three_targets_in_printed_points():
    sigma = claimed_transversal()
    assert sigma.projective_dim == 2
    targets = target_planes()
    printed = printed_points()
    for i in (0, 1, 3):
        meet = intersect(sigma, targets[i])
        assert meet is not None and meet.projective_dim == 0
        assert meet.as_point() == printed[i]


def test_claimed_plane_misses_third_target():
    # the printed point for the third target sits on that target but not on
    # the claimed plane, and the exact intersection is empty
    sigma = claimed_transversal()
    targets = target_planes()
    printed = printed_points()
    assert intersect(sigma, targets[2]) is None
    assert targets[2].contains_point(printed[2])
    assert not sigma.contains_point(printed[2])


def test_pairwise_target_intersections():
    targets = target_planes()
    q12 = intersect(targets[0], targets[1])
    assert q12.as_point().coords == (0, 1, 0, 0, 0, 0)
    q34 = intersect(targets[2], targets[3])
    assert q34.as_point().coords == (1, 0, 0, 0, 0, 0)


def test_printed_points_span_a_threespace():
    assert subspace_from_points(printed_points()).projective_dim == 3


def test_intersect_properties():
    rng = Random(7)
    ambient = 4
    for _ in range(30):
        subs = []
        for _ in range(2):
            k = rng.randint(1, 4)
            pts = []
            while len(pts) < k:
                v = [rng.randint(-3, 3) for _ in range(ambient + 1)]
                if any(v):
                    pts.append(ProjPoint.make(v))
            subs.append(subspace_from_points(pts))
        a, b = subs
        meet = intersect(a, b)
        assert meet == intersect(b, a)
        expected = a.projective_dim + b.projective_dim - ambient
        if expected >= 0:
            assert meet is not None
            assert meet.projective_dim >= expected
        if meet is not None:
            for row in meet.basis:
                p = ProjPoint.make(row)
                assert a.contains_point(p) and b.contains_point(p)


def test_general_position():
    plane = subspace_from_equations([], 2)
    frame = [ProjPoint.make(v) for v in
             ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    verdict = general_position_on_plane(frame, plane)
    assert verdict.ok is True and bool(verdict)
    collinear = frame[:3] + [ProjPoint.make((1, 1, 0))]
    verdict = general_position_on_plane(collinear, plane)
    assert verdict.ok is False and not bool(verdict)
    assert "collinear" in verdict.reason
    off = general_position_on_plane(printed_points(), claimed_transversal())
    assert off.ok is None and not bool(off)
    assert "is not on the plane" in off.reason
    with pytest.raises(ValueError, match="four points"):
        general_position_on_plane(frame[:3], plane)
    with pytest.raises(ValueError, match="not a plane"):
        general_position_on_plane(frame, subspace_from_equations([], 3))


def test_find_transversal_plane():
    targets = target_planes()
    found = find_transversal_plane(targets, seed=1, max_tries=100)
    assert found.seed == 1
    assert 1 <= found.attempts <= 100
    assert found.plane.projective_dim == 2
    assert len(set(found.points)) == 4
    for i, p in enumerate(found.points):
        assert found.plane.contains_point(p)
        for j, t in enumerate(targets):
            assert t.contains_point(p) == (i == j)
    assert general_position_on_plane(found.points, found.plane).ok is True


def test_find_transversal_plane_deterministic():
    targets = target_planes()
    a = find_transversal_plane(targets, seed=1)
    b = find_transversal_plane(targets, seed=1)
    assert a == b
    c = find_transversal_plane(targets, seed=2)
    assert c.plane.projective_dim == 2


def test_find_transversal_plane_guards():
    targets = target_planes()
    with pytest.raises(ValueError, match="expected four 2-planes"):
        find_transversal_plane(targets[:3])
    line = subspace_from_points([ProjPoint.make([1, 0, 0, 0, 0, 0]),
                                 ProjPoint.make([0, 1, 0, 0, 0, 0])])
    with pytest.raises(ValueError, match="expected four 2-planes"):
        find_transversal_plane(list(targets[:3]) + [line])
    with pytest.raises(ValueError, match="degenerate targets"):
        find_transversal_plane([targets[0], targets[1],
                                targets[2], targets[2]])
    with pytest.raises(SearchExhausted) as err:
        find_transversal_plane(targets, seed=1, max_tries=0)
    assert err.value.attempts == 0
    with pytest.raises(ValueError, match="nonnegative"):
        find_transversal_plane(targets, seed=1, max_tries=-1)


def test_witness_plane_via_line():
    targets = target_planes()
    witness = witness_plane_via_line(targets)
    assert isinstance(witness, LineWitness)
    assert witness.plane.projective_dim == 2
    q12 = intersect(targets[0], targets[1]).as_point()
    q34 = intersect(targets[2], targets[3]).as_point()
    assert witness.plane.contains_point(q12)
    assert witness.plane.contains_point(q34)
    for t in targets:
        assert intersect(witness.plane, t) is not None
    assert witness.refinement is False
    assert "refinement fails" in witness.note


def test_witness_plane_guards():
    targets = target_planes()
    with pytest.raises(ValueError, match="expected four targets"):
        witness_plane_via_line(targets[:3])
    e_first = subspace_from_equations(
        [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], 5)
    e_last = subspace_from_equations(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 5)
    with pytest.raises(ValueError, match="intersection not a point"):
        witness_plane_via_line([e_first, e_last, targets[2], targets[3]])


@pytest.mark.parametrize("form", [(0.1, 1, 0), (True, 0, 0), ("1", 0, 0)])
def test_equations_reject_floats_bools_and_strings(form):
    with pytest.raises(ValueError, match="integers or Fractions"):
        subspace_from_equations([(0, 0, 1), form], 2)


@pytest.mark.parametrize("basis", [((1.0, 0.1),), ((True, 0),),
                                   ((Fraction(1), 0.0),)])
def test_subspace_rejects_floats_and_bools(basis):
    with pytest.raises(ValueError, match="integers or Fractions"):
        ProjSubspace(basis)


def test_subspace_rejects_rows_of_unequal_length():
    with pytest.raises(ValueError, match="unequal length"):
        ProjSubspace(((1, 0), (0, 1, 0)))


def test_coordinates_are_the_pivot_entries():
    plane = subspace_from_points([ProjPoint.make(v) for v in
                                  ((1, 0, 2, 0), (0, 1, 3, 0))])
    assert plane.basis == ((1, 0, 2, 0), (0, 1, 3, 0))
    assert plane.coordinates(ProjPoint.make((2, -1, 1, 0))) == (2, -1)
    assert plane.coordinates(ProjPoint.make((2, -1, 0, 0))) is None
    assert plane.coordinates(ProjPoint.make((0, 0, 0, 1))) is None


def test_subspace_validation():
    with pytest.raises(ValueError, match="empty basis"):
        ProjSubspace(())
    with pytest.raises(ValueError, match="not independent"):
        ProjSubspace(((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))))
    with pytest.raises(ValueError, match="reduced row echelon"):
        ProjSubspace(((Fraction(2), Fraction(0)),))
    with pytest.raises(ValueError, match="reduced row echelon"):
        ProjSubspace(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    sub = subspace_from_equations([], 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sub.contains_point(ProjPoint.make([1, 0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        sub.coordinates(ProjPoint.make([1, 0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        intersect(sub, subspace_from_equations([], 3))
