import random
from fractions import Fraction

import pytest

from coxtoric import cones
from coxtoric.cones import (
    RationalCone,
    cone_member,
    double_description,
    generators_to_hrep,
    primitive,
    separating_functional,
)
from coxtoric.exact import dot, rank


def test_primitive():
    assert primitive([2, 4, 6]) == (1, 2, 3)
    assert primitive([-3, 6]) == (-1, 2)
    assert primitive([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert primitive([0, 0]) == (0, 0)


@pytest.mark.parametrize("vec", [(0.1, 1), (True, Fraction(1, 2)),
                                 ("1/2", 1), (Fraction(1, 3), 2.0)])
def test_primitive_rejects_floats_bools_and_strings(vec):
    with pytest.raises(ValueError, match="integers or Fractions"):
        primitive(vec)


def test_cone_from_float_generators_is_rejected():
    with pytest.raises(ValueError, match="integers or Fractions"):
        RationalCone.from_generators([(0.1, 1)], 2)


@pytest.mark.parametrize("vec", [(0.1, 0.2), (True, 1), (Fraction(1, 3), 2.0)])
def test_membership_rejects_floats_and_bools(vec):
    c = RationalCone.from_generators([(1, 0), (1, 2)], dim=2)
    with pytest.raises(ValueError, match="integers or Fractions"):
        c.contains(vec)
    with pytest.raises(ValueError, match="integers or Fractions"):
        c.contains_interior(vec)


def test_quadrant_hrep():
    eqs, ineqs, _ = generators_to_hrep(2, [(1, 0), (0, 1)])
    assert eqs == ()
    assert set(ineqs) == {(1, 0), (0, 1)}


def test_halfplane_has_lineality():
    c = RationalCone.from_generators([(1, 0), (-1, 0), (0, 1)], dim=2)
    eqs, ineqs = c.hrep
    assert eqs == ()
    assert set(ineqs) == {(0, 1)}
    lin, rays, _ = double_description(c.dim, *c.hrep)
    assert len(lin) == 1 and lin[0][1] == 0
    assert not c.is_pointed


def test_full_space_and_origin():
    full = RationalCone.from_generators(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], dim=2)
    assert full.hrep == ((), ())
    lin, rays, _ = double_description(full.dim, *full.hrep)
    assert len(lin) == 2 and rays == []

    origin = RationalCone.from_generators([], dim=2)
    eqs, ineqs = origin.hrep
    assert rank(eqs) == 2 and ineqs == ()
    assert origin.contains((0, 0))
    assert not origin.contains((1, 0))


def test_interior_generator_not_extreme():
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)]
    c = RationalCone.from_generators(gens, dim=3)
    lin, rays, _ = double_description(c.dim, *c.hrep)
    assert lin == [] and set(rays) == set(gens[:4])
    eqs, ineqs = c.hrep
    assert eqs == () and len(ineqs) == 4


def test_equality_cut():
    # octant sliced by x = y
    lin, rays, _ = double_description(
        3, equalities=[(1, -1, 0)],
        inequalities=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert lin == []
    assert set(rays) == {(1, 1, 0), (0, 0, 1)}


@pytest.mark.parametrize("dim, eqs, ineqs", [
    (2, (), [(1, 0), (0, 1, 0)]),
    (3, [(1, 0, 0, 1)], ()),
    # no lineality and no ray is left for the short row to meet
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1)]),
    # a zero row is checked like any other
    (3, [(0, 0)], ()),
    (3, (), [(0, 0, 0, 0)]),
], ids=["inequality", "equality", "after-the-origin", "zero-equality",
        "zero-inequality"])
def test_double_description_rejects_rows_of_wrong_length(dim, eqs, ineqs):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        double_description(dim, eqs, ineqs)


def test_cone_member():
    gens = [(1, 0), (1, 1)]
    assert cone_member(gens, (2, 1), dim=2)
    assert cone_member(gens, (0, 0), dim=2)
    assert not cone_member(gens, (0, 1), dim=2)
    assert not cone_member(gens, (-1, 0), dim=2)
    assert not cone_member([], (1, 0), dim=2)
    assert cone_member([], (0, 0), dim=2)
    assert cone_member(gens, (Fraction(3, 2), Fraction(1, 2)), dim=2)


@pytest.mark.parametrize("gens, target", [
    ([(0.5,)], (1,)),
    ([(1,)], (0.5,)),
    ([(True,)], (1,)),
    ([(1, 0), (0, 1)], (1, True)),
])
def test_cone_member_rejects_floats_and_bools(gens, target):
    # 0.5 must not be read as Fraction(1, 2), nor True as 1
    with pytest.raises(ValueError, match="integers or Fractions"):
        cone_member(gens, target, dim=len(target))


@pytest.mark.parametrize("gens, target", [
    ([(1, 0, 5)], (1, 0)),
    ([(1, 0)], (1,)),
    ([(1, 0), (0,)], (1, 0)),
])
def test_cone_member_rejects_wrong_lengths(gens, target):
    # a third generator coordinate must not be dropped, and a short target
    # must not raise IndexError
    with pytest.raises(ValueError, match="length dim"):
        cone_member(gens, target, dim=2)


@pytest.mark.parametrize("corrupt", [
    lambda r: (r[0] + 1,) + r[1:],
    lambda r: (-r[0],) + r[1:],
    lambda r: r[:-1] + (0,),
], ids=["equation", "sign", "no-positive-t"])
def test_cone_member_replay_failure(monkeypatch, corrupt):
    # (2, 1) = (1, 0) + (1, 1): the coefficients are the ray (1, 1, 1) of
    # the one double description called with equalities. Made to break
    # sum_j lambda_j gens_j = t target, lambda >= 0 or t > 0, it must
    # raise instead of giving a "yes"
    real = cones.double_description

    def corrupted(dim, equalities=(), inequalities=()):
        lin, rays, masks = real(dim, equalities, inequalities)
        return lin, [corrupt(r) for r in rays] if equalities else rays, masks

    monkeypatch.setattr(cones, "double_description", corrupted)
    with pytest.raises(RuntimeError,
                       match="^cone membership witness failed replay$"):
        cone_member([(1, 0), (1, 1)], (2, 1), dim=2)
    # a "no" is the separating functional's, which this does not touch
    assert not cone_member([(1, 0), (1, 1)], (0, 1), dim=2)


def test_separating_functional():
    gens = [(1, 0), (1, 1)]
    assert separating_functional(gens, (2, 1), 2) is None
    assert separating_functional(gens, (0, 0), 2) is None
    assert separating_functional(gens, (0, 1), 2) == (1, -1)
    assert separating_functional(gens, (-1, 0), 2) == (1, -1)
    # the empty cone is the origin: an equality, its sign flipped
    assert separating_functional([], (-3, 0), 2) == (1, 0)
    assert separating_functional([], (0, 0), 2) is None
    # a half-plane: lineality along the first axis
    half = [(1, 0), (-1, 0), (0, 2)]
    assert separating_functional(half, (5, 1), 2) is None
    assert separating_functional(half, (5, Fraction(-1, 3)), 2) == (0, 1)


@pytest.mark.parametrize("gens, target, dim, message", [
    ([(0.5,)], (1,), 1, "integers or Fractions"),
    ([(1, 0), (0, 1)], (1, True), 2, "integers or Fractions"),
    ([(1, 0, 5)], (1, 0), 2, "length dim"),
    ([(1, 0)], (1,), 2, "length dim"),
])
def test_separating_functional_rejects_bad_input(gens, target, dim, message):
    with pytest.raises(ValueError, match=message):
        separating_functional(gens, target, dim)


def test_contains_and_interior():
    c = RationalCone.from_generators([(1, 0), (1, 2)], dim=2)
    assert c.contains((1, 1))
    assert c.contains((1, 0))
    assert c.contains_interior((1, 1))
    assert not c.contains_interior((1, 0))
    assert not c.contains((0, 1))
    assert c.contains((Fraction(1, 2), Fraction(1, 3)))
    assert not c.contains_interior((Fraction(1, 2), 1))


def test_pointedness():
    assert RationalCone.from_generators([(1, 0), (0, 1)], dim=2).is_pointed
    assert not RationalCone.from_generators([(1, 0), (-1, 0)], dim=2).is_pointed
    assert RationalCone.from_generators([], dim=2).is_pointed


@pytest.mark.parametrize("gens", [
    [(1, 0, 0), (0, 1, 0)],
    [(1, 0), (0,)],
    [(0, 0, 0)],
])
def test_from_generators_rejects_wrong_lengths(gens):
    # a third coordinate must not be ranked as if the cone lived in it,
    # and a zero generator is checked before it is dropped
    with pytest.raises(ValueError, match="length dim"):
        RationalCone.from_generators(gens, dim=2)


def test_random_round_trip():
    rng = random.Random(55221)
    for _ in range(40):
        d = rng.randint(2, 4)
        k = rng.randint(1, d + 2)
        gens = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
        c = RationalCone.from_generators(gens, dim=d)
        eqs, ineqs = c.hrep
        # every generator satisfies the computed constraints
        for g in c.generators:
            assert all(dot(e, g) == 0 for e in eqs)
            assert all(dot(a, g) >= 0 for a in ineqs)
        # the recovered generator form spans the same cone
        lin, rays, _ = double_description(c.dim, *c.hrep)
        back = list(rays) + list(lin) + [tuple(-x for x in l) for l in lin]
        for g in c.generators:
            assert cone_member(back, g, dim=d)
        for r in back:
            assert cone_member(list(c.generators), r, dim=d)
