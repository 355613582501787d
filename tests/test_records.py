"""The behaviour of the package's immutable value classes, pinned once for
all of them: repr, equality and hash, immutability, construction, the
checks of their constructors and pickling."""

import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxtoric.chambers import Chamber, SameChamberResult
from coxtoric.cones import RationalCone
from coxtoric.embedding import (BijectionReport, CoxPresentationPair,
                                PicRestrictionReport, RestrictionTable,
                                TableReport)
from coxtoric.exact import IntMat
from coxtoric.fans import Cone, Fan, ProjectivityCertificate, Verdict
from coxtoric.grading import DegreeMatrix, DelPezzo4, GaleDual
from coxtoric.incidence import (LineWitness, PositionVerdict, ProjPoint,
                                ProjSubspace, TransversalPlane)
from coxtoric.linprog import LPResult
from coxtoric.monomials import SquarefreeIdeal

Q = DegreeMatrix(columns=((1, 0), (0, 1), (1, 1)), labels=("x1", "x2", "x3"))
PLANE = ProjSubspace(basis=((1, 0, Fraction(1, 2)), (0, 1, 3)))
POINTS = (ProjPoint(coords=(1, 0, 0)), ProjPoint(coords=(0, 1, -2)))
CONES = (Cone(ray_indices=(1, 2), rays=((1, 0), (0, 1))),
         Cone(ray_indices=(2, 3), rays=((0, 1), (-1, -1))),
         Cone(ray_indices=(1, 3), rays=((1, 0), (-1, -1))))

# class -> (field values by keyword, in field order; the repr that the
# class gave as a frozen dataclass)
SPECS = {
    IntMat: ({"rows": 2, "cols": 2, "entries": (1, 2, 3, -4)},
             "IntMat(rows=2, cols=2, entries=(1, 2, 3, -4))"),
    DegreeMatrix: ({"columns": ((1, 0), (0, 1), (1, 1)),
                    "labels": ("x1", "x2", "x3")},
                   "DegreeMatrix(columns=((1, 0), (0, 1), (1, 1)), "
                   "labels=('x1', 'x2', 'x3'))"),
    GaleDual: ({"rays": ((1,), (1,), (-1,))},
               "GaleDual(rays=((1,), (1,), (-1,)))"),
    DelPezzo4: ({"degrees": Q, "ample": (2, 1), "anti_canonical": (1, 1),
                 "heft": (1, 1)},
                "DelPezzo4(degrees=DegreeMatrix(columns=((1, 0), (0, 1), "
                "(1, 1)), labels=('x1', 'x2', 'x3')), ample=(2, 1), "
                "anti_canonical=(1, 1), heft=(1, 1))"),
    LPResult: ({"feasible": True, "witness": (Fraction(1, 2), 0)},
               "LPResult(feasible=True, witness=(Fraction(1, 2), 0))"),
    SquarefreeIdeal: ({"generators": ((1,), (2, 3))},
                      "SquarefreeIdeal(generators=((1,), (2, 3)))"),
    RationalCone: ({"dim": 2, "generators": ((1, 0), (1, 1))},
                   "RationalCone(dim=2, generators=((1, 0), (1, 1)))"),
    Chamber: ({"representative": (1, 2), "hrep": ((0, 1), (1, 0)),
               "full_dimensional": True},
              "Chamber(representative=(1, 2), hrep=((0, 1), (1, 0)), "
              "full_dimensional=True)"),
    SameChamberResult: ({"same": False, "stable": True},
                        "SameChamberResult(same=False, stable=True)"),
    ProjPoint: ({"coords": (1, -2, 3)}, "ProjPoint(coords=(1, -2, 3))"),
    ProjSubspace: ({"basis": ((1, 0, Fraction(1, 2)), (0, 1, 3))},
                   "ProjSubspace(basis=((1, 0, Fraction(1, 2)), "
                   "(0, 1, 3)))"),
    PositionVerdict: ({"ok": None, "reason": "point off the plane"},
                      "PositionVerdict(ok=None, "
                      "reason='point off the plane')"),
    TransversalPlane: ({"plane": PLANE, "points": POINTS, "attempts": 3,
                        "seed": 7},
                       "TransversalPlane(plane=ProjSubspace(basis=((1, 0, "
                       "Fraction(1, 2)), (0, 1, 3))), points=(ProjPoint("
                       "coords=(1, 0, 0)), ProjPoint(coords=(0, 1, -2))), "
                       "attempts=3, seed=7)"),
    LineWitness: ({"plane": PLANE, "refinement": False, "note": "fails"},
                  "LineWitness(plane=ProjSubspace(basis=((1, 0, "
                  "Fraction(1, 2)), (0, 1, 3))), refinement=False, "
                  "note='fails')"),
    CoxPresentationPair: ({"ambient": Q,
                           "target": (("g1", (1, 0)), ("g2", (0, 1)),
                                      ("g3", (1, 1))),
                           "correspondence": ("g2", "g1", "g3")},
                          "CoxPresentationPair(ambient=DegreeMatrix("
                          "columns=((1, 0), (0, 1), (1, 1)), labels=('x1', "
                          "'x2', 'x3')), target=(('g1', (1, 0)), ('g2', "
                          "(0, 1)), ('g3', (1, 1))), correspondence=('g2', "
                          "'g1', 'g3'))"),
    RestrictionTable: ({"entries": (("D0", (1, 0)), ("E1", (0, 1)))},
                       "RestrictionTable(entries=(('D0', (1, 0)), "
                       "('E1', (0, 1))))"),
    BijectionReport: ({"ok": True, "matching": ((1, "g1"),),
                       "mismatch": None},
                      "BijectionReport(ok=True, matching=((1, 'g1'),), "
                      "mismatch=None)"),
    PicRestrictionReport: ({"ok": False, "exact_match": False,
                            "detail": "rank 1"},
                           "PicRestrictionReport(ok=False, "
                           "exact_match=False, detail='rank 1')"),
    TableReport: ({"ok": True, "matching": (("D0", "g1"),),
                   "mismatch": None},
                  "TableReport(ok=True, matching=(('D0', 'g1'),), "
                  "mismatch=None)"),
    Cone: ({"ray_indices": (1, 2), "rays": ((1, 0), (0, 1))},
           "Cone(ray_indices=(1, 2), rays=((1, 0), (0, 1)))"),
    Fan: ({"rays": ((1, 0), (0, 1), (-1, -1)), "maximal_cones": CONES},
          "Fan(rays=((1, 0), (0, 1), (-1, -1)), maximal_cones=(Cone("
          "ray_indices=(1, 2), rays=((1, 0), (0, 1))), Cone(ray_indices="
          "(2, 3), rays=((0, 1), (-1, -1))), Cone(ray_indices=(1, 3), "
          "rays=((1, 0), (-1, -1)))))"),
    Verdict: ({"ok": False, "reason": "cone 2 is not strongly convex"},
              "Verdict(ok=False, reason='cone 2 is not strongly convex')"),
    ProjectivityCertificate: ({"projective": True,
                               "support_function": ((0, 0), (1, 0))},
                              "ProjectivityCertificate(projective=True, "
                              "support_function=((0, 0), (1, 0)))"),
}
CLASSES = list(SPECS)
IDS = [cls.__name__ for cls in CLASSES]

# the trailing fields that have a default, with it
DEFAULTS = {
    SameChamberResult: {"stable": None},
    PositionVerdict: {"reason": None},
    BijectionReport: {"mismatch": None},
    PicRestrictionReport: {"detail": None},
    TableReport: {"mismatch": None},
    Verdict: {"reason": None},
    ProjectivityCertificate: {"support_function": None},
}


def build(cls):
    return cls(**SPECS[cls][0])


def test_every_value_class_is_pinned():
    # imported here, so that the pins above also run on the dataclasses
    from coxtoric.records import Record

    # this module imports every module that defines a record class
    assert set(SPECS) == set(Record.__subclasses__())
    assert len(SPECS) == 23


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_is_pinned(cls):
    assert repr(build(cls)) == SPECS[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = build(cls), build(cls)
    values = tuple(SPECS[cls][0].values())
    assert a is not b and a == b and not a != b
    # the hash of the field tuple, so sets and dicts keep their order, and
    # a constructor written by hand keeps its key in annotation order
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1
    assert a != SimpleNamespace(**SPECS[cls][0]) and a != values


@pytest.mark.parametrize("a, b", [(Verdict, PositionVerdict),
                                  (BijectionReport, TableReport)],
                         ids=["verdicts", "reports"])
def test_classes_with_the_same_fields_are_unequal(a, b):
    fields = SPECS[a][0]
    assert a(**fields) != b(**fields) and b(**fields) != a(**fields)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_and_deletion_raise(cls):
    record = build(cls)
    for name, value in SPECS[cls][0].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction(cls):
    fields = SPECS[cls][0]
    values = list(fields.values())
    assert cls(*values) == build(cls)
    first, *rest = fields
    assert cls(values[0], **{k: fields[k] for k in rest}) == build(cls)
    defaults = DEFAULTS.get(cls, {})
    required = values[:len(values) - len(defaults)]
    record = cls(*required)
    for name, value in defaults.items():
        assert getattr(record, name) == value
    with pytest.raises(TypeError):
        cls()
    if rest:
        with pytest.raises(TypeError):
            cls(*values[1:], **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)


BAD = [
    (IntMat, (-1, 0, ()), "negative matrix dimensions"),
    (IntMat, (1, 2, (1,)), "entry count does not match shape"),
    (IntMat, (1, 1, (1.5,)), "matrix entries must be integers"),
    (DegreeMatrix, ((), ()), "degree matrix needs at least one column"),
    (DegreeMatrix, (((),), ("a",)), "grading group rank must be positive"),
    (DegreeMatrix, (((1,), (1, 0)), ("a", "b")),
     "degree columns of unequal length"),
    (DegreeMatrix, (((1,),), ("a", "b")), "one label per generator required"),
    (DegreeMatrix, (((1,), (1,)), ("a", "a")),
     "generator labels must be distinct"),
    (SquarefreeIdeal, (((1.0,),),), "support entries must be integers"),
    (SquarefreeIdeal, (((0, 1),),), "support indices must be at least 1"),
    (SquarefreeIdeal, (((2, 1),),), "support not strictly increasing"),
    (SquarefreeIdeal, (((1, 2), (3,)),), "supports not in canonical order"),
    (SquarefreeIdeal, (((1,), (1, 2)),), "supports do not form an antichain"),
    (ProjPoint, ((1, True),), "point entries must be integers"),
    (ProjPoint, ((0, 0),), "zero vector is not a projective point"),
    (ProjPoint, ((2, 4),), "coordinates not primitive"),
    (ProjPoint, ((0, -1),), "leading coordinate not positive"),
    (ProjSubspace, ((),), "empty basis"),
    (ProjSubspace, (((1, 0), (0, 1, 0)),), "basis rows of unequal length"),
    (ProjSubspace, (((1, 0.5),),),
     "vector entries must be integers or Fractions"),
    (ProjSubspace, (((1, 0), (2, 0)),), "basis rows not independent"),
    (ProjSubspace, (((2, 0),),), "basis not in reduced row echelon form"),
    (CoxPresentationPair, (Q, (), ("a", "b", "c")), "no target generators"),
    (CoxPresentationPair, (Q, (("g", (1, 0)), ("g", (0, 1))), ("a", "b", "c")),
     "target labels not distinct"),
    (CoxPresentationPair, (Q, (("g", (1,)),), ("a", "b", "c")),
     "target degree has wrong length"),
    (CoxPresentationPair, (Q, (("g", (1, 0)),), ("a", "b")),
     "correspondence has wrong length"),
    (CoxPresentationPair, (Q, (("g", (1, 0)),), ("a", "a", "b")),
     "correspondence not injective"),
    (RestrictionTable, ((("D", (1,)), ("D", (2,))),),
     "table labels not distinct"),
    (Cone, ((), ()), "cone needs at least one ray"),
    (Cone, ((2, 1), ((1,), (2,))), "ray indices must be sorted and distinct"),
    (Cone, ((1, 2), ((1,),)), "one ray vector per ray index required"),
    (Fan, ((), CONES), "fan needs at least one ray and one maximal cone"),
    (Fan, (((1, 0), (1,)), CONES), "fan rays of unequal length"),
    (Fan, (((1, 0), (0, 0)), CONES), "zero ray in fan"),
]


@pytest.mark.parametrize("cls, args, message", BAD,
                         ids=[message for _, _, message in BAD])
def test_constructor_checks_are_unchanged(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_subspace_pivots_are_no_field():
    a = build(ProjSubspace)
    assert a.pivots == (0, 1)
    assert "pivots" not in repr(a)
    assert hash(a) == hash((a.basis,))
    with pytest.raises(TypeError):
        ProjSubspace(a.basis, (0, 1))
    with pytest.raises(TypeError):
        ProjSubspace(basis=a.basis, pivots=(0, 1))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickled_records_keep_equality_and_hash(cls):
    record = build(cls)
    copied = pickle.loads(pickle.dumps(record))
    assert copied == record and hash(copied) == hash(record)
    assert repr(copied) == repr(record)


def test_pickled_degree_matrix_is_rebuilt_through_its_constructor():
    # its hash is stored, and a pickle keeps fields only, so that another
    # process (another string-hash seed) takes the hash again
    state = pickle.loads(pickle.dumps(Q)).__reduce__()
    assert state == (DegreeMatrix, (Q.columns, Q.labels))


def test_cached_properties_stay_out_of_equality():
    cone, fresh = build(Cone), build(Cone)
    assert cone.geometry.is_pointed
    assert "geometry" in vars(cone) and "geometry" not in vars(fresh)
    assert cone == fresh and hash(cone) == hash(fresh)
    assert repr(cone) == repr(fresh)
