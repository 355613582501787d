from collections import Counter

import pytest

from coxtoric.delpezzo import presentation_pair, restriction_table
from coxtoric.embedding import (CoxPresentationPair, RestrictionTable,
                                check_degree_bijection, check_pic_restriction,
                                mori_embedding_report,
                                verify_restriction_table)
from coxtoric.exact import IntMat
from coxtoric.grading import DegreeMatrix, delpezzo4


def test_pair_validation():
    q = DegreeMatrix.make([(1,), (1,)])
    with pytest.raises(ValueError, match="no target generators"):
        CoxPresentationPair(q, (), ("a", "b"))
    with pytest.raises(ValueError, match="labels not distinct"):
        CoxPresentationPair(q, (("g", (1,)), ("g", (1,))), ("g", "h"))
    with pytest.raises(ValueError, match="wrong length"):
        CoxPresentationPair(q, (("g", (1, 0)),), ("g", "h"))
    with pytest.raises(ValueError, match="correspondence has wrong length"):
        CoxPresentationPair(q, (("g", (1,)),), ("g",))
    with pytest.raises(ValueError, match="not injective"):
        CoxPresentationPair(q, (("g", (1,)),), ("g", "g"))
    with pytest.raises(ValueError, match="correspondence required"):
        CoxPresentationPair.make(q, (("g", (1,)),))


def test_degree_bijection_identity():
    p = presentation_pair()
    report = check_degree_bijection(p)
    assert report.ok and bool(report)
    assert report.matching == tuple((k, f"g{k}") for k in range(1, 11))
    assert report.mismatch is None


def test_degree_bijection_first_mismatch():
    dp = delpezzo4()
    cols = list(dp.degrees.columns)
    cols[0], cols[1] = cols[1], cols[0]
    ambient = DegreeMatrix.make(cols)
    target = tuple((f"g{k}", dp.degrees.columns[k - 1])
                   for k in range(1, 11))
    p = CoxPresentationPair.make(ambient, target,
                                 tuple(f"g{k}" for k in range(1, 11)))
    report = check_degree_bijection(p)
    assert not report.ok
    assert report.mismatch.startswith("variable 1 has degree")
    assert report.matching == ()


def test_degree_bijection_permuted_generators():
    # listing the generators in another order is fine when the
    # correspondence is permuted to match
    dp = delpezzo4()
    order = [4, 7, 1, 10, 2, 9, 3, 8, 5, 6]
    target = tuple((f"g{k}", dp.degrees.columns[k - 1]) for k in order)
    p = CoxPresentationPair.make(dp.degrees, target,
                                 tuple(f"g{k}" for k in range(1, 11)))
    report = check_degree_bijection(p)
    assert report.ok
    assert report.matching == tuple((k, f"g{k}") for k in range(1, 11))


def test_degree_bijection_missing_and_unmatched():
    dp = delpezzo4()
    target9 = tuple((f"g{k}", dp.degrees.columns[k - 1])
                    for k in range(1, 10))
    p = CoxPresentationPair.make(dp.degrees, target9,
                                 tuple(f"g{k}" for k in range(1, 11)))
    report = check_degree_bijection(p)
    assert not report.ok
    assert report.mismatch == "variable 10 is matched to missing generator g10"

    target11 = tuple((f"g{k}", dp.degrees.columns[(k - 1) % 10])
                     for k in range(1, 12))
    p2 = CoxPresentationPair.make(dp.degrees, target11,
                                  tuple(f"g{k}" for k in range(1, 11)))
    report2 = check_degree_bijection(p2)
    assert not report2.ok
    assert report2.mismatch == "generator g11 is not matched by any variable"
    assert len(report2.matching) == 10


def test_pic_restriction_identity():
    p = presentation_pair()
    report = check_pic_restriction(p, IntMat.identity(5))
    assert report.ok and report.exact_match and report.detail is None


def test_pic_restriction_scaled():
    p = presentation_pair()
    doubled = IntMat.from_rows([[2 * x for x in IntMat.identity(5).row(i)]
                                for i in range(5)])
    report = check_pic_restriction(p, doubled)
    assert report.ok and not report.exact_match
    assert "matrix sends" in report.detail


def test_pic_restriction_singular_and_shape():
    p = presentation_pair()
    singular = IntMat.from_rows([[0] * 5] * 5)
    report = check_pic_restriction(p, singular)
    assert not report.ok and not report.exact_match
    assert "not invertible" in report.detail
    with pytest.raises(ValueError, match="wrong size"):
        check_pic_restriction(p, IntMat.identity(4))


def test_restriction_table_delpezzo():
    table = restriction_table()
    report = verify_restriction_table(table, presentation_pair())
    assert report.ok and report.mismatch is None
    expected = (("D0", "g3"), ("D1", "g1"), ("D2", "g2"), ("D3", "g5"),
                ("D4", "g4"), ("D5", "g6"), ("E1", "g7"), ("E2", "g8"),
                ("E3", "g9"), ("E4", "g10"))
    assert report.matching == expected


def test_restriction_table_order_invariance():
    table = restriction_table()
    shuffled = RestrictionTable.make(tuple(reversed(table.entries)))
    p = presentation_pair()
    report = verify_restriction_table(shuffled, p)
    assert report.ok
    tdeg = p.target_degrees()
    table_deg = dict(shuffled.entries)
    for divisor, gen in report.matching:
        assert table_deg[divisor] == tdeg[gen]


def test_restriction_table_multiset_failure():
    table = restriction_table()
    entries = list(table.entries)
    entries[0] = ("D0", (2, -1, 0, 0, -1))
    bad = RestrictionTable.make(entries)
    report = verify_restriction_table(bad, presentation_pair())
    assert not report.ok
    assert "occurs" in report.mismatch
    assert report.matching == ()


def test_restriction_table_validation():
    short = RestrictionTable.make(restriction_table().entries[:9])
    report = verify_restriction_table(short, presentation_pair())
    assert not report.ok and report.matching == ()
    assert report.mismatch == ("generator degree [0, 0, 0, 0, 1] occurs 1 "
                               "times but only 0 times in the table")
    with pytest.raises(ValueError, match="labels not distinct"):
        RestrictionTable.make([("D", (i, 0, 0, 0, 0)) for i in range(10)])


def test_table_classes_match_degree_columns():
    assert (Counter(restriction_table().classes())
            == Counter(delpezzo4().degrees.columns))


def test_mori_embedding_report():
    report = mori_embedding_report(presentation_pair(), IntMat.identity(5),
                                   restriction_table())
    assert report["overall"]
    assert report["degreeBijection"]["ok"]
    assert report["picRestriction"]["ok"]
    assert report["picRestriction"]["exactMatch"]
    assert report["restrictionTable"]["ok"]
    assert len(report["restrictionTable"]["matching"]) == 10
    assert report["extremality"]["allExtremal"]
    assert report["extremality"]["perGenerator"] == [True] * 10
    assert len(report["notes"]) == 3


def test_mori_embedding_report_catches_corruption():
    dp = delpezzo4()
    cols = list(dp.degrees.columns)
    cols[0] = (1, -1, -1, 0, 1)
    ambient = DegreeMatrix.make(cols)
    target = tuple((f"g{k}", dp.degrees.columns[k - 1])
                   for k in range(1, 11))
    p = CoxPresentationPair.make(ambient, target,
                                 tuple(f"g{k}" for k in range(1, 11)))
    report = mori_embedding_report(p, IntMat.identity(5),
                                   restriction_table())
    assert not report["degreeBijection"]["ok"]
    assert not report["overall"]


@pytest.mark.parametrize("degree", [(1.5, 1), (1, True)])
def test_restriction_table_rejects_non_integer_classes(degree):
    with pytest.raises(ValueError, match="must be integers"):
        RestrictionTable.make([("D0", degree)])


@pytest.mark.parametrize("degree", [(1.5,), (True,)])
def test_presentation_pair_rejects_non_integer_target_degrees(degree):
    q = DegreeMatrix.make([(1,)])
    with pytest.raises(ValueError, match="must be integers"):
        CoxPresentationPair.make(q, (("g", degree),))


def test_presentation_pair_rejects_non_string_labels():
    q = DegreeMatrix.make([(1,)])
    with pytest.raises(ValueError, match="target labels must be strings"):
        CoxPresentationPair.make(q, ((7, (1,)),))
    with pytest.raises(ValueError,
                       match="correspondence labels must be strings"):
        CoxPresentationPair.make(q, (("g", (1,)),), (None,))


def test_restriction_table_rejects_non_string_labels():
    with pytest.raises(ValueError, match="table labels must be strings"):
        RestrictionTable.make([(7, (1, 0))])
