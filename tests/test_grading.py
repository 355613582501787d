import pickle

import pytest

from coxtoric.delpezzo import REFERENCE_RAY_ROWS
from coxtoric.exact import (IntMat, dot, hermite_normal_form,
                            kernel_lattice, rank)
from coxtoric.grading import DegreeMatrix, delpezzo4, gale_dual
from test_exact import maximal_minor_gcd


def hnf_of_rows(rows):
    return hermite_normal_form(IntMat.from_rows(rows))[0]


def test_degree_matrix_validation():
    q = DegreeMatrix.make([(1,), (1,), (1,)])
    assert q.pic_rank == 1 and q.num_gens == 3
    assert q.labels == ("x1", "x2", "x3")
    with pytest.raises(ValueError):
        DegreeMatrix.make([])
    with pytest.raises(ValueError):
        DegreeMatrix.make([(1, 0), (1,)])
    with pytest.raises(ValueError):
        DegreeMatrix.make([(1,), (1,)], labels=("a", "a"))
    # the hash is kept; equality still reads columns and labels
    same = DegreeMatrix.make([(1,), (1,), (1,)])
    relabelled = DegreeMatrix.make([(1,), (1,), (1,)], labels=("a", "b", "c"))
    assert same == q and hash(same) == hash(q)
    assert relabelled != q and len({q: 0, same: 1, relabelled: 2}) == 2
    copied = pickle.loads(pickle.dumps(q))
    assert copied == q and hash(copied) == hash(q)


@pytest.mark.parametrize("labels", [(7, None), ("a", 2), (b"a", "b")])
def test_degree_matrix_rejects_non_string_labels(labels):
    with pytest.raises(ValueError, match="labels must be strings"):
        DegreeMatrix.make([(1,), (1,)], labels=labels)


@pytest.mark.parametrize("columns", [[(1.7,), (1,), (1,)],
                                     [(1,), (1,), (True,)]])
def test_degree_matrix_rejects_non_integer_entries(columns):
    with pytest.raises(ValueError, match="must be integers"):
        DegreeMatrix.make(columns)


def test_gale_p2():
    q = DegreeMatrix.make([(1,), (1,), (1,)])
    g = gale_dual(q)
    assert g.num_rays == 3 and g.ambient_dim == 2
    ref = hnf_of_rows([(1, 0, -1), (0, 1, -1)])
    assert hnf_of_rows(kernel_lattice(q.as_intmat()).to_rows()) == ref


def test_gale_p1xp1():
    q = DegreeMatrix.make([(1, 0), (1, 0), (0, 1), (0, 1)])
    g = gale_dual(q)
    assert g.num_rays == 4
    # reference rays (1,0),(-1,0),(0,1),(0,-1) stacked as columns
    ref = hnf_of_rows([(1, -1, 0, 0), (0, 0, 1, -1)])
    assert hnf_of_rows(kernel_lattice(q.as_intmat()).to_rows()) == ref


def test_gale_rank_deficient():
    q = DegreeMatrix.make([(1, 1), (2, 2), (3, 3)])
    with pytest.raises(ValueError, match="grading not of full rank"):
        gale_dual(q)


def test_delpezzo4_constants():
    dp = delpezzo4()
    assert dp.degrees.columns[0] == (1, -1, -1, 0, 0)
    assert dp.degrees.columns[9] == (0, 0, 0, 0, 1)
    assert dp.ample == (11, -5, -3, -2, -1)
    assert dp.anti_canonical == (3, -1, -1, -1, -1)
    assert dp.heft == (3, 1, 1, 1, 1)
    # the heft pairs to exactly 1 with every generator degree
    assert all(dot(dp.heft, c) == 1 for c in dp.degrees.columns)


def test_delpezzo4_gale_orthogonality():
    dp = delpezzo4()
    g = gale_dual(dp.degrees)
    assert g.num_rays == 10 and g.ambient_dim == 5
    k = kernel_lattice(dp.degrees.as_intmat())
    q = dp.degrees.as_intmat()
    assert q.mul(k.transpose()).is_zero()
    # rays are the kernel columns
    assert tuple(k.col(j) for j in range(10)) == g.rays
    # rank additivity and saturation via the maximal minors
    assert rank(k.to_rows()) == 5
    assert maximal_minor_gcd(k) == 1
    # the first six entries of any kernel row sum to zero
    for row in k.to_rows():
        assert sum(row[:6]) == 0


def test_delpezzo4_matches_reference_rays():
    dp = delpezzo4()
    k = kernel_lattice(dp.degrees.as_intmat())
    assert hnf_of_rows(k.to_rows()) == hnf_of_rows(REFERENCE_RAY_ROWS)
    # the reference rows really are kernel vectors
    q = dp.degrees.as_intmat()
    assert q.mul(IntMat.from_rows(REFERENCE_RAY_ROWS).transpose()).is_zero()


def test_degree_matrix_smith_form_free():
    dp = delpezzo4()
    assert maximal_minor_gcd(dp.degrees.as_intmat()) == 1
