"""Pic-graded Cox-ring presentations: degree matrices and Gale duality.

A presentation is a polynomial ring with one generator per column of an
integer degree matrix. The Gale dual (the saturated integer kernel of the
matrix, read columnwise) gives the rays of the associated toric one-skeleton.
"""

from __future__ import annotations

from functools import cache

from .exact import (IntMat, hermite_normal_form, int_vector, kernel_lattice,
                    rank)
from .records import Record, store

Vec = tuple[int, ...]


def string_label(value, what: str) -> str:
    """The label itself, checked to be a string, so that a label 7 is
    rejected with ValueError instead of becoming "7"."""
    if not isinstance(value, str):
        raise ValueError(f"{what} labels must be strings")
    return value


class DegreeMatrix(Record):
    """Degree matrix of a graded polynomial ring: one column per generator."""

    columns: tuple[Vec, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("degree matrix needs at least one column")
        r = len(self.columns[0])
        if r < 1:
            raise ValueError("grading group rank must be positive")
        if any(len(c) != r for c in self.columns):
            raise ValueError("degree columns of unequal length")
        if len(self.labels) != len(self.columns):
            raise ValueError("one label per generator required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be distinct")
        # every per-grading cache hashes the matrix on each lookup
        store(self, "_hash", hash((self.columns, self.labels)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so that the hash is taken again in a
        # process with another string-hash seed
        return type(self), (self.columns, self.labels)

    @classmethod
    def make(cls, columns, labels=None) -> "DegreeMatrix":
        cols = tuple(int_vector(c, "degree column") for c in columns)
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(len(cols)))
        return cls(cols, tuple(string_label(lab, "generator")
                               for lab in labels))

    @property
    def pic_rank(self) -> int:
        return len(self.columns[0])

    @property
    def num_gens(self) -> int:
        return len(self.columns)

    def as_intmat(self) -> IntMat:
        """The matrix with generator degrees as columns (pic_rank x num_gens)."""
        return IntMat.from_rows(
            [[c[i] for c in self.columns] for i in range(self.pic_rank)])


class GaleDual(Record):
    """Rays of the toric one-skeleton: one ray per generator, the columns
    of a saturated kernel basis of the degree matrix. A ray need not be
    primitive: when the columns of the grading generate its lattice, the
    content of ray i is the index of the sublattice that the other
    columns generate, so the grading (2, 2, 1) gives the third generator
    the ray (-2, -2). gale_dual neither checks nor normalises this; the
    cones of fans.fan_from_irrelevant work on the primitive forms."""

    rays: tuple[Vec, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.rays[0])

    @property
    def num_rays(self) -> int:
        return len(self.rays)


def gale_dual(q: DegreeMatrix) -> GaleDual:
    """Gale duality: the columns of a kernel basis of the degree matrix.

    The kernel basis k is saturated, so the rays span the cocharacter
    lattice and the ray matrix has the degree matrix as its own cokernel
    pairing. With the Hermite form u.k^T = [T; 0], k = T^T.W for rows W
    that extend to a basis of Z^n (columns of u^-1), so span(k) has index
    |det T| in its saturation: k is saturated iff T has unit pivots.
    """
    m = q.as_intmat()
    if rank(m.to_rows()) < q.pic_rank:
        raise ValueError("grading not of full rank")
    k = kernel_lattice(m)
    if k.rows != q.num_gens - q.pic_rank:
        raise RuntimeError("kernel dimension mismatch")
    if not m.mul(k.transpose()).is_zero():
        raise RuntimeError("kernel verification failed")
    t, _ = hermite_normal_form(k.transpose())
    if any(t.row(i)[i] != 1 for i in range(k.rows)):
        raise RuntimeError("kernel basis not saturated")
    return GaleDual(rays=tuple(k.col(j) for j in range(k.cols)))


class DelPezzo4(Record):
    """The degree-five del Pezzo presentation: ten generators graded by
    Pic = Z^5 in the basis (hyperplane, four exceptional classes)."""

    degrees: DegreeMatrix
    ample: Vec
    anti_canonical: Vec
    heft: Vec


@cache
def delpezzo4() -> DelPezzo4:
    """The bundled dataset, built once per process: every caller shares
    one immutable record, so a per-grading cache finds its degree matrix
    by identity instead of comparing a rebuilt one."""
    columns = (
        (1, -1, -1, 0, 0),
        (1, -1, 0, -1, 0),
        (1, -1, 0, 0, -1),
        (1, 0, -1, -1, 0),
        (1, 0, -1, 0, -1),
        (1, 0, 0, -1, -1),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    )
    return DelPezzo4(
        degrees=DegreeMatrix.make(columns),
        ample=(11, -5, -3, -2, -1),
        anti_canonical=(3, -1, -1, -1, -1),
        heft=(3, 1, 1, 1, 1),
    )
