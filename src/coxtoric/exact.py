"""Exact integer matrix normal forms and rational linear algebra.

All arithmetic is arbitrary precision and there is no floating point
anywhere in this package. Row elimination runs on Python ints: a row of
ints and Fractions is scaled by the lcm of its denominators, and
`eliminate`, one fraction-free step that keeps rows primitive, is the
step of `int_rref`, which reduced forms and kernels read: `rref` is built
from it and turns entries into Fractions only in its output;
`linprog.lp_feasible` substitutes its equalities with it. A question
that needs no reduced form goes to `bareiss`, one fraction-free forward
elimination with no Fraction at all: `rank` counts its pivots, `det` is
its signed last pivot, and `cones.RationalCone` tests independence by
it. `pivot`, one Gauss-Jordan step over Q, is the step
of the simplex tableau of `linprog`, which only the tests call.
`kernel_lattice` gives the Gale dual of a grading (`grading.gale_dual`)
and of the rays of a fan (`fans.is_projective`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .records import Record


def int_vector(values, what: str) -> tuple[int, ...]:
    """The entries as a tuple, each checked to be an int and not a bool, so
    that 1.7 or True is rejected with ValueError instead of truncated."""
    vec = tuple(values)
    # plain ints pass on their types alone, without a check per entry
    if not _INT_TYPES.issuperset(map(type, vec)) and not all(
            isinstance(x, int) and not isinstance(x, bool) for x in vec):
        raise ValueError(f"{what} entries must be integers")
    return vec


_INT_TYPES = frozenset((int,))
_RATIONAL_TYPES = frozenset((int, Fraction))


def check_rational(vec: Sequence) -> None:
    """Raise ValueError unless every entry is an int (not a bool) or a
    Fraction, so that 0.1 is rejected instead of read as its binary
    expansion."""
    if _RATIONAL_TYPES.issuperset(map(type, vec)):
        return
    if not all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
               for x in vec):
        raise ValueError("vector entries must be integers or Fractions")


class IntMat(Record):
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        int_vector(self.entries, "matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMat":
        rs = [tuple(row) for row in rows]
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        return cls(len(rs), width, tuple(x for r in rs for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "IntMat":
        return IntMat(self.cols, self.rows,
                      tuple(self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

    def mul(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows = []
        orows = other.to_rows()
        for i in range(self.rows):
            r = self.row(i)
            acc = [0] * other.cols
            for k, a in enumerate(r):
                if a:
                    ok = orows[k]
                    for j in range(other.cols):
                        acc[j] += a * ok[j]
            rows.append(acc)
        return IntMat.from_rows(rows, cols=other.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def dot(u: Sequence, v: Sequence):
    """Exact dot product of two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def _sub_scaled(target: list[int], source: Sequence[int], q: int) -> None:
    for j in range(len(target)):
        target[j] -= q * source[j]


def hermite_normal_form(m: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u*m = h, h in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Zero rows sink to the bottom.
    """
    if m.rows == 0 or m.cols == 0:
        return m, IntMat.identity(m.rows)
    h = [list(r) for r in m.to_rows()]
    u = [list(r) for r in IntMat.identity(m.rows).to_rows()]
    nr, nc = m.rows, m.cols
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if h[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            pivot = h[r][c]
            clean = True
            for i in range(r + 1, nr):
                if h[i][c]:
                    q = h[i][c] // pivot
                    if q:
                        _sub_scaled(h[i], h[r], q)
                        _sub_scaled(u[i], u[r], q)
                    if h[i][c]:
                        clean = False
            if clean:
                break
        if r < nr and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    _sub_scaled(h[i], h[r], q)
                    _sub_scaled(u[i], u[r], q)
            r += 1
    return IntMat.from_rows(h, cols=nc), IntMat.from_rows(u, cols=nr)


def kernel_lattice(m: IntMat) -> IntMat:
    """Basis (as rows) of the saturated integer kernel {v : m.v = 0}.

    Computed from the HNF of the transpose: the unimodular rows aligned
    with zero rows of the echelon part span the kernel, and the span is
    automatically saturated (the quotient lattice is torsion-free).
    """
    h, u = hermite_normal_form(m.transpose())
    rk = sum(1 for i in range(h.rows) if any(h.row(i)))
    return IntMat.from_rows([u.row(i) for i in range(rk, u.rows)], cols=m.cols)


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The rank of integer rows and the signed last pivot of one
    fraction-free (Bareiss) forward elimination: each step takes the next
    column with a nonzero entry at or below the pivot row, swaps its first
    such row up, and sets every row below to (p * row - a * pivot row) / p',
    with p the pivot, a the row's entry in its column and p' the pivot
    before. By Sylvester's identity every entry stays an integer minor, so
    the division is exact. For a square matrix of full rank the signed last
    pivot is its determinant; with no pivot it is 1. Only the columns right
    of each pivot are updated, and the input rows are not modified."""
    a = [list(r) for r in rows]
    n, m = len(a), len(a[0]) if a else 0
    rk, sign, last = 0, 1, 1
    for c in range(m):
        if rk == n:
            break
        for i in range(rk, n):
            if a[i][c]:
                break
        else:
            continue
        if i != rk:
            a[rk], a[i] = a[i], a[rk]
            sign = -sign
        top = a[rk]
        p = top[c]
        cols = range(c + 1, m)
        for row in a[rk + 1:]:
            f = row[c]
            if f:
                for j in cols:
                    row[j] = (row[j] * p - f * top[j]) // last
            elif p != last:
                # a row that is zero in the pivot column is only rescaled
                for j in cols:
                    row[j] = row[j] * p // last
        last = p
        rk += 1
    return rk, sign * last


def det(m: IntMat) -> int:
    """Exact determinant: the signed last pivot of bareiss, or 0 when the
    rank falls short."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rk, last = bareiss(m.to_rows())
    return last if rk == m.rows else 0


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals of a matrix given as rows (ints or
    Fractions): the pivot count of bareiss on the integer rows."""
    return bareiss([int_row(row) for row in rows])[0]


def pivot(mat: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row r so that mat[r][c] == 1,
    then clear column c from every other row. Only the nonzero columns of
    the pivot row are updated; mat[r][c] must be a nonzero Fraction."""
    row = mat[r]
    if row[c] != 1:
        inv = 1 / row[c]
        row = mat[r] = [x * inv for x in row]
    nonzero = [j for j, x in enumerate(row) if x]
    for i, other in enumerate(mat):
        f = other[c]
        if f and i != r:
            for j in nonzero:
                other[j] -= f * row[j]


def int_row(row: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators, a positive factor, as
    a list of ints. Entries must be ints or Fractions (check_rational)."""
    check_rational(row)
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def eliminate(target: list[int], source: list[int], c: int) -> list[int]:
    """A new row: target with column c cleared by source (source[c] != 0),
    a positive multiple of target minus a multiple of source, divided by
    the gcd of its entries. Only positive factors touch target, so an
    inequality row keeps its direction."""
    s, t = source[c], target[c]
    g = gcd(s, t)
    a, b = abs(s) // g, t // g if s > 0 else -t // g
    row = [a * x - b * y for x, y in zip(target, source)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def int_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of integer rows: the rows of
    rref, each a nonzero multiple with coprime entries, and the pivot
    columns. The input lists are not modified."""
    mat = list(rows)
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        rk = len(pivots)
        if rk == len(mat):
            break
        piv = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
        if piv is not None:
            mat[rk], mat[piv] = mat[piv], mat[rk]
            source = mat[rk]
            for i, row in enumerate(mat):
                if row[c] and i != rk:
                    mat[i] = eliminate(row, source, c)
            pivots.append(c)
    return mat[:len(pivots)], pivots


_ZERO = Fraction(0)


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q. Returns (matrix, pivot column list).
    Entries must be ints or Fractions; a float or a bool raises ValueError."""
    red, pivots = int_rref([int_row(row) for row in rows])
    return [[Fraction(x, row[p]) if x else _ZERO for x in row]
            for row, p in zip(red, pivots)], pivots


def nullspace(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows . x = 0} over Q (one basis vector per free column)."""
    if not rows:
        raise ValueError("nullspace needs at least one row to fix the dimension")
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def rational_solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution x of rows . x = rhs, or None if inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("dimension mismatch")
    if not rows:
        return []
    nc = len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:nc]) and row[nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, p in enumerate(pivots):
        if p == nc:
            return None
        x[p] = red[i][nc]
    return x
