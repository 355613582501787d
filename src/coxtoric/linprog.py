"""Exact rational linear programming.

Linear systems A x = b, M x >= d over Q are decided exactly, with no
floating point. `lp_feasible` takes each row as the ints [a | b]. The
equalities are brought to reduced row echelon form by the fraction-free
steps of `exact.int_rref`, which write each pivot variable in terms of the
free ones. The same `exact.eliminate` step, with positive factors only,
substitutes them into the inequality rows. The remaining inequality system
is decided through its LP dual, which keeps the simplex tableau at (free
dimension) rows no matter how many inequality rows there are; the simplex
pivots are `exact.pivot` steps over Q. The witness is replayed on the
integer rows, with one common denominator for its coordinates.

No package code calls it: it is the exact LP oracle of the tests, which
check the double descriptions against it. Repeated rows are common in
such systems, so each distinct row is reduced once. Projectivity is read
off an ample class (`fans.is_projective`); cone membership, the
separating functionals and the pair separators of `fans.validate_fan` are
each read off one double description in `cones`; positivity of a grading,
its heft and the chamber questions are read off S(w) and the constraint
form of the effective cone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .exact import eliminate, int_rref, pivot
from .records import Record


class LPResult(Record):
    """Feasibility verdict with an exact rational witness."""

    feasible: bool
    witness: tuple[Fraction, ...] | None


def _optimize(T: list[list[Fraction]], basis: list[int],
              cost: list[Fraction], nenter: int) -> bool:
    """Minimize cost.y on the current tableau by Bland's rule, columns <
    nenter may enter. The right-hand side is zero, so every ratio is 0 and
    the leaving row is the one of smallest basic index among the positive
    entries of the entering column. Returns False when unbounded."""
    m = len(T)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(nenter):
            rc = cost[j] - sum(cb[i] * T[i][j] for i in range(m) if T[i][j])
            if rc < 0:
                entering = j
                break
        if entering < 0:
            return True
        rows = [i for i in range(m) if T[i][entering] > 0]
        if not rows:
            return False
        leave = min(rows, key=basis.__getitem__)
        pivot(T, leave, entering)
        basis[leave] = entering


def simplex_nonneg(rows: Sequence[Sequence],
                   cost: Sequence) -> list[Fraction] | None:
    """min cost.y subject to rows.y = 0, y >= 0, all exact, for at least
    one row.

    The feasible set is a cone, so the optimum is 0 or the problem is
    unbounded; None means unbounded. At the optimum the result is the
    equality multipliers pi with pi.col_j <= cost_j for every column j,
    with equality on basic columns.
    """
    m = len(rows)
    n = len(cost)
    cost = [Fraction(c) for c in cost]

    # tableau row i: input row i followed by the artificial block
    T = [[Fraction(x) for x in rows[i]] +
         [Fraction(1) if k == i else Fraction(0) for k in range(m)]
         for i in range(m)]
    basis = list(range(n, n + m))

    # phase 1 starts at its optimum 0, but its degenerate pivots choose the
    # starting basis and so the vertex that phase 2 reports
    _optimize(T, basis, [Fraction(0)] * n + [Fraction(1)] * m, n + m)

    # pivot remaining artificial basics out; a row that cannot release its
    # artificial is a dependent equation and is dropped
    for i in range(len(T) - 1, -1, -1):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j]:
                    pivot(T, i, j)
                    basis[i] = j
                    break
            else:
                del T[i], basis[i]

    if not _optimize(T, basis, cost + [Fraction(0)] * m, n):
        return None

    # the artificial block of each tableau row records which combination
    # of the input rows it is, so cost_B times that block gives the
    # multipliers, also after dependent rows were dropped
    return [sum(cost[bs] * T[i][n + r] for i, bs in enumerate(basis))
            for r in range(m)]


def lp_feasible(dim: int, eqs: list[list[int]],
                ineqs: list[list[int]]) -> LPResult:
    """Exact feasibility of A x = b, M x >= d over Q, for integer rows
    [a | b] of length dim + 1, each read as a.x = b (eqs) or a.x >= b
    (ineqs). The input lists are not modified.

    The returned witness is replayed against every input row before being
    reported, so a feasible verdict always carries a checked rational
    point.
    """
    if any(len(row) != dim + 1 for row in eqs + ineqs):
        raise ValueError("row has wrong dimension")
    # exact duplicate rows add nothing; the replay below still runs over
    # every input row
    red, pivots = int_rref(list(dict.fromkeys(map(tuple, eqs))))
    if dim in pivots:
        return LPResult(False, None)
    free = [j for j in range(dim) if j not in pivots]

    # deduplicate the inequality rows on their primitive integer direction,
    # keeping the largest offset b / g per direction (compared as integer
    # cross products); substituting the pivot variables clears the pivot
    # columns and leaves a positive multiple of coeffs . x_free >= off
    kept: dict[tuple[int, ...], tuple[int, int]] = {}
    for row in dict.fromkeys(map(tuple, ineqs)):
        for r, p in zip(red, pivots):
            if row[p]:
                row = eliminate(row, r, p)
        coeffs = [row[f] for f in free]
        g = gcd(*coeffs)
        if not g:
            if row[dim] > 0:
                return LPResult(False, None)
            continue
        key = tuple(c // g for c in coeffs)
        best = kept.get(key)
        if best is None or row[dim] * best[1] > best[0] * g:
            kept[key] = (row[dim], g)

    z = [Fraction(0)] * len(free)
    if kept:
        # each kept direction scaled by its first nonzero entry, in
        # first-seen order; dual: min (-d).y s.t. (-M^T).y = 0, y >= 0, and
        # the dual multipliers at the optimum are exactly a primal point
        # satisfying M z >= d
        amat: list[list[Fraction]] = [[] for _ in free]
        cost = []
        for key, (b, g) in kept.items():
            scale = abs(next(c for c in key if c))
            for col, c in zip(amat, key):
                col.append(Fraction(-c, scale))
            cost.append(Fraction(-b, g * scale))
        z = simplex_nonneg(amat, cost)
        if z is None:
            return LPResult(False, None)

    # z = Z / den; each pivot row r gives r[p] x_p = r[dim] - sum r[f] x_f
    den = lcm(*[t.denominator for t in z])
    zs = [t.numerator * (den // t.denominator) for t in z]
    x = [Fraction(0)] * dim
    for f, t in zip(free, z):
        x[f] = t
    for r, p in zip(red, pivots):
        num = r[dim] * den - sum(r[f] * t for f, t in zip(free, zs))
        x[p] = Fraction(num, r[p] * den)

    # replay on the integer rows: x = X / den gives a . x - b = 0 (or >= 0)
    # exactly when the row dotted with (X, -den) is 0 (or >= 0)
    den = lcm(*[t.denominator for t in x])
    homog = [t.numerator * (den // t.denominator) for t in x] + [-den]
    for row in eqs:
        if sum(map(mul, row, homog)):
            raise RuntimeError("witness failed equality replay")
    for row in ineqs:
        if sum(map(mul, row, homog)) < 0:
            raise RuntimeError("witness failed replay")
    return LPResult(True, tuple(x))
