"""Exact rational linear programming.

Strict and non-strict linear systems over Q are decided exactly, with no
floating point. The equalities are solved first with `exact.rref`, which
writes each pivot variable in terms of the free ones; the remaining
inequality system is decided through its LP dual, which keeps the simplex
tableau at (free dimension + 1) rows no matter how many inequality rows
there are. Both the reduction and the simplex pivots are `exact.pivot`
steps. All strict rows share one margin variable eps, capped at 1
and maximized; the strict system is feasible iff the optimum margin is
positive. (Normalizing to eps >= 1 instead would misclassify affine strict
systems whose margin is forced below 1, e.g. interior-point tests.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import check_rational, pivot, rref


@dataclass(frozen=True)
class LinearRow:
    """One constraint  normal . x  (>=, >, or = as used)  offset."""

    normal: tuple[Fraction, ...]
    offset: Fraction = Fraction(0)
    strict: bool = False

    @classmethod
    def make(cls, normal: Sequence, offset=0, strict: bool = False) -> "LinearRow":
        """Entries and offset must be ints or Fractions; a float or a bool
        raises ValueError, as in cones.primitive."""
        normal = tuple(normal)
        check_rational(normal + (offset,))
        return cls(tuple(Fraction(x) for x in normal), Fraction(offset), strict)


@dataclass(frozen=True)
class LinearSystem:
    """A conjunction of linear equalities and (possibly strict) inequalities."""

    dim: int
    equalities: tuple[LinearRow, ...] = ()
    inequalities: tuple[LinearRow, ...] = ()

    def __post_init__(self) -> None:
        for row in self.equalities:
            if len(row.normal) != self.dim:
                raise ValueError("equality row has wrong dimension")
            if row.strict:
                raise ValueError("equality rows cannot be strict")
        for row in self.inequalities:
            if len(row.normal) != self.dim:
                raise ValueError("inequality row has wrong dimension")

    @classmethod
    def make(cls, dim: int, equalities=(), inequalities=()) -> "LinearSystem":
        eqs = tuple(r if isinstance(r, LinearRow) else LinearRow.make(*r)
                    for r in equalities)
        ins = tuple(r if isinstance(r, LinearRow) else LinearRow.make(*r)
                    for r in inequalities)
        return cls(dim, eqs, ins)


@dataclass(frozen=True)
class LPResult:
    """Feasibility verdict with an exact rational witness.

    margin is the maximized shared strict slack (capped at 1) when the
    decided system contained strict rows, None otherwise.
    """

    feasible: bool
    witness: tuple[Fraction, ...] | None
    margin: Fraction | None = None


def _optimize(T: list[list[Fraction]], basis: list[int],
              cost: list[Fraction], nenter: int) -> str:
    """Minimize cost.y on the current tableau (right-hand side in the last
    column), Bland's rule, columns < nenter may enter. Returns "optimal" or
    "unbounded"."""
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
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = T[i][-1] / T[i][entering]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        pivot(T, leave, entering)
        basis[leave] = entering


def simplex_nonneg(rows: Sequence[Sequence], rhs: Sequence, cost: Sequence):
    """min cost.y subject to rows.y = rhs, y >= 0, all exact.

    Returns (status, mult): status in {"optimal", "infeasible",
    "unbounded"}; at an optimum, mult are equality multipliers pi with
    pi.col_j <= cost_j for every column j, with equality on basic columns.
    """
    m = len(rows)
    n = len(cost)
    cost = [Fraction(c) for c in cost]
    if m == 0:
        if any(c < 0 for c in cost):
            return "unbounded", None
        return "optimal", []

    # tableau row i: input row i, the artificial block and rhs_i, with the
    # input row and rhs_i negated when rhs_i < 0
    sign = [1] * m
    T: list[list[Fraction]] = []
    for i in range(m):
        r = [Fraction(x) for x in rows[i]]
        bi = Fraction(rhs[i])
        if bi < 0:
            r = [-x for x in r]
            bi = -bi
            sign[i] = -1
        T.append(r + [Fraction(1) if k == i else Fraction(0)
                      for k in range(m)] + [bi])
    basis = list(range(n, n + m))

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    _optimize(T, basis, phase1, n + m)
    if sum(phase1[basis[i]] * T[i][-1] for i in range(len(T))) > 0:
        return "infeasible", None

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

    phase2 = cost + [Fraction(0)] * m
    status = _optimize(T, basis, phase2, n)
    if status == "unbounded":
        return "unbounded", None

    # the artificial block of each tableau row records which combination
    # of the (sign-normalized) input rows it is, so cost_B times that block
    # gives the multipliers, also after dependent rows were dropped
    pi = [sign[r] * sum(cost[bs] * T[i][n + r] for i, bs in enumerate(basis))
          for r in range(m)]
    return "optimal", pi


def lp_feasible(system: LinearSystem) -> LPResult:
    """Exact feasibility of a mixed strict/non-strict rational linear system.

    The returned witness is replayed against every row of the input system
    before being reported, so a feasible verdict always carries a checked
    rational point.
    """
    dim = system.dim
    red, pivots = rref([list(row.normal) + [row.offset]
                        for row in system.equalities])
    if dim in pivots:
        return LPResult(False, None, None)
    free = [j for j in range(dim) if j not in pivots]
    nf = len(free)

    # substitute the pivot variables into the inequality rows: clearing
    # the pivot columns leaves coeffs . x_free >= offset in the last column
    mat = red + [[Fraction(x) for x in row.normal] + [Fraction(row.offset)]
                 for row in system.inequalities]
    for i, p in enumerate(pivots):
        pivot(mat, i, p)

    # normalize and deduplicate the inequality rows
    kept: dict[tuple[Fraction, ...], tuple[Fraction, bool]] = {}
    for row, reduced in zip(system.inequalities, mat[len(red):]):
        coeffs = [reduced[f] for f in free]
        off = reduced[dim]
        lead = next((c for c in coeffs if c), None)
        if lead is None:
            if off > 0 or (row.strict and off >= 0):
                return LPResult(False, None, None)
            if not row.strict:
                continue
            # 0 > off holds everywhere, but the row still caps the shared
            # margin (-eps >= off), so it is kept as the all-zero row
            lead = 1
        scale = abs(lead)
        key = tuple(c / scale for c in coeffs)
        cand = (off / scale, row.strict)
        old = kept.get(key)
        if old is None or cand[0] > old[0] or \
                (cand[0] == old[0] and cand[1] and not old[1]):
            kept[key] = cand

    rows = [(list(k), off, strict) for k, (off, strict) in kept.items()]
    has_strict = any(strict for _, _, strict in rows)

    def compose(tvals: list[Fraction]) -> list[Fraction]:
        x = [Fraction(0)] * dim
        for f, t in zip(free, tvals):
            x[f] = t
        for r, p in zip(red, pivots):
            x[p] = r[dim] - sum(r[f] * t for f, t in zip(free, tvals))
        return x

    def replay(x: list[Fraction]) -> None:
        for row in system.equalities:
            if sum(a * b for a, b in zip(row.normal, x)) != row.offset:
                raise RuntimeError("witness failed equality replay")
        for row in system.inequalities:
            val = sum(a * b for a, b in zip(row.normal, x))
            if row.strict:
                if not val > row.offset:
                    raise RuntimeError("witness failed strict replay")
            elif not val >= row.offset:
                raise RuntimeError("witness failed replay")

    if not rows:
        x = compose([Fraction(0)] * nf)
        replay(x)
        return LPResult(True, tuple(x), None)

    # primal: max eps s.t. a.t - (strict)eps >= off, 0 <= eps <= 1
    width = nf + 1 if has_strict else nf
    mrows: list[list[Fraction]] = []
    dvec: list[Fraction] = []
    for coeffs, off, strict in rows:
        r = list(coeffs)
        if has_strict:
            r.append(Fraction(-1) if strict else Fraction(0))
        mrows.append(r)
        dvec.append(off)
    if has_strict:
        mrows.append([Fraction(0)] * nf + [Fraction(-1)])
        dvec.append(Fraction(-1))
        mrows.append([Fraction(0)] * nf + [Fraction(1)])
        dvec.append(Fraction(0))

    # dual: min (-d).y s.t. (-M^T).y = c, y >= 0; the dual multipliers at
    # the optimum are exactly a primal point satisfying M z >= d
    nrows = len(mrows)
    amat = [[-mrows[j][i] for j in range(nrows)] for i in range(width)]
    cvec = [Fraction(0)] * width
    if has_strict:
        cvec[nf] = Fraction(1)
    dualcost = [-dvec[j] for j in range(nrows)]

    status, pi = simplex_nonneg(amat, cvec, dualcost)
    if status != "optimal":
        return LPResult(False, None, None)

    z = list(pi)
    margin = z[nf] if has_strict else None
    if has_strict and margin <= 0:
        return LPResult(False, None, margin)
    x = compose(z[:nf])
    replay(x)
    return LPResult(True, tuple(x), margin)
