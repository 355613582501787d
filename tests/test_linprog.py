import math
import random
from fractions import Fraction

import pytest

from coxtoric import linprog
from coxtoric.exact import int_row, pivot
from coxtoric.linprog import LPResult, lp_feasible, simplex_nonneg
from test_exact import fraction_rref


def _primitive_row(coeffs, off, strict):
    """The row coeffs.x >= off (or >) scaled by a positive factor to
    coprime integers."""
    entries = [Fraction(x) for x in (*coeffs, off)]
    scale = math.lcm(*(x.denominator for x in entries))
    ints = [int(x * scale) for x in entries]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints[:-1]), ints[-1] // g, strict


def fm_feasible(dim, eqs, ineqs):
    """Independent feasibility oracle: Fourier-Motzkin elimination with
    strictness tracking. rows are (coeffs, offset, strict) meaning
    coeffs.x >= offset (or >). Rows are kept primitive and deduplicated
    after every elimination step. Only usable for small systems."""
    rows = []
    for coeffs, off in eqs:
        rows.append(_primitive_row(coeffs, off, False))
        rows.append(_primitive_row([-c for c in coeffs], -off, False))
    for coeffs, off, strict in ineqs:
        rows.append(_primitive_row(coeffs, off, strict))
    rows = list(dict.fromkeys(rows))
    for v in range(dim):
        pos = [r for r in rows if r[0][v] > 0]
        neg = [r for r in rows if r[0][v] < 0]
        zer = [r for r in rows if r[0][v] == 0]
        new = list(zer)
        for pc, po, ps in pos:
            for ncf, no, ns in neg:
                a, c = pc[v], ncf[v]
                coeffs = [-c * x + a * y for x, y in zip(pc, ncf)]
                new.append(_primitive_row(coeffs, -c * po + a * no, ps or ns))
        rows = list(dict.fromkeys(new))
    for _, off, strict in rows:
        if off > 0 or (strict and off == 0):
            return False
    return True


def fraction_lp_feasible(dim, eqs, ineqs):
    """Reference lp_feasible on Fractions throughout, for the same integer
    rows [a | b]: the equalities by a Fraction rref, their substitution by
    exact.pivot steps and the witness replay by Fraction sums. It hands
    simplex_nonneg the same dual tableau as lp_feasible, so both must
    return the same witness."""
    red, pivots = fraction_rref([list(row) for row in eqs])
    if dim in pivots:
        return LPResult(False, None)
    free = [j for j in range(dim) if j not in pivots]
    mat = red + [[Fraction(x) for x in row] for row in ineqs]
    for i, p in enumerate(pivots):
        pivot(mat, i, p)
    kept = {}
    for reduced in mat[len(red):]:
        coeffs = [reduced[f] for f in free]
        off = reduced[dim]
        lead = next((c for c in coeffs if c), None)
        if lead is None:
            if off > 0:
                return LPResult(False, None)
            continue
        scale = abs(lead)
        key = tuple(c / scale for c in coeffs)
        if key not in kept or off / scale > kept[key]:
            kept[key] = off / scale
    z = [Fraction(0)] * len(free)
    if kept:
        amat = [[-k[i] for k in kept] for i in range(len(free))]
        z = simplex_nonneg(amat, [-off for off in kept.values()])
        if z is None:
            return LPResult(False, None)
    x = [Fraction(0)] * dim
    for f, t in zip(free, z):
        x[f] = t
    for r, p in zip(red, pivots):
        x[p] = r[dim] - sum(r[f] * t for f, t in zip(free, z))
    for row in eqs:
        assert sum(a * b for a, b in zip(row, x)) == row[dim]
    for row in ineqs:
        assert sum(a * b for a, b in zip(row, x)) >= row[dim]
    return LPResult(True, tuple(x))


def sys_of(dim, eqs=(), ineqs=()):
    """The arguments of lp_feasible for rows (coefficients, offset) of ints
    and Fractions: each row as the integer row [a | b] of exact.int_row."""
    return (dim, [int_row([*c, o]) for c, o in eqs],
            [int_row([*c, o]) for c, o in ineqs])


def test_unit_interval_feasible():
    res = lp_feasible(*sys_of(1, ineqs=[([1], 0), ([-1], -1)]))
    assert res.feasible
    assert 0 <= res.witness[0] <= 1


def test_contradiction_infeasible():
    res = lp_feasible(*sys_of(1, ineqs=[([1], 1), ([-1], 0)]))
    assert not res.feasible
    assert res.witness is None


def test_empty_system():
    res = lp_feasible(1, [], [])
    assert res.feasible
    assert res.witness == (Fraction(0),)


def test_equalities_only():
    res = lp_feasible(*sys_of(2, eqs=[([1, 1], 2), ([1, -1], 0)]))
    assert res.feasible
    assert res.witness == (Fraction(1), Fraction(1))


def test_inconsistent_equalities():
    res = lp_feasible(*sys_of(2, eqs=[([1, 1], 1), ([2, 2], 3)]))
    assert not res.feasible


def test_unbounded_direction_still_feasible():
    res = lp_feasible(*sys_of(1, ineqs=[([1], 5)]))
    assert res.feasible
    assert res.witness[0] >= 5


def test_strict_boundary_infeasible():
    # x >= 0 and -x >= 0 pin x = 0, so x > 0, asked as x >= 1, cannot hold
    res = lp_feasible(*sys_of(1, ineqs=[([1], 0), ([-1], 0), ([1], 1)]))
    assert not res.feasible
    assert res.witness is None


def test_strict_dominated_by_stronger_nonstrict():
    # x > 0 asked as x >= 1 (and as 2x >= 2) shares its direction with
    # x >= 5; the deduplication keeps the largest offset
    res = lp_feasible(*sys_of(1, ineqs=[([1], 1), ([2], 2), ([1], 5)]))
    assert res.feasible
    assert res.witness[0] >= 5


def test_constant_rows_after_elimination():
    # x + y = 1 plus the redundant x + y >= 0 and the impossible x + y >= 2
    ok = lp_feasible(*sys_of(2, eqs=[([1, 1], 1)], ineqs=[([1, 1], 0)]))
    assert ok.feasible
    bad = lp_feasible(*sys_of(2, eqs=[([1, 1], 1)], ineqs=[([1, 1], 2)]))
    assert not bad.feasible


def test_row_dimension_validation():
    with pytest.raises(ValueError, match="wrong dimension"):
        lp_feasible(2, [[1, 0]], [])
    with pytest.raises(ValueError, match="wrong dimension"):
        lp_feasible(2, [], [[1, 0, 0, 0]])


def test_int_lp_feasible_matches_lp_feasible_and_checks_row_length():
    # x0 + x1 = 2, x0 - x1 >= 1 as integer rows [a | b]: the same answer as
    # the rows (coefficients, offset) scaled through exact.int_row, and the
    # input lists are left as they are
    eqs, ineqs = [[1, 1, 2]], [[1, -1, 1]]
    got = lp_feasible(2, eqs, ineqs)
    assert got.feasible and got.witness == (Fraction(3, 2), Fraction(1, 2))
    assert got == lp_feasible(*sys_of(
        2, eqs=[([Fraction(1, 2), Fraction(1, 2)], 1)],
        ineqs=[([1, -1], 1)]))
    assert eqs == [[1, 1, 2]] and ineqs == [[1, -1, 1]]
    with pytest.raises(ValueError, match="wrong dimension"):
        lp_feasible(2, [[1, 1]], [])
    with pytest.raises(ValueError, match="wrong dimension"):
        lp_feasible(1, [], [[1, -1, 1]])


def test_simplex_nonneg_optimum_and_multipliers():
    # min y1 + 2 y2 s.t. y1 - y2 = 0: optimum 0 at y = 0, and the
    # multiplier pi has pi <= 1 and -pi <= 2, tight on the basic column
    pi = simplex_nonneg([[1, -1]], [1, 2])
    assert pi == [Fraction(1)]
    # min -y1 - y2 on the same ray is unbounded
    assert simplex_nonneg([[1, -1]], [-1, -1]) is None


def test_strict_system_with_dependent_dual_rows():
    # the strict system -2x - y + 2z > 0, x > 0, asked as offset-1 rows:
    # the dual tableau has two dependent rows, and the artificial variable
    # left basic in the redundant tableau row belongs to another input row
    res = lp_feasible(3, [], [[-2, -1, 2, 1], [1, 0, 0, 1]])
    assert res.feasible
    x = res.witness
    assert -2 * x[0] - x[1] + 2 * x[2] >= 1 and x[0] >= 1


def test_random_cross_check_against_fourier_motzkin():
    rng = random.Random(918273)
    agree = 0
    for _ in range(120):
        dim = rng.randint(1, 3)
        neq = rng.randint(0, 2)
        nin = rng.randint(1, 4)
        eqs = [([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-3, 3))
               for _ in range(neq)]
        ineqs = [([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-4, 4))
                 for _ in range(nin)]
        expected = fm_feasible(dim, eqs, [(c, o, False) for c, o in ineqs])
        got = lp_feasible(*sys_of(dim, eqs=eqs, ineqs=ineqs))
        assert got.feasible == expected, (dim, eqs, ineqs)
        agree += 1
        if got.feasible:
            for coeffs, off in eqs:
                assert sum(Fraction(c) * w for c, w in zip(coeffs, got.witness)) == off
            for coeffs, off in ineqs:
                val = sum(Fraction(c) * w for c, w in zip(coeffs, got.witness))
                assert val >= off
    assert agree == 120


# rows whose entries have unlike denominators, so that each row's own lcm
# (6, 6, 6 and 10) matters when it is replayed on integers
THIRDS = sys_of(
    3, [([Fraction(1, 2), Fraction(1, 3), -1], Fraction(1, 6))],
    [([0, Fraction(1, 3), 0], Fraction(1, 3)),
     ([0, 0, Fraction(2, 3)], Fraction(-1, 3)),
     ([0, Fraction(1, 3), Fraction(1, 2)], Fraction(2, 3)),
     ([Fraction(1, 2), 0, 0], Fraction(-7, 5))])


def test_thirds_system_witness_matches_fraction_reference():
    got = lp_feasible(*THIRDS)
    assert got.feasible and got == fraction_lp_feasible(*THIRDS)


@pytest.mark.parametrize("z, ok", [
    # (x1, x2) for the free columns; x0 = 1/3 + 2 x2 - 2 x1 / 3 follows
    # from the equality. The rows read x1 >= 1, x2 >= -1/2,
    # 2 x1 + 3 x2 >= 4 and x0 >= -14/5.
    ((Fraction(11, 4), Fraction(-1, 2)), True),    # rows 2 and 3 tight
    ((Fraction(4), Fraction(-1, 3)), False),       # x0 = -3
    ((Fraction(13, 5), Fraction(-1, 2)), False),   # 2 x1 + 3 x2 = 37/10
    ((Fraction(999, 1000), Fraction(1)), False),   # x1 misses 1
    ((Fraction(3), Fraction(-501, 1000)), False),  # x2 below -1/2
    ((Fraction(4), Fraction(5)), True),
])
def test_witness_replay_rejects_a_perturbed_point(monkeypatch, z, ok):
    # the simplex returns a point instead of the one it finds; replayed on
    # the rows scaled by their lcm, a point that violates a row must fail
    # and one on its boundary must pass. The two points that violate the
    # last two rows satisfy the rows of their numerators alone.
    monkeypatch.setattr(linprog, "simplex_nonneg", lambda rows, cost: list(z))
    if ok:
        res = lp_feasible(*THIRDS)
        assert res.feasible and res.witness[1:] == z
        assert res.witness[0] == Fraction(1, 3) + 2 * z[1] - 2 * z[0] / 3
    else:
        with pytest.raises(RuntimeError, match="^witness failed replay$"):
            lp_feasible(*THIRDS)
