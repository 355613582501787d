"""Bundled dataset: the degree-five del Pezzo surface inside a ten-ray
toric ambient space.

Everything here is fixed input data for the verification pipeline: the
reference ray basis used by the gale comparison, the two radical support
lists, the divisor restriction table, the presentation pair for the
embedding checks, and the projective incidence configuration (four target
2-planes, a claimed transversal plane, and the four claimed intersection
points).
"""

from __future__ import annotations

from functools import cache

from .embedding import CoxPresentationPair, RestrictionTable
from .grading import DegreeMatrix, delpezzo4
from .incidence import ProjPoint, ProjSubspace, subspace_from_equations
from .monomials import SquarefreeIdeal

# reference basis for the ray lattice (rows span the kernel of the degree
# matrix; columns are the ten rays); comparisons go through Hermite form
REFERENCE_RAY_ROWS = (
    (1, 0, 0, 0, 0, -1, 1, 1, -1, -1),
    (0, 1, 0, 0, 0, -1, 1, 0, 0, -1),
    (0, 0, 1, 0, 0, -1, 1, 0, -1, 0),
    (0, 0, 0, 1, 0, -1, 0, 1, 0, -1),
    (0, 0, 0, 0, 1, -1, 0, 1, -1, 0),
)

# minimal supports of the anticanonical irrelevant radical, in source order
ANTICANONICAL_SUPPORTS = (
    (1, 2, 3, 7), (1, 4, 5, 8), (1, 3, 4, 7, 8), (1, 2, 5, 7, 8),
    (1, 6, 7, 8), (2, 4, 6, 9), (2, 3, 4, 7, 9), (2, 5, 7, 9),
    (1, 2, 6, 7, 9), (3, 4, 8, 9), (2, 4, 5, 8, 9), (1, 4, 6, 8, 9),
    (3, 5, 6, 10), (3, 4, 7, 10), (2, 3, 5, 7, 10), (1, 3, 6, 7, 10),
    (2, 5, 8, 10), (3, 4, 5, 8, 10), (1, 5, 6, 8, 10), (1, 6, 9, 10),
    (3, 4, 6, 9, 10), (2, 5, 6, 9, 10),
)

# minimal supports of the ample irrelevant radical (derived fixture,
# cross-checked against full monomial enumeration in the test suite)
AMPLE_SUPPORTS = (
    (1, 2, 3, 7, 8), (1, 2, 3, 7, 9), (1, 2, 3, 7, 10), (1, 2, 5, 7, 8),
    (1, 2, 5, 7, 9), (1, 2, 5, 8, 10), (1, 2, 6, 7, 8), (1, 2, 6, 7, 9),
    (1, 2, 6, 9, 10), (1, 3, 4, 7, 8), (1, 3, 4, 7, 10), (1, 3, 4, 8, 9),
    (1, 3, 6, 7, 10), (1, 3, 6, 9, 10), (1, 4, 5, 7, 8), (1, 4, 5, 8, 9),
    (1, 4, 5, 8, 10), (1, 4, 6, 7, 8), (1, 4, 6, 8, 9), (1, 5, 6, 8, 10),
    (1, 6, 7, 8, 10), (1, 6, 8, 9, 10), (2, 3, 4, 7, 9), (2, 3, 4, 8, 9),
    (2, 3, 5, 7, 10), (2, 3, 5, 8, 10), (2, 4, 5, 7, 9), (2, 4, 5, 8, 9),
    (2, 4, 6, 7, 9), (2, 4, 6, 8, 9), (2, 4, 6, 9, 10), (2, 5, 6, 9, 10),
    (2, 5, 7, 9, 10), (2, 5, 8, 9, 10), (3, 4, 5, 7, 10), (3, 4, 5, 8, 10),
    (3, 4, 6, 9, 10), (3, 4, 7, 9, 10), (3, 4, 8, 9, 10), (3, 5, 6, 7, 10),
    (3, 5, 6, 8, 10), (3, 5, 6, 9, 10),
)


def anticanonical_ideal() -> SquarefreeIdeal:
    return SquarefreeIdeal.from_supports(ANTICANONICAL_SUPPORTS)


def ample_ideal() -> SquarefreeIdeal:
    return SquarefreeIdeal.from_supports(AMPLE_SUPPORTS)


# which two exceptional loci each of the six hyperplane pullbacks loses
HYPERPLANE_PAIRS = (
    ("D0", 1, 4), ("D1", 1, 2), ("D2", 1, 3),
    ("D3", 2, 4), ("D4", 2, 3), ("D5", 3, 4),
)


def restriction_table() -> RestrictionTable:
    """Classes of the ten ambient divisors after restriction, in the basis
    (h, l1, l2, l3, l4)."""
    entries = []
    for label, j, k in HYPERPLANE_PAIRS:
        cls = [1, 0, 0, 0, 0]
        cls[j] = -1
        cls[k] = -1
        entries.append((label, tuple(cls)))
    for i in range(1, 5):
        cls = [0, 0, 0, 0, 0]
        cls[i] = 1
        entries.append((f"E{i}", tuple(cls)))
    return RestrictionTable.make(entries)


def presentation_pair() -> CoxPresentationPair:
    """Ambient variables x1..x10 against surface generators g1..g10, with
    the identity correspondence xk -> gk."""
    dp = delpezzo4()
    ambient = DegreeMatrix.make(
        dp.degrees.columns, labels=tuple(f"x{k}" for k in range(1, 11)))
    target = tuple((f"g{k}", dp.degrees.columns[k - 1])
                   for k in range(1, 11))
    return CoxPresentationPair.make(ambient, target)


# incidence configuration in P^5: four target 2-planes, a claimed
# transversal plane, and the four claimed intersection points
TARGET_PLANE_EQUATION_INDICES = ((0, 3, 5), (0, 2, 4), (1, 2, 3), (1, 4, 5))

TRANSVERSAL_PLANE_EQUATIONS = (
    (0, 0, 1, 0, 1, 0),
    (1, 1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0, 1),
)

PRINTED_POINTS = (
    (0, 0, 1, 0, -1, 0),
    (0, 1, 0, -1, 0, 1),
    (1, 0, 0, 0, 0, -1),
    (1, 0, 0, -1, 0, 0),
)


@cache
def target_planes() -> tuple[ProjSubspace, ...]:
    """The four target planes, built once per process (ProjSubspace is
    frozen)."""
    out = []
    for idx in TARGET_PLANE_EQUATION_INDICES:
        forms = [tuple(1 if j == i else 0 for j in range(6)) for i in idx]
        out.append(subspace_from_equations(forms, 5))
    return tuple(out)


def claimed_transversal() -> ProjSubspace:
    return subspace_from_equations(TRANSVERSAL_PLANE_EQUATIONS, 5)


def printed_points() -> tuple[ProjPoint, ...]:
    return tuple(ProjPoint.make(p) for p in PRINTED_POINTS)
