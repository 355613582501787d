"""GIT chamber analysis of a positively graded presentation.

The effective cone is spanned by the degree columns. The chamber of a class
w is the intersection of all cones spanned by subsets of columns containing
w; only inclusion-minimal such subsets contribute constraints, and the
resulting inequality list is reduced to an irredundant set with no LP: a
row is redundant among the others exactly when it lies in their cone
(Farkas), and every kept row has a separating functional from
cones.separating_functional, replayed in integers. The minimal subsets
form S(w), read off one double description by
monomials.caratheodory_supports (Berchtold-Hausen, "GIT equivalence beyond
the ample cone", 2006; Cox-Little-Schenck, Toric Varieties, ch. 14), which
caches it per primitive class. The constraint form of each cone(q_J) comes
from monomials._subset_hrep, the cache of the enumerator's column cones.
Chamber equality at a fixed saturation depth is decided through the
irrelevant radicals, whose search decides each member of S(w) by its fibre
vertex and needs no constraint form for it (see monomials)."""

from __future__ import annotations

from dataclasses import dataclass

from .cones import RationalCone, primitive, separating_functional
from .exact import dot, int_vector
from .grading import DegreeMatrix
from .monomials import GuardExceeded  # noqa: F401  (re-exported)
from .monomials import (_checked_heft, _radical, _subset_hrep,
                        caratheodory_supports, fibre_vertices)

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Chamber:
    """GIT chamber as an irredundant homogeneous inequality system."""

    representative: Vec
    hrep: tuple[Vec, ...]
    full_dimensional: bool


@dataclass(frozen=True)
class SameChamberResult:
    same: bool
    stable: bool | None = None


def effective_cone(q: DegreeMatrix) -> RationalCone:
    """Cone spanned by all generator degrees."""
    return RationalCone.from_generators(q.columns, dim=q.pic_rank)


def spans_extremal_ray(q: DegreeMatrix, i: int) -> bool:
    """Whether generator i (1-based) spans an extremal ray of the effective
    cone: its degree is not a nonnegative combination of the non-parallel
    remaining degrees, certified by a replayed separating functional."""
    if not 1 <= i <= q.num_gens:
        raise ValueError("generator index out of range")
    col = q.columns[i - 1]
    if not any(col):
        raise ValueError("zero degree column")
    direction = primitive(col)
    others = [c for j, c in enumerate(q.columns)
              if j != i - 1 and primitive(c) != direction]
    return separating_functional(others, col, q.pic_rank) is not None


def chamber_of(q: DegreeMatrix, w) -> Chamber:
    """The GIT chamber containing w: the intersection of the cones on all
    minimal column subsets containing w, with irredundant constraints.

    The minimal subsets are S(w) (see the module docstring); it is empty
    exactly when w lies outside the effective cone, which raises
    ValueError.

    For w != 0 every J in S(w) is independent with w in the relative
    interior of cone(q_J), so the chamber is full-dimensional exactly when
    every J has r columns. The candidate rows are tested in sorted order,
    each against the rows still kept: by Farkas a row is redundant exactly
    when it lies in the cone of those rows, and otherwise
    separating_functional returns a point x with row.x < 0 <= r.x on the
    others, replayed in integers, which raises RuntimeError if it fails."""
    w = int_vector(w, "class")
    subsets = caratheodory_supports(q, w)
    if not subsets:
        raise ValueError("class outside the effective cone")
    if any(w):
        full = all(len(subset) == q.pic_rank for subset in subsets)
    else:
        # S(0) = [()], but the zero class lies in every nonempty column
        # cone, so the chamber is cut out by the single columns; those
        # rays meet beyond 0 only on a line, all on one side of 0
        subsets = [(j,) for j in range(q.num_gens)]
        full = q.pic_rank == 1 and (all(c[0] > 0 for c in q.columns) or
                                    all(c[0] < 0 for c in q.columns))
    rows: set[Vec] = set()
    for subset in subsets:
        eqs, ineqs = _subset_hrep(q, subset)
        for e in eqs:
            rows.add(primitive(e))
            rows.add(primitive(tuple(-x for x in e)))
        for a in ineqs:
            rows.add(primitive(a))

    working = sorted(rows)
    for row in list(working):
        others = [r for r in working if r != row]
        if separating_functional(others, row, q.pic_rank) is None:
            working = others

    for row in working:
        if dot(row, w) < 0:
            raise RuntimeError("representative violates chamber constraint")
    return Chamber(representative=w, hrep=tuple(working),
                   full_dimensional=full)


def same_chamber(q: DegreeMatrix, w1, w2, depth: int = 1, heft=None,
                 check_stable: bool = False) -> SameChamberResult:
    """Whether w1 and w2 produce identical irrelevant radicals at the given
    saturation depth. With check_stable=True the depth+1 radicals are
    compared as well and instability is reported. The depth is checked
    before any S(w) is asked for. The fibre vertices of each class, whose
    supports are S(w), find a class outside the effective cone, and every
    layer of the radical reads its supports and member verdicts off them."""
    if depth < 1:
        raise ValueError("saturation depth must be at least 1")
    vertices = []
    for w in (w1, w2):
        vertices.append(fibre_vertices(q, w))
        if not vertices[-1]:
            raise ValueError("class outside the effective cone")
    h = _checked_heft(q, heft)
    rad1, rad2 = (_radical(q, int_vector(w, "class"), depth, h, check_stable,
                           v) for w, v in zip((w1, w2), vertices))
    if check_stable:
        return SameChamberResult(rad1[0] == rad2[0], rad1[1] and rad2[1])
    return SameChamberResult(rad1 == rad2, None)
