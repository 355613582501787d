"""GIT chamber analysis of a positively graded presentation.

The effective cone is spanned by the degree columns. The chamber of a class
w is the intersection of all cones spanned by subsets of columns containing
w; only inclusion-minimal such subsets contribute constraints. The minimal
subsets form S(w), read off one double description by
monomials.caratheodory_supports (Berchtold-Hausen, "GIT equivalence beyond
the ample cone", 2006; Cox-Little-Schenck, Toric Varieties, ch. 14), which
caches it per primitive class. The constraint form of each cone(q_J) comes
from monomials._subset_hrep, the cache of the enumerator's column cones.

The chamber needs no LP and no redundancy test per row: one double
description of the stacked constraint forms, equalities passed as
equalities (cones._intersection, which fans.is_projective shares), gives
its rays, and one more gives its equalities and facets
(Fukuda-Prodon, "Double description method revisited", 1996). It is
reported in a canonical form: the equalities with both signs, then one
candidate row per facet. Every row is irredundant, but a lower-dimensional
chamber does not get the fewest rows: 2k rows state k equalities, where
k + 1 would do. The rays, the equalities and each facet row are replayed
with integer dot products and ranks.

Chamber equality at a fixed saturation depth is decided through the
public monomials.irrelevant_radical, once per class, which reads the
radical off the one monomials entry of the class: S(w), the periods of
its members and every radical already built.

Extremality of a column is read off Eff's constraint form from the same
cache, where derive_heft has already put it: the facets tight on the
column, by their generator masks, give its minimal face, and a "yes" is
replayed with one integer functional. Only a non-pointed Eff runs a
double description per column (separating_functional)."""

from __future__ import annotations

from .cones import (RationalCone, _intersection, generators_to_hrep,
                    primitive, separating_functional)
from .exact import dot, int_rref, int_vector, rank
from .grading import DegreeMatrix
from .monomials import GuardExceeded  # noqa: F401  (re-exported)
from .monomials import (_checked_depth, _subset_hrep, caratheodory_supports,
                        fibre_vertices, irrelevant_radical)
from .records import Record

Vec = tuple[int, ...]


class Chamber(Record):
    """GIT chamber as an irredundant homogeneous inequality system in
    canonical form: the rows of the fraction-free reduced echelon basis of
    its equalities, each with both signs, and per facet the least candidate
    row that cuts it out, all sorted. A full-dimensional chamber's rows are
    its unique primitive facet normals; a lower-dimensional one does not
    get the fewest rows."""

    representative: Vec
    hrep: tuple[Vec, ...]
    full_dimensional: bool


class SameChamberResult(Record):
    same: bool
    stable: bool | None = None


def effective_cone(q: DegreeMatrix) -> RationalCone:
    """Cone spanned by all generator degrees."""
    return RationalCone.from_generators(q.columns, dim=q.pic_rank)


def spans_extremal_ray(q: DegreeMatrix, i: int) -> bool:
    """Whether generator i (1-based) spans an extremal ray of the effective
    cone: its degree is not a nonnegative combination of the non-parallel
    remaining degrees.

    The verdict is read off Eff's constraint form, cached per grading
    (_subset_hrep over all columns, as derive_heft reads it), with no
    double description. Eff is pointed when h, the sum of its facet
    normals, is positive on every nonzero column. Then q_i spans an
    extremal ray exactly when every column of its minimal face, the
    columns tight on every facet tight on q_i (read off the facets'
    generator masks), is parallel to q_i. A "yes" is certified by
    x = M s - h, with s the sum of the facets tight on q_i and
    M = max ceil((h.c + 1) / (s.c)) over the nonzero columns c not
    parallel to q_i, where s.c > 0: x.q_i < 0 and x.c > 0 are replayed,
    and a failed replay raises RuntimeError. A non-pointed Eff asks
    separating_functional about the non-parallel columns instead."""
    if not 1 <= i <= q.num_gens:
        raise ValueError("generator index out of range")
    col = q.columns[i - 1]
    if not any(col):
        raise ValueError("zero degree column")
    direction = primitive(col)
    # the nonzero columns, in the order of the facet masks' bits
    nonzero = [c for c in q.columns if any(c)]
    facets, masks = _subset_hrep(q, tuple(range(q.num_gens)))[1:]
    h = [sum(a[k] for a in facets) for k in range(q.pic_rank)]
    if any(dot(h, c) <= 0 for c in nonzero):
        others = [c for j, c in enumerate(q.columns)
                  if j != i - 1 and primitive(c) != direction]
        return separating_functional(others, col, q.pic_rank) is not None
    bit = 1 << sum(1 for c in q.columns[:i - 1] if any(c))
    tight = [(a, z) for a, z in zip(facets, masks) if z & bit]
    face = (1 << len(nonzero)) - 1
    for _a, z in tight:
        face &= z
    others = [(k, c) for k, c in enumerate(nonzero)
              if primitive(c) != direction]
    if any(face >> k & 1 for k, _c in others):
        return False
    s = [sum(a[k] for a, _z in tight) for k in range(q.pic_rank)]
    products = [(dot(h, c), dot(s, c)) for _k, c in others]
    if any(sc <= 0 for _hc, sc in products):
        raise RuntimeError("separating functional failed replay")
    m = max((-(-(hc + 1) // sc) for hc, sc in products), default=0)
    x = [m * sk - hk for sk, hk in zip(s, h)]
    if dot(x, col) >= 0 or any(dot(x, c) <= 0 for _k, c in others):
        raise RuntimeError("separating functional failed replay")
    return True


def chamber_of(q: DegreeMatrix, w) -> Chamber:
    """The GIT chamber containing w: the intersection of the cones on all
    minimal column subsets containing w, in its canonical H-form.

    The minimal subsets are S(w) (see the module docstring); it is empty
    exactly when w lies outside the effective cone, which raises
    ValueError. The zero class lies in every nonempty column cone, so its
    chamber is cut out by the single columns.

    The candidate rows are the constraint forms of those cones. One
    double description of them, equalities as equalities, gives the
    chamber's rays, and one more gives their equalities E and facets. The
    chamber is full-dimensional exactly when E is empty. The reported rows
    are, sorted, each row of int_rref(E) with both signs and, per facet,
    the least candidate row positive on exactly the rays off that facet.
    Before the chamber is returned, every ray must satisfy every candidate
    row and lie on every reported equality, the rays must span
    r - |E| dimensions and hold no line, each facet row's tight rays must
    span r - |E| - 1, and w must satisfy every row; a failure raises
    RuntimeError."""
    w = int_vector(w, "class")
    subsets = caratheodory_supports(q, w)
    if not subsets:
        raise ValueError("class outside the effective cone")
    if not any(w):
        subsets = [(j,) for j in range(q.num_gens)]
    r = q.pic_rank
    equalities, inequalities, lin, rays = _intersection(
        r, (_subset_hrep(q, subset) for subset in subsets))
    perp, _normals, masks = generators_to_hrep(r, rays)
    basis = [primitive(e) for e in int_rref(list(perp))[0]]
    dim = r - len(basis)

    # per set of rays (a bitmask), the least candidate row positive on
    # exactly those rays
    least: dict[int, Vec] = {}
    for row in sorted({*inequalities, *equalities, *map(_neg, equalities)}):
        values = [dot(row, x) for x in rays]
        if min(values, default=0) < 0:
            raise RuntimeError("chamber failed replay")
        least.setdefault(sum(1 << k for k, v in enumerate(values) if v), row)
    everything = (1 << len(rays)) - 1
    facets = [least.get(everything & ~z) for z in masks]
    if lin or None in facets or rank(rays) != dim or \
            any(dot(e, x) for e in basis for x in rays) or \
            any(rank([x for k, x in enumerate(rays) if z >> k & 1]) !=
                dim - 1 for z in masks):
        raise RuntimeError("chamber failed replay")
    hrep = tuple(sorted([*basis, *map(_neg, basis), *facets]))
    if any(dot(row, w) < 0 for row in hrep):
        raise RuntimeError("chamber failed replay")
    return Chamber(representative=w, hrep=hrep, full_dimensional=not basis)


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def same_chamber(q: DegreeMatrix, w1, w2, depth: int = 1, heft=None,
                 check_stable: bool = False) -> SameChamberResult:
    """Whether w1 and w2 produce identical irrelevant radicals at the given
    saturation depth. With check_stable=True the depth+1 radicals are
    compared as well and instability is reported. The depth (an int, not
    a bool) is checked before any S(w) is asked for, and the fibre
    vertices of each class, whose supports are S(w), find a class outside
    the effective cone. Each class then goes to irrelevant_radical, which
    reads its radical off the same entry (see monomials)."""
    _checked_depth(depth)
    for w in (w1, w2):
        if not fibre_vertices(q, w):
            raise ValueError("class outside the effective cone")
    rad1, rad2 = (irrelevant_radical(q, w, depth, heft, check_stable)
                  for w in (w1, w2))
    if check_stable:
        return SameChamberResult(rad1[0] == rad2[0], rad1[1] and rad2[1])
    return SameChamberResult(rad1 == rad2, None)
