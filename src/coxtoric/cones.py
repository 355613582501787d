"""Exact polyhedral cone computations via the double description method.

Cones are rational; generators (V-form) and constraint normals (H-form) are
kept as primitive integer vectors, and conversion between the two forms is
one dual computation. The double description starts from the canonical
kernel basis of the equalities: per free column, the primitive kernel
vector positive there and zero at the other free columns. Equalities are
solved once by `exact.int_rref`; with none, as in every
`generators_to_hrep`, every column is free and the basis is the unit
basis, with no elimination. The inequalities are then inserted one at a
time.
Every ray carries the set of already-processed inequality indices it
satisfies with equality, kept as an int bitmask, which powers the
combinatorial adjacency test of Fukuda and Prodon ("Double description
method revisited", 1996): a positive and a negative ray are adjacent when
no third ray is tight on all of their common rows (`z & meet == meet`
holds for the two alone). Their rank bound comes first: with m the
dimension the equalities leave and l the current lineality dimension, two
adjacent rays span a face of dimension l + 2, so a pair with fewer than
m - l - 2 common rows is skipped with no scan. That step (sign split,
adjacency, combination) is one function, `_cut`. Lineality is handled by
pivoting: while some lineality vector meets the new constraint, the
constraint cuts the lineality space instead of the ray list. Every
lineality vector and ray is primitive, so one that already lies on the
new hyperplane is kept as it is, with no arithmetic. The final bitmasks
are exact: `double_description` returns them with the rays, and
`generators_to_hrep` with the facets, as per facet of cone(gens) the
generators it vanishes on, which `fans.Cone.facets` and
`chambers.chamber_of` read with no dot product.

Integer vectors never become Fractions: every row enters through
`primitive`, which checks its entries and divides an all-int vector by its
gcd directly, so only rational input pays for `fractions.Fraction`. Inside
the double description every vector is an int tuple, and projections and
combined rays are normalised by their gcd alone. Each row's products with
the lineality vectors and rays are taken once per step (`_products`), and
a primitive coordinate row +-e_j reads them off entry j with no sum: when
it picks a lineality pivot, projects, and splits the rays by sign.

The fibre double description of {(lambda, t) >= 0 : G lambda = t w}
(`_fibre_rays`, which `cone_member`, `fans.is_projective` and the fibre
vertices read) comes in two halves. The half that depends on the columns
G alone (`_fibre_kernel`) is one fraction-free Gauss-Jordan elimination
(`exact.montante`) of [G | I], which leaves one pivot value d on every
pivot column: it gives the pivot and free columns of G, the kernel
vectors of the free columns with t = 0, the transform U with R = U G on
the pivot rows, and the left kernel of G. `monomials` keeps it per
grading, so every class of a grading after the first runs no
elimination; `cone_member` and `fans.is_projective` run both halves per
call. The half per target w reads the t column off them with no
division: t is free exactly when every left-kernel row vanishes on w, and
then its kernel vector is U_i.w at each pivot column and d at t. The
result is the canonical kernel basis of the equalities, the same as one
`int_rref` of [G | -w] gives. The double description then cuts only by
unit rows e_j, and in its own order, as the insertion order decides how
many pairs are tested (Fukuda and Prodon). The units of the free columns
come first and cost no arithmetic: they cut the kernel to the simplicial
cone of the basis vectors, each tight on every free unit but its own.
Each pivot-column unit then cuts through `_cut`, reading the products
off entry j: at every step the one whose sign split has the fewest
positive by negative pairs, ties to the lowest column. The lineality is
spent by then, so adjacent rays share at least m - 2 rows. The cone lies
in the nonnegative orthant, so it is pointed, and its primitive extreme
rays are the same set in any order.

Membership is certified with no LP. `separating_functional` reads a
functional that separates a vector from cone(gens) off one double
description (Farkas) and replays it with exact dot products. `cone_member`
answers "no" with that functional and "yes" with nonnegative coefficients
read off a second double description, also replayed.

`RationalCone` builds its H-form only when a question needs it. At most
dim generators are tested for independence by one fraction-free forward
elimination (`exact.bareiss`), which forms no reduced rows; independent
generators span a simplicial cone, of span rank their count, and pointed.
Dependent generators read the span rank off the H-form's equalities, and
pointedness off a witness: the sum of the facet normals lies in the
relative interior of the dual cone, so it is positive on every generator
exactly when the cone holds no line (Cox-Little-Schenck, Toric Varieties,
Sec. 1.2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .exact import bareiss, check_rational, dot, int_rref, montante
from .records import Record

Vec = tuple[int, ...]


def _reduced(w: Sequence[int]) -> Vec:
    # an int vector divided by the gcd of its entries
    g = gcd(*w)
    return tuple([x // g for x in w]) if g > 1 else tuple(w)


def primitive(vec: Sequence) -> Vec:
    """Scale a rational vector to primitive integer form, keeping direction.
    Entries must be ints or Fractions; a float or a bool is rejected with
    ValueError instead of being read as its binary expansion."""
    if all(type(x) is int for x in vec):
        return _reduced(vec)
    check_rational(vec)
    fr = [Fraction(x) for x in vec]
    den = 1
    for f in fr:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _project_off(v: Vec, dv: int, pivot: Vec, dp: int) -> Vec:
    # v * dp - pivot * dv, with dv = normal . v and dp = normal . pivot > 0
    # so the direction of v is preserved; v is primitive, so a v already on
    # the hyperplane is its own result
    if not dv:
        return v
    return _reduced([x * dp - p * dv for x, p in zip(v, pivot)])


def _products(normal: Vec, vecs: list[Vec]) -> list[int]:
    """The products of the primitive row normal with vecs. A coordinate
    row +-e_j reads each product off entry j; any other row sums its
    entrywise products."""
    if normal.count(0) == len(normal) - 1:
        if 1 in normal:
            j = normal.index(1)
            return [v[j] for v in vecs]
        j = normal.index(-1)
        return [-v[j] for v in vecs]
    return [sum(map(mul, normal, v)) for v in vecs]


def _nonzero_rows(dim: int, rows: Sequence[Sequence]) -> list[Vec]:
    # the primitive forms of the nonzero rows; every row, zero or not, must
    # have length dim
    out = []
    for row in rows:
        p = primitive(row)
        if len(p) != dim:
            raise ValueError("dimension mismatch")
        if any(p):
            out.append(p)
    return out


def _kernel_basis(dim: int, rows: list[Vec]) -> tuple[list[Vec], list[int]]:
    """The canonical basis of {x : r.x = 0 for all rows} with the free
    columns: per free column f, in increasing order, the primitive kernel
    vector that is positive at f and zero at the other free columns. No
    rows leave every column free and give the unit basis with no
    elimination; otherwise the basis is read off one int_rref."""
    if not rows:
        return ([tuple(int(i == f) for i in range(dim)) for f in range(dim)],
                list(range(dim)))
    red, pivots = int_rref(rows)
    basis = []
    free = [c for c in range(dim) if c not in pivots]
    for f in free:
        used = [(row, p) for row, p in zip(red, pivots) if row[f]]
        scale = lcm(*[row[p] for row, p in used])
        v = [0] * dim
        v[f] = scale
        for row, p in used:
            v[p] = -row[f] * scale // row[p]
        basis.append(_reduced(v))
    return basis, free


def _cut(rays: list[Vec], masks: list[int], products: Sequence[int],
         bit: int, need: int) -> tuple[list[Vec], list[int]]:
    """One double description step by a row that meets no lineality
    vector: the rays and masks after the cut by the row with these
    products and this mask bit. Rays on the row gain the bit, positive
    ones are kept, and each adjacent positive and negative pair is
    combined into a ray on the row. Two rays are adjacent when no third
    ray is tight on all of their common rows (Fukuda and Prodon). Adjacent
    rays share at least need rows, the dimension the rays span modulo the
    lineality less 2, so a pair sharing fewer is skipped with no scan."""
    pos, neg, kept, kept_masks = [], [], [], []
    for r, z, s in zip(rays, masks, products):
        if s > 0:
            pos.append((r, z, s))
        elif s < 0:
            neg.append((r, z, s))
        else:
            kept.append(r)
            kept_masks.append(z | bit)
    for r, z, _ in pos:
        kept.append(r)
        kept_masks.append(z)
    for rp, zp, sp in pos:
        for rn, zn, sn in neg:
            meet = zp & zn
            if meet.bit_count() < need:
                continue
            # adjacent when only the two themselves cover the meet
            covers = 0
            for z3 in masks:
                if z3 & meet == meet:
                    covers += 1
                    if covers == 3:
                        break
            else:
                kept.append(_reduced([sp * b - sn * a
                                      for a, b in zip(rp, rn)]))
                kept_masks.append(meet | bit)
    return kept, kept_masks


def double_description(dim: int,
                       equalities: Sequence[Sequence[int]] = (),
                       inequalities: Sequence[Sequence[int]] = ()):
    """Generator form (lineality basis, extreme rays, masks) of the cone
    {x : e.x = 0 for all equalities, a.x >= 0 for all inequalities}.

    Rays are primitive integer vectors, minimal in the sense that each is
    extreme modulo the lineality space. Per ray, the mask has bit k when
    the k-th nonzero inequality vanishes on it. A row whose length is not
    dim raises ValueError.
    """
    if dim < 1:
        raise ValueError("ambient dimension must be positive")
    eqs = _nonzero_rows(dim, equalities)
    ineqs = _nonzero_rows(dim, inequalities)
    lin = _kernel_basis(dim, eqs)[0]
    # the dimension of the space the equalities cut out
    m = len(lin)
    # the rays, and per ray the bitmask of the processed inequalities it
    # is tight on
    rays: list[Vec] = []
    masks: list[int] = []

    for k, normal in enumerate(ineqs):
        bit = 1 << k
        # an empty list takes no call: the lineality is spent once enough
        # rows have cut it, and there is no ray before the first cut
        lin_dots = _products(normal, lin) if lin else []
        for i, ps in enumerate(lin_dots):
            if ps:
                # the constraint cuts the lineality space
                porig = lin.pop(i)
                del lin_dots[i]
                if ps > 0:
                    pivot = porig
                else:
                    pivot, ps = tuple(-x for x in porig), -ps
                lin = [_project_off(l, dv, pivot, ps)
                       for l, dv in zip(lin, lin_dots)]
                if rays:
                    rays = [_project_off(r, dv, pivot, ps)
                            for r, dv in zip(rays, _products(normal, rays))]
                    masks = [z | bit for z in masks]
                # the pivot itself survives on the positive side; as former
                # lineality it is tight on every previously processed row
                rays.append(pivot)
                masks.append(bit - 1)
                break
        else:
            # modulo the lineality, the rays span m - len(lin) dimensions
            rays, masks = _cut(rays, masks, _products(normal, rays), bit,
                               m - len(lin) - 2)

    return lin, rays, masks


def generators_to_hrep(dim: int, gens: Sequence[Sequence[int]]):
    """Constraint form (equalities, facets, masks) of cone(gens): the dual
    cone's lineality gives the equalities, its rays give the facets, and
    per facet the mask has bit k when the facet vanishes on the k-th
    nonzero generator, as the double description tracked it. Zero
    generators cut nothing: double_description skips them."""
    lin, rays, masks = double_description(dim, (), gens)
    return tuple(lin), tuple(rays), tuple(masks)


def separating_functional(gens: Sequence[Sequence], v: Sequence,
                          dim: int) -> Vec | None:
    """None when v lies in cone(gens), else a primitive integer x with
    v.x < 0 and g.x >= 0 for every generator (Farkas). The functional is a
    row of one double description of cone(gens), the first with a.v < 0
    among the equalities, their negatives and the facets. It is replayed
    with exact dot products, over the integers for integer generators,
    before it is returned, and a failed replay raises RuntimeError.
    Entries are ints or Fractions; a wrong length raises ValueError, as in
    cone_member."""
    if len(v) != dim or any(len(g) != dim for g in gens):
        raise ValueError("target and generators must have length dim")
    target = primitive(v)
    eqs, ineqs, _ = generators_to_hrep(dim, gens)
    rows = (*eqs, *(tuple(-c for c in e) for e in eqs), *ineqs)
    x = next((a for a in rows if dot(a, target) < 0), None)
    if x is None:
        return None
    if dot(x, target) >= 0 or any(dot(g, x) < 0 for g in gens):
        raise RuntimeError("separating functional failed replay")
    return x


def cone_member(gens: Sequence[Sequence[int]], target: Sequence, dim: int) -> bool:
    """Whether target is a nonnegative rational combination of gens. "No"
    is the replayed functional of separating_functional. "Yes" is a ray
    (lambda, t) with t > 0 of _fibre_rays, the double description of
    {(lambda, t) >= 0 : sum_j lambda_j gens_j = t target}; lambda >= 0,
    t > 0 and that equation are replayed with exact sums before the
    verdict is returned, and a failed replay raises RuntimeError. The
    target and every generator must have length dim, or ValueError is
    raised."""
    if separating_functional(gens, target, dim) is not None:
        return False
    k = len(gens)
    lam = next((r for r in _fibre_rays(_fibre_kernel(gens, dim), target)
                if r[k] > 0), None)
    if lam is None or min(lam) < 0 or \
            any(sum(x * g[i] for x, g in zip(lam, gens)) != lam[k] * y
                for i, y in enumerate(target)):
        raise RuntimeError("cone membership witness failed replay")
    return True


def _fibre_kernel(gens: Sequence[Sequence], dim: int):
    """The half of the fibre double description of _fibre_rays that
    depends on the generators alone, the columns of the dim x k matrix G
    (ints or Fractions): one fraction-free Gauss-Jordan elimination
    (exact.montante) of the dim rows of [G | I], each entering through
    primitive, which scales a Fraction row to integers. [G | I] has full
    row rank, so every row is a pivot row, and montante leaves one pivot
    value d on every pivot column, made positive here by a sign flip of
    every row. The rows with a pivot in G are [R_i | U_i] with
    R_i = U_i G; those with a pivot in I are [0 | L_i], a basis of the
    left kernel of G. So the canonical kernel vector of a free column f
    of G is d at f and -R_i[f] at pivot column p_i. Returned as (k, free,
    basis, d, solve, left): the free columns of G, their kernel vectors
    with t = 0 appended, d, (p_i, U_i) per pivot column of G, and the
    rows L_i."""
    k = len(gens)
    units = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    red, pivots = montante([primitive(row + unit) for row, unit in
                            zip(list(zip(*gens)) or [()] * dim, units)])
    d = red[-1][pivots[-1]] if red else 1
    if d < 0:
        red, d = [[-x for x in row] for row in red], -d
    # the pivots in G come first, as the pivot columns increase
    rank = sum(p < k for p in pivots)
    on_g = list(zip(red, pivots[:rank]))
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * (k + 1)
        v[f] = d
        for row, p in on_g:
            v[p] = -row[f]
        basis.append(_reduced(v))
    solve = [(p, row[k:]) for row, p in on_g]
    return k, free, basis, d, solve, [row[k:] for row in red[rank:]]


def _fibre_rays(kernel, target: Sequence) -> list[Vec]:
    """The extreme rays (lambda, t) of {(lambda, t) >= 0 :
    sum_j lambda_j gens_j = t target}, given kernel = _fibre_kernel(gens,
    len(target)). A ray with t > 0 is a vertex lambda / t of the fibre
    {lambda >= 0 : sum_j lambda_j gens_j = target}; cone_member,
    monomials.fibre_vertices and fans.is_projective read theirs off it, in
    no particular order.

    The kernel basis of the equalities is the kernel's, with t = 0, and
    one more vector when the target, an int or Fraction vector w / den
    with w integral and den > 0, lies in span(gens), that is when L.w = 0
    for every left kernel row L: column t is then free, and its canonical
    vector is the primitive form of U_i.w at each pivot column p_i and
    d den at t, as R_i lambda = d lambda_p_i = (t / den) U_i.w. The
    double description cuts by the unit rows in its own order: the units
    of the free columns cut the kernel to the simplicial cone of the
    basis vectors, with no arithmetic, as basis vector i is tight on
    every free unit but its own. Each pivot-column unit then follows
    (_cut), the one whose sign split has the fewest positive by negative
    pairs first, ties to the lowest column. The cone is pointed, so its
    primitive extreme rays are the same set in any order. Bit j of a mask
    stands for unit row j."""
    k, free, basis, d, solve, left = kernel
    rays, free = list(basis), list(free)
    check_rational(target)
    den = lcm(*[x.denominator for x in target])
    w = [x.numerator * (den // x.denominator) for x in target]
    if not any(dot(u, w) for u in left):
        v = [0] * (k + 1)
        v[k] = d * den
        for p, u in solve:
            v[p] = dot(u, w)
        rays.append(_reduced(v))
        free.append(k)
    tight = sum(1 << f for f in free)
    masks = [tight ^ (1 << f) for f in free]
    rest = [j for j in range(k + 1) if j not in free]
    # the rays span the whole kernel, so adjacent ones share m - 2 rows
    need = len(rays) - 2
    while rest and rays:
        cols = list(zip(*rays))

        def pairs(j):
            col = cols[j]
            return sum(x > 0 for x in col) * sum(x < 0 for x in col)

        # min keeps the first of equal costs, and rest stays increasing
        j = min(rest, key=pairs)
        rest.remove(j)
        rays, masks = _cut(rays, masks, cols[j], 1 << j, need)
    return rays


def _intersection(dim: int, hreps):
    """The intersection of the cones with the constraint forms hreps, each
    (equalities, facets, ...): the sorted distinct primitive equality and
    facet rows of all of them, and the lineality and rays of one double
    description of those rows, equalities passed as equalities.
    chambers.chamber_of and fans.is_projective read theirs off it."""
    equalities: set[Vec] = set()
    inequalities: set[Vec] = set()
    for eqs, ineqs, *_ in hreps:
        equalities.update(map(primitive, eqs))
        inequalities.update(map(primitive, ineqs))
    equalities, inequalities = sorted(equalities), sorted(inequalities)
    lin, rays, _ = double_description(dim, equalities, inequalities)
    return equalities, inequalities, lin, rays


class RationalCone(Record):
    """Rational polyhedral cone stored by primitive integer generators."""

    dim: int
    generators: tuple[Vec, ...]

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence], dim: int) -> "RationalCone":
        """The cone of the primitive forms of gens, zero and repeated
        directions dropped. A generator whose length is not dim raises
        ValueError, as in cone_member."""
        cleaned = []
        seen = set()
        for g in gens:
            p = primitive(g)
            if len(p) != dim:
                raise ValueError("generators must have length dim")
            if any(p) and p not in seen:
                seen.add(p)
                cleaned.append(p)
        return cls(dim, tuple(cleaned))

    @cached_property
    def hrep(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """(equality normals, inequality normals)."""
        eqs, facets, _tight = self._hrep_with_tight
        return eqs, facets

    @cached_property
    def _hrep_with_tight(self):
        """The H-form with, per facet, the bitmask of the generators it
        vanishes on (bit k for generator k), from one double description."""
        return generators_to_hrep(self.dim, self.generators)

    @cached_property
    def _independent(self) -> bool:
        """Whether the generators are linearly independent: at most dim of
        them, of rank their count in one bareiss elimination. Builds no
        H-form."""
        gens = self.generators
        return len(gens) <= self.dim and bareiss(gens)[0] == len(gens)

    @cached_property
    def span_rank(self) -> int:
        """Dimension of the linear span of the generators: their count when
        they are independent, and otherwise read off the H-form, whose
        equalities are a basis of the orthogonal complement of that span
        (the lineality of the dual cone)."""
        if self._independent:
            return len(self.generators)
        return self.dim - len(self.hrep[0])

    @cached_property
    def is_pointed(self) -> bool:
        """No line in the cone. Independent generators span a simplicial
        cone. Otherwise x, the sum of the facet normals, lies in the
        relative interior of the dual cone, and the cone is pointed exactly
        when g.x > 0 for every generator g (integer dot products)."""
        if self._independent:
            return True
        facets = self.hrep[1]
        x = [sum(a[i] for a in facets) for i in range(self.dim)]
        return all(dot(g, x) > 0 for g in self.generators)

    def contains(self, vec: Sequence) -> bool:
        """Membership of an int or Fraction vector; a float or a bool entry
        raises ValueError, as in primitive."""
        v = tuple(vec)
        check_rational(v)
        eqs, ineqs = self.hrep
        return all(dot(e, v) == 0 for e in eqs) and \
            all(dot(a, v) >= 0 for a in ineqs)

    def contains_interior(self, vec: Sequence) -> bool:
        """Relative interior membership: tight on no facet."""
        v = tuple(vec)
        check_rational(v)
        eqs, ineqs = self.hrep
        return all(dot(e, v) == 0 for e in eqs) and \
            all(dot(a, v) > 0 for a in ineqs)
