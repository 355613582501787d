"""Fans assembled from irrelevant-ideal data, with exact certification.

The maximal cones attached to a squarefree irrelevant ideal are spanned by
the ray sets complementary to its minimal supports. Validity (strongly
convex cones meeting pairwise in common faces), simpliciality,
completeness, and projectivity are certified by exact integer and rational
computation; projectivity returns a strictly convex piecewise-linear
support function, replayed before it is reported.

A complete fan is projective exactly when it has an ample class: a point
p shared by the relative interiors of the complement cones
cone(q_j : v_j not in s) over the Gale dual Q of its rays (is_projective).
Each cone s then gets a divisor c_s >= 0 of class p that vanishes exactly
on its rays, and its functional m_s solves V m_s = c_s - c_s0 over the
rays V (_functionals). The fan of an irrelevant radical whose minimal
supports are all vertex supports of the fibre {c >= 0 : Q c = w} (the
radical is S(w)) takes the vertices themselves as the c_s
(fibre_support). No question here goes to an LP.

A complete fan with such a support function, one functional m_s per
maximal cone s, is certified valid by one global integer replay: every
ray v_i has one height h_i = <m_s, v_i> over all cones s containing it,
and <m_t, v_i> > h_i for every cone t not containing it. Then each m_s is
a point of the polyhedron P = {m : <m, v_i> >= h_i} tight on exactly the
rays of s, so s is the normal cone of the face of P through m_s, and the
normal cones of the faces of a polyhedron form a fan (Cox-Little-Schenck,
Toric Varieties, ch. 2 on normal fans and Sec. 6.1 on support functions).
Every other fan is certified pair by pair with separating functionals.

A cone of at most d rays is tested for independence by one
fraction-free forward elimination (exact.bareiss), with no reduced form.
No cone of independent rays builds a constraint form here: it is
pointed, and its facets are its "drop one ray" subsets, facet k omitting
ray k as in its double description (_facet_pairing). Only cones with
dependent rays read Cone.facets and the H-form's pointedness witness
(RationalCone.is_pointed). fan_from_irrelevant checks each Gale ray and
takes its primitive form once, and gives every cone its RationalCone
from those forms, with no second check or normalisation per cone.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .cones import (RationalCone, _fibre_rays, _intersection, cone_member,
                    double_description, generators_to_hrep, primitive)
from .exact import IntMat, dot, int_rref, int_vector, kernel_lattice
from .grading import GaleDual
from .monomials import SquarefreeIdeal
from .records import Record, store

Vec = tuple[int, ...]


class Cone(Record):
    """Maximal cone of a fan: sorted 1-based ray indices and the rays."""

    ray_indices: tuple[int, ...]
    rays: tuple[Vec, ...]

    def __init__(self, ray_indices: tuple[int, ...],
                 rays: tuple[Vec, ...]) -> None:
        # by hand (see Record): a fan makes one per maximal cone
        if not ray_indices:
            raise ValueError("cone needs at least one ray")
        if tuple(sorted(set(ray_indices))) != ray_indices:
            raise ValueError("ray indices must be sorted and distinct")
        if len(rays) != len(ray_indices):
            raise ValueError("one ray vector per ray index required")
        store(self, "ray_indices", ray_indices)
        store(self, "rays", rays)
        store(self, "_key", (ray_indices, rays))

    @property
    def ambient_dim(self) -> int:
        return len(self.rays[0])

    @cached_property
    def geometry(self) -> RationalCone:
        return RationalCone.from_generators(self.rays, dim=self.ambient_dim)

    @cached_property
    def facets(self) -> tuple[tuple[Vec, tuple[int, ...]], ...]:
        """(inward normal, tight 1-based ray indices) per facet. The tight
        rays are read off the bitmasks that the double description of the
        facets kept, one bit per distinct primitive ray."""
        geometry = self.geometry
        _eqs, ineqs, masks = geometry._hrep_with_tight
        bit = {g: 1 << k for k, g in enumerate(geometry.generators)}
        # a zero ray has no bit and lies on every facet
        ray_bits = [(idx, bit.get(primitive(ray), 0))
                    for idx, ray in zip(self.ray_indices, self.rays)]
        return tuple((n, tuple(idx for idx, b in ray_bits if z & b == b))
                     for n, z in zip(ineqs, masks))


class Fan(Record):
    """A fan recorded by its rays and maximal cones."""

    rays: tuple[Vec, ...]
    maximal_cones: tuple[Cone, ...]

    def __post_init__(self) -> None:
        if not self.rays or not self.maximal_cones:
            raise ValueError("fan needs at least one ray and one maximal cone")
        if any(len(r) != len(self.rays[0]) for r in self.rays):
            raise ValueError("fan rays of unequal length")
        if not all(any(r) for r in self.rays):
            raise ValueError("zero ray in fan")

    @property
    def ambient_dim(self) -> int:
        return len(self.rays[0])

    @classmethod
    def from_index_sets(cls, rays, index_sets) -> "Fan":
        rays = tuple(int_vector(r, "ray") for r in rays)
        cones = []
        for s in index_sets:
            s = int_vector(s, "cone index")
            idx = tuple(sorted(set(s)))
            if len(idx) != len(s):
                raise ValueError("repeated ray index in a cone")
            if not all(1 <= i <= len(rays) for i in idx):
                raise ValueError("ray index out of range")
            cones.append(Cone(idx, tuple(rays[i - 1] for i in idx)))
        return cls(rays, tuple(cones))


class Verdict(Record):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class ProjectivityCertificate(Record):
    projective: bool
    support_function: tuple[Vec, ...] | None = None


def fan_from_irrelevant(gale: GaleDual, ideal: SquarefreeIdeal) -> Fan:
    """The fan whose maximal cones are spanned by the ray sets complementary
    to the minimal supports of the irrelevant radical."""
    n = gale.num_rays
    if not ideal.generators:
        raise ValueError("irrelevant ideal has no generators")
    rays = tuple(int_vector(r, "ray") for r in gale.rays)
    for ray in rays:
        if not any(ray):
            raise ValueError("zero ray in Gale dual")
    prims = [primitive(r) for r in rays]
    if len(set(prims)) != n:
        raise ValueError("repeated ray direction in Gale dual")
    index_sets = []
    for support in ideal.generators:
        if any(i < 1 or i > n for i in support):
            raise ValueError("support index out of range")
        comp = tuple(i for i in range(1, n + 1) if i not in support)
        if not comp:
            raise ValueError(f"support {support} leaves an empty complement")
        index_sets.append(comp)
    used = set()
    for s in index_sets:
        used.update(s)
    if used != set(range(1, n + 1)):
        raise ValueError("some ray appears in no maximal cone")
    fan = Fan(rays, tuple(Cone(comp, tuple(rays[i - 1] for i in comp))
                          for comp in index_sets))
    d = fan.ambient_dim
    for cone, support in zip(fan.maximal_cones, ideal.generators):
        # the rays are checked, nonzero, distinct and primitive in prims,
        # so each cone takes them as its generators with no second pass
        store(cone, "geometry", RationalCone(
            d, tuple(prims[i - 1] for i in cone.ray_indices)))
        if not cone.geometry.is_pointed:
            raise ValueError(
                f"complement of support {support} is not strongly convex")
    return fan


def _vertex_replay(fan: Fan, support) -> bool:
    """Whether the functionals `support`, one per maximal cone, put every
    cone at a vertex of P = {m : <m, v_i> >= h_i} tight on exactly its own
    rays: one height h_i = <m_s, v_i> per used ray over the cones s that
    contain it, and <m_t, v_i> > h_i for every cone t that does not. Then
    every cone is the normal cone of a face of P, and such cones form a
    fan (Cox-Little-Schenck, ch. 2 on normal fans and Sec. 6.1 on support
    functions). The replay is global: a support function checked only
    wall by wall can exist on a fan that winds twice around the origin."""
    if len(support) != len(fan.maximal_cones):
        raise ValueError("one support functional per maximal cone required")
    height: dict[int, int] = {}
    for cone, m in zip(fan.maximal_cones, support):
        for i in cone.ray_indices:
            h = dot(m, fan.rays[i - 1])
            if height.setdefault(i, h) != h:
                return False
    for cone, m in zip(fan.maximal_cones, support):
        own = set(cone.ray_indices)
        for i, h in height.items():
            if i not in own and not dot(m, fan.rays[i - 1]) > h:
                return False
    return True


def _functionals(fan: Fan, points) -> tuple[Vec, ...]:
    """The functionals m_s of the divisors c_s = lambda_s / t_s, given as
    one point (lambda_s, t_s) over the n rays and t_s > 0 per maximal
    cone, in order, all of one class: m_s solves V m_s = c_s - c_s0 over
    the rays V, with s0 the first cone, so m_0 = 0.

    c_s - c_s0 lies in ker Q, the span of the columns of V, so m_s is
    unique. It is the inverse of d independent rays V_B, from one int_rref
    of [V_B | I], times (c_s - c_s0) on B, with every c_s over one common
    denominator; the functionals are the smallest integer multiple of the
    m_s. Where c_s vanishes exactly on the rays of s, <m_s, v_i> = -c_s0_i
    on the rays of s and > -c_s0_i on the others: each cone is the normal
    cone of a vertex of the polytope of the divisor c_s0
    (Cox-Little-Schenck, Toric Varieties, ch. 14-15), which _vertex_replay
    checks."""
    n, d = len(fan.rays), fan.ambient_dim
    den = lcm(*(p[n] for p in points))
    lifts = [[x * (den // p[n]) for x in p[:n]] for p in points]
    _red, basis = int_rref([list(col) for col in zip(*fan.rays)])
    red, _pivots = int_rref([list(fan.rays[i]) + [int(j == k)
                                                  for k in range(d)]
                             for j, i in enumerate(basis)])
    # row k of red is [p e_k | p (V_B^-1)_k] with p = row[k]: scale the
    # rows to one common factor, so that V_B^-1 = inverse / scale
    scale = lcm(*(row[k] for k, row in enumerate(red)))
    inverse = [[x * (scale // row[k]) for x in row[d:]]
               for k, row in enumerate(red)]
    base = lifts[0]
    support = [tuple(dot(row, [lift[i] - base[i] for i in basis])
                     for row in inverse) for lift in lifts]
    g = gcd(scale * den, *(x for m in support for x in m))
    return tuple(tuple(x // g for x in m) for m in support)


def fibre_support(fan: Fan, ideal: SquarefreeIdeal,
                  vertices) -> tuple[Vec, ...] | None:
    """The support function of the GIT fan of a class w read off the
    vertices of its fibre, or None unless every generator of ideal is a
    vertex support. The fan's maximal cones are the complements of the
    generators, in order, over the Gale rays V; vertices is
    monomials.fibre_vertices(q, w), one ray (lambda, t) per support J, and
    c_J = lambda / t is the vertex on J of {c >= 0 : Q c = w0}, the fibre
    over w0 = primitive(w). It vanishes exactly off J, on the rays of the
    cone, so _functionals gives each cone's functional. fan_report
    replays them before they are reported."""
    supports = [tuple(i - 1 for i in s) for s in ideal.generators]
    if len(supports) != len(fan.maximal_cones) or \
            not all(s in vertices for s in supports):
        return None
    return _functionals(fan, [vertices[s] for s in supports])


def validate_fan(fan: Fan) -> Verdict:
    """Certify that every maximal cone is strongly convex and that any two
    meet in the cone on their common rays, which is a face of both.

    Each pair (A, B) is certified by one separating functional h
    (Cox-Little-Schenck, Lemma 1.2.13): h = 0 on the common rays, h > 0 on
    the rays of A \\ B and h < 0 on the rays of B \\ A. One double
    description gives the cone H of the h that vanish on the common rays,
    with h >= 0 on A \\ B and h <= 0 on B \\ A. Every side row is >= 0 on
    H and so vanishes on its lineality: a strict separator exists exactly
    when the sum of H's rays is one. That sum is replayed on every row,
    and a failed replay raises RuntimeError.
    A ray inside the cone on the common rays is exempt from its side row;
    exempt rays are looked up only when the full system fails.
    Every invalid fan gets its reason from this pair loop; fan_report
    certifies a fan with a support function by _vertex_replay instead.
    """
    d = fan.ambient_dim
    for pos, cone in enumerate(fan.maximal_cones, start=1):
        if not cone.geometry.is_pointed:
            return Verdict(False, f"cone {pos} is not strongly convex")

    def separated(common: list[Vec], sides: list[tuple[Vec, int]]) -> bool:
        rows = [tuple(s * x for x in r) for r, s in sides]
        _lin, rays, _ = double_description(d, common, rows)
        h = [sum(col) for col in zip(*rays)] or [0] * d
        if any(dot(h, c) for c in common) or any(dot(h, r) < 0 for r in rows):
            raise RuntimeError("pair separator failed replay")
        return all(dot(h, r) > 0 for r in rows)

    for (a, ca), (b, cb) in combinations(
            enumerate(fan.maximal_cones, start=1), 2):
        sa, sb = set(ca.ray_indices), set(cb.ray_indices)
        common = [fan.rays[i - 1] for i in sorted(sa & sb)]
        sides = [(fan.rays[i - 1], 1) for i in sorted(sa - sb)] + \
            [(fan.rays[i - 1], -1) for i in sorted(sb - sa)]
        if separated(common, sides):
            continue
        outside = [(r, s) for r, s in sides
                   if not cone_member(common, r, dim=d)]
        if len(outside) == len(sides) or not separated(common, outside):
            return Verdict(False, f"intersection of cones {a} and {b} is "
                                  f"not a face of both")
    return Verdict(True)


def is_simplicial(fan: Fan) -> bool:
    """Every maximal cone is spanned by linearly independent rays."""
    return all(c.geometry.span_rank == len(c.rays)
               for c in fan.maximal_cones)


def _facet_pairing(fan: Fan) -> dict[tuple[int, ...], list[int]]:
    """Facet key (tight ray indices) -> positions of the cones sharing it.
    A cone of independent rays has as facets its "drop one ray" subsets,
    facet k omitting ray k, the order of its double description; only
    the other cones read Cone.facets."""
    pairing: dict[tuple[int, ...], list[int]] = {}
    for pos, cone in enumerate(fan.maximal_cones):
        idx = cone.ray_indices
        if cone.geometry.span_rank == len(idx):
            keys = [idx[:k] + idx[k + 1:] for k in range(len(idx))]
        else:
            keys = [tight for _normal, tight in cone.facets]
        for key in keys:
            pairing.setdefault(key, []).append(pos)
    return pairing


def _wall_connected(ncones: int, walls) -> bool:
    """Whether a breadth-first search from cone 0 across `walls`, pairs of
    cone positions, reaches every cone."""
    graph: list[list[int]] = [[] for _ in range(ncones)]
    for a, b in walls:
        graph[a].append(b)
        graph[b].append(a)
    seen = {0}
    queue = [0]
    for cur in queue:
        for nxt in graph[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == ncones


def is_complete(fan: Fan) -> Verdict:
    """Support covers the whole space: all maximal cones full-dimensional,
    every facet shared by exactly two cones, adjacency connected."""
    d = fan.ambient_dim
    for pos, cone in enumerate(fan.maximal_cones):
        if cone.geometry.span_rank < d:
            return Verdict(False,
                           f"cone {pos + 1} is not full-dimensional")
    pairing = _facet_pairing(fan)
    for key, owners in pairing.items():
        if len(owners) == 1:
            return Verdict(False,
                           f"facet with rays {key} belongs to only one "
                           f"maximal cone")
        if len(owners) > 2:
            return Verdict(False,
                           f"facet with rays {key} is shared by more than "
                           f"two maximal cones")
    if not _wall_connected(len(fan.maximal_cones), pairing.values()):
        return Verdict(False, "maximal cones are not wall-connected")
    return Verdict(True)


def is_projective(fan: Fan) -> ProjectivityCertificate:
    """Decide whether a complete fan is projective by an ample class, and
    return its strictly convex support function, exact over the integers.

    Q is the Gale dual of the rays v_1..v_n: the rows of kernel_lattice of
    the d x n ray matrix, with columns q_j. The fan is projective exactly
    when the relative interiors of the complement cones
    cone(q_j : v_j not in s), one per maximal cone s, share a point, an
    ample class (Berchtold-Hausen, "Bunches of cones in the divisor class
    group", IMRN 2004; Cox-Little-Schenck, Toric Varieties, ch. 14-15).
    One double description of their stacked constraint forms
    (cones._intersection, as in chambers.chamber_of) gives the
    intersection C. The sum p of its rays lies in the relative interior of
    C, so the fan is projective exactly when p lies on every equality and
    strictly inside every facet of each complement cone.

    Then the sum (lambda, t) of the rays of one double description of
    {(lambda, t) >= 0 : sum_j lambda_j q_j = t p} over the complement of s
    (cones._fibre_rays) gives c_s = lambda / t, a relative-interior point
    of the fibre face {c >= 0 : c = 0 on s, Q c = p}: positive exactly off
    the rays of s. _functionals solves V m_s = c_s - c_s0, and
    _vertex_replay certifies the result; a failed replay raises
    RuntimeError. An incomplete fan raises ValueError."""
    complete = is_complete(fan)
    if not complete.ok:
        raise ValueError(f"projectivity test requires a complete fan: "
                         f"{complete.reason}")
    return _ample_certificate(fan)


def _ample_certificate(fan: Fan) -> ProjectivityCertificate:
    """is_projective on a fan already known to be complete."""
    n = len(fan.rays)
    gale = kernel_lattice(IntMat.from_rows(zip(*fan.rays))).to_rows()
    r, q = len(gale), list(zip(*gale))
    # per maximal cone, the 0-based indices of the rays off it
    outside = [[j for j in range(n) if j + 1 not in cone.ray_indices]
               for cone in fan.maximal_cones]
    eqs, ineqs, _lin, rays = _intersection(r, (
        generators_to_hrep(r, [q[j] for j in js]) for js in outside))
    p = [sum(col) for col in zip(*rays)] or [0] * r
    if any(dot(e, p) for e in eqs) or any(dot(a, p) <= 0 for a in ineqs):
        return ProjectivityCertificate(False, None)
    points = []
    for js in outside:
        total = [sum(col) for col in zip(*_fibre_rays([q[j] for j in js], p))]
        point = [0] * (n + 1)
        for j, x in zip([*js, n], total):
            point[j] = x
        points.append(point)
    support = _functionals(fan, points)
    if not _vertex_replay(fan, support):
        raise RuntimeError("support function fails vertex replay")
    return ProjectivityCertificate(True, support)


def fan_report(fan: Fan, support=None) -> dict:
    """Certification summary in JSON-ready form. The support function of a
    complete fan of pointed cones certifies validity by a vertex replay;
    only fans it does not certify run the pair separators.

    A given support (one integer functional per maximal cone, as
    fibre_support returns) is replayed once by _vertex_replay on a complete
    fan of pointed cones, and certifies both validity and projectivity; a
    failed replay raises RuntimeError. Without one, is_projective's body
    finds and replays the support function, or finds no ample class, and
    then the pair separators decide validity; completeness is decided
    once, here."""
    complete = is_complete(fan)
    cert = None
    if complete.ok and all(c.geometry.is_pointed for c in fan.maximal_cones):
        if support is None:
            cert = _ample_certificate(fan)
            valid = Verdict(True) if cert.projective else validate_fan(fan)
        elif _vertex_replay(fan, support):
            cert = ProjectivityCertificate(True, support)
            valid = Verdict(True)
        else:
            raise RuntimeError("support function fails vertex replay")
    else:
        valid = validate_fan(fan)
    simplicial = is_simplicial(fan)
    report = {
        "ambientDim": fan.ambient_dim,
        "numRays": len(fan.rays),
        "numMaximalCones": len(fan.maximal_cones),
        "rays": [list(r) for r in fan.rays],
        "maximalCones": [list(c.ray_indices) for c in fan.maximal_cones],
        "valid": valid.ok,
        "simplicial": simplicial,
        "complete": complete.ok,
    }
    if not valid.ok:
        report["validityViolation"] = valid.reason
    if not complete.ok:
        report["completenessViolation"] = complete.reason
    if valid.ok and complete.ok:
        report["projective"] = cert.projective
        if cert.projective:
            report["supportFunction"] = [list(v)
                                         for v in cert.support_function]
    else:
        report["projective"] = None
    return report


def class_fan_report(gale: GaleDual, ideal: SquarefreeIdeal,
                     vertices) -> dict:
    """fan_report of the fan of ideal, the irrelevant radical of a class w,
    with the support function read off vertices, the fibre vertices of w
    (monomials.fibre_vertices), when every generator is one of their
    supports; is_projective finds it from an ample class otherwise."""
    fan = fan_from_irrelevant(gale, ideal)
    return fan_report(fan, fibre_support(fan, ideal, vertices))
