"""Monomial enumeration in a positively graded ring, and squarefree radicals.

monomials_of_degree lists every exponent vector of a fixed multidegree. The
search runs over generators in order, bounding each exponent by an exact
heft budget and pruning any residual degree that falls outside the cone
spanned by the remaining generator degrees. Both tests are integer
arithmetic on cached constraint normals, so the hot loop never touches
Fractions.

Everything else here is read off one entry per grading and primitive
class w0, kept in _CLASSES for the whole process, with no bound:
- the vertices of the fibre over w0, from one double description
  (fibre_vertices); their supports are S(w0) = S(k w0), off which the GIT
  chambers are read, and fans.fibre_support reads the vertices;
- the period of each member J of S(w0): J has independent columns, so its
  one candidate at k w0 is k lambda / t for its fibre ray (lambda, t), and
  it is achievable there exactly when p_J = t / gcd(t, lambda_j : j in J)
  divides k; each period is replayed once, as the entry is built, in one
  integer pass over the nonzero entries of J's columns;
- the radical of each class k w0 at each depth, keyed (k, depth). A layer,
  the minimal supports of one degree, is the radical of depth 1. The
  depth-K radical is S(w0) exactly when every p_J / gcd(p_J, k) <= K, and
  every such radical is one ideal; any other is built from the one a
  depth below and one more layer.
A layer search decides each member by its period and probes unions of
members, generated only past a member that fails. A union has dependent
columns and asks the enumerator for its first solution, and no union
whose columns' hefts sum past the heft of d is generated. The column
cones' constraint forms are cached too (_subset_hrep), and
chambers.chamber_of and chambers.spans_extremal_ray read them.
No question here goes to an LP, and none to a rank: the heft is the
primitive sum of the facet normals of the effective cone, read off its
constraint form (cached like the enumerator's cones), and the grading is
positive exactly when that heft is at least 1 on every column. The heft
is kept per grading, so a caller that passes none derives it once.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd, lcm
from operator import lt
from types import MappingProxyType

from .cones import _fibre_rays, generators_to_hrep, primitive
from .exact import dot, int_vector
from .grading import DegreeMatrix
from .records import Record

Exponent = tuple[int, ...]
Support = tuple[int, ...]

# largest generator count for the double description of caratheodory_supports
MAX_SEARCH_GENS = 16


class GuardExceeded(ValueError):
    """A computation would exceed its configured size guard."""


class SquarefreeIdeal(Record):
    """Radical monomial ideal, stored as the antichain of minimal supports
    (1-based generator indices, each support strictly increasing, supports
    ordered by size then lexicographically). The constructor checks each
    support, then their order, then the antichain. The last check runs on
    int bitmasks of the supports, each compared only with the later,
    larger ones."""

    generators: tuple[Support, ...]

    def __post_init__(self) -> None:
        gens = self.generators
        # per support, the int bitmask of its indices
        masks = []
        for s in gens:
            int_vector(s, "support")
            if s and s[0] < 1:
                raise ValueError("support indices must be at least 1")
            if not all(map(lt, s, s[1:])):
                raise ValueError("support not strictly increasing")
            masks.append(sum(map((1).__lshift__, s)))
        for s, t in zip(gens, gens[1:]):
            if not (len(s), s) < (len(t), t):
                raise ValueError("supports not in canonical order")
        # in canonical order a support can lie only in a later, larger one;
        # larger is the first support past the size level of s
        larger = 0
        for s, a in zip(gens, masks):
            while larger < len(gens) and len(gens[larger]) <= len(s):
                larger += 1
            for b in masks[larger:]:
                if a & b == a:
                    raise ValueError("supports do not form an antichain")

    @classmethod
    def from_supports(cls, supports) -> "SquarefreeIdeal":
        """Supports of 1-based integer indices, in any order; a float, a
        bool or an index below 1 raises ValueError."""
        canon = sorted({tuple(sorted(set(int_vector(s, "support"))))
                        for s in supports},
                       key=lambda s: (len(s), s))
        return cls(tuple(canon))


def minimal_antichain(supports) -> tuple[Support, ...]:
    """Inclusion-minimal elements of a family of index sets."""
    uniq = sorted({frozenset(s) for s in supports}, key=len)
    kept: list[frozenset] = []
    for s in uniq:
        if not any(k <= s for k in kept):
            kept.append(s)
    return tuple(sorted((tuple(sorted(s)) for s in kept),
                        key=lambda s: (len(s), s)))


@cache
def derive_heft(q: DegreeMatrix) -> tuple[int, ...]:
    """An integer functional taking value >= 1 on every generator degree.

    Such a functional exists exactly when no degree is zero and the
    effective cone Eff is pointed. The heft is the primitive sum of the
    facet normals of Eff, a point of the relative interior of the dual
    cone: it is positive on every column exactly when such a functional
    exists, and then at least 1 on every integer column. Otherwise
    ValueError("grading not positive") is raised. The heft is cached per
    grading for the whole process.
    """
    facets = _subset_hrep(q, tuple(range(q.num_gens)))[1]
    heft = primitive([sum(a[i] for a in facets) for i in range(q.pic_rank)])
    if any(dot(heft, col) < 1 for col in q.columns):
        raise ValueError("grading not positive")
    return heft


def _checked_heft(q: DegreeMatrix, heft) -> tuple[int, ...]:
    if heft is None:
        return derive_heft(q)
    h = int_vector(heft, "heft")
    if len(h) != q.pic_rank:
        raise ValueError("heft has wrong length")
    if any(dot(h, col) < 1 for col in q.columns):
        raise ValueError("heft not positive on the grading")
    return h


def monomials_of_degree(q: DegreeMatrix, degree, heft=None) -> tuple[Exponent, ...]:
    """All exponent vectors e with sum(e_i * column_i) == degree, in
    lexicographic order. The grading must be positive (a heft is derived
    when not supplied), which makes every graded piece finite."""
    d = int_vector(degree, "degree")
    if len(d) != q.pic_rank:
        raise ValueError("degree has wrong length")
    h = _checked_heft(q, heft)
    return tuple(_exponents(q, d, h, tuple(range(q.num_gens))))


@lru_cache(maxsize=None)
def _subset_hrep(q: DegreeMatrix, subset: tuple[int, ...]):
    return generators_to_hrep(q.pic_rank, [q.columns[j] for j in subset])


def _exponents(q: DegreeMatrix, d, h, idx: tuple[int, ...]):
    """Lazily yield, in lexicographic order, every exponent vector e over
    the columns idx (0-based) with sum(e_k * column idx[k]) == d.

    Backtracks over the columns in order, bounding each exponent by the heft
    budget and pruning a residual degree outside the cone of the remaining
    columns. The hrep of each suffix cone is fetched the first time its
    depth is reached, so a degree outside cone(idx) costs one hrep."""
    total = dot(h, d)
    if total < 0:
        return
    cols = [q.columns[j] for j in idx]
    m = len(idx)
    budgets = [dot(h, c) for c in cols]
    hreps: list = [None] * (m + 1)

    def member(i: int, v: list[int]) -> bool:
        if hreps[i] is None:
            hreps[i] = _subset_hrep(q, idx[i:])
        eqs, ineqs, _ = hreps[i]
        return all(dot(e, v) == 0 for e in eqs) and \
            all(dot(a, v) >= 0 for a in ineqs)

    if not member(0, d):
        return
    prefix = [0] * m

    def rec(i: int, residual: list[int], left: int):
        if i == m:
            yield tuple(prefix)
            return
        col = cols[i]
        v = list(residual)
        for e in range(left // budgets[i] + 1):
            if e:
                for k in range(len(v)):
                    v[k] -= col[k]
            if member(i + 1, v):
                prefix[i] = e
                yield from rec(i + 1, v, left - e * budgets[i])
        prefix[i] = 0

    yield from rec(0, list(d), total)


# per (grading, primitive class w0), kept for the whole process: the fibre
# vertices, the period of each member of S(w0), and the radicals of the
# classes k w0 keyed (k, depth), a layer being the radical of depth 1;
# S(k w) = S(w) for k >= 1, so reproduce-paper asks for S twelve times and
# computes two
_CLASSES: dict[tuple[DegreeMatrix, tuple[int, ...]],
               tuple[MappingProxyType, dict[Support, int],
                     dict[tuple[int, int], SquarefreeIdeal]]] = {}


def fibre_vertices(q: DegreeMatrix, w) -> MappingProxyType:
    """The vertices of the fibre {lambda >= 0 : q lambda = w}, read off one
    double description of {(lambda, t) >= 0 : q lambda = t w} as its rays
    with t > 0: a read-only map from each vertex support J (0-based
    columns, in size-then-lex order) to its primitive ray (lambda, t), so
    that the vertex of the fibre over primitive(w) is lambda / t.
    By Caratheodory the supports are S(w), the minimal column sets J with
    w in cone(q_J); S(0) = [()]. More than MAX_SEARCH_GENS columns raise
    GuardExceeded. The double description runs once per (q, primitive(w))
    in the process, and the period of each vertex is replayed with it
    (see _period), so a ray that fails its replay raises RuntimeError."""
    return _fibre(q, w)[0]


def _fibre(q: DegreeMatrix, w):
    """The _CLASSES entry of the class w, checked."""
    w = int_vector(w, "class")
    if len(w) != q.pic_rank:
        raise ValueError("class has wrong length")
    return _class(q, w, gcd(*w))


def _class(q: DegreeMatrix, d: tuple[int, ...], k: int):
    """The _CLASSES entry of the checked class d, with k = gcd(d), read
    on a miss; only a miss, which runs the double description, meets the
    size guard."""
    key = (q, tuple(x // k for x in d) if k > 1 else d)
    entry = _CLASSES.get(key)
    if entry is None:
        n = q.num_gens
        if n > MAX_SEARCH_GENS:
            raise GuardExceeded("subset enumeration too large")
        rays = _fibre_rays(q.columns, key[1])
        found = {tuple(j for j in range(n) if r[j]): r for r in rays if r[n]}
        supports = sorted(found, key=lambda s: (len(s), s))
        entry = _CLASSES[key] = (
            MappingProxyType({s: found[s] for s in supports}),
            {s: _period(q, key[1], s, found[s]) for s in supports}, {})
    return entry


def _period(q: DegreeMatrix, w0, subset: Support, ray) -> int:
    """The period p of the member subset of S(w0), given its primitive
    fibre ray (lambda, t): the least p >= 1 with p lambda_j / t integral
    on subset, p = t / gcd(t, lambda_j : j in subset). The columns of
    subset are independent, so x = p lambda / t is the one point of the
    fibre over p w0 on them, and subset is achievable at k w0 exactly when
    p divides k, with witness (k / p) x, exact by linearity. x is replayed
    once, as integral with sum(x_j q_j) == p w0 in every row, and a failed
    replay raises RuntimeError."""
    t = ray[-1]
    p = t // gcd(t, *[ray[j] for j in subset])
    # sum(x_j q_j) - p w0, accumulated in one pass over the nonzero
    # entries of the columns of subset
    residual = [-p * y for y in w0]
    for j in subset:
        x, rem = divmod(p * ray[j], t)
        if rem:
            raise RuntimeError("exponent vector failed replay")
        for i, c in enumerate(q.columns[j]):
            if c:
                residual[i] += x * c
    if any(residual):
        raise RuntimeError("exponent vector failed replay")
    return p


def _saturation_depth(periods, k: int) -> int:
    """The least depth at which the radical of k w0 is S(w0), given the
    periods of S(w0): the least K such that every member J has p_J
    dividing j k for some j <= K, that is max p_J / gcd(p_J, k) over the
    members; 1 when S(w0) is empty."""
    return max((p // gcd(p, k) for p in periods.values()), default=1)


def caratheodory_supports(q: DegreeMatrix, w) -> list[tuple[int, ...]]:
    """S(w), the minimal 0-based column sets J with w in cone(q_J), in
    size-then-lex order: the supports of fibre_vertices(q, w), as a fresh
    list on every call."""
    return list(fibre_vertices(q, w))


def minimal_supports_of_degree(q: DegreeMatrix, degree, heft=None) -> tuple[Support, ...]:
    """Inclusion-minimal supports among all monomials of the given degree
    (1-based, canonical order): the generators of the depth-1 radical,
    kept in the entry of the degree's class. A support is a union of
    vertex supports of the bounded fiber over d, so only unions of members
    of S(d) are probed."""
    d = int_vector(degree, "degree")
    if len(d) != q.pic_rank:
        raise ValueError("degree has wrong length")
    h = _checked_heft(q, heft)
    k = gcd(*d)
    return _radical(q, d, k, h, 1, _class(q, d, k)).generators


def _achievable(q: DegreeMatrix, d, h, subset: tuple[int, ...]) -> bool:
    """Whether some monomial of degree d has support exactly subset
    (0-based columns): whether _exponents finds a first solution of
    d - sum(q_u) = sum(x_j q_j) in integers x_j >= 0. The search asks it
    only for unions of two or more members of S(d), whose columns are
    dependent (independent columns would carry one fibre point, not one
    per member)."""
    residual = [x - sum(q.columns[j][k] for j in subset)
                for k, x in enumerate(d)]
    return next(_exponents(q, residual, h, subset), None) is not None


def _search_supports(q: DegreeMatrix, d, h, periods) -> tuple[Support, ...]:
    """The search of one layer, the minimal supports at degree d: the
    members of S(d), the keys of periods (the entry's map from each member
    to its period), and their unions as int bitmasks over the columns,
    probed by size. A member J is achievable exactly when its period, read
    and replayed with the vertices (_period), divides k = gcd(d): its witness
    is k / p_J times the replayed point, so no probe replays it again. A
    union is decided by the enumerator (_achievable), and is generated only
    past a member or union that fails, so a layer where every period
    divides k costs one check per member. A found support is never grown,
    so the found supports form an antichain, and within a size level the
    order of the probes does not matter. Each column of an achievable
    support takes at least its heft out of the heft of d, so no union over
    that budget, which no superset of it meets either, is generated."""
    n = q.num_gens
    budget = dot(h, d)
    hefts = [dot(h, col) for col in q.columns]

    def heft_of(mask: int) -> int:
        # walks the set bits only, lowest first
        total = 0
        while mask:
            low = mask & -mask
            total += hefts[low.bit_length() - 1]
            mask ^= low
        return total

    k = gcd(*d)
    members = {sum(1 << j for j in s): s for s in periods}
    masks = [s for s in members if heft_of(s) <= budget]
    by_size: list[set[int]] = [set() for _ in range(n + 1)]
    for s in masks:
        by_size[s.bit_count()].add(s)
    found: list[int] = []
    for unions in by_size:
        for u in unions:
            if any(u & f == f for f in found):
                continue
            member = members.get(u)
            if member is not None:
                ok = k % periods[member] == 0
            else:
                ok = _achievable(q, d, h,
                                 tuple(j for j in range(n) if u >> j & 1))
            if ok:
                found.append(u)
                continue
            # a found support with exactly one column c outside u lies in
            # u | s for every member s that covers c: generate none of them
            near = 0
            for f in found:
                c = f & ~u
                if not c & (c - 1):
                    near |= c
            for s in masks:
                if not s & near:
                    v = u | s
                    if v != u and heft_of(v) <= budget:
                        by_size[v.bit_count()].add(v)
    minimal = [tuple(j + 1 for j in range(n) if f >> j & 1) for f in found]
    return tuple(sorted(minimal, key=lambda s: (len(s), s)))


def radical_of_monomials(monomials) -> SquarefreeIdeal:
    """Radical of the monomial ideal generated by the given exponents:
    the antichain of inclusion-minimal supports."""
    supports = {tuple(i + 1 for i, e in enumerate(m) if e > 0)
                for m in monomials}
    return SquarefreeIdeal(minimal_antichain(supports))


def _checked_depth(depth) -> None:
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise ValueError("saturation depth must be an integer")
    if depth < 1:
        raise ValueError("saturation depth must be at least 1")


def irrelevant_radical(q: DegreeMatrix, degree, depth: int = 1, heft=None,
                       check_stable: bool = False):
    """Radical of the ideal generated by all monomials of degrees
    j * degree for j = 1..depth.

    With check_stable=True, returns (ideal, stable) where stable reports
    whether going to depth + 1 leaves the radical unchanged.

    The depth (an int, not a bool), the heft and the degree are checked on
    every call, the depth first. With degree = k w0, w0 primitive, a member
    J of S(w0) lies in the radical exactly when some layer j * degree,
    j <= depth, achieves it, that is when p_J / gcd(p_J, k) <= depth for
    its period p_J (see _period); every achievable support holds a member.
    So when every member does, the radical is S(w0), with no layer asked
    for, and stable is True. Otherwise the radical at depth j is the
    antichain of the radical at depth j - 1 and the layer j * degree. The
    entry of w0 is read once per call, and keeps every radical.
    """
    _checked_depth(depth)
    d = int_vector(degree, "degree")
    h = _checked_heft(q, heft)
    if len(d) != q.pic_rank:
        raise ValueError("degree has wrong length")
    k = gcd(*d)
    entry = _class(q, d, k)
    ideal = _radical(q, d, k, h, depth, entry)
    if not check_stable:
        return ideal
    return ideal, _radical(q, d, k, h, depth + 1, entry) == ideal


def _radical(q: DegreeMatrix, d, k: int, h, depth: int,
             entry) -> SquarefreeIdeal:
    """irrelevant_radical at a checked degree d = k w0, k = gcd(d), and
    heft, through the radicals of the entry of w0, keyed (k, depth): a
    radical that reaches every member of S(w0) is S(w0), and otherwise
    only the depths missing from the entry are built, each from the one a
    depth below and the layer (j k, 1), which the search fills on a miss. The heft is in
    no key: it only bounds each exponent, which no monomial of degree d
    exceeds under any heft positive on the grading, so no radical depends
    on it."""
    _vertices, periods, radicals = entry
    ideal = radicals.get((k, depth))
    if ideal is not None:
        return ideal
    if _saturation_depth(periods, k) <= depth:
        # S(w0) is the layer at lcm(p_J) w0, built on the first radical
        # that reaches it and shared by every class and depth that do
        top = (lcm(*periods.values()), 1)
        ideal = radicals.get(top)
        if ideal is None:
            ideal = radicals[top] = SquarefreeIdeal(
                tuple(tuple(j + 1 for j in s) for s in periods))
        radicals[k, depth] = ideal
        return ideal
    # below the saturation depth of k, no layer j k, j <= depth, is S(w0)
    ideal = None
    for j in range(1, depth + 1):
        below, ideal = ideal, radicals.get((k, j))
        if ideal is None:
            layer = radicals.get((j * k, 1))
            if layer is None:
                layer = radicals[j * k, 1] = SquarefreeIdeal(_search_supports(
                    q, tuple(j * x for x in d), h, periods))
            ideal = radicals[k, j] = layer if below is None else \
                SquarefreeIdeal(minimal_antichain(
                    (*below.generators, *layer.generators)))
    return ideal
