"""Exact projective linear algebra over the rationals.

Points are primitive integer vectors with the first nonzero entry positive;
subspaces are stored by their reduced row echelon basis, so equality of
values is equality of subspaces, and the coordinates of a point in a
subspace are its entries at the pivot columns, replayed by rebuilding the
point from the basis rows. Entries are ints or Fractions: a float or a
bool is rejected with ValueError. On top of the primitives sits a
deterministic solver that finds a 2-plane in P^5 meeting four given
2-planes in four distinct, generally positioned points: incidence with
three targets is built into the parametrization and the fourth becomes a
linear condition, solved exactly, then every claimed property is replayed
before the plane is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

from .cones import primitive
from .exact import IntMat, check_rational, det, int_vector, nullspace, rref
from .records import Record, store

_BOX = 10


class SearchExhausted(RuntimeError):
    """Raised when the plane search hits its attempt budget."""

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


class ProjPoint(Record):
    """Projective point: nonzero primitive integer coordinates, first
    nonzero entry positive."""

    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]) -> None:
        # by hand (see Record): the plane search makes points in its loop
        if not any(int_vector(coords, "point")):
            raise ValueError("zero vector is not a projective point")
        if gcd(*(abs(x) for x in coords)) != 1:
            raise ValueError("coordinates not primitive")
        lead = next(x for x in coords if x)
        if lead < 0:
            raise ValueError("leading coordinate not positive")
        store(self, "coords", coords)
        store(self, "_key", (coords,))

    @classmethod
    def make(cls, coords) -> "ProjPoint":
        v = primitive(tuple(coords))
        if not any(v):
            raise ValueError("zero vector is not a projective point")
        lead = next(x for x in v if x)
        if lead < 0:
            v = tuple(-x for x in v)
        return cls(v)

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1


class ProjSubspace(Record):
    """Projective linear subspace, stored as the reduced row echelon basis
    of its affine span (k rows of length m+1, int or Fraction entries).
    The constructor rejects any other basis, and keeps the pivot columns,
    where a point's entries are its coordinates, as `pivots`, which is no
    field: it takes no part in equality, hash or repr."""

    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.basis:
            raise ValueError("empty basis")
        if len({len(row) for row in self.basis}) != 1:
            raise ValueError("basis rows of unequal length")
        for row in self.basis:
            check_rational(row)
        red, pivots = rref(self.basis)
        if len(pivots) != len(self.basis):
            raise ValueError("basis rows not independent")
        if tuple(map(tuple, red)) != self.basis:
            raise ValueError("basis not in reduced row echelon form")
        store(self, "pivots", tuple(pivots))

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0]) - 1

    @property
    def projective_dim(self) -> int:
        return len(self.basis) - 1

    def equations(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer linear forms cutting out the subspace."""
        if len(self.basis) == len(self.basis[0]):
            return ()
        return tuple(sorted(primitive(f) for f in nullspace(self.basis)))

    def coordinates(self, p: ProjPoint) -> tuple[int, ...] | None:
        """The coefficients of p in the basis rows, or None when p is off
        the subspace: p's entries at the pivot columns, kept only if they
        rebuild p exactly."""
        if p.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        lam = tuple(p.coords[j] for j in self.pivots)
        rebuilt = tuple(sum(c * row[j] for c, row in zip(lam, self.basis))
                        for j in range(len(p.coords)))
        return lam if rebuilt == p.coords else None

    def contains_point(self, p: ProjPoint) -> bool:
        return self.coordinates(p) is not None

    def as_point(self) -> ProjPoint:
        if self.projective_dim != 0:
            raise ValueError("subspace is not a point")
        return ProjPoint.make(self.basis[0])


def _canonical(rows) -> ProjSubspace:
    red, _ = rref(rows)
    return ProjSubspace(tuple(tuple(row) for row in red))


def subspace_from_equations(forms, ambient_dim: int) -> ProjSubspace:
    """Solution set of the given linear forms in P^ambient_dim."""
    ncols = ambient_dim + 1
    rows = [tuple(f) for f in forms]
    for f in rows:
        if len(f) != ncols:
            raise ValueError("form has wrong length")
        check_rational(f)
    if not rows:
        return _canonical([[Fraction(i == j) for j in range(ncols)]
                           for i in range(ncols)])
    basis = nullspace(rows)
    if not basis:
        raise ValueError("empty projective set")
    return _canonical(basis)


def subspace_from_points(points) -> ProjSubspace:
    """Projective span of the given points."""
    pts = list(points)
    if not pts:
        raise ValueError("no points")
    dims = {p.ambient_dim for p in pts}
    if len(dims) != 1:
        raise ValueError("ambient dimension mismatch")
    return _canonical([[Fraction(x) for x in p.coords] for p in pts])


def intersect(s1: ProjSubspace, s2: ProjSubspace) -> ProjSubspace | None:
    """Exact intersection, or None when the spans meet only in the origin.

    a.B1 = b.B2 exactly when (a, -b) lies in the left kernel of the stacked
    bases, so one nullspace gives the kernel and the rows a.B1 span the
    intersection. The rows of B1 are independent, so a.B1 = 0 forces a = 0
    and these rows are independent too."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    kernel = nullspace(list(zip(*s1.basis, *s2.basis)))
    if not kernel:
        return None
    # zip pairs the first len(B1) entries of each kernel vector with B1
    return _canonical([[sum(c * row[j] for c, row in zip(a, s1.basis))
                        for j in range(s1.ambient_dim + 1)] for a in kernel])


class PositionVerdict(Record):
    """ok is True/False for an applicable check, None when the
    precondition failed (reason says which)."""

    ok: bool | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok is True


def _det(rows) -> int:
    """Determinant of the rational rows after scaling each to primitive
    integers. The scales are positive, so the zero test and the sign agree
    with the rational determinant, and two determinants that differ in one
    row that is already primitive keep their ratio."""
    return det(IntMat.from_rows([primitive(r) for r in rows]))


def general_position_on_plane(pts, plane: ProjSubspace) -> PositionVerdict:
    """Whether no three of the four points are collinear, computed in exact
    plane coordinates. Points off the plane make the check inapplicable."""
    pts = list(pts)
    if len(pts) != 4:
        raise ValueError("need exactly four points")
    if plane.projective_dim != 2:
        raise ValueError("not a plane")
    coords = []
    for p in pts:
        lam = plane.coordinates(p)
        if lam is None:
            return PositionVerdict(
                None, f"point {list(p.coords)} is not on the plane")
        coords.append(lam)
    for i, j, k in combinations(range(4), 3):
        if _det([coords[i], coords[j], coords[k]]) == 0:
            return PositionVerdict(
                False, f"points {i + 1}, {j + 1}, {k + 1} are collinear")
    return PositionVerdict(True, None)


class TransversalPlane(Record):
    plane: ProjSubspace
    points: tuple[ProjPoint, ...]
    attempts: int
    seed: int


class LineWitness(Record):
    plane: ProjSubspace
    refinement: bool
    note: str


def _sample_point(rng: Random, sub: ProjSubspace) -> ProjPoint:
    for _ in range(1000):
        coeffs = [rng.randint(-_BOX, _BOX) for _ in sub.basis]
        v = [sum(c * row[j] for c, row in zip(coeffs, sub.basis))
             for j in range(sub.ambient_dim + 1)]
        if any(v):
            return ProjPoint.make(v)
    raise RuntimeError("sampling failed to produce a nonzero point")


def _check_transversal(plane: ProjSubspace, targets) -> tuple[ProjPoint, ...] | None:
    """Replay the five transversality predicates; the intersection points
    on success, None on any failure."""
    if plane.projective_dim != 2:
        return None
    points: list[ProjPoint] = []
    for t in targets:
        s = intersect(plane, t)
        if s is None or s.projective_dim != 0:
            return None
        points.append(s.as_point())
    if len(set(points)) != 4:
        return None
    for i, p in enumerate(points):
        for j, t in enumerate(targets):
            if i != j and t.contains_point(p):
                return None
    if not general_position_on_plane(points, plane):
        return None
    return tuple(points)


def find_transversal_plane(targets, seed: int = 1,
                           max_tries: int = 100) -> TransversalPlane:
    """A 2-plane in P^5 meeting each of four given 2-planes in one point,
    the four points distinct, each on exactly one target, and in general
    position. Deterministic in (targets, seed, max_tries)."""
    targets = list(targets)
    if len(targets) != 4 or any(t.ambient_dim != 5 or t.projective_dim != 2
                                for t in targets):
        raise ValueError("expected four 2-planes in P^5")
    if max_tries < 0:
        raise ValueError("max_tries must be nonnegative")
    for a, b in combinations(targets, 2):
        meet = intersect(a, b)
        if meet is not None and meet.projective_dim > 0:
            raise ValueError("degenerate targets")

    rng = Random(seed)
    for attempt in range(1, max_tries + 1):
        p1 = _sample_point(rng, targets[0])
        p2 = _sample_point(rng, targets[1])
        u = _sample_point(rng, targets[2])
        v = _sample_point(rng, targets[2])
        if subspace_from_points([u, v]).projective_dim != 1:
            continue
        # the plane through p1, p2 and a point of the line a*u + b*v meets
        # the fourth target exactly when the stacked 6x6 determinant
        # vanishes; that determinant is linear in (a, b)
        base = [[Fraction(x) for x in p1.coords],
                [Fraction(x) for x in p2.coords]]
        tail = [list(row) for row in targets[3].basis]
        alpha = _det(base + [[Fraction(x) for x in u.coords]] + tail)
        beta = _det(base + [[Fraction(x) for x in v.coords]] + tail)
        if alpha == 0 and beta == 0:
            a, b = 1, 0
        else:
            a, b = beta, -alpha
        w = [a * x + b * y for x, y in zip(u.coords, v.coords)]
        if not any(w):
            continue
        p3 = ProjPoint.make(w)
        plane = subspace_from_points([p1, p2, p3])
        points = _check_transversal(plane, targets)
        if points is not None:
            return TransversalPlane(plane, points, attempt, seed)
    raise SearchExhausted(
        f"no transversal plane found in {max_tries} attempts", max_tries)


def witness_plane_via_line(targets) -> LineWitness:
    """A plane through the first pair's intersection point and the second
    pair's intersection point: it meets all four targets, but the first
    two in one shared point, so the distinct-points refinement fails."""
    targets = list(targets)
    if len(targets) != 4:
        raise ValueError("expected four targets")
    q12 = intersect(targets[0], targets[1])
    q34 = intersect(targets[2], targets[3])
    for q in (q12, q34):
        if q is None or q.projective_dim != 0:
            raise ValueError("intersection not a point")
    p12 = q12.as_point()
    p34 = q34.as_point()
    if p12 == p34:
        raise ValueError("intersection points coincide")
    rng = Random(0)
    plane = None
    for _ in range(100):
        coords = [rng.randint(-_BOX, _BOX)
                  for _ in range(p12.ambient_dim + 1)]
        if not any(coords):
            continue
        candidate = subspace_from_points([p12, p34, ProjPoint.make(coords)])
        if candidate.projective_dim == 2:
            plane = candidate
            break
    if plane is None:
        raise RuntimeError("could not extend the line to a plane")
    for t in targets:
        if intersect(plane, t) is None:
            raise RuntimeError("witness plane misses a target")
    refinement = _check_transversal(plane, targets) is not None
    return LineWitness(
        plane, refinement,
        "targets 1 and 2 meet the plane in one shared point, so the "
        "distinct-points refinement fails by construction")
