"""Presentation-level embedding checks between two graded polynomial rings.

A presentation pair holds the ambient degree matrix, the listed target
generators, and the variable-to-generator correspondence. The checks are
exact: degrees compare entrywise, the Picard restriction matrix is tested
for rational invertibility, and the divisor restriction table is matched
against the generator degrees as multisets. Surjectivity of the ring map is
certified at the generator level only; relation ideals are not modeled.
"""

from __future__ import annotations

from collections import Counter

from .chambers import spans_extremal_ray
from .exact import IntMat, det, dot, int_vector
from .grading import DegreeMatrix, string_label
from .records import Record

Multidegree = tuple[int, ...]


class CoxPresentationPair(Record):
    """Ambient presentation, target generators, and the variable-index to
    generator-label correspondence (position k holds the label matched to
    variable k+1)."""

    ambient: DegreeMatrix
    target: tuple[tuple[str, Multidegree], ...]
    correspondence: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("no target generators")
        labels = [lab for lab, _ in self.target]
        if len(set(labels)) != len(labels):
            raise ValueError("target labels not distinct")
        for _, deg in self.target:
            if len(deg) != self.ambient.pic_rank:
                raise ValueError("target degree has wrong length")
        if len(self.correspondence) != self.ambient.num_gens:
            raise ValueError("correspondence has wrong length")
        if len(set(self.correspondence)) != len(self.correspondence):
            raise ValueError("correspondence not injective")

    @classmethod
    def make(cls, ambient: DegreeMatrix, target,
             correspondence=None) -> "CoxPresentationPair":
        tgt = tuple((string_label(lab, "target"),
                     int_vector(deg, "target degree"))
                    for lab, deg in target)
        if correspondence is None:
            if len(tgt) != ambient.num_gens:
                raise ValueError(
                    "correspondence required when generator counts differ")
            correspondence = tuple(lab for lab, _ in tgt)
        return cls(ambient, tgt, tuple(string_label(c, "correspondence")
                                       for c in correspondence))

    def target_degrees(self) -> dict[str, Multidegree]:
        return dict(self.target)


class RestrictionTable(Record):
    """Ambient divisor classes after restriction, keyed by divisor label."""

    entries: tuple[tuple[str, Multidegree], ...]

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("table labels not distinct")

    @classmethod
    def make(cls, entries) -> "RestrictionTable":
        return cls(tuple((string_label(lab, "table"),
                          int_vector(deg, "table class"))
                         for lab, deg in entries))

    def classes(self) -> tuple[Multidegree, ...]:
        return tuple(deg for _, deg in self.entries)


class BijectionReport(Record):
    ok: bool
    matching: tuple[tuple[int, str], ...]
    mismatch: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class PicRestrictionReport(Record):
    ok: bool
    exact_match: bool
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class TableReport(Record):
    ok: bool
    matching: tuple[tuple[str, str], ...]
    mismatch: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_degree_bijection(p: CoxPresentationPair) -> BijectionReport:
    """Whether every variable's column equals the degree of its matched
    generator, with the full matching on success and the first mismatch
    otherwise."""
    tdeg = p.target_degrees()
    matched: list[tuple[int, str]] = []
    for k, label in enumerate(p.correspondence, start=1):
        if label not in tdeg:
            return BijectionReport(
                False, tuple(matched),
                f"variable {k} is matched to missing generator {label}")
        col = p.ambient.columns[k - 1]
        if col != tdeg[label]:
            return BijectionReport(
                False, tuple(matched),
                f"variable {k} has degree {list(col)} but generator "
                f"{label} has degree {list(tdeg[label])}")
        matched.append((k, label))
    unhit = sorted(set(tdeg) - set(p.correspondence))
    if unhit:
        return BijectionReport(
            False, tuple(matched),
            f"generator {unhit[0]} is not matched by any variable")
    return BijectionReport(True, tuple(matched), None)


def check_pic_restriction(p: CoxPresentationPair,
                          restriction: IntMat) -> PicRestrictionReport:
    """Whether the restriction matrix is invertible over the rationals.

    Exact degree transport (matrix times each ambient column equals the
    matched generator degree) is reported separately: rational isomorphism
    is the verdict, unimodular identification is extra information.
    """
    r = p.ambient.pic_rank
    if restriction.rows != r or restriction.cols != r:
        raise ValueError("restriction matrix has wrong size")
    if det(restriction) == 0:
        return PicRestrictionReport(False, False,
                                    "matrix not invertible over Q")
    tdeg = p.target_degrees()
    for k, label in enumerate(p.correspondence, start=1):
        if label not in tdeg:
            return PicRestrictionReport(
                True, False,
                f"variable {k} is matched to missing generator {label}")
        col = p.ambient.columns[k - 1]
        image = tuple(dot(restriction.row(i), col) for i in range(r))
        if image != tdeg[label]:
            return PicRestrictionReport(
                True, False,
                f"variable {k}: matrix sends {list(col)} to {list(image)}, "
                f"generator {label} has degree {list(tdeg[label])}")
    return PicRestrictionReport(True, True, None)


def verify_restriction_table(t: RestrictionTable,
                             p: CoxPresentationPair) -> TableReport:
    """Whether the table classes equal the generator degrees as multisets,
    with the induced divisor-to-generator matching."""
    gen_count = Counter(deg for _, deg in p.target)
    table_count = Counter(t.classes())
    if gen_count != table_count:
        for deg in sorted(table_count):
            if table_count[deg] > gen_count.get(deg, 0):
                return TableReport(
                    False, (),
                    f"class {list(deg)} occurs {table_count[deg]} times in "
                    f"the table but {gen_count.get(deg, 0)} times among the "
                    "generators")
        for deg in sorted(gen_count):
            if gen_count[deg] > table_count.get(deg, 0):
                return TableReport(
                    False, (),
                    f"generator degree {list(deg)} occurs "
                    f"{gen_count[deg]} times but only "
                    f"{table_count.get(deg, 0)} times in the table")
    queues: dict[Multidegree, list[str]] = {}
    for label, deg in p.target:
        queues.setdefault(deg, []).append(label)
    matching = tuple((label, queues[deg].pop(0)) for label, deg in t.entries)
    return TableReport(True, matching, None)


def mori_embedding_report(p: CoxPresentationPair, restriction: IntMat,
                          t: RestrictionTable) -> dict:
    """Aggregate verdict over the degree bijection, the Picard restriction,
    the restriction table, and extremality of every ambient column."""
    bij = check_degree_bijection(p)
    pic = check_pic_restriction(p, restriction)
    table = verify_restriction_table(t, p)
    per_gen = [spans_extremal_ray(p.ambient, i)
               for i in range(1, p.ambient.num_gens + 1)]
    overall = bij.ok and pic.ok and table.ok and all(per_gen)
    return {
        "degreeBijection": {
            "ok": bij.ok,
            "matching": [[k, label] for k, label in bij.matching],
            "mismatch": bij.mismatch,
        },
        "picRestriction": {
            "ok": pic.ok,
            "exactMatch": pic.exact_match,
            "detail": pic.detail,
        },
        "restrictionTable": {
            "ok": table.ok,
            "matching": [[dl, gl] for dl, gl in table.matching],
            "mismatch": table.mismatch,
        },
        "extremality": {
            "allExtremal": all(per_gen),
            "perGenerator": per_gen,
        },
        "overall": overall,
        "notes": [
            "surjectivity is certified at the generator level: every "
            "listed generator is the image of a variable of equal degree",
            "chamber refinement follows from the verified criteria and is "
            "not computed independently",
            "the rational-contraction condition has no surrogate in "
            "presentation data and is reported as out of scope",
        ],
    }
