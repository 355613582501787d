"""Correctness oracles, run in the parent after the timed job lists.

`Oracle(workload).check(job, result)` returns None when the job's output
is right and a one-line reason otherwise. A job fails on a wrong exit
code, an exception, or an output that disagrees with the oracle. The
radical oracles use coxtoric's monomial enumerator
(`monomials_of_degree` + `radical_of_monomials`), a path independent of
the subset-lattice search that the CLI commands use; incidence outputs
are replayed in integer arithmetic here.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

from coxtoric.grading import DegreeMatrix
from coxtoric.monomials import monomials_of_degree, radical_of_monomials
from workloads import dp5_columns, rank

# SHA-256 of `coxtoric reproduce-paper --json` stdout; the report is
# byte-stable, so any change to it is a failure
REPRODUCE_SHA256 = \
    "88516bdc0ff180aec89ae73013a6d2980fa0fd3a8b1ac963d35d47889e22bbbc"

# coordinates that vanish on each of the four target planes of the
# bundled incidence configuration in P^5
TARGET_ZERO_COORDS = ((0, 3, 5), (0, 2, 4), (1, 2, 3), (1, 4, 5))


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _expected_radical(q, degree) -> tuple[list, bool]:
    """Depth-1 radical of `degree` and whether depth 2 leaves it unchanged,
    both from full monomial enumeration."""
    one = monomials_of_degree(q, degree)
    two = monomials_of_degree(q, tuple(2 * x for x in degree))
    first = radical_of_monomials(one)
    return sorted(first.generators), radical_of_monomials(one + two) == first


class Oracle:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._memo: dict = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, job, result: dict) -> str | None:
        if result["error"] is not None:
            return "exception: " + result["error"].strip().splitlines()[-1]
        if result["code"] != 0:
            return f"exit code {result['code']}: {result['stderr'].strip()}"
        try:
            payload = json.loads(result["stdout"])
        except json.JSONDecodeError:
            return "stdout is not JSON"
        check = getattr(self, "_" + self.workload.replace("-", "_"))
        try:
            return check(job, result, payload)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            return f"malformed report: {e!r}"

    def _reproduce(self, job, result, payload) -> str | None:
        if payload.get("overall") is not True:
            return f"overall is not true (first failed: " \
                   f"{payload.get('firstFailed')})"
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if digest != REPRODUCE_SHA256:
            return f"report bytes changed (sha256 {digest})"
        return None

    def _dp4_irrelevant(self, job, result, payload) -> str | None:
        g = job.facts["grading"]
        q = DegreeMatrix.make(g["columns"], labels=g["labels"])
        supports, stable = self._cached(
            "dp4", lambda: _expected_radical(q, job.facts["degree"]))
        got = sorted(tuple(s) for s in payload["supports"])
        if got != supports or payload["count"] != len(supports):
            return "supports differ from the enumerated radical"
        if payload["stable"] is not stable:
            return f"stable is {payload['stable']}, enumeration says {stable}"
        return None

    def _chamber_sweep(self, job, result, payload) -> str | None:
        w, w2 = job.facts["w"], job.facts["w2"]
        if tuple(payload["representative"]) != w:
            return "representative is not the requested class"
        if any(_dot(row, w) < 0 for row in payload["hRep"]):
            return "representative violates an hRep row"
        comparison = payload["comparison"]
        if job.facts["doubled"] and comparison["same"] is not True:
            return "(w, 2w) reported in different chambers"
        q = DegreeMatrix.make(dp5_columns())
        rad1, stable1 = self._cached(w, lambda: _expected_radical(q, w))
        rad2, stable2 = self._cached(w2, lambda: _expected_radical(q, w2))
        if comparison["same"] is not (rad1 == rad2):
            return "same disagrees with the enumerated radicals"
        if comparison["stable"] is not (stable1 and stable2):
            return "stable disagrees with the enumerated radicals"
        return None

    def _incidence_search(self, job, result, payload) -> str | None:
        if payload["found"] is not True or \
                payload["seed"] != job.facts["seed"]:
            return "no plane reported for this seed"
        equations = payload["plane"]["equations"]
        points = payload["points"]
        if len(equations) != 3 or rank(equations) != 3:
            return "plane equations are not three independent forms"
        if len(points) != 4:
            return "expected four points"
        for p, zeros in zip(points, TARGET_ZERO_COORDS):
            if not any(p):
                return "zero point"
            if any(_dot(f, p) for f in equations):
                return f"point {p} is not on the plane"
            if any(p[i] for i in zeros):
                return f"point {p} is not on its target"
        for p, r in combinations(points, 2):
            if rank([p, r]) < 2:
                return f"points {p} and {r} coincide"
        return None
