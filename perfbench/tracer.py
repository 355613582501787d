"""Per-layer tracing of coxtoric from outside the program.

`install()` replaces selected public functions of the coxtoric modules with
wrappers that record one span per call: function, start, end and the span
that was open when the call began (its parent).  The wrapper is bound in
every coxtoric module that holds the original function object, so a name
imported with `from .cones import cone_member` is traced in `fans` and
`chambers` too.  Spans are kept in compact in-memory arrays; `summary()`
folds them into per-function call counts, total time and self time (a
span's duration minus the durations of its direct child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> functions whose calls are recorded
TRACED = {
    "exact": ("rref", "nullspace", "rational_solve", "det", "rank",
              "hermite_normal_form"),
    "linprog": ("simplex_nonneg", "lp_feasible"),
    "cones": ("cone_member", "double_description", "primitive",
              "generators_to_hrep"),
    "monomials": ("minimal_supports_of_degree", "monomials_of_degree",
                  "irrelevant_radical"),
    "fans": ("validate_fan", "is_projective", "is_complete",
             "fan_from_irrelevant"),
    "chambers": ("chamber_of", "same_chamber"),
    "incidence": ("find_transversal_plane", "intersect"),
    "grading": ("gale_dual",),
    "embedding": ("mori_embedding_report",),
    "cli": ("main",),
}


# function -> map from its return value to a number summed over calls, for
# the ratios and per-call averages; a raised exception that carries
# `attempts` (SearchExhausted) adds that instead
OUTCOMES = {
    "linprog.lp_feasible": lambda r: int(r.feasible),
    "cones.cone_member": int,
    "incidence.find_transversal_plane": lambda r: r.attempts,
}

SPANS_KEPT = 8   # durations kept per function, for stage-level timings


class Tracer:
    """Spans of traced calls, recorded in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fids = array("i")      # function id; ~id for a re-entered call
        self.parents = array("i")   # index of the enclosing span, -1 at top
        self.starts = array("d")
        self.ends = array("d")
        self.outcome_sums: dict[int, float] = {}
        self._open = [-1]
        self._active: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        self.outcome_sums[fid] = 0
        outcome = OUTCOMES.get(name)
        fids, parents, starts, ends = (self.fids, self.parents, self.starts,
                                       self.ends)
        open_, active, sums = self._open, self._active, self.outcome_sums
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid if not active[fid] else ~fid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            active[fid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                if outcome is not None and hasattr(exc, "attempts"):
                    sums[fid] += exc.attempts
                raise
            else:
                ends[idx] = clock()
                if outcome is not None:
                    sums[fid] += outcome(result)
                return result
            finally:
                active[fid] -= 1
                open_.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """Per function: calls, total_s (outermost calls only, so a
        re-entered function is not counted twice), self_s, outcome_sum and
        the durations of its first SPANS_KEPT outermost calls (`spans`)."""
        n = len(self.starts)
        covered = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        rows = [{"calls": 0, "total_s": 0.0, "self_s": 0.0, "spans": []}
                for _ in self.names]
        for i in range(n):
            f = self.fids[i]
            dur = ends[i] - starts[i]
            row = rows[f if f >= 0 else ~f]
            row["calls"] += 1
            row["self_s"] += dur - covered[i]
            if f >= 0:
                row["total_s"] += dur
                if len(row["spans"]) < SPANS_KEPT:
                    row["spans"].append(dur)
        out = {}
        for fid, name in enumerate(self.names):
            rows[fid]["outcome_sum"] = self.outcome_sums[fid]
            out[name] = rows[fid]
        return out


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED and rebind it wherever a coxtoric
    module holds it."""
    import coxtoric  # noqa: F401  (loads every layer module)

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "coxtoric" or key.startswith("coxtoric.")]
    for layer, functions in TRACED.items():
        home = sys.modules[f"coxtoric.{layer}"]
        for fname in functions:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
