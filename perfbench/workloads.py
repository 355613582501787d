"""Workload inputs, generated from the workload seed.

Each workload is a list of jobs; a job is one coxtoric command line plus
the facts its oracle needs. Nothing here imports coxtoric: the gradings
are built from their defining formulas so the inputs do not depend on the
code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("reproduce", "dp4-irrelevant", "chamber-sweep",
             "incidence-search")

CHAMBER_JOBS = 10
CHAMBER_CLASS_DEGREE = 3   # columns summed per class (its heft degree)
CHAMBER_BASE_SEED = 0
INCIDENCE_JOBS = 200
WORKDIR = Path(".bench_work")

DP4_DEGREE = (3, -1, -1, -1, -1, -1)   # the anticanonical class
DP4_HEFT = (3, 1, 1, 1, 1, 1)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    facts: dict = field(default_factory=dict)


def _line(h: int, minus: tuple[int, ...], points: int) -> tuple[int, ...]:
    """The class h*H - sum(E_i for i in minus) in the basis (H, E_1..E_n)."""
    v = [h] + [0] * points
    for i in minus:
        v[i] -= 1
    return tuple(v)


def _unit(i: int, points: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(points + 1))


def dp5_columns() -> list[tuple[int, ...]]:
    """Degree columns of the bundled degree-five del Pezzo grading: the
    ten lines H - E_i - E_j and E_i on Pic = Z^5."""
    return ([_line(1, p, 4) for p in combinations(range(1, 5), 2)]
            + [_unit(i, 4) for i in range(1, 5)])


def dp4_grading() -> dict:
    """The sixteen lines of the degree-four del Pezzo surface on Pic = Z^6:
    E_i, H - E_i - E_j and 2H - (E_1 + ... + E_5)."""
    columns = ([_unit(i, 5) for i in range(1, 6)]
               + [_line(1, p, 5) for p in combinations(range(1, 6), 2)]
               + [_line(2, tuple(range(1, 6)), 5)])
    labels = ([f"E{i}" for i in range(1, 6)]
              + [f"L{i}{j}" for i, j in combinations(range(1, 6), 2)]
              + ["C"])
    if rank(columns) != 6:
        raise RuntimeError("dP4 grading is not of rank 6")
    if any(sum(h * c for h, c in zip(DP4_HEFT, col)) < 1 for col in columns):
        raise RuntimeError("dP4 heft is not positive on every column")
    return {"picRank": 6, "numGens": len(columns),
            "columns": [list(c) for c in columns], "labels": labels,
            "heft": list(DP4_HEFT)}


def rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _csv(v) -> str:
    return ",".join(str(x) for x in v)


def _chamber_jobs(seed: int) -> list[Job]:
    """Pairs of effective classes, each a sum of CHAMBER_CLASS_DEGREE dP5
    columns; every other pair is (w, 2w). The column sums are drawn once
    from CHAMBER_BASE_SEED, and the workload seed draws, per pair, a
    relabelling of the exceptional classes E_1..E_4. A relabelling permutes
    the columns, so the classes stay effective and the work per job list
    does not depend on the seed."""
    base = random.Random(CHAMBER_BASE_SEED)
    rng = random.Random(seed)
    columns = dp5_columns()

    def draw() -> tuple[int, ...]:
        picks = [base.choice(columns) for _ in range(CHAMBER_CLASS_DEGREE)]
        return tuple(map(sum, zip(*picks)))

    jobs = []
    for k in range(CHAMBER_JOBS):
        doubled = k % 2 == 0
        w = draw()
        w2 = tuple(2 * x for x in w) if doubled else draw()
        perm = rng.sample(range(1, 5), 4)
        w, w2 = ((v[0],) + tuple(v[i] for i in perm) for v in (w, w2))
        jobs.append(Job(("chamber", "--dataset", "delpezzo4",
                         "--degree", _csv(w), "--compare", _csv(w2),
                         "--json"),
                        {"w": w, "w2": w2, "doubled": doubled}))
    return jobs


def build(workload: str, seed: int, write_inputs: bool) -> list[Job]:
    """The job list of one workload. Input files live under WORKDIR,
    relative to the checkout root, and are written only if write_inputs."""
    if workload == "reproduce":
        return [Job(("reproduce-paper", "--json"))]
    if workload == "dp4-irrelevant":
        grading = dp4_grading()
        path = WORKDIR / "dp4.json"
        if write_inputs:
            WORKDIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(grading))
        return [Job(("irrelevant", str(path), "--degree", _csv(DP4_DEGREE),
                     "--json"), {"grading": grading, "degree": DP4_DEGREE})]
    if workload == "chamber-sweep":
        return _chamber_jobs(seed)
    if workload == "incidence-search":
        seeds = random.Random(seed).sample(range(1, 2 ** 31), INCIDENCE_JOBS)
        return [Job(("incidence", "search", "--seed", str(s), "--json"),
                    {"seed": s}) for s in seeds]
    raise ValueError(f"unknown workload {workload!r}")
