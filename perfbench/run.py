"""coxtoric benchmark: time CLI job lists end to end, or trace them per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is found from this file's location, so any working
directory will do; it must have `src/coxtoric`. One client
runs jobs in a closed loop: each run starts fresh interpreters
(perfbench/child.py) one after another, and each interpreter runs the
workload's whole job list in order, in-process, through
coxtoric.cli.main. A fresh interpreter per job list matters: the
`monomials._subset_hrep` cache lives for the whole process, and a CLI user
always starts with it empty.

--trace 0 first starts SETUP_SAMPLES interpreters that only import
coxtoric and build the inputs (setup_s), then repeats the job list in new
interpreters while another one still fits in --seconds, and reports the
median of each metric over them. Every time is rescaled to a fixed
reference speed of the host (speed.py), because the shared host's CPU
speed swings by up to 1.8x; the raw times are printed beside them.
--trace 1 runs the job list once plain
and once with tracer.py's wrappers, and reports per-layer metrics plus the
tracing overhead. Every job's output is checked by oracles.py outside the
timed region. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
RUN_LIMIT_S = 170        # every interpreter of one run must end by then

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_ms_p50": "ms",
    "job_ms_p95": "ms", "peak_rss_mb": "MiB",
}

# traced function -> statistics reported for it
PER_LAYER = {
    "linprog.simplex_nonneg": ("calls", "self_s"),
    "linprog.lp_feasible": ("calls", "self_s", "feasible_ratio"),
    "cones.cone_member": ("calls", "total_s", "member_ratio"),
    "cones.double_description": ("calls", "self_s"),
    "cones.primitive": ("calls", "self_s"),
    "cones.generators_to_hrep": ("calls",),
    **{f"exact.{f}": ("calls", "self_s")
       for f in ("rref", "nullspace", "rational_solve", "det", "rank",
                 "hermite_normal_form")},
    "monomials.minimal_supports_of_degree": ("calls", "self_s"),
    "monomials.monomials_of_degree": ("calls", "self_s"),
    "monomials.irrelevant_radical": ("total_s",),
    **{f"fans.{f}": ("total_s",)
       for f in ("validate_fan", "is_projective", "is_complete",
                 "fan_from_irrelevant")},
    "chambers.chamber_of": ("total_s",),
    "chambers.same_chamber": ("total_s",),
    "incidence.find_transversal_plane": ("calls", "total_s",
                                         "attempts_per_call"),
    "incidence.intersect": ("calls", "self_s"),
    "grading.gale_dual": ("total_s",),
    "embedding.mori_embedding_report": ("total_s",),
    "cli.main": ("self_s",),
}
RATIO_STATS = ("feasible_ratio", "member_ratio", "attempts_per_call")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run child.py once; its result plus setup_s and the elapsed time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # setup_s is timed with the bytecode cache an installed package has,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} interpreter exceeded the run limit") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} interpreter exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - start
    if mode == "setup":
        result["setup_s"] = result["raw_setup_s"] \
            * speed.SETUP_REFERENCE_S / result["setup_calibration_s"]
    result["elapsed_s"] = _now() - start
    return result


def job_list_metrics(child: dict) -> dict[str, float]:
    ms = sorted(job["ms"] for job in child["jobs"])
    return {
        "wall_s": child["wall_s"],
        "cpu_s": child["cpu_s"],
        "job_ms_p50": statistics.median(ms),
        # nearest rank: 200 jobs leave 10 samples above it
        "job_ms_p95": ms[math.ceil(0.95 * len(ms)) - 1],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def layer_metrics(traced: dict, plain: dict) -> dict[str, tuple]:
    summary = traced["trace"]
    out = {}
    for name, stats in PER_LAYER.items():
        row = summary[name]
        for stat in stats:
            if stat in RATIO_STATS:
                value = row["outcome_sum"] / row["calls"] if row["calls"] \
                    else 0.0
                unit = "1"
            elif stat == "calls":
                value, unit = row["calls"], "count"
            else:
                value, unit = row[stat], "s"
            out[f"{name}.{stat}"] = (value, unit)
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """(metrics as name -> (value, unit), children that ran the jobs)."""
    deadline = _now() + RUN_LIMIT_S
    spawn(workload, seed, "setup", deadline)   # fills the bytecode cache
    if trace:
        plain = spawn(workload, seed, "plain", deadline)
        traced = spawn(workload, seed, "traced", deadline)
        return layer_metrics(traced, plain), [plain, traced]

    begin = _now()
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    children = []
    while True:
        children.append(spawn(workload, seed, "plain", deadline))
        longest = max(c["elapsed_s"] for c in children)
        if _now() - begin + longest > seconds:
            break
    per_child = [job_list_metrics(c) for c in children]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name in per_child[0]:
        metrics[name] = (statistics.median(m[name] for m in per_child),
                         END_TO_END_UNITS[name])
    return metrics, children


def check_outputs(workload: str, seed: int, children: list[dict]):
    """(attempted, failure reasons) over every job of every child."""
    import workloads
    from oracles import Oracle

    jobs = workloads.build(workload, seed, write_inputs=False)
    oracle = Oracle(workload)
    attempted, failures = 0, []
    for child in children:
        for job, result in zip(jobs, child["jobs"], strict=True):
            attempted += 1
            reason = oracle.check(job, result)
            if reason is not None:
                failures.append(f"{' '.join(job.argv)}: {reason}")
    return attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"workload must be one of {workloads.WORKLOADS}")
    if not (SRC / "coxtoric" / "cli.py").is_file():
        print(f"error: no coxtoric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the oracles call the enumerator

    try:
        metrics, children = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted, failures = check_outputs(args.workload, args.seed, children)
    for reason in failures[:5]:
        print(f"FAIL {reason}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"interpreters {len(children)}  jobs {attempted}")
    print("  wall_s per interpreter, rescaled: " +
          " ".join(f"{c['wall_s']:.3f}" for c in children))
    print("  wall_s per interpreter, raw:      " +
          " ".join(f"{c['raw_wall_s']:.3f}" for c in children))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':48s} {len(failures) / attempted:14.6f} 1")
    if args.trace:
        # stage-level spans, one line per call, for functions called rarely
        for name, row in children[-1]["trace"].items():
            if 0 < row["calls"] <= len(row["spans"]):
                print(f"  span {name}: " + " ".join(
                    f"{d:.4f}" for d in row["spans"]) + " s")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
