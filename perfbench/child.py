"""One measured run of a workload's job list in a fresh interpreter.

Started by run.py with the checkout root as working directory and
`src` on PYTHONPATH:

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is `setup` (import and build inputs, then exit), `plain` (run the
job list untraced) or `traced` (run it with tracer.py's wrappers
installed). Jobs run in order, in-process, through coxtoric.cli.main with
stdout and stderr captured, while speed.py samples the host's speed.
Every time is reported twice: as measured with the sampler's pauses taken
out (`raw_*`), and rescaled to speed.py's reference speed. The last line
on stdout is one JSON object with the measurements and every job's exit
code and output.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import coxtoric.cli
import speed
import workloads


def _run_job(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = coxtoric.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # recorded as a failed job, the run goes on
            code, error = None, traceback.format_exc()
    return {"span": (start, time.perf_counter()), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def main() -> None:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    jobs = workloads.build(workload, seed, write_inputs=True)
    # CLOCK_MONOTONIC is shared by all processes, so the parent can
    # subtract the time it started this interpreter
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode == "setup":
        # the host's speed just after setup, to rescale setup_s; the zero
        # fill raises peak RSS, so only setup-only interpreters do this
        result["setup_calibration_s"] = speed.setup_burst()
    else:
        spans = None
        if mode == "traced":
            import tracer
            spans = tracer.Tracer()
            tracer.install(spans)
        with speed.Sampler() as sampler:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result["jobs"] = [_run_job(list(job.argv)) for job in jobs]
            cpu1, wall1 = time.process_time(), time.perf_counter()
        for job in result["jobs"]:
            a, b = job.pop("span")
            job["raw_ms"] = (b - a - sampler.paused(a, b)) * 1000
            job["ms"] = sampler.scaled(a, b) * 1000
        paused = sampler.paused(wall0, wall1)
        result["raw_wall_s"] = wall1 - wall0 - paused
        result["wall_s"] = sampler.scaled(wall0, wall1)
        # the handler is pure computation, so its pauses are CPU time too
        result["raw_cpu_s"] = cpu1 - cpu0 - paused
        result["cpu_s"] = \
            result["raw_cpu_s"] * result["wall_s"] / result["raw_wall_s"]
        result["speed_samples"] = len(sampler.costs)
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if spans is not None:
            result["trace"] = spans.summary()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
