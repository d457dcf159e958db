"""Benchmark of qsl2: three workloads, end-to-end metrics, and a traced run for
per-layer metrics.

Run from the root of a checkout (the directory that holds ``src/qsl2``):

    python3 bench/run.py --workload cleft|verma|charp --seed N --seconds S --trace 0|1

A run is a closed loop with one client: a single process starts one job at a
time (``job.py``, a fresh interpreter with empty memo tables) and starts the
next when it ends.  It starts another job only while at least half of one as
long as the last fits within ``--seconds``; the first job always runs.  Every
job of a run gets the same seed-made inputs.

``--trace 0`` precedes each job by a launch that stops before the workload, so
set-up is measured several times in a run (at least SETUP_LAUNCHES).  It
reports the median over the run's jobs of each end-to-end metric.

``--trace 1`` alternates an untraced and a traced job.  The traced job's
outputs must equal the untraced job's, and its counts must repeat exactly
across traced jobs.  It reports the per-layer metrics (medians for times) and
``trace.overhead_s``, the median traced minus untraced ``run_s``.

Every job's outputs are checked: the verdict, the exit code, and the output
digest (against the digest recorded in ``workloads.py`` where it does not
depend on the seed, otherwise across the run's jobs).  A job that fails any check counts all of
its checked instances as failed.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_LAUNCHES = 10
MAX_SECONDS = 120
HARD_LIMIT_S = 170        # every job is stopped by then, so a run exits within 180 s


def _job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"   # fixed str hashing, so counts repeat exactly
    return env


def launch(workload: str, seed: int, *flags: str, deadline: float) -> dict:
    """Run one job, stopped at the monotonic time `deadline`; its record, plus
    setup_s, or an "error" entry."""
    cmd = [sys.executable, str(BENCH_DIR / "job.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_job_env(),
                              timeout=max(deadline - started, 0.1))
    except subprocess.TimeoutExpired:
        return {"error": "stopped at the run's time limit"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable record: {lines[-1][:200]}"}
    record["setup_s"] = record["t_first"] - started
    return record


def summarize(values: list[float]) -> dict:
    """Median, and the highest order statistic with at least ten values above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(Path("src/qsl2").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "loadavg": os.getloadavg(),
            "src_qsl2_lines": src_lines}


def check_job(workload, record: dict, reference: dict | None) -> str | None:
    """Why this job's outputs are wrong, or None.  Every job of a run is
    compared with its first job, so in a traced run the traced outputs must
    equal the untraced outputs."""
    if "error" in record:
        return record["error"]
    if record["exit_code"] != 0:
        return f"exit code {record['exit_code']}"
    if not record["passed"]:
        return "FAIL verdict"
    if workload.expected_digest and record["digest"] != workload.expected_digest:
        return "output digest differs from the parent's"
    if reference is not None and record["digest"] != reference["digest"]:
        return "output digest differs from the run's first job"
    return None


def _more_time(start: float, seconds: int, last: float) -> bool:
    """Whether at least half of a job as long as the last one fits in the
    run's `seconds`, so that a run overshoots them by at most half a job."""
    return time.monotonic() - start + last / 2 <= seconds


def measure(workload, seed: int, seconds: int, deadline: float) -> tuple[list, list[float]]:
    """Jobs for `seconds`, each after one set-up-only launch; then more
    set-up-only launches, so that there are at least SETUP_LAUNCHES."""
    jobs, setups = [], []

    def setup_only():
        rec = launch(workload.name, seed, "--setup-only", deadline=deadline)
        if "error" not in rec:
            setups.append(rec["setup_s"])

    start = time.monotonic()
    while True:
        setup_only()
        began = time.monotonic()
        rec = launch(workload.name, seed, deadline=deadline)
        jobs.append(rec)
        if "error" not in rec:
            setups.append(rec["setup_s"])
        if not _more_time(start, seconds, time.monotonic() - began):
            break
    for _ in range(SETUP_LAUNCHES - len(jobs)):
        setup_only()
    return jobs, setups


def measure_traced(workload, seed: int, seconds: int, deadline: float) -> tuple[list, list]:
    """Pairs of an untraced and a traced job for `seconds`."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(launch(workload.name, seed, deadline=deadline))
        traced.append(launch(workload.name, seed, "--trace", deadline=deadline))
        if not _more_time(start, seconds, time.monotonic() - began):
            break
    return plain, traced


def end_to_end(workload, jobs: list, setups: list[float]) -> dict:
    good = [r for r in jobs if "error" not in r]
    if not good:
        return {}
    ops = [workload.instances / r["run_s"] for r in good]
    return {
        "setup_s": (summarize(setups), "s"),
        "run_s": (summarize([r["run_s"] for r in good]), "s"),
        "cpu_s": (summarize([r["cpu_s"] for r in good]), "s"),
        "ops_per_s": (summarize(ops), "1/s"),
        "peak_rss_mb": (summarize([r["peak_rss_mb"] for r in good]), "MB"),
    }


def per_layer(plain: list, traced: list) -> tuple[dict, str | None]:
    good = [(p, t) for p, t in zip(plain, traced)
            if "error" not in p and "error" not in t]
    if not good:
        return {}, "no traced job completed"
    layers = [t["layers"] for _, t in good]
    problem, metrics = None, {}
    for name, (value, unit) in layers[0].items():
        values = [lay[name][0] for lay in layers]
        if unit == "count" and any(v != value for v in values):
            problem = f"traced count {name} differs between jobs"
        if unit != "count":
            value = statistics.median(values)
        metrics[name] = ({"median": value, "n": len(layers)}, unit)
    overhead = [t["run_s"] - p["run_s"] for p, t in good]
    metrics["trace.overhead_s"] = (summarize(overhead), "s")
    return metrics, problem


def main() -> int:
    parser = argparse.ArgumentParser(description="qsl2 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/qsl2/__init__.py").is_file():
        print("error: run from the root of a qsl2 checkout (src/qsl2 not found)",
              file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must lie in [1, {MAX_SECONDS}]", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()
    deadline = time.monotonic() + HARD_LIMIT_S
    # One untimed launch first, so that compiling bytecode is not timed.
    launch(workload.name, args.seed, "--setup-only", deadline=deadline)

    if args.trace:
        plain, traced = measure_traced(workload, args.seed, args.seconds, deadline)
        jobs = plain + traced
        metrics, trace_problem = per_layer(plain, traced)
        spans = next((t["spans"] for t in traced if "spans" in t), [])
    else:
        jobs, setups = measure(workload, args.seed, args.seconds, deadline)
        metrics, trace_problem = end_to_end(workload, jobs, setups), None
        spans = None

    reference = next((r for r in jobs if "error" not in r), None)
    problems = [check_job(workload, r, reference) for r in jobs]
    attempted = workload.instances * len(jobs)
    failed = workload.instances * sum(p is not None for p in problems)
    if not args.trace:
        metrics["pass_share"] = ({"median": 1 - failed / attempted,
                                  "n": attempted}, "share")
    correct = failed == 0 and trace_problem is None and bool(metrics)

    verdict = "PASS" if correct else "FAIL"
    print(f"qsl2 benchmark: workload {workload.name}, seed {args.seed}, "
          f"{len(jobs)} jobs, {failed} of {attempted} instances failed: {verdict}")
    for p in filter(None, problems + [trace_problem]):
        print(f"  problem: {p}")
    for name, (summary, unit) in metrics.items():
        extra = "".join(f", {k} {v:.6g}" for k, v in summary.items()
                        if k not in ("median", "n"))
        print(f"  {name} = {summary['median']:.6g} {unit} (n {summary['n']}{extra})")
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "jobs": [{k: v for k, v in r.items() if k not in ("layers", "spans")}
                       for r in jobs],
              "summaries": {k: s for k, (s, _) in metrics.items()}}
    if spans is not None:
        record["spans"] = spans
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": summary["median"], "unit": unit}
                    for name, (summary, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
