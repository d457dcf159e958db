"""One benchmark job: a fresh interpreter that sets up, calls one workload once
and prints a JSON record as its last stdout line.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``:

    python3 bench/job.py --workload verma --seed 3 [--trace] [--setup-only]

``t_first`` is the ``time.monotonic()`` reading (a system-wide clock on Linux)
just before the first call into the workload, so the parent can measure
set-up from the moment it started this process.  ``--setup-only`` stops
there.  ``--trace`` installs the layer wrappers of ``layers.py`` first.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Importing is part of set-up.  qsl2.cli is imported before the tracer is
    # installed, so that its imported names are wrapped too.
    import qsl2          # noqa: F401
    import qsl2.cli      # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result = workload.run(inputs)
    run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    outcome = workload.judge(inputs, result)
    record = {
        "t_first": t_first,
        "run_s": run_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,     # ru_maxrss is in KiB on Linux
        "exit_code": outcome.exit_code,
        "passed": outcome.passed,
        "digest": outcome.digest,
        "inputs_digest": outcome.inputs_digest,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(run_s)
        record["sites"] = tracer.sites
        record["spans"] = tracer.spans()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
