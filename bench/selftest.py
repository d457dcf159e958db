"""Self-test of the benchmark's determinism and of its traced run.

Run from the root of a checkout; it takes about two minutes:

    python3 bench/selftest.py

Checks, for every workload:

* two traced jobs at one seed give identical counts and memo sizes, and the
  outputs of the untraced job;
* every layer metric that NOTES.md predicts to be 0 on the workload reads 0;
* the wrappers sit at every place qsl2 looks the traced names up;
* a second seed changes the generated ``verma`` pairs and ``charp`` samples
  (seen in the ``verma`` input digest and the ``charp`` multiply counts) but
  not the verdicts;
* the output digests equal the digests of the code the benchmark was defined
  on, and the metric names equal those in BENCHMARK.json;
* a one-second run of ``run.py`` reports every end-to-end metric, correct.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from run import launch
from workloads import WORKLOADS

SEED, OTHER_SEED = 1, 2

# verma outputs depend on the seed; this is the digest at SEED.
VERMA_DIGEST = "a128be3f40e3381300a3cfabd3119f16286f8332762ba9a823ace08d73efe6ea"

# Per-layer metrics predicted to read 0, by prefix (see NOTES.md).
ZERO = {
    "cleft": ("mat.", "modules.", "hyperalgebra.", "linalg.rank_mod_p"),
    "verma": ("hopf.", "linalg.", "hyperalgebra."),
    "charp": ("cyclotomic.", "qcomb.", "algebra.", "hopf.", "mat.", "modules.",
              "linalg.echelon", "linalg.nullspace", "linalg.max_columns",
              "linalg.pivots"),
}

SITES = {
    "cyclotomic.mul": ["CycNum.__mul__", "CycNum.__rmul__"],
    "mat.matmul": ["Mat.__matmul__", "Mat.__mul__"],
    "linalg.nullspace": ["qsl2.hopf.nullspace_of_columns",
                         "qsl2.linalg.nullspace_of_columns",
                         "qsl2.modules.nullspace_of_columns"],
    "linalg.rank_mod_p": ["qsl2.hyperalgebra.rank_mod_p", "qsl2.linalg.rank_mod_p"],
    "hyperalgebra.multiply": ["qsl2.cli.hyp_multiply", "qsl2.hyp_multiply",
                              "qsl2.hyperalgebra.hyp_multiply"],
    "modules.monomial_matrix": ["qsl2.modules.monomial_matrix",
                                "qsl2.monomial_matrix"],
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def counts(record: dict) -> dict:
    return {k: v for k, (v, unit) in record["layers"].items() if unit == "count"}


def job(workload: str, seed: int, *flags: str) -> dict:
    record = launch(workload, seed, *flags, deadline=time.monotonic() + 120)
    if "error" in record:
        sys.exit(f"{workload} job at seed {seed} failed: {record['error']}")
    return record


def main() -> int:
    if not Path("src/qsl2/__init__.py").is_file():
        print("error: run from the root of a qsl2 checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the workloads of workloads.py")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "charp",
                           "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    check(result["correct"] and set(result["metrics"])
          == {m["name"] for m in spec["end_to_end"]},
          "run.py reports every end_to_end metric of BENCHMARK.json, correct")

    for name, workload in WORKLOADS.items():
        plain = job(name, SEED)
        first = job(name, SEED, "--trace")
        second = job(name, SEED, "--trace")
        other = job(name, OTHER_SEED, "--trace")
        expected = workload.expected_digest or VERMA_DIGEST
        check(plain["passed"] and plain["digest"] == expected,
              f"{name}: PASS with the expected output digest")
        check(first["digest"] == second["digest"] == plain["digest"],
              f"{name}: traced outputs equal untraced outputs")
        check(counts(first) == counts(second),
              f"{name}: two traced jobs give identical counts and memo sizes")
        check(set(first["layers"]) | {"trace.overhead_s"} == layer_names,
              f"{name}: traced metrics are the per_layer metrics of BENCHMARK.json")
        nonzero = [k for k, (v, _) in first["layers"].items()
                   if k.startswith(ZERO[name]) and v != 0]
        check(not nonzero, f"{name}: metrics predicted 0 read 0 {nonzero or ''}")
        if name == "cleft":
            for traced, sites in SITES.items():
                check(sorted(first["sites"].get(traced, [])) == sorted(sites),
                      f"{traced} wrapped at {', '.join(sites)}")
        check(other["passed"], f"{name}: PASS at a second seed")
        if name == "verma":
            check(other["inputs_digest"] != first["inputs_digest"],
                  "verma: a second seed changes the generated pairs")
        if name == "charp":
            check(other["layers"]["hyperalgebra.mono_mul_calls"]
                  != first["layers"]["hyperalgebra.mono_mul_calls"],
                  "charp: a second seed changes the sampled pairs")

    print(f"{len(failures)} checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
