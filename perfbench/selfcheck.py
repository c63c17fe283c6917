#!/usr/bin/env python3
"""Quick check of the benchmark itself; exits non-zero on any failure.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

* one grid instance, (1,4), passes the correctness gate at engine seeds 0
  and 1, so the reference content does not depend on the seed;
* a traced run of that instance records spans for calls made inside the
  package, and leaves no wrapper installed;
* the metric names the benchmark prints, traced and untraced, and its
  workload names equal those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    declared = run.read_manifest(root)
    hk = run.import_engine(root / "src")
    reference = workloads.load_reference()["grid"]
    problems = []

    def smoke(seed):
        cfg = hk.verifier.InstanceConfig(n=1, b2=4, seed=seed)
        return [workloads.Op("1x4", lambda: hk.verifier.run_instance(cfg),
                             workloads.verify_content)]

    for seed in (0, 1):
        p = run.run_pass("grid", smoke(seed), reference)
        if p["ops"][0]["error"] is not None:
            problems.append(f"seed {seed}: {p['ops'][0]['error']}")
    base = run.run_pass("grid", smoke(0), reference)

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_pass("grid", smoke(0), reference, tracer)
    finally:
        tracer.uninstall()
    left = spans.leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    layer = run.per_layer(base, traced, tracer)
    for name in ("llv.frame_calculus.calls", "linalg.rref.calls",
                 "filtrations.crosscheck_perverse_weight.calls"):
        if not layer[name]:
            problems.append(f"{name} recorded no call")

    e2e = run.end_to_end([base], 0.0, 1.0)
    for kind, got in (("end_to_end", e2e), ("per_layer", layer)):
        diff = sorted(set(got) ^ set(declared[kind]))
        if diff:
            problems.append(f"{kind} names differ from BENCHMARK.json: {diff}")
    if sorted(declared["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")

    for problem in problems:
        print(f"selfcheck FAILED: {problem}")
    if not problems:
        print("selfcheck ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
