#!/usr/bin/env python3
"""hklab benchmark: runs one workload and prints its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json``.  A run imports hklab from the
checkout's ``src/``, generates the workload's inputs from ``--seed`` and runs
whole passes over its ops, one after another in this process, until
``--seconds`` have passed (always at least ``MIN_PASSES`` passes).  Every
op's output is checked against ``perfbench/reference.json``; an op that
raises or mismatches is a failed op.

``--trace 0`` prints the end-to-end metrics.  Each op's time is the median
over the run's passes, which keeps out the bursts in which a shared host
runs this process far slower; ``wall_s`` is the sum of those medians, the
time of one typical pass.  The host's speed also drifts between runs, so
every op is preceded by a fixed probe (see ``hostspeed.py``), run for about
a fifth of the op's time, and the reported times are scaled to a host that
runs the probe in ``hostspeed.REFERENCE_S``; the raw times are printed too.

``--trace 1`` runs one pass untraced and one pass with wrappers around each
layer's functions (see ``spans.py``), prints the per-layer metrics, whose
times are not scaled, and writes the spans to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 7
SETUP_REPEATS = 3
MIN_PASSES = 3
# Before each op the probe runs for at least this share of the op's time in
# the previous pass, so that the probe's median is as steady as the ops'.
PROBE_SHARE = 0.2

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import hklab; "
                "print(time.perf_counter() - t)")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no engine source, no manifest)."""


def _import_seconds(src: Path) -> float:
    """Time to import hklab in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def import_engine(src: Path) -> SimpleNamespace:
    sys.path.insert(0, str(src))
    hk = SimpleNamespace()
    for name in ("linalg", "llv", "module_io", "verifier"):
        setattr(hk, name, importlib.import_module(f"hklab.{name}"))
    where = Path(hk.verifier.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"hklab was imported from {where}, not from {src}")
    return hk


def environment(root: Path, hk) -> dict:
    import numpy
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    # A checkout need not be a git repository, so the sources' digest
    # identifies the code as well.
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((root / "src").rglob("*.py"))]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "scalar_backend": hk.linalg.QQ.__module__,
            "nproc": os.cpu_count(),
            "git_revision": revision,
            "src_lines": sum(len(text.splitlines()) for text in sources),
            "src_sha256": workloads.digest(sources)}


def run_pass(workload: str, ops: list, reference: dict, tracer=None,
             previous=None) -> dict:
    """Run every op once, each after host-speed probes: one, or as many as
    fill ``PROBE_SHARE`` of the op's time in ``previous``, the pass before.
    The pass's wall time is the sum of its ops' times; the probes and the
    correctness checks between ops are not counted."""
    last = {r["label"]: r["seconds"] for r in previous["ops"]} \
        if previous else {}
    records = []
    phases = {}
    probes = []
    for op in ops:
        error = None
        gc.collect()   # every op starts from the same collector state
        budget = PROBE_SHARE * last.get(op.label, 0.0)
        probed = 0.0
        while not probed or probed < budget:
            probes.append(hostspeed.probe_seconds())
            probed += probes[-1]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = op.run()
            else:
                with tracer.span("op"):
                    raw = op.run()
        except Exception as exc:  # an op that raises is a failed op
            seconds = time.perf_counter() - t0
            error = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
        else:
            seconds = time.perf_counter() - t0
            for phase, s in (getattr(raw, "timings", None) or {}).items():
                phases[phase] = phases.get(phase, 0.0) + s
            reason = workloads.mismatch(workload, reference.get(op.label),
                                        op.content(raw))
            if reason is not None:
                error = f"Mismatch: {reason}"
            del raw
        records.append({"label": op.label, "seconds": seconds,
                        "error": error})
    return {"wall_s": sum(r["seconds"] for r in records), "ops": records,
            "phases": phases, "probes": probes}


def _print_pass(workload: str, i: int, p: dict) -> None:
    failed = sum(r["error"] is not None for r in p["ops"])
    print(f"pass {i}: {p['wall_s']:.4f} s, {len(p['ops'])} ops, "
          f"{failed} failed")
    for r in p["ops"]:
        status = "ok" if r["error"] is None else f"FAILED {r['error']}"
        print(f"  op {workload} {r['label']} {r['seconds']:.4f} s {status}")


def op_medians(passes: list) -> dict:
    """label -> the op's median time over the passes."""
    times = {}
    for p in passes:
        for r in p["ops"]:
            times.setdefault(r["label"], []).append(r["seconds"])
    return {label: statistics.median(ts) for label, ts in times.items()}


def speed_scale(probes: list) -> float:
    """Factor that turns this run's seconds into seconds on the reference
    host: the probe's reference time over its median time in the run."""
    return hostspeed.REFERENCE_S / statistics.median(probes)


def end_to_end(passes: list, setup_s: float, scale: float) -> dict:
    """Metrics of the passes, with every time multiplied by ``scale``."""
    ops = [r for p in passes for r in p["ops"]]
    ok = sum(r["error"] is None for r in ops)
    medians = op_medians(passes)
    return {
        "wall_s": sum(medians.values()) * scale,
        "slowest_op_s": max(medians.values()) * scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops_ok_frac": ok / len(ops),
    }


def per_layer(base: dict, traced: dict, tracer) -> dict:
    out = tracer.summary()
    tried = out["modp.insert.calls"]
    out["modp.accept_ratio"] = \
        out["modp.insert.accepted"] / tried if tried else 0.0
    for phase in ("build", "operators", "operator_checks", "filtrations"):
        out[f"verifier.phase.{phase}.s"] = traced["phases"].get(phase, 0.0)
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    return out


def read_manifest(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    try:
        declared = read_manifest(root)
        if not (src / "hklab" / "__init__.py").is_file():
            raise SetupError(f"no hklab sources under {src}")
        if args.workload not in declared["workloads"]:
            raise SetupError(f"{args.workload} is not in BENCHMARK.json")
        reference = workloads.load_reference()[args.workload]
        probes = []
        imports = []
        for _ in range(IMPORT_REPEATS):
            probes.append(hostspeed.probe_seconds())
            imports.append(_import_seconds(src))
        hk = import_engine(src)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Set-up (importing hklab, generating the inputs) is repeated and the
    # medians reported, so that work moved into set-up shows as a steady
    # number.
    generate = []
    for _ in range(SETUP_REPEATS):
        probes.append(hostspeed.probe_seconds())
        t0 = time.perf_counter()
        ops = workloads.make_ops(args.workload, hk, root, args.seed)
        generate.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(generate)

    print("env " + json.dumps(environment(root, hk), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}")

    if args.trace == 0:
        passes = []
        t_start = time.perf_counter()
        while len(passes) < MIN_PASSES \
                or time.perf_counter() - t_start < args.seconds:
            passes.append(run_pass(args.workload, ops, reference,
                                   previous=passes[-1] if passes else None))
        for p in passes:
            probes.extend(p["probes"])
        scale = speed_scale(probes)
        raw = end_to_end(passes, setup_s, 1.0)
        print(f"host probe median {statistics.median(probes):.5f} s over "
              f"{len(probes)} probes, reference {hostspeed.REFERENCE_S} s, "
              f"scale {scale:.4f}")
        for name in ("wall_s", "slowest_op_s", "setup_s"):
            print(f"raw {name} {raw[name]!r} s")
        metrics = end_to_end(passes, setup_s, scale)
        declared_units = declared["end_to_end"]
    else:
        base = run_pass(args.workload, ops, reference)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, ops, reference, tracer)
        finally:
            tracer.uninstall()
        leftovers = spans.leftover_wrappers()
        if leftovers:
            print(f"error: wrappers left installed: {leftovers}",
                  file=sys.stderr)
            return 3
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        passes = [base, traced]
        metrics = per_layer(base, traced, tracer)
        declared_units = declared["per_layer"]

    for i, p in enumerate(passes, 1):
        _print_pass(args.workload, i, p)
    if args.trace == 0:
        for label, s in sorted(op_medians(passes).items()):
            print(f"median op {args.workload} {label} {s:.4f} s "
                  f"over {len(passes)} passes")
    if set(metrics) != set(declared_units):
        print("error: metric names differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared_units))}",
              file=sys.stderr)
        return 3

    ops_run = [r for p in passes for r in p["ops"]]
    failed = sum(r["error"] is not None for r in ops_run)
    mismatched = sum(r["error"] is not None
                     and r["error"].startswith("Mismatch") for r in ops_run)
    print(f"ops_failed_frac {failed / len(ops_run):.4f} "
          f"({failed} of {len(ops_run)} ops failed, "
          f"{len(passes[0]['ops'])} ops per pass)")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {declared_units[name]}")
    result = {
        "correct": mismatched == 0,
        "attempted": len(ops_run),
        "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": declared_units[name]}
                    for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
