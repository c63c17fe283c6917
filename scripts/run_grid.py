#!/usr/bin/env python3
"""Run the full verification grid and write one report per instance.

Usage:
    python scripts/run_grid.py [outdir] [--seed S]

Writes outdir/report-nN-bB.json for every grid instance plus a summary
line per instance on stdout; exits nonzero if any asserted verdict fails.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hklab.verbitsky import canonical_json
from hklab.verifier import DEFAULT_GRID, InstanceConfig, exit_code, run_instance


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="reports")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(exist_ok=True)
    reports = []
    for n, b2 in DEFAULT_GRID:
        t0 = time.perf_counter()
        cfg = InstanceConfig(n=n, b2=b2, seed=args.seed)
        rep = run_instance(cfg)
        reports.append(rep)
        path = outdir / f"report-n{n}-b{b2}.json"
        path.write_text(canonical_json(rep.to_json()), encoding="utf-8")
        status = "pass" if rep.all_asserted_passed else "FAIL"
        print(f"{status}  n={n} b2={b2} dims={list(rep.dims.values())} "
              f"({time.perf_counter() - t0:.1f}s) -> {path}")
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
