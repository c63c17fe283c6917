#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the correctness gate's reference.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

Every op of every workload runs once at seed 0 and its seed-invariant
content is recorded.  An op that raises has no output to record, so its
reference is what the op must produce once it works:

* a build: its closed-form graded dimensions, with no algebra digest;
* an export: the content every export of a built algebra gives, taken from
  the first export that succeeds (all validation checks pass, no odd part).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import import_engine  # noqa: E402


def main() -> int:
    root = Path.cwd()
    hk = import_engine(root / "src")
    reference = {}
    for workload in workloads.WORKLOADS:
        entries = {}
        failed = []
        for op in sorted(workloads.make_ops(workload, hk, root, 0),
                         key=lambda op: op.label):
            try:
                content = op.content(op.run())
            except Exception as exc:  # recorded below, like the benchmark
                print(f"{workload} {op.label}: {type(exc).__name__}: {exc}")
                failed.append(op.label)
                continue
            if workload == "grid":
                entries[op.label] = {"sha256": workloads.digest(content)}
            else:
                entries[op.label] = content
            print(f"{workload} {op.label}: recorded")
        for label in failed:
            if workload == "build_wide":
                n, b2 = (int(x) for x in label.split("x"))
                entries[label] = {"dims": workloads.oracle_dims(n, b2),
                                  "sha256": None}
            elif workload == "ingest" and label.startswith("export-"):
                done = sorted(k for k in entries if k.startswith("export-"))
                entries[label] = entries[done[0]]
            else:
                raise SystemExit(f"no reference for failing op {label}")
        if workload == "build_wide":
            for label, entry in entries.items():
                n, b2 = (int(x) for x in label.split("x"))
                if entry["dims"] != workloads.oracle_dims(n, b2):
                    raise SystemExit(f"{label}: dims differ from the oracle")
        reference[workload] = dict(sorted(entries.items()))
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
