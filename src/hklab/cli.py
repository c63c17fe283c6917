"""Command-line front end.

Subcommands

  build      construct a graded-algebra instance and write its JSON
  verify     run the verification suite on instances, a grid, or a module
  diamond    print the (q, i) diamond table of one degree
  transport  move one isotropic plane onto another inside SO(q)
  export     write the operator-module JSON of a built instance
  validate   run the structural checks on an operator-module JSON

All randomness is seeded (flag --seed, else HKLAB_SEED, else 0) and every
output is canonical JSON, so identical invocations produce identical bytes.
verify writes its per-phase timings to stderr, one JSON line per instance.
Exit codes: 0 success / all asserted checks pass, 1 verification failure,
2 usage or construction error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from hklab.linalg import qq
from hklab.llv import bigrading, build_frame, frame_calculus
from hklab.module_io import (
    SchemaError,
    algebra_module,
    dump_canonical,
    export_module,
    load_module,
    validate,
)
from hklab.quadforms import (
    IsotropicPlane,
    QuadFormError,
    QuadraticSpace,
    TwoOrbitObstruction,
    json_fields,
    witt_transport,
)
from hklab.verbitsky import BuildError, GradedAlgebra, canonical_json
from hklab.verifier import (
    DEFAULT_GRID,
    InstanceConfig,
    build_instance,
    check_betti_mod4,
    check_odd,
    diamond_report,
    exit_code,
    run_instance,
)


def _default_seed(ap: argparse.ArgumentParser) -> int:
    """HKLAB_SEED as an integer, 0 when unset; any other value is a usage
    error (exit 2)."""
    text = os.environ.get("HKLAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        ap.error(f"HKLAB_SEED must be an integer, got {text!r}")


def _parse_tail(text):
    if not text:
        return ()
    return tuple(qq(part) for part in text.split(","))


def _parse_grid(text: str):
    if text == "default":
        return DEFAULT_GRID
    grid = []
    for part in text.split(","):
        n_str, b_str = part.lower().split("x")
        grid.append((int(n_str), int(b_str)))
    return tuple(grid)


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _write_timings(report) -> None:
    """One JSON line of per-phase seconds on stderr, apart from the report."""
    sys.stderr.write(canonical_json({
        "n": report.config.n, "b2": report.config.b2,
        "timings": {k: round(v, 3) for k, v in report.timings.items()}}))


def _instance_config(args) -> InstanceConfig:
    return InstanceConfig(n=args.n, b2=args.b2, tail=_parse_tail(args.tail),
                          seed=args.seed)


def _add_instance_flags(p: argparse.ArgumentParser, seed: int,
                        require: bool = True) -> None:
    p.add_argument("--n", type=int, required=require,
                   help="half complex dimension (manifold dimension 2n)")
    p.add_argument("--b2", type=int, required=require,
                   help="dimension of the degree-2 space (at least 4)")
    p.add_argument("--tail", default="",
                   help="comma-separated diagonal tail entries (length b2-4)")
    p.add_argument("--seed", type=int, default=seed,
                   help="deterministic seed (default: HKLAB_SEED or 0)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hklab",
        description="exact-arithmetic engine for Lefschetz-type operator "
                    "algebra on hyperkahler-style graded algebras")
    seed = _default_seed(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an instance, write algebra JSON")
    _add_instance_flags(p, seed)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("verify", help="run the verification suite")
    _add_instance_flags(p, seed, require=False)
    p.add_argument("--grid", default=None,
                   help="'default' or explicit list like '1x4,2x5'")
    p.add_argument("--module", default=None,
                   help="operator-module JSON to validate and analyse")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("diamond", help="print a (q, i) diamond table")
    _add_instance_flags(p, seed, require=False)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--in", dest="in_path", default=None,
                   help="algebra JSON produced by 'build'")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("transport",
                       help="special-orthogonal transport between isotropic planes")
    p.add_argument("--in", dest="in_path", required=True,
                   help="JSON file with space, p1, p2")
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="export a built instance as a module")
    _add_instance_flags(p, seed)
    p.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="validate an operator-module JSON")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    return ap


def _cmd_build(args) -> int:
    alg = build_instance(_instance_config(args))
    _write(alg.dump_canonical(), args.out)
    return 0


def _load_algebra(args) -> GradedAlgebra:
    if args.in_path:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            return GradedAlgebra.from_json(json.load(fh))
    if args.n is None or args.b2 is None:
        raise QuadFormError("need --n/--b2 or --in")
    return build_instance(_instance_config(args))


def _cmd_verify(args) -> int:
    if args.module:
        spec = load_module(args.module)
        report = validate(spec)
        payload = {"module": args.module, "validation": report.to_json()}
        code = 0 if report.all_passed else 1
        if report.all_passed and spec.odd_degrees():
            frame = build_frame(spec.space, seed=args.seed)
            fc = frame_calculus(spec, frame)
            big = bigrading(spec, fc)
            odd = check_odd(spec, frame, fc, big)
            betti = check_betti_mod4(big, spec.degrees)
            payload["odd_verdicts"] = [v.to_json() for v in odd]
            payload["betti_verdicts"] = [v.to_json() for v in betti]
            if any(not v.passed for v in odd + betti if v.asserted):
                code = 1
        if args.format == "text":
            lines = [report.render_text()]
            for v in payload.get("odd_verdicts", []) + payload.get(
                    "betti_verdicts", []):
                status = "pass" if v["passed"] else "FAIL"
                lines.append(f"{status}  {v['claim']} -> {v['observed']}")
            _write("\n".join(lines) + "\n", args.out)
        else:
            _write(canonical_json(payload), args.out)
        return code

    if args.grid:
        grid = _parse_grid(args.grid)
        reports = []
        for n, b2 in grid:
            cfg = InstanceConfig(n=n, b2=b2, seed=args.seed)
            reports.append(run_instance(cfg))
            _write_timings(reports[-1])
        payload = [r.to_json() for r in reports]
        if args.format == "text":
            lines = []
            for r in reports:
                status = "pass" if r.all_asserted_passed else "FAIL"
                lines.append(f"{status}  n={r.config.n} b2={r.config.b2} "
                             f"dims={list(r.dims.values())}")
            _write("\n".join(lines) + "\n", args.out)
        else:
            _write(canonical_json({"reports": payload}), args.out)
        return exit_code(reports)

    if args.n is None or args.b2 is None:
        raise QuadFormError("verify needs --n/--b2, --grid, or --module")
    cfg = _instance_config(args)
    report = run_instance(cfg)
    _write_timings(report)
    if args.format == "text":
        lines = [report.header]
        for v in report.verdicts:
            status = "pass" if v.passed else "FAIL"
            tag = "" if v.asserted else " (recorded)"
            lines.append(f"{status}{tag}  {v.claim} -> {v.observed}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(canonical_json(report.to_json()), args.out)
    return exit_code(report)


def _cmd_diamond(args) -> int:
    alg = _load_algebra(args)
    frame = build_frame(alg.space, seed=args.seed)
    module = algebra_module(alg)
    big = bigrading(module, frame_calculus(module, frame))
    table = diamond_report(big, args.degree)
    if args.format == "json":
        _write(canonical_json(table.to_json()), args.out)
    else:
        _write(table.render_text() + "\n", args.out)
    return 0


def _cmd_transport(args) -> int:
    with open(args.in_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    json_fields(obj, "transport document", ("space", "p1", "p2"))
    space = QuadraticSpace.from_json(obj["space"])
    planes = []
    for name in ("p1", "p2"):
        pair = obj[name]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, list) for v in pair)):
            raise QuadFormError(f"transport document: {name} must be a "
                                "pair of vectors")
        planes.append(IsotropicPlane(space, *([qq(c) for c in v]
                                              for v in pair)))
    iso = witt_transport(space, *planes)
    _write(canonical_json(iso.to_json()), args.out)
    return 0


def _cmd_export(args) -> int:
    alg = build_instance(_instance_config(args))
    _write(dump_canonical(export_module(alg)), args.out)
    return 0


def _cmd_validate(args) -> int:
    spec = load_module(args.in_path)
    report = validate(spec)
    if args.format == "json":
        _write(canonical_json(report.to_json()), args.out)
    else:
        _write(report.render_text() + "\n", args.out)
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "verify": _cmd_verify,
        "diamond": _cmd_diamond,
        "transport": _cmd_transport,
        "export": _cmd_export,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except TwoOrbitObstruction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BuildError, QuadFormError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
