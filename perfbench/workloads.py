"""The benchmark's workloads: the ops of one pass and what each must output.

Every op is one user-level job, called through hklab's public functions:

* ``grid``: one ``run_instance`` (what ``hklab verify --n N --b2 B`` runs);
* ``build_wide``: one ``hklab build``, i.e. ``build_instance`` followed by
  ``GradedAlgebra.dump_canonical``;
* ``ingest``: one ``hklab verify --module``, i.e. ``load_module`` and
  ``validate``, then for a valid module with odd degrees ``build_frame``,
  ``check_odd``, ``module_frame_calculus`` and ``check_betti_mod4``.

An op's *content* is the part of its output that does not depend on the
seed; the correctness gate compares it with ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The instances of the default grid n in {1,2,3} x b2 in {4..7} with
# n + b2 <= 7: many small instances, so per-instance fixed costs show, and
# (3,4) runs build, operators and filtrations.  A pass takes about 2 s, so a
# run holds enough passes for steady medians; the larger instances take 4 to
# 30 s each.
GRID = tuple((n, b2) for n in (1, 2, 3) for b2 in (4, 5, 6, 7)
             if n + b2 <= 7)

# Quotient construction only: llv, filtrations and linalg elimination are
# never called, so this is the no-change control for those layers.  (2,14)
# and (2,23) exceed the modular reducer's column cap and fail.  (2,10) and
# (2,12), at 3.5 and 23 s, would leave too few passes in a run.
BUILD_WIDE = ((1, 23), (2, 8), (2, 14), (2, 23))

# Module ingestion: the committed fixtures, a generated spinor module and
# exports of built algebras.  The corrupted and shifted fixtures must be
# rejected by validation.
INGEST_FIXTURES = ("corrupted_module", "ladder_module", "sh_module",
                   "shifted_module", "spin_module")
INGEST_SPIN_N = 3
INGEST_EXPORTS = ((3, 4), (4, 4), (2, 5), (3, 5))

WORKLOADS = ("grid", "build_wide", "ingest")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    label: str
    run: Callable          # () -> raw output; this call is what is timed
    content: Callable      # raw output -> seed-invariant content (a dict)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def oracle_dims(n: int, b2: int) -> dict:
    """Closed-form graded dimensions: dim SH^(2k) = dim Sym^min(k, 2n-k)."""
    from math import comb
    return {str(2 * k): comb(b2 + min(k, 2 * n - k) - 1, min(k, 2 * n - k))
            for k in range(0, 2 * n + 1)}


# -- grid ----------------------------------------------------------------------

def verify_content(report) -> dict:
    full = report.to_json()
    out = {key: full[key] for key in ("dims", "profile", "m_bracket_scalar",
                                      "tables")}
    out["verdicts"] = [[v.claim, v.passed, v.asserted] for v in report.verdicts]
    return out


def _grid_ops(hk) -> list:
    # The engine seed stays 0, the default of `hklab verify`: other seeds
    # pick a non-canonical frame whose rationals make (3,7) cost 2.5 to 4
    # times as much, so the seed would set the measured time.
    ops = []
    for n, b2 in GRID:
        cfg = hk.verifier.InstanceConfig(n=n, b2=b2, seed=0)
        ops.append(Op(f"{n}x{b2}",
                      lambda cfg=cfg: hk.verifier.run_instance(cfg),
                      verify_content))
    return ops


# -- build_wide ----------------------------------------------------------------

def _build_content(text: str) -> dict:
    obj = json.loads(text)
    obj.pop("build", None)     # seed and budget metadata
    return {"dims": {str(2 * int(k)): level["dim"]
                     for k, level in obj["levels"].items()},
            "sha256": digest(obj)}


def _build_ops(hk, seed: int) -> list:
    ops = []
    for n, b2 in BUILD_WIDE:
        cfg = hk.verifier.InstanceConfig(n=n, b2=b2, seed=seed)
        ops.append(Op(f"{n}x{b2}",
                      lambda cfg=cfg: hk.verifier.build_instance(
                          cfg).dump_canonical(),
                      _build_content))
    return ops


# -- ingest --------------------------------------------------------------------

def _verify_module(hk, text: str, seed: int) -> dict:
    """The `hklab verify --module` path on one module document."""
    spec = hk.module_io.load_module(text)
    report = hk.module_io.validate(spec)
    out = {"checks": [[c.name, c.passed] for c in report.checks],
           "verdicts": []}
    if report.all_passed and spec.odd_degrees():
        frame = hk.llv.build_frame(spec.space, seed=seed)
        odd = hk.verifier.check_odd(spec, frame)
        fc = hk.module_io.module_frame_calculus(spec, frame)
        big = hk.llv.bigrading_from_operators(spec.degrees, spec.n, fc.H_s,
                                              fc.H_sbar, fc.H_beta)
        betti = hk.verifier.check_betti_mod4(big, spec.degrees)
        out["verdicts"] = [[v.claim, v.passed, v.asserted]
                           for v in odd + betti]
    return out


def ingest_documents(hk, root: Path, seed: int) -> dict:
    """label -> module JSON text, built here in set-up.

    An export whose build fails at this seed (the sampler can exhaust its
    budget) maps to the exception instead, and its op fails with it.
    """
    docs = {}
    for name in INGEST_FIXTURES:
        docs[name] = (root / "fixtures" / f"{name}.json").read_text(
            encoding="utf-8")
    docs[f"spin{INGEST_SPIN_N}"] = hk.module_io.dump_canonical(
        hk.module_io.make_spin_module(INGEST_SPIN_N))
    for n, b2 in INGEST_EXPORTS:
        try:
            alg = hk.verifier.build_instance(
                hk.verifier.InstanceConfig(n=n, b2=b2, seed=seed))
            doc = hk.module_io.dump_canonical(hk.module_io.export_module(alg))
        except Exception as exc:  # reported by the op, as a failed op
            doc = exc
        docs[f"export-{n}x{b2}"] = doc
    return docs


def _verify_document(hk, doc, seed: int) -> dict:
    if isinstance(doc, Exception):
        raise doc
    return _verify_module(hk, doc, seed)


def _ingest_ops(hk, root: Path, seed: int) -> list:
    return [Op(label, lambda doc=doc: _verify_document(hk, doc, seed),
               lambda content: content)
            for label, doc in ingest_documents(hk, root, seed).items()]


# -- the gate ------------------------------------------------------------------

def make_ops(workload: str, hk, root: Path, seed: int) -> list:
    """The ops of one pass, in an order drawn from the seed.

    On build_wide and ingest the seed is also the engine seed, given to
    ``InstanceConfig.seed`` and ``build_frame``.
    """
    if workload == "grid":
        ops = _grid_ops(hk)
    elif workload == "build_wide":
        ops = _build_ops(hk, seed)
    elif workload == "ingest":
        ops = _ingest_ops(hk, root, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def mismatch(workload: str, expected: dict, content: dict):
    """None when the content matches the reference, else a short reason.

    Verify ops are compared by digest, module ops field by field.  A build
    is compared by its graded dimensions and, where the reference records
    one, by the digest of its canonical JSON without build metadata.
    """
    if expected is None:
        return "no reference recorded"
    if workload == "grid":
        got = digest(content)
        return None if got == expected["sha256"] else \
            f"content digest {got[:12]} != {expected['sha256'][:12]}"
    if workload == "build_wide":
        if content["dims"] != expected["dims"]:
            return f"dims {content['dims']} != {expected['dims']}"
        if expected["sha256"] is not None and \
                content["sha256"] != expected["sha256"]:
            return (f"algebra digest {content['sha256'][:12]} != "
                    f"{expected['sha256'][:12]}")
        return None
    for key in ("checks", "verdicts"):
        if content[key] != expected[key]:
            return f"{key} {content[key]} != {expected[key]}"
    return None
