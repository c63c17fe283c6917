"""Ingestion, validation and export of operator modules.

An operator module is a graded rational vector space with one degree +2
operator per basis vector of an attached quadratic space, plus the counting
operator.  Built algebras export to this format losslessly; externally
produced modules (in particular odd-degree ones, which the built algebras
do not contain) are ingested, validated against the structural relations,
and only then passed to the analysis layer.

Shipped fixture generators: a faithful export, a corrupted variant, an
elementary one-variable ladder, a deliberately mis-graded shift, and a
spinor module over the hyperbolic extension of a 4-dimensional space (the
smallest honest module with odd degrees; its construction is a split
Clifford algebra acting on an exterior algebra of a maximal isotropic
subspace).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import jsonschema

from hklab.linalg import QQ, LinalgError, Mat, qq, vec
from hklab.llv import (
    GradedOperator,
    NotLefschetzError,
    OperatorError,
    anisotropic_basis,
    combine,
    commutator_op,
    grading,
    linear_dual_table,
)
from hklab.quadforms import QuadraticSpace, make_standard_space, mukai_extension
from hklab.verbitsky import GradedAlgebra, canonical_json

MODULE_FORMAT = "hklab-llv-module"
MODULE_VERSION = 1

_ZERO = QQ(0)
_ONE = QQ(1)


class SchemaError(ValueError):
    """Document violates the module schema or its structural constraints."""


SCHEMA_PATH = Path(__file__).with_name("llv_module.schema.json")


def _schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


# -- data model ----------------------------------------------------------------

@dataclass(eq=False)
class LLVModuleSpec:
    """A validated-shape (not yet relation-checked) operator module.

    Specs are not mutated after construction and compare by identity, so a
    spec can key the cache of its dual-Lefschetz table.
    """

    space: QuadraticSpace
    n: int
    degrees: dict
    h_action: GradedOperator
    l_actions: list          # one GradedOperator (offset +2) per basis vector
    lambda_basis: Optional[list] = None
    lambda_actions: Optional[list] = None
    label: str = ""

    def l_of(self, x: Sequence) -> GradedOperator:
        return combine(vec(x), self.l_actions)

    def odd_degrees(self) -> list:
        return sorted(d for d, m in self.degrees.items() if d % 2 and m)


# -- serialisation ---------------------------------------------------------------

def _blocks_to_json(op: GradedOperator) -> dict:
    return {str(d): [[str(e) for e in row] for row in m.data]
            for d, m in sorted(op.blocks.items())}


def _blocks_from_json(obj: dict, degrees: dict, offset: int,
                      what: str) -> GradedOperator:
    blocks = {}
    for dstr, rows in obj.items():
        d = int(dstr)
        # An empty list is a block into a zero-dimensional target.
        m = Mat.from_rows([[qq(e) for e in row] for row in rows]) \
            if rows else Mat.zeros(0, degrees.get(d, 0))
        exp = (degrees.get(d + offset, 0), degrees.get(d, 0))
        if m.shape != exp:
            raise SchemaError(
                f"{what}: block at degree {d} has shape {m.shape}, "
                f"expected {exp}")
        blocks[d] = m
    try:
        return GradedOperator(degrees, offset, blocks)
    except OperatorError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def load_module(source) -> LLVModuleSpec:
    """Parse a module document (dict, JSON text, or path) with exact rationals.

    Raises SchemaError on any schema or shape violation.
    """
    if isinstance(source, dict):
        obj = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        elif "\n" not in str(source) and str(source).endswith(".json"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(obj, _schema())
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"schema violation: {exc.message}") from exc

    space = QuadraticSpace.from_json(obj["space"])
    n = obj["n"]
    degrees = {int(d): m for d, m in obj["degrees"].items()}
    if len(obj["L_actions"]) != space.dim:
        raise SchemaError("L_actions must have one entry per basis vector")
    h_action = _blocks_from_json(obj["h_action"], degrees, 0, "h_action")
    l_actions = [_blocks_from_json(blk, degrees, 2, f"L_actions[{s}]")
                 for s, blk in enumerate(obj["L_actions"])]
    lam_basis = lam_actions = None
    if "Lambda_actions" in obj:
        lam = obj["Lambda_actions"]
        lam_basis = [vec(v) for v in lam["basis"]]
        if any(len(v) != space.dim for v in lam_basis):
            raise SchemaError("Lambda basis vectors have wrong length")
        if len(lam["blocks"]) != len(lam_basis):
            raise SchemaError("Lambda blocks do not match basis length")
        lam_actions = [_blocks_from_json(blk, degrees, -2, f"Lambda[{s}]")
                       for s, blk in enumerate(lam["blocks"])]
    return LLVModuleSpec(space=space, n=n, degrees=degrees,
                         h_action=h_action, l_actions=l_actions,
                         lambda_basis=lam_basis, lambda_actions=lam_actions,
                         label=obj.get("label", ""))


def module_to_json(spec: LLVModuleSpec) -> dict:
    out = {
        "format": MODULE_FORMAT,
        "version": MODULE_VERSION,
        "n": spec.n,
        "space": spec.space.to_json(),
        "degrees": {str(d): m for d, m in sorted(spec.degrees.items())},
        "h_action": _blocks_to_json(spec.h_action),
        "L_actions": [_blocks_to_json(op) for op in spec.l_actions],
    }
    if spec.label:
        out["label"] = spec.label
    if spec.lambda_basis is not None:
        out["Lambda_actions"] = {
            "basis": [[str(c) for c in v] for v in spec.lambda_basis],
            "blocks": [_blocks_to_json(op) for op in spec.lambda_actions],
        }
    return out


def dump_canonical(obj: dict) -> str:
    return canonical_json(obj)


def export_module(alg: GradedAlgebra, label: str = "") -> dict:
    """Lossless export of a built algebra's operator data.

    Includes the linear dual operators for the canonical anisotropic basis,
    so a re-validation exercises the declared-Lambda checks.
    """
    from hklab.llv import lambda_linear, lefschetz
    space = alg.space
    degrees = alg.dims()
    unit = lambda s: [_ONE if j == s else _ZERO for j in range(space.dim)]
    l_actions = [lefschetz(alg, unit(s)) for s in range(space.dim)]
    basis = anisotropic_basis(space, variant=0)
    lam_actions = [lambda_linear(alg, x) for x in basis]
    spec = LLVModuleSpec(
        space=space, n=alg.n, degrees=degrees,
        h_action=grading(alg),
        l_actions=l_actions,
        lambda_basis=[vec(x) for x in basis],
        lambda_actions=lam_actions,
        label=label or f"graded algebra export (n={alg.n}, b2={space.dim})")
    return module_to_json(spec)


# -- validation ------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "witness": c.witness} for c in self.checks]}

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f"  [{c.witness}]" if c.witness and not c.passed else ""
            lines.append(f"{status}  {c.name}{suffix}")
        lines.append("result: " + ("all-pass" if self.all_passed else "FAILED"))
        return "\n".join(lines)


_REPORT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def validation_report(spec: LLVModuleSpec) -> ValidationReport:
    """The report of the last validate(spec), validating first if none."""
    rep = _REPORT_CACHE.get(spec)
    return rep if rep is not None else validate(spec)


def validate(spec: LLVModuleSpec) -> ValidationReport:
    """Run the structural relation checks; failures land in the report.

    The report is also kept per spec (specs are never mutated), so that
    later analyses of the same spec read it through validation_report.
    """
    rep = ValidationReport()
    n = spec.n
    dims = spec.degrees

    ok, witness = True, ""
    for d, m in sorted(dims.items()):
        if m == 0:
            continue
        expect = Mat.identity(m).scale(d - 2 * n)
        if spec.h_action.block(d) != expect:
            ok, witness = False, f"degree {d}: h block is not (d-2n) id"
            break
    rep.checks.append(Check("h-eigenvalues", ok, witness))

    ok, witness = True, ""
    for s, l_s in enumerate(spec.l_actions):
        if commutator_op(spec.h_action, l_s) != l_s.scale(2):
            ok, witness = False, f"[h, L_{s}] != 2 L_{s}"
            break
    rep.checks.append(Check("h-L-commutation", ok, witness))

    ok, witness = True, ""
    for s in range(len(spec.l_actions)):
        for t in range(s + 1, len(spec.l_actions)):
            if not commutator_op(spec.l_actions[s],
                                 spec.l_actions[t]).is_zero():
                ok, witness = False, f"[L_{s}, L_{t}] != 0"
                break
        if not ok:
            break
    rep.checks.append(Check("L-commutativity", ok, witness))

    table = None
    ok, witness = True, ""
    try:
        table = module_lambda_table(spec)
    except (NotLefschetzError, OperatorError, LinalgError) as exc:
        ok, witness = False, str(exc)
    rep.checks.append(Check("dual-completions-and-linearity", ok, witness))

    if table is not None:
        ok, witness = True, ""
        for s, lam_s in enumerate(table):
            if commutator_op(spec.h_action, lam_s) != lam_s.scale(-2):
                ok, witness = False, f"[h, Lambda_{s}] != -2 Lambda_{s}"
                break
        rep.checks.append(Check("h-Lambda-commutation", ok, witness))

    if spec.lambda_actions is not None:
        ok, witness = True, ""
        for x, lam in zip(spec.lambda_basis, spec.lambda_actions):
            qx = spec.space.quad(x)
            bracket = commutator_op(spec.l_of(x), lam)
            if bracket != spec.h_action.scale(qx / 2):
                ok, witness = False, "declared Lambda fails [L_x, Lam_x] = (q(x)/2) h"
                break
        rep.checks.append(Check("declared-lambda-brackets", ok, witness))
        if table is not None:
            ok, witness = True, ""
            for x, lam in zip(spec.lambda_basis, spec.lambda_actions):
                if combine(x, table) != lam:
                    ok, witness = False, "declared Lambda differs from recomputed"
                    break
            rep.checks.append(Check("declared-lambda-agreement", ok, witness))
    _REPORT_CACHE[spec] = rep
    return rep


_MODULE_LAMBDA_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def module_lambda_table(spec: LLVModuleSpec) -> list:
    """The module's linear dual-Lefschetz table, computed once per spec."""
    table = _MODULE_LAMBDA_CACHE.get(spec)
    if table is None:
        table = linear_dual_table(spec.space, spec.n, spec.l_of)
        _MODULE_LAMBDA_CACHE[spec] = table
    return table


def module_frame_calculus(spec: LLVModuleSpec, frame):
    """FrameCalculus over an ingested module (validation should be all-pass)."""
    from hklab.llv import frame_calculus_generic
    table = module_lambda_table(spec)
    return frame_calculus_generic(frame, spec.n, spec.l_of,
                                  lambda y: combine(vec(y), table),
                                  grading(spec.degrees, spec.n))


# -- fixtures ---------------------------------------------------------------------

def make_ladder_module() -> dict:
    """Minimal valid module: one variable of norm 2, a single sl2 ladder."""
    space = QuadraticSpace(Mat.from_rows([[2]]))
    degrees = {0: 1, 2: 1, 4: 1}
    one = Mat.from_rows([[1]])
    l0 = GradedOperator(degrees, 2, {0: one, 2: one})
    spec = LLVModuleSpec(
        space=space, n=1, degrees=degrees,
        h_action=grading(degrees, 1),
        l_actions=[l0],
        label="one-variable ladder (non-geometric test fixture)")
    return module_to_json(spec)


def make_shifted_module(alg: GradedAlgebra) -> dict:
    """Degree-shift of an export by +1 with n unchanged.

    The counting-operator eigenvalues no longer match (d - 2n), so
    validation must reject it; the fixture documents that the grading
    contract is enforced, not inferred.
    """
    obj = export_module(alg, label="shifted-by-one grading (invalid fixture)")
    obj.pop("Lambda_actions", None)

    def shift_blocks(blockmap):
        return {str(int(d) + 1): m for d, m in blockmap.items()}

    obj["degrees"] = {str(int(d) + 1): m for d, m in obj["degrees"].items()}
    obj["h_action"] = shift_blocks(obj["h_action"])
    obj["L_actions"] = [shift_blocks(b) for b in obj["L_actions"]]
    return obj


def corrupt_module(obj: dict) -> dict:
    """Zero out one raising-operator block of a valid module document."""
    out = json.loads(json.dumps(obj))
    out["label"] = (out.get("label", "") + " [corrupted: one L block zeroed]").strip()
    actions = out["L_actions"]
    target = min(2, len(actions) - 1)
    blocks = actions[target]
    dstr = sorted(blocks, key=int)[min(1, len(blocks) - 1)]
    rows = blocks[dstr]
    blocks[dstr] = [["0" for _ in row] for row in rows]
    out.pop("Lambda_actions", None)
    return out


def make_spin_module(n: int = 2) -> dict:
    """Spinor module of the hyperbolic extension of the split 4-space.

    The extension has three hyperbolic planes; the exterior algebra of a
    maximal isotropic subspace carries the split Clifford action, and the
    raising operators are the spin images of the rotations pairing a
    degree-2 vector with the extension's isotropic direction.  The result
    is an 8-dimensional module concentrated in degrees 2n-1 and 2n+1 with
    all structural relations holding exactly; it is labelled non-geometric
    and exists to exercise odd-degree analysis.
    """
    base = make_standard_space(4, [])
    tilde = mukai_extension(base)  # coordinates 0..3 base, 4 = e0, 5 = f0
    creators = {0: 0, 2: 1, 4: 2}      # tilde index -> slot
    annihilators = {1: 0, 3: 1, 5: 2}  # partner index -> slot
    dim_s = 8

    def cliff(t: int) -> Mat:
        m = Mat.zeros(dim_s, dim_s)
        if t in creators:
            s = creators[t]
            for a in range(dim_s):
                if a & (1 << s):
                    continue
                sign = -1 if bin(a & ((1 << s) - 1)).count("1") % 2 else 1
                m.data[a | (1 << s)][a] = QQ(sign)
        else:
            s = annihilators[t]
            for a in range(dim_s):
                if not (a & (1 << s)):
                    continue
                sign = -1 if bin(a & ((1 << s) - 1)).count("1") % 2 else 1
                m.data[a ^ (1 << s)][a] = QQ(2 * sign)
        return m

    def cliff_vec(v) -> Mat:
        acc = Mat.zeros(dim_s, dim_s)
        for t, c in enumerate(v):
            if c:
                acc = acc + cliff(t).scale(c)
        return acc

    def spin_rotation(a, b) -> Mat:
        ca, cb = cliff_vec(a), cliff_vec(b)
        return (ca * cb - cb * ca).scale(QQ(-1, 4))

    e0 = [_ZERO] * 6
    e0[4] = _ONE
    f0 = [_ZERO] * 6
    f0[5] = _ONE
    h_mat = spin_rotation(e0, f0).scale(2)

    eigs = [h_mat.data[i][i] for i in range(dim_s)]
    lo = [i for i, e in enumerate(eigs) if e == -1]
    hi = [i for i, e in enumerate(eigs) if e == 1]
    assert len(lo) == len(hi) == 4 and not any(
        h_mat.data[i][j] != 0 for i in range(8) for j in range(8) if i != j)
    order = lo + hi
    pos = {orig: new for new, orig in enumerate(order)}
    d_lo, d_hi = 2 * n - 1, 2 * n + 1
    degrees = {d_lo: 4, d_hi: 4}

    def reorder_block(m: Mat, rows_idx, cols_idx) -> Mat:
        return Mat.from_rows([[m.data[i][j] for j in cols_idx]
                              for i in rows_idx])

    l_actions = []
    for s in range(4):
        x = [_ZERO] * 6
        x[s] = _ONE
        full = spin_rotation(x, f0)
        raising = reorder_block(full, hi, lo)
        stray = reorder_block(full, lo, hi)
        assert reorder_block(full, lo, lo).is_zero()
        assert reorder_block(full, hi, hi).is_zero()
        assert stray.is_zero()
        l_actions.append(GradedOperator(degrees, 2, {d_lo: raising}))

    spec = LLVModuleSpec(
        space=base, n=n, degrees=degrees,
        h_action=grading(degrees, n),
        l_actions=l_actions,
        label=f"spinor module over the hyperbolic extension, n={n} "
              "(non-geometric test fixture)")
    return module_to_json(spec)
