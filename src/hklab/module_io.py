"""Ingestion, validation and export of operator modules.

An operator module is a graded rational vector space with one degree +2
operator per basis vector of an attached quadratic space, plus the counting
operator.  It is what the analysis layer reads: a built algebra is analysed
as its module (algebra_module), which also exports to JSON losslessly, and
externally produced modules (in particular odd-degree ones, which the built
algebras do not contain) are ingested, validated against the structural
relations, and only then analysed.  A spec computes its linear
dual-Lefschetz table and its validation report once, on first use.

load_module reads a document in one walk that checks all the published
schema (llv_module.schema.json) does, its patterns matched whole, and
more: integers given as floats, zero denominators, a degree named twice
and ragged or misshapen blocks are errors too.  Each block's integer
numerators are built from the integers of its cells as they are read.
That walk is the only validator: each error it raises names the field and
the rule the document breaks.

Shipped fixture generators: a faithful export, a corrupted variant, an
elementary one-variable ladder, a deliberately mis-graded shift, and a
spinor module over the hyperbolic extension of a 4-dimensional space (the
smallest honest module with odd degrees; its construction is a split
Clifford algebra acting on an exterior algebra of a maximal isotropic
subspace).
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, field, replace
from math import lcm
from pathlib import Path
from typing import Optional, Sequence

from hklab.linalg import QQ, LinalgError, Mat, vec
from hklab.llv import (
    GradedOperator,
    NotLefschetzError,
    OperatorError,
    anisotropic_basis,
    combine,
    commutator_op,
    frame_calculus,
    grading,
    lefschetz,
    linear_dual_table,
)
from hklab.quadforms import (QuadFormError, QuadraticSpace, json_fields,
                              make_standard_space, mukai_extension)
from hklab.verbitsky import GradedAlgebra, canonical_json

MODULE_FORMAT = "hklab-llv-module"
MODULE_VERSION = 1

_ZERO = QQ(0)
_ONE = QQ(1)


class SchemaError(ValueError):
    """Document violates the module schema or its structural constraints."""


SCHEMA_PATH = Path(__file__).with_name("llv_module.schema.json")

# The schema's patterns, matched whole: under re.search its "$" also
# matches before a final newline.
_DEGREE = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


# -- data model ----------------------------------------------------------------

@dataclass(eq=False)
class LLVModuleSpec:
    """A validated-shape (not yet relation-checked) operator module.

    Specs are not mutated after construction, so each caches its
    dual-Lefschetz table and its validation report on first use.
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

    @functools.cached_property
    def lambda_table(self) -> list:
        """Linear dual-Lefschetz operator of each unit vector of the space."""
        return linear_dual_table(self.space, self.n, self.l_of)

    def lambda_of(self, y: Sequence) -> GradedOperator:
        """Linear-in-y dual Lefschetz: (q(y)/2) Lambda_y for anisotropic y."""
        return combine(vec(y), self.lambda_table)

    @functools.cached_property
    def validation(self) -> "ValidationReport":
        """The report of the structural relation checks, run once."""
        return _run_checks(self)

    def odd_degrees(self) -> list:
        return sorted(d for d, m in self.degrees.items() if d % 2 and m)


# -- serialisation ---------------------------------------------------------------

def _blocks_to_json(op: GradedOperator) -> dict:
    return {str(d): [[str(e) for e in row] for row in m.data]
            for d, m in sorted(op.blocks.items())}


class _Cells(dict):
    """Memo of rational cells: each distinct string is matched once, to
    its integers (p, q)."""

    def __missing__(self, cell):
        m = _RATIONAL.fullmatch(cell) if type(cell) is str else None
        if m is None:
            raise SchemaError(f"{cell!r:.40} is not a rational 'p' or 'p/q'")
        try:
            p, q = int(m[1]), int(m[2] or 1)
        except ValueError:    # past the interpreter's integer string limit
            raise SchemaError(f"a cell of {len(cell)} characters exceeds the "
                              "digit limit for integer strings") from None
        if not q:
            raise SchemaError(f"{cell!r:.40} has denominator zero")
        value = self[cell] = (p, q)
        return value


def _typed(x, kind: type, what: str):
    if type(x) is not kind:
        raise SchemaError(f"{what} must be of type {kind.__name__}")
    return x


def _fields(x, what: str, required: tuple, optional: tuple = ()) -> dict:
    json_fields(x, what, required, SchemaError)
    for key in x:
        if key not in required and key not in optional:
            raise SchemaError(f"{what}: unknown field {key!r:.40}")
    return x


def _int(x, what: str, minimum: int) -> int:
    if type(x) is not int or x < minimum:    # type() rejects bools, floats
        raise SchemaError(f"{what} must be an integer >= {minimum}")
    return x


def _by_degree(x, what: str, value) -> dict:
    """{degree: value(degree, v)} of an object keyed by degree strings."""
    out = {}
    for key, v in _typed(x, dict, what).items():
        if type(key) is not str or not _DEGREE.fullmatch(key):
            raise SchemaError(f"{what}: {key!r:.40} is not a degree")
        try:
            d = int(key)
        except ValueError:   # past the interpreter's integer string limit
            raise SchemaError(f"{what}: a degree key of {len(key)} characters "
                              "exceeds the digit limit for integer strings") \
                from None
        if d in out:
            raise SchemaError(f"{what}: degree {d} is named twice")
        out[d] = value(d, v)
    return out


def _matrix(rows, what: str, empty_cols: int, cells: _Cells) -> Mat:
    """The rectangular matrix of rows of rational strings; an empty list is
    the 0 x empty_cols matrix."""
    ncols = len(rows[0]) if _typed(rows, list, what) and \
        type(rows[0]) is list else empty_cols
    if any(type(r) is not list or len(r) != ncols for r in rows):
        raise SchemaError(f"{what}: rows are not lists of one length")
    try:
        pq = [[(j, v) for j, v in enumerate(map(cells.__getitem__, r))
               if v[0]] for r in rows]
    except TypeError:    # an unhashable cell
        raise SchemaError(f"{what}: a cell is not a string") from None
    except SchemaError as exc:
        raise SchemaError(f"{what}: {exc}") from None
    den = lcm(*[q for r in pq for _, (_, q) in r])
    return Mat.from_num(len(rows), ncols, [[(j, p * (den // q))
                                           for j, (p, q) in r] for r in pq],
                        den)


def _blockmap(x, degrees: dict, offset: int, what: str,
              cells: _Cells) -> GradedOperator:
    blocks = _by_degree(x, what, lambda d, rows: _matrix(
        rows, f"{what}[{d}]", degrees.get(d, 0), cells))
    try:
        return GradedOperator(degrees, offset, blocks)
    except OperatorError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _read(obj) -> LLVModuleSpec:
    """The spec of a module document, checked in the one walk that the
    module docstring describes."""
    _fields(obj, "module", ("format", "version", "n", "space", "degrees",
                            "h_action", "L_actions"),
            ("label", "Lambda_actions"))
    if obj["format"] != MODULE_FORMAT:
        raise SchemaError(f"format must be {MODULE_FORMAT!r}")
    if type(obj["version"]) is not int or obj["version"] != MODULE_VERSION:
        raise SchemaError(f"version must be {MODULE_VERSION}")
    _typed(obj.get("label", ""), str, "label")
    n = _int(obj["n"], "n", 1)
    cells = _Cells()
    space = _fields(obj["space"], "space", ("dim", "gram"))
    gram = _matrix(space["gram"], "space.gram", 0, cells)
    if gram.rows != _int(space["dim"], "space.dim", 1):
        raise QuadFormError("dim field does not match Gram size")
    qspace = QuadraticSpace(gram)
    degrees = _by_degree(obj["degrees"], "degrees",
                         lambda d, m: _int(m, f"degrees[{d}]", 0))
    l_docs = _typed(obj["L_actions"], list, "L_actions")
    if len(l_docs) != qspace.dim:
        raise SchemaError("L_actions must have one entry per basis vector")
    h_action = _blockmap(obj["h_action"], degrees, 0, "h_action", cells)
    l_actions = [_blockmap(blk, degrees, 2, f"L_actions[{s}]", cells)
                 for s, blk in enumerate(l_docs)]
    lam_basis = lam_actions = None
    if "Lambda_actions" in obj:
        lam = _fields(obj["Lambda_actions"], "Lambda_actions",
                      ("basis", "blocks"))
        basis = _matrix(lam["basis"], "Lambda_actions.basis", qspace.dim,
                        cells)
        if basis.cols != qspace.dim:
            raise SchemaError("Lambda basis vectors have wrong length")
        lam_basis = [list(v) for v in basis.data]
        lam_docs = _typed(lam["blocks"], list, "Lambda_actions.blocks")
        if len(lam_docs) != len(lam_basis):
            raise SchemaError("Lambda blocks do not match basis length")
        lam_actions = [_blockmap(blk, degrees, -2, f"Lambda[{s}]", cells)
                       for s, blk in enumerate(lam_docs)]
    return LLVModuleSpec(space=qspace, n=n, degrees=degrees,
                         h_action=h_action, l_actions=l_actions,
                         lambda_basis=lam_basis, lambda_actions=lam_actions,
                         label=obj.get("label", ""))


def load_module(source) -> LLVModuleSpec:
    """Parse a module document with exact rationals: a dict is the document,
    a str its JSON text and an os.PathLike the file that holds that text.

    Raises SchemaError naming the field and the rule the document breaks,
    or QuadFormError when space.gram is not a symmetric nondegenerate
    matrix of size space.dim.
    """
    if isinstance(source, os.PathLike):
        source = Path(source).read_text(encoding="utf-8")
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except ValueError as exc:
            # a JSONDecodeError, or an integer literal past the digit limit
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return _read(source)


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


def algebra_module(alg: GradedAlgebra, label: str = "") -> LLVModuleSpec:
    """A built algebra as an operator module: its grading and the
    multiplication operator of each unit vector of its degree-2 space."""
    dim = alg.space.dim
    l_actions = [lefschetz(alg, [_ONE if j == s else _ZERO for j in range(dim)])
                 for s in range(dim)]
    return LLVModuleSpec(space=alg.space, n=alg.n, degrees=alg.dims(),
                         h_action=grading(alg), l_actions=l_actions,
                         label=label)


def export_module(alg: GradedAlgebra, label: str = "") -> dict:
    """Lossless export of a built algebra's operator module.

    Includes the linear dual operators for the canonical anisotropic basis,
    so a re-validation exercises the declared-Lambda checks.
    """
    spec = algebra_module(alg, label or f"graded algebra export "
                                        f"(n={alg.n}, b2={alg.space.dim})")
    basis = [vec(x) for x in anisotropic_basis(spec.space, variant=0)]
    return module_to_json(replace(
        spec, lambda_basis=basis,
        lambda_actions=[spec.lambda_of(x) for x in basis]))


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


def validate(spec: LLVModuleSpec) -> ValidationReport:
    """Run the structural relation checks; failures land in the report.

    The checks run once per spec (specs are never mutated); later calls,
    and later analyses of the same spec, read the report spec.validation.
    """
    return spec.validation


def _run_checks(spec: LLVModuleSpec) -> ValidationReport:
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
        table = spec.lambda_table
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
    return rep


def module_frame_calculus(spec: LLVModuleSpec, frame):
    """frame_calculus(spec, frame); the name stays because the ingest
    workload of perfbench calls it."""
    return frame_calculus(spec, frame)


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
        rows = [{} for _ in range(dim_s)]
        if t in creators:
            s = creators[t]
            for a in range(dim_s):
                if a & (1 << s):
                    continue
                sign = -1 if bin(a & ((1 << s) - 1)).count("1") % 2 else 1
                rows[a | (1 << s)][a] = QQ(sign)
        else:
            s = annihilators[t]
            for a in range(dim_s):
                if not (a & (1 << s)):
                    continue
                sign = -1 if bin(a & ((1 << s) - 1)).count("1") % 2 else 1
                rows[a ^ (1 << s)][a] = QQ(2 * sign)
        return Mat.from_sparse(dim_s, dim_s, rows)

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

    eigs = [h_mat[i, i] for i in range(dim_s)]
    lo = [i for i, e in enumerate(eigs) if e == -1]
    hi = [i for i, e in enumerate(eigs) if e == 1]
    assert len(lo) == len(hi) == 4 and h_mat == Mat.diagonal(eigs)
    d_lo, d_hi = 2 * n - 1, 2 * n + 1
    degrees = {d_lo: 4, d_hi: 4}

    def reorder_block(m: Mat, rows_idx, cols_idx) -> Mat:
        data = m.data
        return Mat.from_rows([[data[i][j] for j in cols_idx]
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
