import json
from dataclasses import fields

import jsonschema
import pytest

import hklab.module_io as module_io
from hklab.linalg import qq
from hklab.llv import FrameCalculus, GradedPowers, build_frame, frame_calculus
from hklab.module_io import (
    SchemaError,
    algebra_module,
    corrupt_module,
    dump_canonical,
    export_module,
    load_module,
    make_ladder_module,
    make_shifted_module,
    make_spin_module,
    module_frame_calculus,
    module_to_json,
    validate,
)
from hklab.verifier import check_odd


def test_export_round_trip_bit_exact(built):
    alg = built(1, 4)
    obj = export_module(alg)
    s1 = dump_canonical(obj)
    spec = load_module(json.loads(s1))
    s2 = dump_canonical(module_to_json(spec))
    assert s1 == s2
    # and again through a string source
    spec2 = load_module(s1)
    assert dump_canonical(module_to_json(spec2)) == s1


def test_export_validates_all_pass(built):
    alg = built(2, 4)
    spec = load_module(export_module(alg))
    report = validate(spec)
    assert report.all_passed, report.render_text()
    names = [c.name for c in report.checks]
    assert "h-eigenvalues" in names
    assert "declared-lambda-brackets" in names


def test_corrupted_module_fails_with_witness(built):
    alg = built(1, 4)
    bad = corrupt_module(export_module(alg))
    report = validate(load_module(bad))
    assert not report.all_passed
    failed = report.failed()
    assert failed and all(c.witness for c in failed)


def test_truncated_document_schema_error():
    with pytest.raises(SchemaError):
        load_module('{"format": "hklab-llv-module", "version": 1}')
    with pytest.raises(SchemaError):
        load_module("this is not json")


def test_non_rational_entries_rejected(built):
    obj = export_module(built(1, 4))
    obj["space"]["gram"][0][1] = "1.5"
    with pytest.raises(SchemaError):
        load_module(obj)


def test_shape_mismatch_rejected(built):
    obj = export_module(built(1, 4))
    obj["L_actions"][0]["0"] = [["1", "0"]]
    with pytest.raises(SchemaError):
        load_module(obj)


def test_ladder_module_loads_and_validates():
    spec = load_module(make_ladder_module())
    assert spec.degrees == {0: 1, 2: 1, 4: 1}
    report = validate(spec)
    assert report.all_passed, report.render_text()


def test_shifted_module_fails_grading(built):
    obj = make_shifted_module(built(1, 4))
    report = validate(load_module(obj))
    assert not report.all_passed
    assert any(c.name == "h-eigenvalues" for c in report.failed())


def test_spin_module_structure():
    spec = load_module(make_spin_module(2))
    assert spec.odd_degrees() == [3, 5]
    assert spec.degrees == {3: 4, 5: 4}
    report = validate(spec)
    assert report.all_passed, report.render_text()


def test_spin_module_operator_analysis():
    spec = load_module(make_spin_module(2))
    frame = build_frame(spec.space, seed=0)
    fc = module_frame_calculus(spec, frame)
    assert fc.m_bracket_scalar == 4
    powers = GradedPowers(fc.M)
    assert powers.index(3) == 1
    assert powers.index(5) == 1


def test_fixture_files_are_reproducible(fixture_dir, built):
    expected = {
        "sh_module.json": dump_canonical(
            export_module(built(1, 4), label="exported instance n=1 b2=4 seed=1")),
        "ladder_module.json": dump_canonical(make_ladder_module()),
        "spin_module.json": dump_canonical(make_spin_module(2)),
    }
    for name, text in expected.items():
        assert (fixture_dir / name).read_text(encoding="utf-8") == text


def test_fixture_corrupted_committed(fixture_dir):
    report = validate(load_module(str(fixture_dir / "corrupted_module.json")))
    assert not report.all_passed


def test_validation_report_render(built):
    report = validate(load_module(export_module(built(1, 4))))
    text = report.render_text()
    assert "all-pass" in text
    js = report.to_json()
    assert js["all_passed"] is True


def test_empty_lambda_block_round_trips(built):
    """b2 >= 5 exports have a Lambda block from degree 0 into nothing."""
    obj = export_module(built(2, 5))
    text = dump_canonical(obj)
    spec = load_module(text)
    assert dump_canonical(module_to_json(spec)) == text
    report = validate(spec)
    assert report.all_passed, report.render_text()
    # The earlier export format wrote that block as an empty list.
    blocks = obj["Lambda_actions"]["blocks"]
    assert all("0" not in blk for blk in blocks)
    blocks[0]["0"] = []
    spec = load_module(obj)
    assert spec.lambda_actions[0].block(0).shape == (0, 1)
    assert validate(spec).all_passed


def test_empty_block_into_populated_degree_rejected(built):
    obj = export_module(built(1, 4))
    obj["L_actions"][0]["0"] = []
    with pytest.raises(SchemaError, match=r"shape \(0, 1\), expected \(4, 1\)"):
        load_module(obj)


@pytest.mark.parametrize("s", range(5))
def test_scaled_raising_operator_fails_basis_certificate(built, s):
    obj = export_module(built(1, 5))
    obj.pop("Lambda_actions")
    obj["L_actions"][s] = {d: [[str(2 * qq(e)) for e in row] for row in m]
                           for d, m in obj["L_actions"][s].items()}
    report = validate(load_module(obj))
    failed = {c.name: c.witness for c in report.failed()}
    assert "basis-dependent" in failed["dual-completions-and-linearity"]


def test_one_lambda_table_per_module(monkeypatch):
    calls = []
    real = module_io.linear_dual_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module_io, "linear_dual_table", counting)
    spec = load_module(make_spin_module(2))
    frame = build_frame(spec.space, seed=0)
    assert validate(spec).all_passed
    check_odd(spec, frame)
    module_frame_calculus(spec, frame)
    assert spec.lambda_table is spec.lambda_table
    assert len(calls) == 1


def test_check_odd_reuses_the_validation_report(monkeypatch):
    spec = load_module(make_spin_module(2))
    frame = build_frame(spec.space, seed=0)
    assert validate(spec).all_passed
    runs = []
    real = module_io._run_checks

    def counting(s):
        runs.append(s)
        return real(s)

    monkeypatch.setattr(module_io, "_run_checks", counting)
    check_odd(spec, frame)
    assert validate(spec) is spec.validation
    assert runs == []
    # a spec nobody validated yet is checked once, by check_odd itself
    fresh = load_module(make_spin_module(2))
    check_odd(fresh, build_frame(fresh.space, seed=0))
    assert runs == [fresh]


@pytest.mark.parametrize("frame_seed", [0, 3])
def test_built_and_reloaded_export_share_the_calculus(built, frame_seed):
    """A built algebra's module and its reloaded export give the same
    frame calculus, field by field."""
    alg = built(2, 5)
    frame = build_frame(alg.space, seed=frame_seed)
    direct = frame_calculus(algebra_module(alg), frame)
    reloaded = frame_calculus(
        load_module(dump_canonical(export_module(alg))), frame)
    for f in fields(FrameCalculus):
        assert getattr(direct, f.name) == getattr(reloaded, f.name), f.name


def test_check_odd_refuses_a_validated_invalid_module(built):
    bad = load_module(corrupt_module(export_module(built(1, 4))))
    assert not validate(bad).all_passed
    with pytest.raises(ValueError, match="refusing"):
        check_odd(bad, build_frame(bad.space, seed=0))


# The module schema as it was with a "$ref" per rational cell; the inlined
# pattern must reject the same documents with the same message.
_REF_SCHEMA = json.loads(r"""
{
  "$schema": "http://json-schema.org/draft-07/schema#",
  "$id": "hklab-llv-module.schema.json",
  "type": "object",
  "required": ["format", "version", "n", "space", "degrees", "h_action", "L_actions"],
  "additionalProperties": false,
  "properties": {
    "format": {"const": "hklab-llv-module"},
    "version": {"const": 1},
    "label": {"type": "string"},
    "n": {"type": "integer", "minimum": 1},
    "space": {
      "type": "object",
      "required": ["dim", "gram"],
      "additionalProperties": false,
      "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "gram": {"$ref": "#/$defs/matrix"}
      }
    },
    "degrees": {
      "type": "object",
      "patternProperties": {"^-?[0-9]+$": {"type": "integer", "minimum": 0}},
      "additionalProperties": false
    },
    "h_action": {"$ref": "#/$defs/blockmap"},
    "L_actions": {
      "type": "array",
      "items": {"$ref": "#/$defs/blockmap"}
    },
    "Lambda_actions": {
      "type": "object",
      "required": ["basis", "blocks"],
      "additionalProperties": false,
      "properties": {
        "basis": {"type": "array", "items": {"$ref": "#/$defs/vector"}},
        "blocks": {"type": "array", "items": {"$ref": "#/$defs/blockmap"}}
      }
    }
  },
  "$defs": {
    "rational": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
    "vector": {"type": "array", "items": {"$ref": "#/$defs/rational"}},
    "matrix": {"type": "array", "items": {"$ref": "#/$defs/vector"}},
    "blockmap": {
      "type": "object",
      "patternProperties": {"^-?[0-9]+$": {"$ref": "#/$defs/matrix"}},
      "additionalProperties": false
    }
  }
}
""")


def _malformed(kind, obj):
    if kind == "fractional-cell":
        obj["L_actions"][1]["2"][0][0] = "1.5"
    elif kind == "missing-n":
        del obj["n"]
    elif kind == "extra-key":
        obj["comment"] = "not part of the format"
    elif kind == "row-not-a-list":
        obj["h_action"]["2"][0] = "0"
    return obj


@pytest.mark.parametrize("kind", ["fractional-cell", "missing-n", "extra-key",
                                  "row-not-a-list"])
def test_schema_errors_unchanged(built, kind):
    obj = _malformed(kind, export_module(built(1, 4)))
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(obj, _REF_SCHEMA)
    with pytest.raises(SchemaError) as got:
        load_module(obj)
    assert str(got.value) == f"schema violation: {ref.value.message}"
