import json
import re
from dataclasses import fields, replace

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hklab.module_io as module_io
from hklab.linalg import Mat, qq, vec
from hklab.llv import (
    FrameCalculus,
    GradedOperator,
    GradedPowers,
    OperatorError,
    anisotropic_basis,
    build_frame,
    frame_calculus,
)
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
from hklab.quadforms import QuadraticSpace
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
    report = validate(load_module(fixture_dir / "corrupted_module.json"))
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


# -- the one-pass reader ------------------------------------------------------

_SCHEMA = json.loads(module_io.SCHEMA_PATH.read_text(encoding="utf-8"))


def _reference_load(obj):
    """The loader before the one-pass reader: jsonschema.validate, then
    Mat.from_rows on every block."""
    jsonschema.validate(obj, _SCHEMA)
    space = QuadraticSpace.from_json(obj["space"])
    degrees = {int(d): m for d, m in obj["degrees"].items()}
    if len(obj["L_actions"]) != space.dim:
        raise SchemaError("L_actions must have one entry per basis vector")

    def blocks(blockmap, offset, what):
        out = {}
        for dstr, rows in blockmap.items():
            d = int(dstr)
            out[d] = Mat.from_rows(rows) if rows else \
                Mat.zeros(0, degrees.get(d, 0))
        try:
            return GradedOperator(degrees, offset, out)
        except OperatorError as exc:
            raise SchemaError(f"{what}: {exc}") from exc

    h_action = blocks(obj["h_action"], 0, "h_action")
    l_actions = [blocks(b, 2, f"L_actions[{s}]")
                 for s, b in enumerate(obj["L_actions"])]
    lam_basis = lam_actions = None
    if "Lambda_actions" in obj:
        lam = obj["Lambda_actions"]
        lam_basis = [vec(v) for v in lam["basis"]]
        if any(len(v) != space.dim for v in lam_basis):
            raise SchemaError("Lambda basis vectors have wrong length")
        if len(lam["blocks"]) != len(lam_basis):
            raise SchemaError("Lambda blocks do not match basis length")
        lam_actions = [blocks(b, -2, f"Lambda[{s}]")
                       for s, b in enumerate(lam["blocks"])]
    return module_io.LLVModuleSpec(
        space=space, n=obj["n"], degrees=degrees, h_action=h_action,
        l_actions=l_actions, lambda_basis=lam_basis,
        lambda_actions=lam_actions, label=obj.get("label", ""))


def _outcome(load, obj):
    """("ok", canonical bytes) or (exception type, message)."""
    try:
        return ("ok", dump_canonical(module_to_json(load(obj))))
    except Exception as exc:  # the outcomes are compared, whatever they are
        if isinstance(exc, jsonschema.ValidationError):
            return ("ValidationError", exc.message)
        return (type(exc).__name__, str(exc))


def _reader_only(obj) -> bool:
    """Whether obj is in a class the schema passes and the reader rejects:
    an integral float, a zero denominator, a string ending in a newline, a
    degree named twice, or rows of different lengths."""
    if isinstance(obj, float):
        return True
    if isinstance(obj, str):
        return obj.endswith("\n") or re.fullmatch(r"-?[0-9]+/0+", obj)
    if isinstance(obj, dict):
        named = [int(k) for k in obj if re.fullmatch(r"-?[0-9]+\n?", k)]
        return len(set(named)) < len(named) or \
            any(_reader_only(k) or _reader_only(v) for k, v in obj.items())
    if isinstance(obj, list):
        lengths = {len(r) for r in obj if isinstance(r, list)}
        return len(lengths) > 1 or any(_reader_only(v) for v in obj)
    return False


def _nodes(obj, path=()):
    """(path, value) of every node under obj, obj itself first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


_VALUES = [None, True, False, 0, 1, 2, -1, 1.0, 4.0, 2.5, "x", "1", "1/0",
           [], {}, [["1"]], [[1]], {"0": []}]
_CELLS = ["1.5", "1/0", "0/00", "-0", "007", "1/2\n", "2\n", " 1", "+1",
          "3/4", "-2/6", "", "1e3", "١"]
_KEYS = ["02", "2\n", "+2", "a", "-0", " 2", "00", "4", "-2", "3", "comment",
         "label", "Lambda_actions"]


def _mutate(doc, data):
    def draw(pool):    # a fresh copy: the pools are shared between examples
        return json.loads(json.dumps(data.draw(st.sampled_from(pool))))

    nodes = list(_nodes(doc))
    kind = data.draw(st.sampled_from(
        ["drop", "add", "retype", "int", "cell", "key", "row", "ragged"]))
    pick = {
        "drop": lambda v: isinstance(v, dict) and v,
        "add": lambda v: isinstance(v, dict),
        "retype": lambda v: True,
        "int": lambda v: type(v) is int,
        "cell": lambda v: isinstance(v, str),
        "key": lambda v: isinstance(v, dict) and v,
        "row": lambda v: isinstance(v, list) and v,
        "ragged": lambda v: isinstance(v, list) and v
        and all(isinstance(r, list) for r in v),
    }[kind]
    path, node = data.draw(st.sampled_from(
        [(p, v) for p, v in nodes if pick(v)] or nodes[:1]))

    def put(value):
        if not path:
            return value
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
        return doc

    if kind in ("drop", "key") and isinstance(node, dict) and node:
        key = data.draw(st.sampled_from(sorted(node)))
        value = node.pop(key)
        if kind == "key":
            node[draw(_KEYS)] = value
    elif kind == "add" and isinstance(node, dict):
        node[draw(_KEYS)] = draw(_VALUES)
    elif kind == "int" and type(node) is int:
        doc = put(data.draw(st.sampled_from([float(node), True, False,
                                             node - 1, str(node)])))
    elif kind == "cell" and isinstance(node, str):
        doc = put(draw(_CELLS))
    elif kind == "row" and isinstance(node, list) and node:
        node[data.draw(st.integers(0, len(node) - 1))] = \
            draw(["0", 0, {"0": "1"}, None])
    elif kind == "ragged" and isinstance(node, list) and node:
        row = node[data.draw(st.integers(0, len(node) - 1))]
        if row and data.draw(st.booleans()):
            row.pop()
        else:
            row.append("0")
    else:
        doc = put(draw(_VALUES))
    return doc


def _spin_with_lambda():
    """The spin fixture with declared dual operators: odd degrees and a
    Lambda_actions section in one document."""
    spec = load_module(make_spin_module(2))
    basis = [vec(x) for x in anisotropic_basis(spec.space, variant=0)]
    return module_to_json(replace(
        spec, lambda_basis=basis,
        lambda_actions=[spec.lambda_of(x) for x in basis]))


@pytest.mark.parametrize("base", ["export-1x4", "spin-with-lambda"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reader_agrees_with_the_schema(built, base, data):
    """The reader rejects what jsonschema rejects, and reads what it accepts
    as the old two-pass loader did, outside the classes the reader alone
    rejects."""
    doc = json.loads(json.dumps(
        export_module(built(1, 4)) if base == "export-1x4"
        else _spin_with_lambda()))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    got = _outcome(load_module, json.dumps(doc))
    try:
        jsonschema.validate(doc, _SCHEMA)
    except jsonschema.ValidationError:
        assert got[0] in ("SchemaError", "QuadFormError")
        return
    ref = _outcome(_reference_load, doc)
    if _reader_only(doc):
        assert got[0] == "SchemaError" or got == ref
    else:
        assert got == ref


@pytest.mark.parametrize("change", ["zero-denominator", "float-n",
                                    "float-dim", "ragged-block"])
def test_reader_rejects_what_the_schema_passes(built, change):
    obj = export_module(built(1, 4))
    if change == "zero-denominator":
        obj["L_actions"][0]["0"][0][0] = "1/0"
    elif change == "float-n":
        obj["n"] = 1.0
    elif change == "float-dim":
        obj["space"]["dim"] = 4.0
    else:
        obj["h_action"]["2"][1].pop()
    jsonschema.validate(obj, _SCHEMA)
    with pytest.raises(SchemaError):
        load_module(obj)


@pytest.mark.parametrize("where", ["degrees", "h_action", "L_actions"])
@pytest.mark.parametrize("alias, message", [
    ("02", "degree 2 is named twice"),
    ("2\n", r"'2\\n' is not a degree"),
])
def test_degree_named_twice_rejected(built, where, alias, message):
    """Keys that collapse to one degree under int() are an error, not a
    silent last-one-wins; the schema's "$" lets "2\\n" through under
    re.search."""
    obj = export_module(built(1, 4))
    target = obj["L_actions"][0] if where == "L_actions" else obj[where]
    target[alias] = target["2"]
    jsonschema.validate(obj, _SCHEMA)
    with pytest.raises(SchemaError, match=message):
        load_module(obj)


@pytest.mark.parametrize("where, what", [
    ("degrees", "degrees"),
    ("h_action", "h_action"),
    ("L_actions", "L_actions[0]"),
    ("Lambda_actions", "Lambda[0]"),
])
def test_degree_key_past_the_digit_limit_is_a_schema_error(built, where,
                                                           what):
    """A degree key the schema passes but int() refuses (over 4300 digits)
    is named, not a bare ValueError."""
    obj = export_module(built(1, 4))
    target = {"L_actions": lambda: obj["L_actions"][0],
              "Lambda_actions": lambda: obj["Lambda_actions"]["blocks"][0]}
    target = target.get(where, lambda: obj[where])()
    target["2" * 5000] = target["2"]
    jsonschema.validate(obj, _SCHEMA)
    with pytest.raises(SchemaError, match=rf"^{re.escape(what)}: a degree key "
                       "of 5000 characters exceeds the digit limit"):
        load_module(obj)


def test_integer_literal_past_the_digit_limit_is_a_schema_error():
    with pytest.raises(SchemaError, match="^not valid JSON: "):
        load_module('{"n": ' + "3" * 5000 + "}")
