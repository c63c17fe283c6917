import hashlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import hklab
from hklab.cli import main
from hklab.linalg import Mat, qq
from hklab.module_io import SchemaError, load_module
from hklab.quadforms import QuadraticSpace


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--n", "1", "--b2", "5", "--seed", "3",
                 "--out", str(p1)]) == 0
    assert main(["build", "--n", "1", "--b2", "5", "--seed", "3",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    obj = json.loads(p1.read_text())
    assert [v["dim"] for _, v in sorted(obj["levels"].items())] == [1, 5, 1]


def test_build_usage_error(capsys):
    code, out, err = run(capsys, "build", "--n", "1", "--b2", "3")
    assert code == 2
    assert "b2" in err


def test_verify_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        code, out, err = run(capsys, "verify", "--n", "1", "--b2", "5",
                             "--out", str(path))
        assert code == 0
        timing = json.loads(err)
        assert (timing["n"], timing["b2"]) == (1, 5)
        assert set(timing["timings"]) == {"build", "operators",
                                          "operator_checks", "filtrations"}
    assert p1.read_bytes() == p2.read_bytes()
    assert "timings" not in json.loads(p1.read_text())


def test_verify_instance_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "--n", "1", "--b2", "5", "--seed", "1",
                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["all_asserted_passed"] is True
    assert report["m_bracket_scalar"] == "4"


def test_verify_grid_text(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--grid", "1x4,1x5",
                         "--format", "text")
    assert code == 0
    assert out.count("pass") == 2


@pytest.mark.parametrize("argv, digest", [
    # whole reports are pinned, expected, observed and witness text
    # included, not only the claims and verdicts
    (("verify", "--grid", "1x4,1x5,1x6,2x4,2x5,3x4", "--seed", "0"),
     "9ceafd715e743a6d05e091d56105849fd1c3ae61410fb532125401f425f42c8c"),
    # frame vectors that are not unit vectors: L and Lambda combinations
    (("verify", "--grid", "1x5,2x5", "--seed", "2"),
     "777fd6f1798467035063e47340202285ebe1cf38ec002e5e6994d6611eb79dab"),
    # an export with b2 >= 5; the fixtures pin only (1,4)
    (("export", "--n", "2", "--b2", "5"),
     "fbe868a0cb594ae5a54fb4ce851e13be4f947b6baf0ea374986f93803b347bf2"),
    (("diamond", "--n", "2", "--b2", "6", "--degree", "4", "--seed", "2"),
     "09fa336f6a96f41ea00e6365a7e786a40e2840d302eff8db63faf582d6cdab52"),
    # the K3^[2]-type frontier and a wide space, pinned before the build
    # moved to integer monomial codes
    (("build", "--n", "2", "--b2", "23", "--seed", "1"),
     "7d31a7d495e98493dbc07494c003726dc881e8c808b11966aab13c3697493e55"),
    (("build", "--n", "2", "--b2", "14", "--seed", "0"),
     "aa3e644c23bc80bb37697f93847c30625f8dd6950f838919bd20b0e4a943c74d"),
    # the K3^[3]-type build, pinned before the build walked the support
    # of Q^n
    (("build", "--n", "3", "--b2", "23", "--seed", "0"),
     "b27185e3bee1e625f2294f44d4c54ddccefc874d645437f8db42b2ef57e374e4"),
    # one instance whose Cartan blocks are diagonal (frame seed 0) and one
    # whose blocks are dense (seed 1), pinned before the derivation check
    # moved to integer vectors and the bigrading to the diagonal split
    (("verify", "--n", "3", "--b2", "4", "--seed", "0"),
     "44ef6088e37047f1790df87c713aed1526b2cf26b4b6c96e7d6ed2043e6bc13c"),
    (("verify", "--n", "3", "--b2", "4", "--seed", "1"),
     "d76e45b8fbb12a4b7b2f2555886bac28a4d7f48184665f8d44218806e2472418"),
    # reports at width, one of them at a dense frame, and the Kummer-type
    # frontier, pinned before the weight filtrations moved from Jordan
    # chains to the kernel-sum formula
    (("verify", "--n", "4", "--b2", "5"),
     "50f34d3f154c3a4adffd2f3ec73bc8255b37317f018cebf9b176decdcc1abd45"),
    (("verify", "--n", "2", "--b2", "12", "--seed", "1"),
     "0c5a29edfc39acbcb36e868183a5c933e618206cacc55ff1b957a1263d630b81"),
    pytest.param(
        ("verify", "--n", "5", "--b2", "7"),
        "1f7fbe78834cb19c9b582a767c40da40860d41b0fa6c6303703cc2437cf5e085",
        id="verify-5x7", marks=pytest.mark.slow),
    # every default-grid instance, at the canonical frame and at a frame
    # with rational vectors and L blocks, and the frontier reports; the
    # last three pinned before the filtrations and the sl2 ladders moved
    # to integer rows
    pytest.param(
        ("verify", "--grid", "default", "--seed", "0"),
        "f24dc80a6428e0cf8984a81642c987ccd15ee2bc00bf25af56858accc0dae14c",
        id="verify-grid-default", marks=pytest.mark.slow),
    pytest.param(
        ("verify", "--grid", "default", "--seed", "1"),
        "a5e543bec9cc55c00fd3f3fec2f3ef83cf2549a408523008b9cec81b15c887db",
        id="verify-grid-default-s1", marks=pytest.mark.slow),
    pytest.param(
        ("verify", "--n", "3", "--b2", "8"),
        "5031ae250a559e0e4167e0bae414b6867e4d74d3b2739fcbbc5c1367f744be84",
        id="verify-3x8", marks=pytest.mark.slow),
    pytest.param(
        ("verify", "--n", "2", "--b2", "23"),
        "c8876611960abffef03ce0745bd0a1eac76349ea387e119b169355e6a066b626",
        id="verify-2x23", marks=pytest.mark.slow),
    # the K3^[3]-type frontier, whose middle degree has dimension 2300,
    # pinned before the weight-filtration check moved to fresh rows
    pytest.param(
        ("verify", "--n", "3", "--b2", "23"),
        "67d84e15b17043a553832cbcee1e5c76a8f34e56547acd1e5631a8a73ac4d712",
        id="verify-3x23", marks=pytest.mark.slow),
    # the Kummer-type (6,7), whose middle degree has dimension 924,
    # pinned before M's weight table moved to the rank formula and the
    # conjugate Hodge chain to a direct certificate
    pytest.param(
        ("verify", "--n", "6", "--b2", "7"),
        "1d39707fc149d61080eedb6a8bad3bc68e00b3bb0f496b7ab4b32f69e9d033da",
        id="verify-6x7", marks=pytest.mark.slow),
], ids=["verify-grid-s0", "verify-grid", "export", "diamond", "build-2x23", "build-2x14",
        "build-3x23", "verify-3x4-s0", "verify-3x4-s1", "verify-4x5", "verify-2x12-s1", None,
        None, None, None, None, None, None])
def test_stdout_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("module, digest", [
    ("sh_module.json",
     "bbef2dc927eb4e56de5b53aeb87e01c98fe482d6464182b21505cf0aa87b49b3"),
    ("spin_module.json",
     "6832298a85af8802f00ec200300ad89ff494191ad121ee7817a462190228c429"),
    # `export --n 4 --b2 4`, written by the test
    (None, "663fd56190f1dff549b1c7ea0ce3567ceae0fb62d46992bc074db8e2da4e092d"),
], ids=["sh", "spin", "export-4x4"])
def test_verify_module_bytes(fixture_dir, tmp_path, monkeypatch, capsys,
                             module, digest):
    """The ingest path is pinned byte for byte, pinned before matrices
    moved to integer numerators.  The report names the module path as
    given, so each document is read from the working directory."""
    if module is None:
        monkeypatch.chdir(tmp_path)
        module = "export.json"
        assert main(["export", "--n", "4", "--b2", "4", "--out", module]) == 0
    else:
        monkeypatch.chdir(fixture_dir)
    code, out, err = run(capsys, "verify", "--module", module)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_module_fixtures(fixture_dir, capsys):
    code, out, err = run(capsys, "verify", "--module",
                         str(fixture_dir / "sh_module.json"))
    assert code == 0
    code, out, err = run(capsys, "verify", "--module",
                         str(fixture_dir / "corrupted_module.json"))
    assert code == 1
    payload = json.loads(out)
    failures = [c for c in payload["validation"]["checks"] if not c["passed"]]
    assert failures and failures[0]["witness"]


def test_verify_module_builds_the_calculus_once(fixture_dir, capsys,
                                                monkeypatch):
    """One frame calculus and one bigrading serve the odd-degree and the
    Betti checks of `verify --module`."""
    from hklab import cli, llv, module_io, verifier
    calls = {"frame_calculus": 0, "bigrading_from_operators": 0}
    for name in calls:
        real = getattr(llv, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod in (llv, cli, module_io, verifier):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    code, out, err = run(capsys, "verify", "--module",
                         str(fixture_dir / "spin_module.json"))
    assert code == 0 and json.loads(out)["odd_verdicts"]
    assert calls == {"frame_calculus": 1, "bigrading_from_operators": 1}


def test_import_does_not_load_numpy():
    """Only the uncalled hklab._modp uses numpy, inside its methods."""
    probe = ("import sys, hklab, hklab.cli; "
             "assert 'numpy' not in sys.modules, 'numpy imported'")
    src = str(pathlib.Path(hklab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_accepting_a_module_does_not_load_jsonschema(fixture_dir):
    """The reader alone accepts and rejects module documents: with
    jsonschema unimportable, a fixture loads and a document without "n"
    raises SchemaError naming the field, not ImportError."""
    probe = textwrap.dedent("""
        import json, pathlib, sys
        sys.modules["jsonschema"] = None
        from hklab.module_io import SchemaError, load_module
        path = pathlib.Path(sys.argv[1])
        load_module(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["n"]
        try:
            load_module(doc)
        except SchemaError as exc:
            assert str(exc) == "module: missing field 'n'", exc
        else:
            raise AssertionError("a module without n was accepted")
    """)
    src = str(pathlib.Path(hklab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", probe,
                    str(fixture_dir / "sh_module.json")], env=env, check=True)


def test_validate_reads_a_module_file_of_any_name(fixture_dir, tmp_path,
                                                   capsys):
    """A module file is read whatever its name: a .txt copy of a fixture
    validates."""
    path = tmp_path / "m.txt"
    path.write_bytes((fixture_dir / "sh_module.json").read_bytes())
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, err) == (0, "") and out.endswith("result: all-pass\n")
    code, out, err = run(capsys, "verify", "--module", str(path))
    assert (code, err) == (0, "")


def _edited_fixture(fixture_dir, tmp_path, edit):
    obj = json.loads((fixture_dir / "sh_module.json").read_text())
    edit(obj)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(obj))
    return path


def _zero_denominator(obj):
    obj["h_action"]["0"][0][0] = "1/0"


def _huge_cell(obj):
    # valid under the schema's pattern, but past the interpreter's default
    # limit of 4300 digits for int()
    obj["h_action"]["0"][0][0] = "-" + "2" * 5000


def _huge_degree_key(obj):
    obj["degrees"]["2" * 5000] = obj["degrees"]["2"]


def _float_n(obj):
    obj["n"] = 1.0


def _ragged_gram(obj):
    obj["space"]["gram"][1].pop()


def _degree_2_twice(obj):
    obj["degrees"]["02"] = obj["degrees"]["2"]


def _fractional_cell(obj):
    obj["L_actions"][1]["2"][0][0] = "1.5"


def _missing_n(obj):
    del obj["n"]


def _extra_key(obj):
    obj["comment"] = "not part of the format"


def _row_not_a_list(obj):
    obj["h_action"]["2"][0] = "0"


def _long_cell(obj):
    obj["h_action"]["0"][0][0] = "x" * 5000


def _bad_format(obj):
    obj["format"] = "hklab-llv-modules"


def _bad_version(obj):
    obj["version"] = 2


@pytest.mark.parametrize("edit, message", [
    (_zero_denominator, "h_action[0]: '1/0' has denominator zero"),
    (_float_n, "n must be an integer >= 1"),
    (_ragged_gram, "space.gram: rows are not lists of one length"),
    (_degree_2_twice, "degrees: degree 2 is named twice"),
    (_huge_cell, "h_action[0]: a cell of 5001 characters exceeds the digit "
                 "limit for integer strings"),
    (_huge_degree_key, "degrees: a degree key of 5000 characters exceeds the "
                       "digit limit for integer strings"),
    # the schema rejects these too
    (_fractional_cell, "L_actions[1][2]: '1.5' is not a rational 'p' or "
                       "'p/q'"),
    (_missing_n, "module: missing field 'n'"),
    (_extra_key, "module: unknown field 'comment'"),
    (_row_not_a_list, "h_action[2]: rows are not lists of one length"),
    # a value from the document is quoted to 40 characters
    (_long_cell, "h_action[0]: '" + "x" * 39 + " is not a rational 'p' or "
                 "'p/q'"),
    (_bad_format, "format must be 'hklab-llv-module'"),
    (_bad_version, "version must be 1"),
])
def test_validate_unreadable_module_exits_2(fixture_dir, tmp_path, capsys,
                                            edit, message):
    """Documents the reader cannot read are usage errors (exit 2) whose
    message names the field and the rule, not tracebacks (exit 1) or
    silent acceptance."""
    path = _edited_fixture(fixture_dir, tmp_path, edit)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_load_module_names_a_huge_cell(fixture_dir, tmp_path):
    path = _edited_fixture(fixture_dir, tmp_path, _huge_cell)
    with pytest.raises(SchemaError, match=r"^h_action\[0\]: a cell of 5001 "):
        load_module(path)


def test_validate_degrees_disagreeing_with_n(fixture_dir, tmp_path, capsys):
    """n = 2 on the n = 1 export: the report prints with the failed dual
    completion, and validation fails (exit 1)."""
    path = _edited_fixture(fixture_dir, tmp_path,
                           lambda obj: obj.update(n=2))
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 1 and err == ""
    assert "FAIL  dual-completions-and-linearity  [a ladder from degree 0 " \
        "leaves the module's degrees at 6]" in out
    assert out.endswith("result: FAILED\n")


def test_verify_spin_module_runs_odd_checks(fixture_dir, capsys):
    code, out, err = run(capsys, "verify", "--module",
                         str(fixture_dir / "spin_module.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["all_passed"]
    assert payload["odd_verdicts"]
    assert payload["betti_verdicts"]


def test_diamond_text_and_json(tmp_path, capsys):
    code, out, err = run(capsys, "diamond", "--n", "1", "--b2", "5",
                         "--degree", "2")
    assert code == 0
    assert "diamond" in out and "i\\q" in out
    code, out, err = run(capsys, "diamond", "--n", "1", "--b2", "5",
                         "--degree", "2", "--format", "json")
    table = json.loads(out)
    assert table["degree"] == 2
    assert sorted(map(tuple, table["cells"])) == [
        (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1)]


def test_diamond_degree_zero(capsys):
    code, out, err = run(capsys, "diamond", "--n", "1", "--b2", "4",
                         "--degree", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["cells"] == [[0, 0, 1]]


def test_diamond_from_built_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    assert main(["build", "--n", "1", "--b2", "4", "--out", str(path)]) == 0
    code, out, err = run(capsys, "diamond", "--in", str(path),
                         "--degree", "2")
    assert code == 0 and "diamond" in out


def test_transport_success_and_obstruction(tmp_path, capsys):
    space = {"dim": 5,
             "gram": [["0", "1", "0", "0", "0"],
                      ["1", "0", "0", "0", "0"],
                      ["0", "0", "0", "1", "0"],
                      ["0", "0", "1", "0", "0"],
                      ["0", "0", "0", "0", "2"]]}
    doc = {"space": space,
           "p1": [["1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
           "p2": [["0", "1", "0", "0", "0"], ["0", "0", "0", "1", "0"]]}
    path = tmp_path / "planes.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "transport", "--in", str(path))
    assert code == 0
    matrix = json.loads(out)["matrix"]
    g = Mat.from_rows([[qq(e) for e in row] for row in matrix])
    sp = QuadraticSpace.from_json(space)
    assert g.transpose() * sp.gram * g == sp.gram
    assert g.det() == 1
    from hklab.linalg import invert
    assert invert(g) * g == Mat.identity(5)

    # crossing planes in dimension 4: determinant obstruction
    space4 = {"dim": 4, "gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                                 ["0", "0", "0", "1"], ["0", "0", "1", "0"]]}
    doc4 = {"space": space4,
            "p1": [["1", "0", "0", "0"], ["0", "0", "1", "0"]],
            "p2": [["1", "0", "0", "0"], ["0", "0", "0", "1"]]}
    path4 = tmp_path / "planes4.json"
    path4.write_text(json.dumps(doc4))
    code, out, err = run(capsys, "transport", "--in", str(path4))
    assert code == 3
    assert "orbit" in err


def test_export_then_validate(tmp_path, capsys):
    path = tmp_path / "module.json"
    assert main(["export", "--n", "1", "--b2", "4", "--seed", "1",
                 "--out", str(path)]) == 0
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 0
    assert "all-pass" in out


def test_validate_corrupted(fixture_dir, capsys):
    code, out, err = run(capsys, "validate", "--in",
                         str(fixture_dir / "corrupted_module.json"))
    assert code == 1
    assert "FAIL" in out


def test_validate_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "validate", "--in", "/nonexistent.json")
    assert code == 2
    # a directory is an input error too, not a traceback (exit 1)
    for argv in (["validate", "--in"], ["verify", "--module"],
                 ["diamond", "--degree", "2", "--in"], ["transport", "--in"]):
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert (code, out) == (2, "") and err.startswith("error: "), argv


def test_export_determinism(tmp_path):
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    main(["export", "--n", "1", "--b2", "4", "--seed", "2", "--out", str(p1)])
    main(["export", "--n", "1", "--b2", "4", "--seed", "2", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_env_seed_default(tmp_path, monkeypatch):
    p1, p2 = tmp_path / "e1.json", tmp_path / "e2.json"
    monkeypatch.setenv("HKLAB_SEED", "6")
    main(["build", "--n", "1", "--b2", "4", "--out", str(p1)])
    monkeypatch.delenv("HKLAB_SEED")
    main(["build", "--n", "1", "--b2", "4", "--seed", "6", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    obj = json.loads(p1.read_text())
    assert obj["build"]["seed"] == 6


@pytest.mark.parametrize("value, argv", [
    ("abc", ["build", "--n", "1", "--b2", "4"]),
    ("1.5", ["verify", "--n", "1", "--b2", "4"]),
    ("", ["build", "--n", "1", "--b2", "4", "--seed", "3"]),
])
def test_non_integer_env_seed_exits_2(monkeypatch, capsys, value, argv):
    """A set HKLAB_SEED that is not an integer is a usage error, whether
    or not --seed is given."""
    monkeypatch.setenv("HKLAB_SEED", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"HKLAB_SEED must be an integer, got {value!r}" in out.err


_SPACE4 = {"dim": 4, "gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                              ["0", "0", "0", "1"], ["0", "0", "1", "0"]]}


@pytest.mark.parametrize("doc, message", [
    ({}, "transport document: missing field 'space'"),
    ([], "transport document must be a JSON object"),
    ({"space": _SPACE4, "p1": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]},
     "transport document: missing field 'p2'"),
    ({"space": {"dim": 4}, "p1": [], "p2": []}, "space: missing field 'gram'"),
    ({"space": "x", "p1": [], "p2": []}, "space must be a JSON object"),
    ({"space": {"gram": 4}, "p1": [], "p2": []},
     "space: gram must be a list of rows"),
    ({"space": _SPACE4, "p1": [["1", "0", "0", "0"]], "p2": []},
     "transport document: p1 must be a pair of vectors"),
    # mistyped scalars: each once died with a TypeError traceback, exit 1
    ({"space": {"gram": [["0", "1"], [{}, "0"]]}, "p1": [], "p2": []},
     "space: gram[1][0]: {} is not a rational number"),
    ({"space": _SPACE4, "p1": [["1", "0", "0", "0"], ["0", "0", None, "0"]],
      "p2": [["0", "1", "0", "0"], ["0", "0", "0", "1"]]},
     "transport document: p1[1][2]: null is not a rational number"),
    ({"space": {"gram": [[True, "1"], ["1", "0"]]}, "p1": [], "p2": []},
     "space: gram[0][0]: true is not a rational number"),
])
def test_transport_rejects_a_malformed_document(tmp_path, capsys, doc,
                                                message):
    path = tmp_path / "planes.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "transport", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"format": "hklab-graded-algebra"},
     "graded-algebra document: missing field 'space'"),
    ({"format": "hklab-graded-algebra", "space": _SPACE4, "n": 1,
      "levels": {}}, "graded-algebra document: missing field 'tensors'"),
    ([1, 2], "not a graded-algebra JSON document"),
    ({"format": "hklab-graded-algebra", "space": [], "n": 1, "levels": {},
      "tensors": {}}, "space must be a JSON object"),
    # nested fields: each once died with a KeyError or a bare unpack error
    ({"format": "hklab-graded-algebra", "space": _SPACE4, "n": 1,
      "levels": {"0": {}}, "tensors": {}},
     "levels[\"0\"]: missing field 'monomials'"),
    ({"format": "hklab-graded-algebra", "space": _SPACE4, "n": 1,
      "levels": {"0": {"monomials": [[0, 0, 0, 0]]}}, "tensors": {}},
     "levels[\"0\"]: missing field 'dim'"),
    ({"format": "hklab-graded-algebra", "space": _SPACE4, "n": 1,
      "levels": {"0": {"dim": 1, "monomials": [[0, 0, 0, 0]]}},
      "tensors": {"1,1": [[0, 0, 0]]}},
     "tensors[\"1,1\"][0]: expected [i, j, t, value]"),
])
def test_diamond_rejects_a_malformed_document(tmp_path, capsys, doc, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "diamond", "--in", str(path),
                         "--degree", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _drop_level_2(doc):
    del doc["levels"]["2"]


def _t_out_of_range(doc):
    doc["tensors"]["1,1"][0][2] = 5


def _i_out_of_range(doc):
    doc["tensors"]["0,1"][0][0] = 3


def _pair_9_9(doc):
    doc["tensors"]["9,9"] = []


def _short_monomial(doc):
    doc["levels"]["1"]["monomials"][2] = [0, 0, 1]


def _level_5(doc):
    doc["levels"]["5"] = {"dim": 0, "monomials": []}


def _n_zero(doc):
    doc["n"] = 0


def _n_huge(doc):
    doc["n"] = 10 ** 9


def _drop_pair(doc):
    del doc["tensors"]["1,1"]


def _n_list(doc):
    doc["n"] = [1]


def _value_list(doc):
    doc["tensors"]["1,1"][0][3] = [1]


def _gram_null(doc):
    doc["space"]["gram"][2][3] = None


def _monomial_entries(doc):
    doc["levels"]["1"]["monomials"][0] = [None, {}, "x", [1]]


def _monomial_bool(doc):
    doc["levels"]["1"]["monomials"][0] = [True, 0, 0, 0]


def _monomial_negative(doc):
    doc["levels"]["2"]["monomials"][0] = [3, -1, 0, 0]


def _monomial_degree(doc):
    doc["levels"]["1"]["monomials"][0] = [1, 1, 0, 0]


def _monomial_repeated(doc):
    ms = doc["levels"]["1"]["monomials"]
    ms[1] = ms[0]


@pytest.mark.parametrize("damage, message", [
    (_drop_level_2, "levels: missing field '2'"),
    (_t_out_of_range, "tensors[\"1,1\"][0]: t = 5 is not an index of level 2"),
    (_i_out_of_range, "tensors[\"0,1\"][0]: i = 3 is not an index of level 0"),
    (_pair_9_9, "tensors[\"9,9\"]: not a level pair k,l with k <= l and "
                "k + l <= 2"),
    (_short_monomial, "levels[\"1\"]: monomials must be lists of length "
                      "b2 = 4"),
    (_level_5, "levels[\"5\"]: not a level 0..2"),
    (_drop_pair, "tensors: missing field '1,1'"),
    (_n_zero, "n: must be at least 1"),
    # mistyped scalars: each once died with a TypeError traceback, exit 1
    (_n_list, "n: [1] is not an integer"),
    (_value_list, "tensors[\"1,1\"][0]: value: [1] is not a rational number"),
    (_gram_null, "space: gram[2][3]: null is not a rational number"),
    # monomial entries: each was once accepted, and the command exited 0
    (_monomial_entries, "levels[\"1\"]: monomials[0]: [null, {}, \"x\", [1]] "
                        "is not a list of integers >= 0"),
    (_monomial_bool, "levels[\"1\"]: monomials[0]: [true, 0, 0, 0] is not a "
                     "list of integers >= 0"),
    (_monomial_negative, "levels[\"2\"]: monomials[0]: [3, -1, 0, 0] is not "
                         "a list of integers >= 0"),
    (_monomial_degree, "levels[\"1\"]: monomials[0]: [1, 1, 0, 0] does not "
                       "sum to 1"),
    (_monomial_repeated, "levels[\"1\"]: monomials[1] repeats monomials[0]"),
    # the search for a missing level stops at the first gap
    (_n_huge, "levels: missing field '3'"),
], ids=lambda x: getattr(x, "__name__", "")[1:] or None)
def test_diamond_rejects_a_damaged_build(tmp_path, capsys, damage, message):
    """A built (1,4) document with one field damaged: each exits 2 and
    names the field, where a KeyError or IndexError traceback, a misleading
    verdict or silent acceptance came before."""
    path = tmp_path / "alg.json"
    assert main(["build", "--n", "1", "--b2", "4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "diamond", "--in", str(path),
                         "--degree", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")
