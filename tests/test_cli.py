import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hklab
from hklab.cli import main
from hklab.linalg import Mat, qq
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
                 "--trials", "25", "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["all_asserted_passed"] is True
    assert report["m_bracket_scalar"] == "4"


def test_verify_grid_text(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--grid", "1x4,1x5",
                         "--trials", "10", "--format", "text")
    assert code == 0
    assert out.count("pass") == 2


def test_verify_grid_report_bytes(capsys):
    """The whole grid report is pinned, expected, observed and witness text
    included, not only the claims and verdicts."""
    code, out, err = run(capsys, "verify", "--grid",
                         "1x4,1x5,1x6,2x4,2x5,3x4", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "9ceafd715e743a6d05e091d56105849fd1c3ae61410fb532125401f425f42c8c"


@pytest.mark.parametrize("argv, digest", [
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
], ids=["verify-grid", "export", "diamond", "build-2x23", "build-2x14"])
def test_stdout_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
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


@pytest.mark.slow
def test_verify_default_grid_bytes(capsys):
    """Every default-grid instance is pinned byte for byte."""
    code, out, err = run(capsys, "verify", "--grid", "default", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "f24dc80a6428e0cf8984a81642c987ccd15ee2bc00bf25af56858accc0dae14c"


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


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "--in", "/nonexistent.json")
    assert code == 2


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
