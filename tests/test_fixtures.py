import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"


def test_make_fixtures_reproduces_committed_files(fixture_dir, tmp_path,
                                                  monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURE_DIR", tmp_path)
    script.main()
    committed = sorted(p.name for p in fixture_dir.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == \
            (fixture_dir / name).read_bytes(), name
