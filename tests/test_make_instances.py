import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_instances.py")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_regenerates_every_committed_config(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_instances", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "CONFIGS", str(tmp_path))
    script.main()
    committed = sorted(os.listdir(CONFIG_DIR))
    assert sorted(os.listdir(tmp_path)) == committed
    for name in committed:
        with open(os.path.join(CONFIG_DIR, name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read(), name
