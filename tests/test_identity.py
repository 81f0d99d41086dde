import importlib.util
import shutil
from pathlib import Path

spec = importlib.util.spec_from_file_location("identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py")
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def test_compare_names_the_changed_and_the_missing_artifacts(small_run, tmp_path, capsys):
    out, _, _ = small_run
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(out, a)
    shutil.copytree(out, b)
    (b / "manifest.json").write_text("{}")  # run times: never compared
    assert identity.report("smoke", a, b) == 0
    assert capsys.readouterr().out == "smoke: identical\n"

    data = bytearray((b / "points.npz").read_bytes())
    data[len(data) // 2] ^= 1
    (b / "points.npz").write_bytes(bytes(data))
    (a / "ba_rounds.csv").unlink()
    assert identity.report("smoke", a, b) == 1
    assert capsys.readouterr().out == "smoke: differ: points.npz; missing: ba_rounds.csv\n"
