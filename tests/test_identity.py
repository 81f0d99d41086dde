import importlib.util
import shutil
from pathlib import Path

spec = importlib.util.spec_from_file_location("identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py")
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def test_compare_names_the_changed_and_the_missing_artifacts(small_run, tmp_path, capsys):
    out, _, _ = small_run
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        shutil.copytree(out, d)
    (b / "manifest.json").write_text("{}")  # run times: never compared
    assert identity.report("smoke", a, b, c) == 0
    assert capsys.readouterr().out == "smoke: identical\n"

    data = bytearray((b / "points.npz").read_bytes())
    data[len(data) // 2] ^= 1
    (b / "points.npz").write_bytes(bytes(data))
    (c / "points.npz").write_bytes(bytes(data))
    (a / "ba_rounds.csv").unlink()
    assert identity.report("smoke", a, b, c) == 1
    assert capsys.readouterr().out == "smoke: differ: points.npz; missing: ba_rounds.csv\n"

    (c / "report.json").write_text("{}")
    (c / "cameras.ply").unlink()
    assert identity.report("smoke", a, b, c) == 1
    assert capsys.readouterr().out == ("smoke: differ: points.npz; missing: ba_rounds.csv; "
                                       "differ at 2 workers: report.json; missing at 2 workers: cameras.ply\n")
