import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_inventory_table_script(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script(
        "run_inventory_tables.py",
        "--n", 20, "--trials", 2, "--method", "is:clt", "drppi:is",
        "--cache-dir", tmp_path, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two methods


def test_table_script_takes_method_not_methods(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script(
        "run_inventory_tables.py", "--n", 20, "--trials", 2, "--methods", "is:clt",
        "--cache-dir", tmp_path, "--out", out,
    )
    assert proc.returncode == 2
    assert "--methods" in proc.stderr
    assert not out.exists()


def test_table_preset_takes_the_benchmark_flags(tmp_path):
    # the flag list the table benchmark job passes, at a small n
    script = load_script("run_inventory_tables.py")
    out = tmp_path / "table.csv"
    code = script.main([
        "--n", "20", "--trials", "2", "--alpha", "0.05", "--seed", "1",
        "--cache-dir", str(tmp_path), "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 11
    assert sorted(row["method"] for row in rows) == sorted(script.DEFAULT_METHODS)


def test_bias_demo_script(tmp_path):
    out = tmp_path / "bias.csv"
    proc = run_script(
        "run_bias_demo.py",
        "--n", 20, "--trials", 2, "--cache-dir", tmp_path, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert "augis:clt" in out.read_text()


def test_bias_flag_reaches_the_study_config(tmp_path):
    script = load_script("run_bias_demo.py")
    runs = {}
    for name, extra in [("default", []), ("half", ["--bias", "0.5"])]:
        out = tmp_path / f"{name}.csv"
        args = ["--n", "20", "--trials", "2", "--cache-dir", str(tmp_path), "--out", str(out)]
        assert script.main([*args, *extra]) == 0
        runs[name] = read_rows(out)
    assert sorted(row["method"] for row in runs["default"]) == ["augis:clt", "drppi:pdis"]
    for default, half in zip(runs["default"], runs["half"]):
        assert default["config_digest"] != half["config_digest"]
