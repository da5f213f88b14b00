"""Smoke test of the benchmark itself; kept out of the package's test suite
because it runs the benchmark in subprocesses (about 15 s).

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SKIP = shutil.ignore_patterns("__pycache__")


def run(root, workload):
    cmd = [sys.executable, str(root / BENCH.name / "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def copy_benchmark(dest):
    shutil.copytree(BENCH, dest / BENCH.name, ignore=SKIP)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def test_prints_every_end_to_end_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run(ROOT, "mc")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    report = [line.split() for line in lines[:-1]]
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert [metric["name"], metric["unit"]] in [
            [words[0], words[-1]] for words in report if words
        ]


def test_corrupted_reference_is_reported_as_failure(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=SKIP)
    path = tmp_path / BENCH.name / "reference.json"
    reference = json.loads(path.read_text())
    for fp in reference.values():
        fp["stratified_table"] = "0" * 64
    path.write_text(json.dumps(reference))
    proc = run(tmp_path, "widegap")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 6  # every operation, on every pass
    assert "stratified_table" in proc.stderr


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    copy_benchmark(tmp_path)
    proc = run(tmp_path, "sweep")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
