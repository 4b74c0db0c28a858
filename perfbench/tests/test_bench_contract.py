"""BENCHMARK.json agrees with the code, and a tree without sources fails cleanly."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import worker
from layer_metrics import metric_units
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(worker.NOMINAL_UNIT_S) == set(WORKLOADS)


def test_without_the_package_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "oracle-train",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_the_calibration_kernel_imports_nothing_of_the_library():
    tree = ast.parse((REPO / "perfbench" / "calibrate.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"os", "time", "numpy"}
