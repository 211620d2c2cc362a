"""Smoke test of the benchmark at a tiny size; runs in well under a minute.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit every metric that BENCHMARK.json names, with the
unit it declares, pass its output checks, and repeat its exact counters
and result digest at a fixed seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import TINY  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def units(result) -> dict:
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def test_spec_names_the_tiny_workloads():
    assert sorted(NAMES) == sorted(TINY)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = run.run_untraced(TINY[name], 5, 0.0, str(tmp_path))
    assert result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric_and_repeats(name, tmp_path):
    first = run.run_traced(TINY[name], 5, str(tmp_path),
                           str(tmp_path / "spans.jsonl"), {})
    assert first["failed"] == 0
    assert first["notes"]["counters_repeat"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    second = run.run_traced(TINY[name], 5, str(tmp_path),
                            str(tmp_path / "spans.jsonl"), {})
    assert second["notes"]["exact_counts"] == first["notes"]["exact_counts"]
    assert second["digest"] == first["digest"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
