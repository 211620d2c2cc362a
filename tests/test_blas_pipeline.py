"""The CLI pipeline writes the same bytes at one and two BLAS threads."""

import json
import os
import subprocess
import sys

import pytest

import meshmoe
from meshmoe.blas import blas_pinned, blas_threads
from meshmoe.cli import main

# gen-data, pretrain-experts, pretrain-gate, train and eval at seed 3 with
# a trainable pool: the weight gradients are GEMMs over more than 392 rows,
# whose sums OpenBLAS splits differently at one and at two threads.
PIPELINE = """
from meshmoe.cli import main
pool = ["--experts", "face_mlp,walk_rnn"]
for argv in (["gen-data", "--classes", "3", "--per-class", "6"],
             ["pretrain-experts", *pool, "--epochs", "2"],
             ["pretrain-gate", *pool, "--epochs", "1"],
             ["train", *pool, "--epochs", "3", "--batch-size", "4"],
             ["eval", *pool]):
    assert main(argv + ["--seed", "3", "--out-dir", "run"]) == 0, argv
"""


def artefacts(cwd, threads: str) -> dict:
    """Every file the pipeline writes under `cwd`, by relative path."""
    os.makedirs(cwd)
    src = os.path.dirname(os.path.dirname(meshmoe.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PIPELINE], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    files = {}
    for root, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = fh.read()
    return files


def test_pipeline_artefacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    if blas_threads() is None:
        pytest.skip("the BLAS thread count cannot be set")
    one = artefacts(tmp_path / "one", "1")
    assert {"run/experts.ckpt", "run/gate_init.ckpt", "run/model.ckpt",
            "run/train_log.csv", "run/report.csv"} <= set(one)
    two = artefacts(tmp_path / "two", "2")
    assert sorted(two) == sorted(one)
    for path, data in one.items():
        assert two[path] == data, path


def test_a_command_runs_at_one_blas_thread_and_restores_the_count(tmp_path):
    if blas_threads() is None:
        pytest.skip("the BLAS thread count cannot be asked")
    out = tmp_path / "run"
    with blas_pinned(2):
        assert main(["gen-data", "--classes", "2", "--per-class", "4",
                     "--out-dir", str(out)]) == 0
        assert blas_threads() == 2
    with open(out / "manifest_gen-data.json") as fh:
        manifest = json.load(fh)
    assert manifest["blas_threads"] == 1
    assert manifest["blas"]
