"""Each script in scripts/ runs to completion at a tiny size."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("oracle_routing_demo.py", ["--epochs", "1", "--per-class", "4"]),
    ("sac_surrogate.py", ["--iterations", "400", "--seeds", "0", "--log-every", "200"]),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
