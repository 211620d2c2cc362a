"""Inference gives the same bits at one and two BLAS threads."""

import os
import subprocess
import sys

import meshmoe

# Routes a small gen-data split plus a V=162 icosphere (walk length 65, so
# the gate's float32 GEMMs are large enough for OpenBLAS to split them
# across threads) and prints each mesh's chosen expert, gate row and
# prediction as hex bytes.
INFERENCE_LOOP = """
import numpy as np
from meshmoe import synth, trainer
from meshmoe.experts import build_experts
from meshmoe.gate import GateConfig
from meshmoe.mesh import build_mesh, normalize_coordinates
data = synth.generate_classification_set(classes=3, per_class=4, seed=5)
sphere = normalize_coordinates(build_mesh(*synth.icosphere(2), mesh_id="sphere",
                                          class_label=0))
config = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2)
system = trainer.build_system(build_experts(["face_mlp"] * 3, num_classes=3, seed=1),
                              gate_config=config, seed=2)
rows, route = [], trainer.gate_forward_mesh
trainer.gate_forward_mesh = lambda *a, **k: rows.append(route(*a, **k)) or rows[-1]
for mesh in data.test_meshes + [sphere]:
    pred, j = trainer.inference(system, mesh, seed=3)
    print(mesh.mesh_id, j, rows[-1].data.tobytes().hex(), pred.tobytes().hex())
"""


def routed(threads: str) -> str:
    src = os.path.dirname(os.path.dirname(meshmoe.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", INFERENCE_LOOP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_inference_bits_do_not_depend_on_the_blas_thread_count():
    one = routed("1")
    assert len(one.splitlines()) == 4
    assert routed("2") == one
