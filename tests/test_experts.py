"""Experts: normalization, determinism, oracle expectation, trainability."""

import gc
import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from meshmoe import experts as experts_module
from meshmoe import autodiff as ad
from meshmoe.autodiff import Tensor
from meshmoe.experts import (EdgeSegmenterExpert, ExpertError, FaceMlpExpert,
                             OracleExpert, WalkRnnExpert, build_experts,
                             face_normals, make_expert, mesh_cross_entropy,
                             mesh_target, predict_batch, stacked_rows,
                             train_expert_supervised)
from meshmoe.gate import GateConfig
from meshmoe.mesh import build_mesh, mesh_from_edges
from meshmoe.optim import Adam
from meshmoe.rng import Rng, derive
from meshmoe.sac import StaticLambdaAgent
from meshmoe.synth import (cylinder, generate_classification_set,
                           generate_segmentation_set, icosahedron,
                           segment_labels, torus)


def test_trainable_expert_predictions_are_pinned():
    """walk_rnn, face_mlp and edge_seg on five family meshes and three
    segmentation meshes: the prediction bytes are pinned, so a refactor of
    the experts or their inputs must keep every bit."""
    meshes = (generate_classification_set(5, 4, seed=11).meshes[::4]
              + generate_segmentation_set(4, seed=11).meshes[::4])
    pool = build_experts(["walk_rnn", "face_mlp", "edge_seg"], 4, seed=5)
    digest = hashlib.sha256()
    for mesh in meshes:
        for expert in pool:
            pred = expert.predict(mesh, derive(9, expert.name, mesh.mesh_id))
            digest.update(pred.data.tobytes())
    assert digest.hexdigest() == (
        "77a4d64aabd4aa7789be559e91454cb269ec28ec107686438b7b117b3d817427")


def test_walk_rnn_output_contract(tetrahedron):
    expert = WalkRnnExpert("w", num_classes=5, seed=1)
    pred = expert.predict(tetrahedron, seed=3)
    assert pred.shape == (5,)
    assert pred.data.sum() == pytest.approx(1.0, abs=1e-9)
    again = expert.predict(tetrahedron, seed=3)
    np.testing.assert_array_equal(pred.data, again.data)
    different = expert.predict(tetrahedron, seed=4)
    assert not np.array_equal(pred.data, different.data)


def test_walk_rnn_graph_does_not_grow_with_walk_length():
    """The GRU is one node, whatever the walk length: a per-step cell
    shows up here as nodes that grow with L."""
    from meshmoe.walks import walk_length

    expert = WalkRnnExpert("w", num_classes=3, seed=5)
    counts = {}
    for mesh in (build_mesh(*icosahedron()), build_mesh(*torus(10, 10))):
        pred = expert.predict(mesh, seed=6)
        counts[walk_length(mesh.vertex_count)] = len(
            [n for n in ad._topological_order(pred) if n._parents])
    assert set(counts) == {5, 40}
    assert counts[5] == counts[40] <= 10


# ------------------------------------------------ batched walk-RNN

def mixed_lengths():
    """Ten family meshes of five walk lengths (V = 26, 34, 42, 50, 60),
    interleaved so no two neighbours share a length."""
    meshes = generate_classification_set(5, 4, seed=11).meshes
    return [meshes[k + 4 * c] for k in range(2) for c in range(5)]


def test_batched_walk_rnn_rows_equal_one_mesh_predict():
    from meshmoe.walks import walk_length
    meshes = mixed_lengths()
    assert len({walk_length(m.vertex_count) for m in meshes}) == 5
    for expert in build_experts(["walk_rnn", "walk_rnn"], 5, seed=3):
        seeds = [derive(8, expert.name, m.mesh_id) for m in meshes]
        rows, counts = predict_batch(expert, meshes, seeds)
        assert rows.shape == (len(meshes), 5) and counts == [1] * len(meshes)
        for row, mesh, seed in zip(rows.data, meshes, seeds):
            assert np.array_equal(row, expert.predict(mesh, seed).data)


def test_batched_gru_gradients_match_the_per_mesh_sum():
    """One GEMM per walk length replaces per-mesh accumulation, so the
    gradients agree to rounding, not to the bit."""
    meshes = mixed_lengths()
    expert = WalkRnnExpert("w", num_classes=5, seed=2)
    seeds = [derive(4, m.mesh_id) for m in meshes]
    weights = Tensor(Rng(6).normal_fill((len(meshes), 5)))

    def gradients(rows):
        for tensor in expert.params.values():
            tensor.grad = None
        ad.tsum(ad.mul(rows, weights)).backward()
        return {name: tensor.grad for name, tensor in expert.params.items()}

    batched = gradients(predict_batch(expert, meshes, seeds)[0])
    per_mesh = gradients(ad.stack([expert.predict(m, s) for m, s in zip(meshes, seeds)]))
    assert batched.keys() == per_mesh.keys()
    for name, grad in batched.items():
        assert grad.shape == per_mesh[name].shape
        assert np.allclose(grad, per_mesh[name], rtol=1e-12, atol=0.0), name


# ------------------------------------------------ batched perceptrons

def mixed_sizes():
    """Ten family meshes of five face and edge counts, interleaved, then two
    segmentation meshes."""
    return mixed_lengths() + generate_segmentation_set(4, seed=11).meshes[:2]


def test_batched_edge_seg_rows_equal_one_mesh_predict():
    """Every GEMM of the edge segmenter has a row per edge, alone or in a
    batch, and a row's bits do not depend on how many rows share its GEMM."""
    meshes = mixed_sizes()
    expert = EdgeSegmenterExpert("e", 3, seed=4)
    rows, counts = predict_batch(expert, meshes, [0] * len(meshes))
    assert counts == [m.edge_count for m in meshes] and len(set(counts)) > 4
    assert rows.shape == (sum(counts), 3)
    bounds = np.cumsum([0, *counts])
    for mesh, lo, hi in zip(meshes, bounds[:-1], bounds[1:]):
        assert np.array_equal(rows.data[lo:hi], expert.predict(mesh).data), mesh.mesh_id


def test_batched_face_mlp_rows_equal_one_mesh_predict_to_rounding():
    """The face rows and each mesh's pooled row are bit-equal in and out of a
    batch, but the head multiplies one pooled row per mesh: numpy takes a
    single row through a matrix-vector product, whose rounding differs
    from a row of a matrix product.  So one-mesh `predict` agrees to an
    ulp or so, and a mesh's row is bit-equal in every batch of two or more."""
    meshes = mixed_sizes()[:10]
    assert len({m.face_count for m in meshes}) == 5
    expert = FaceMlpExpert("f", 5, seed=4)
    rows, counts = predict_batch(expert, meshes, [0] * len(meshes))
    assert rows.shape == (len(meshes), 5) and counts == [1] * len(meshes)
    for k in range(0, len(meshes), 2):
        pair, _ = predict_batch(expert, meshes[k:k + 2], [0, 0])
        assert np.array_equal(pair.data, rows.data[k:k + 2])
    for mesh, row in zip(meshes, rows.data):
        np.testing.assert_allclose(row, expert.predict(mesh).data, rtol=1e-15, atol=0)


def test_predict_batch_rejects_mismatched_seeds():
    meshes = mixed_lengths()[:2]
    for expert in (WalkRnnExpert("w", 5, seed=1), FaceMlpExpert("f", 5, seed=1)):
        with pytest.raises(ExpertError, match="2 meshes but 1 seeds"):
            predict_batch(expert, meshes, [0])


def _iteration_system(specs, data):
    from meshmoe.trainer import build_system
    pool = build_experts(specs, num_classes=data.num_classes, seed=2, hidden=8)
    gate = GateConfig(num_experts=len(pool), encoder_layers=1, decoder_layers=1,
                      d_model=8, heads=2, ff_width=16)
    task = "segmentation" if "edge_seg" in specs else "classification"
    system = build_system(pool, task=task, gate_config=gate, seed=3)
    opts = {e.name: Adam(e.params, lr=1e-3) for e in pool}
    return system, Adam(system.gate_params, lr=1e-3), opts


def _recorded_gru_nodes(monkeypatch, experts) -> list:
    """(expert name, walk length) of each `gru_forward` node of `experts`
    in the graph of every later `Tensor.backward`."""
    owner = {id(e.params["gru.wz"]): e.name for e in experts if e.kind == "walk_rnn"}
    gru_nodes = []
    real_backward = Tensor.backward

    def recording_backward(root):
        gru_nodes.extend(
            (owner[id(node._parents[1])], node._parents[0].shape[1])
            for node in ad._topological_order(root) if node._parents
            and node._backward.__qualname__ == "gru_forward.<locals>.backward")
        return real_backward(root)

    monkeypatch.setattr(Tensor, "backward", recording_backward)
    return gru_nodes


def test_train_iteration_runs_one_gru_per_expert_and_walk_length(monkeypatch):
    from meshmoe.trainer import train_iteration
    from meshmoe.walks import walk_length
    data = generate_classification_set(5, 4, seed=11)
    system, gate_opt, opts = _iteration_system(
        ["walk_rnn", "face_mlp", "walk_rnn"], data)
    batch = mixed_lengths()[:7]
    lengths = {walk_length(m.vertex_count) for m in batch}
    assert len(lengths) == 5
    gru_nodes = _recorded_gru_nodes(monkeypatch, system.experts)
    train_iteration(system, batch, 0.5, gate_opt, opts, seed=4)
    names = [e.name for e in system.experts if e.kind == "walk_rnn"]
    assert sorted(gru_nodes) == sorted((name, length) for name in names
                                       for length in lengths)


def test_pretraining_batch_runs_one_gru_per_walk_length(monkeypatch):
    from meshmoe.walks import walk_length
    expert = WalkRnnExpert("w", num_classes=5, seed=2, hidden=8)
    batch = mixed_lengths()[:7]
    lengths = {walk_length(m.vertex_count) for m in batch}
    assert len(lengths) == 5
    gru_nodes = _recorded_gru_nodes(monkeypatch, [expert])
    train_expert_supervised(expert, batch, epochs=1, batch_size=len(batch), seed=4)
    assert sorted(gru_nodes) == sorted(("w", length) for length in lengths)


def test_imitation_targets_equal_one_mesh_predict(monkeypatch):
    """`pretrain_imitation` predicts its targets in one batch; each row is
    the expert's one-mesh prediction, bit for bit."""
    import meshmoe.gate as gate
    from meshmoe.walks import walk_length
    meshes = mixed_lengths()
    assert len({walk_length(m.vertex_count) for m in meshes}) == 5
    expert = WalkRnnExpert("w", num_classes=5, seed=2, hidden=8)
    config = GateConfig(num_experts=1, encoder_layers=1, decoder_layers=1,
                        d_model=8, heads=2, ff_width=16,
                        head_mode="class_imitation", num_classes=5)
    seen = {}
    real_loss = gate.imitation_loss

    def recording_loss(params, cfg, batch, targets, *args):
        seen.update((mesh.mesh_id, target) for mesh, target in zip(batch, targets))
        return real_loss(params, cfg, batch, targets, *args)

    monkeypatch.setattr(gate, "imitation_loss", recording_loss)
    gate.pretrain_imitation(gate.init_gate_params(config, 0), config, expert, meshes,
                            epochs=1, walk_count=2, batch_size=4, seed=9)
    assert seen.keys() == {m.mesh_id for m in meshes}
    for mesh in meshes:
        want = expert.predict(mesh, derive(9, "target", mesh.mesh_id)).data
        assert np.array_equal(seen[mesh.mesh_id], want), mesh.mesh_id


@pytest.mark.parametrize("specs", [["walk_rnn", "face_mlp", "face_mlp"],
                                   ["edge_seg", "edge_seg"]],
                         ids=["face_mlp", "edge_seg"])
def test_train_iteration_runs_each_expert_once_per_batch(specs, monkeypatch):
    """A training step runs every trainable expert once over the whole
    batch (`rows`) and never calls the one-mesh `predict`."""
    from meshmoe.trainer import train_iteration
    data = (generate_segmentation_set(per_class=4, seed=6) if "edge_seg" in specs
            else generate_classification_set(5, 4, seed=11))
    system, gate_opt, opts = _iteration_system(specs, data)
    calls = []
    for cls in (WalkRnnExpert, FaceMlpExpert, EdgeSegmenterExpert):
        def predicting(self, mesh, seed=None, real=cls.predict):
            calls.append(("predict", self.name))
            return real(self, mesh, seed)

        def batched(self, meshes, seeds, real=cls.rows):
            calls.append(("rows", self.name, len(meshes)))
            return real(self, meshes, seeds)
        monkeypatch.setattr(cls, "predict", predicting)
        monkeypatch.setattr(cls, "rows", batched)
    batch = data.train_meshes[:5]
    train_iteration(system, batch, 0.5, gate_opt, opts, seed=4)
    assert calls == [("rows", e.name, len(batch)) for e in system.experts]


def test_face_mlp_output_contract(tetrahedron):
    expert = FaceMlpExpert("f", num_classes=4, seed=2)
    pred = expert.predict(tetrahedron)
    assert pred.shape == (4,)
    assert pred.data.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_array_equal(pred.data, expert.predict(tetrahedron).data)


def test_face_features_zero_area_safe():
    # a sliver face with two nearly coincident corners: tiny but valid
    verts = [[0, 0, 0], [1, 0, 0], [0.5, 1e-13, 0], [0, 1, 0]]
    mesh = build_mesh(verts, [[0, 1, 2], [0, 2, 3]])
    feats = FaceMlpExpert.face_features(mesh)
    assert np.all(np.isfinite(feats))
    np.testing.assert_allclose(feats[0, 3:6], 0.0, atol=1e-9)  # zero normal


def test_face_pooling_symmetry(tetrahedron):
    """Identical face-feature multisets give identical predictions."""
    expert = FaceMlpExpert("f", num_classes=3, seed=5)
    reordered = build_mesh(tetrahedron.vertices, tetrahedron.faces[::-1],
                           mesh_id="reordered")
    np.testing.assert_allclose(expert.predict(tetrahedron).data,
                               expert.predict(reordered).data, atol=1e-12)


def test_edge_segmenter_rows_normalized(tetrahedron):
    expert = EdgeSegmenterExpert("e", num_classes=3, seed=3)
    pred = expert.predict(tetrahedron)
    assert pred.shape == (tetrahedron.edge_count, 3)
    np.testing.assert_allclose(pred.data.sum(axis=1), 1.0, atol=1e-9)


def test_edge_features_boundary_dihedral_zero(triangle):
    feats = EdgeSegmenterExpert.edge_features(triangle)
    np.testing.assert_array_equal(feats[:, 1], 0.0)


def _edge_features_reference(mesh):
    """Per-edge loop: (length, 1 - cos(dihedral) on two-face edges, midpoint z)."""
    normals, _ = face_normals(mesh)
    features = np.zeros((mesh.edge_count, 3))
    for e, (lo, hi) in enumerate(mesh.edges):
        features[e, 0] = mesh.edge_lengths[e]
        incident = mesh.edge_faces[e]
        if len(incident) == 2:
            features[e, 1] = 1.0 - float(normals[incident[0]] @ normals[incident[1]])
        features[e, 2] = mesh.vertices[[lo, hi]].mean(axis=0)[2]
    return features


def test_edge_features_match_per_edge_reference(triangle):
    # three faces on edge (0, 1): a non-manifold edge keeps the flat value
    fan = build_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0.5], [0.5, 0.2, 1]],
                     [[0, 1, 2], [0, 1, 3], [0, 1, 4]], mesh_id="fan")
    meshes = (generate_classification_set(3, 4, seed=4).meshes
              + generate_segmentation_set(per_class=4, seed=4).meshes
              + [triangle, fan])
    for mesh in meshes:
        got = EdgeSegmenterExpert.edge_features(mesh)
        assert got.tobytes() == _edge_features_reference(mesh).tobytes(), mesh.mesh_id
    assert EdgeSegmenterExpert.edge_features(fan)[0, 1] == 0.0


# ------------------------------------------------ per-mesh input cache

def _uncached_bits(monkeypatch, expert, mesh):
    """`predict` on an input array fresh from the static builder."""
    with monkeypatch.context() as patch:
        patch.setattr(experts_module, "_mesh_input",
                      lambda mesh, kind, build: build(mesh))
        return expert.predict(mesh).data.tobytes()


@pytest.mark.parametrize("expert_cls", [FaceMlpExpert, EdgeSegmenterExpert],
                         ids=["face_mlp", "edge_seg"])
def test_cached_inputs_give_the_same_bits(expert_cls, monkeypatch):
    """Cold call, warm call and a fresh static-builder array agree to the bit."""
    mesh = build_mesh(*torus(6, 5), mesh_id="t")
    expert = expert_cls("x", num_classes=3, seed=4)
    cold = expert.predict(mesh).data.tobytes()
    assert mesh in experts_module._mesh_inputs
    warm = expert.predict(mesh).data.tobytes()
    assert cold == warm == _uncached_bits(monkeypatch, expert, mesh)
    other = expert_cls("y", num_classes=3, seed=5)        # shares the entry
    assert other.predict(mesh).data.tobytes() == _uncached_bits(monkeypatch, other, mesh)


@pytest.mark.parametrize("expert_cls", [FaceMlpExpert, EdgeSegmenterExpert],
                         ids=["face_mlp", "edge_seg"])
def test_rebuilt_mesh_gets_its_own_inputs(expert_cls, monkeypatch):
    mesh = build_mesh(*torus(6, 5), mesh_id="t")
    expert = expert_cls("x", num_classes=3, seed=4)
    before = expert.predict(mesh).data
    moved = replace(mesh, vertices=mesh.vertices * 2.0 + 0.5)
    after = expert.predict(moved).data
    assert after.tobytes() == _uncached_bits(monkeypatch, expert, moved)
    assert not np.array_equal(before, after)
    assert expert.predict(mesh).data.tobytes() == before.tobytes()


def test_cached_inputs_are_read_only():
    mesh = build_mesh(*torus(6, 5), mesh_id="t")
    for expert in (FaceMlpExpert("f", 3, seed=1), EdgeSegmenterExpert("e", 3, seed=1)):
        expert.predict(mesh)
        cached = experts_module._mesh_inputs[mesh][expert.kind]
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0


def test_cache_entry_dies_with_its_mesh():
    mesh = build_mesh(*torus(6, 5), mesh_id="t")
    FaceMlpExpert("f", 3, seed=1).predict(mesh)
    EdgeSegmenterExpert("e", 3, seed=1).predict(mesh)
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


def test_training_builds_edge_features_once_per_mesh(monkeypatch):
    """Two epochs of three edge experts: one feature build per training mesh."""
    from meshmoe.trainer import build_system, train_run
    data = generate_segmentation_set(per_class=4, seed=6)
    built = []
    original = EdgeSegmenterExpert.edge_features

    def counting(mesh):
        built.append(mesh)
        return original(mesh)

    monkeypatch.setattr(EdgeSegmenterExpert, "edge_features", staticmethod(counting))
    pool = build_experts(["edge_seg"] * 3, num_classes=data.num_classes, seed=2,
                         hidden=8)
    gate = GateConfig(num_experts=3, encoder_layers=1, decoder_layers=1,
                      d_model=8, heads=2, ff_width=16)
    system = build_system(pool, task="segmentation", gate_config=gate, seed=3)
    train_run(system, data, StaticLambdaAgent(0.1), epochs=2, batch_size=4, seed=1)
    assert len(built) == len(data.train_meshes)
    assert {id(m) for m in built} == {id(m) for m in data.train_meshes}


def test_bad_mesh_raises_and_leaves_no_cache_entry():
    faceless = mesh_from_edges([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [(0, 1), (1, 2)])
    edgeless = mesh_from_edges([[0.0, 0.0, 0.0]], [], mesh_id="point")
    with pytest.raises(ExpertError, match="needs faces"):
        FaceMlpExpert("f", 3, seed=1).predict(faceless)
    with pytest.raises(ExpertError, match="needs edges"):
        EdgeSegmenterExpert("e", 3, seed=1).predict(edgeless)
    assert faceless not in experts_module._mesh_inputs
    assert edgeless not in experts_module._mesh_inputs


def test_oracle_specialty_and_determinism():
    ds = generate_classification_set(3, 5, seed=21)
    oracle = OracleExpert("o0", 3, specialty_class=0, accuracy=1.0, seed=9)
    for mesh in ds.meshes:
        pred = oracle.predict(mesh)
        np.testing.assert_array_equal(pred.data, oracle.predict(mesh).data)
        assert pred.data.sum() == pytest.approx(1.0)
        if mesh.class_label == 0:
            assert np.argmax(pred.data) == 0 and pred.data[0] == 1.0


def test_oracle_expected_accuracy_monte_carlo():
    """Perfect on 1 of 3 classes, random elsewhere: accuracy -> 5/9.

    Closed form: (1 + 1/3 + 1/3) / 3 = 5/9 = 0.5555...; checked over
    10,000 pseudo-meshes (binomial sigma ~ 0.005, tolerance 4 sigma).
    """
    class FakeMesh:
        def __init__(self, mesh_id, label):
            self.mesh_id = mesh_id
            self.class_label = label

    oracle = OracleExpert("mc", 3, specialty_class=0, accuracy=1.0, seed=123)
    hits = 0
    n = 10000
    for i in range(n):
        label = i % 3
        pred = oracle.predict(FakeMesh(f"fake_{i}", label))
        hits += int(np.argmax(pred.data) == label)
    assert hits / n == pytest.approx(5 / 9, abs=0.02)


def test_oracle_uniform_behavior():
    class FakeMesh:
        mesh_id = "u"
        class_label = 2

    oracle = OracleExpert("u", 4, specialty_class=0, behavior="uniform")
    np.testing.assert_allclose(oracle.predict(FakeMesh()).data, 0.25)


def test_oracle_validation():
    with pytest.raises(ExpertError, match="accuracy"):
        OracleExpert("o", 3, 0, accuracy=1.5)
    with pytest.raises(ExpertError, match="behavior"):
        OracleExpert("o", 3, 0, behavior="sometimes")
    with pytest.raises(ExpertError, match="out of range"):
        OracleExpert("o", 3, 5)


@pytest.mark.parametrize("spec, detail", [
    ("oracle:3", "specialty class 3 is out of range for 3 classes"),
    ("oracle:x", "invalid literal"),
    ("oracle:0:high", "could not convert"),
    ("oracle:0:1.0:sometimes", "behavior"),
])
def test_bad_oracle_spec_names_the_spec(spec, detail):
    with pytest.raises(ExpertError, match=f"^expert spec {spec}: .*{detail}"):
        make_expert(spec, "o", 3, seed=1)


def test_registry_parsing():
    oracle = make_expert("oracle:2:0.75:uniform", "o", 3, seed=1)
    assert (oracle.specialty_class, oracle.accuracy, oracle.behavior) == (2, 0.75, "uniform")
    assert make_expert("walk_rnn", "w", 3, seed=1).kind == "walk_rnn"
    assert make_expert("face_mlp", "f", 3, seed=1).kind == "face_mlp"
    assert make_expert("edge_seg", "e", 3, seed=1).kind == "edge_seg"
    with pytest.raises(ExpertError, match="unknown expert spec"):
        make_expert("resnet", "r", 3, seed=1)


def test_build_experts_unique_names():
    pool = build_experts(["walk_rnn", "walk_rnn", "oracle:0"], 3, seed=2)
    names = [e.name for e in pool]
    assert len(set(names)) == 3
    # same spec, different position -> different init
    assert not np.array_equal(pool[0].params["head.w"].data,
                              pool[1].params["head.w"].data)


def test_trainable_experts_losses_decrease():
    """Training loss improves over 5 epochs on the synthetic set (3 seeds)."""
    ds = generate_classification_set(3, 20, seed=31)
    meshes = ds.train_meshes
    for spec in ("face_mlp", "walk_rnn"):
        for seed in (0, 1, 2):
            expert = make_expert(spec, spec, 3, seed=seed)
            history = train_expert_supervised(expert, meshes, epochs=5, lr=1e-2,
                                              seed=seed)
            assert history[-1] < history[0], f"{spec} seed {seed}: {history}"


def test_trained_experts_beat_70_percent_held_out():
    """Both trainable experts clear 70% test accuracy after training (3 seeds)."""
    from meshmoe.metrics import mean_instance_accuracy
    ds = generate_classification_set(3, 20, seed=31)
    for spec, lr in (("face_mlp", 1e-2), ("walk_rnn", 3e-3)):
        for seed in (0, 1, 2):
            expert = make_expert(spec, spec, 3, seed=seed)
            train_expert_supervised(expert, ds.train_meshes, epochs=30, lr=lr, seed=seed)
            preds, targets = [], []
            for m in ds.test_meshes:
                pred = expert.predict(m, derive(123, m.mesh_id))
                preds.append(int(np.argmax(pred.data)))
                targets.append(m.class_label)
            acc = mean_instance_accuracy(preds, targets)
            assert acc > 0.7, f"{spec} seed {seed}: {acc}"


def test_edge_segmenter_learns_mid_height_split():
    """Cylinder cut at z=0: trained edge accuracy beats 85% (3 seeds)."""
    verts, faces = cylinder(12, 7)
    probe = build_mesh(verts, faces)
    mesh = build_mesh(verts, faces, mesh_id="cyl2",
                      edge_labels=segment_labels(verts, probe.edges, 2))
    from meshmoe.metrics import edge_accuracy
    for seed in (0, 1, 2):
        expert = EdgeSegmenterExpert("e", num_classes=2, seed=seed)
        train_expert_supervised(expert, [mesh], epochs=60, lr=1e-2, seed=seed)
        pred = np.argmax(expert.predict(mesh).data, axis=1)
        acc = edge_accuracy(pred, mesh.edge_labels, mesh.edge_lengths)
        assert acc > 0.85, f"seed {seed}: {acc}"


def test_one_target_rule_dispatches_on_the_row_layout(tetrahedron):
    """Per-edge rows are scored against the edge labels, a class vector
    against the class label; a missing label is an error naming the mesh."""
    with pytest.raises(ExpertError, match="tetra: no class label"):
        mesh_target(tetrahedron, per_edge=False)
    with pytest.raises(ExpertError, match="tetra: no edge labels"):
        mesh_target(tetrahedron, per_edge=True)
    tetrahedron.class_label = 1
    tetrahedron.edge_labels = np.arange(tetrahedron.edge_count) % 2
    assert mesh_target(tetrahedron, per_edge=False) == 1
    assert mesh_target(tetrahedron, per_edge=True) is tetrahedron.edge_labels
    for expert in (FaceMlpExpert("f", 3, seed=1), EdgeSegmenterExpert("e", 2, seed=1)):
        pred, target = expert.predict(tetrahedron), mesh_target(tetrahedron, expert.per_edge)
        ce = mesh_cross_entropy(*stacked_rows([[pred]]), [target])
        assert ce.shape == (1, 1)
        rows = np.reshape(pred.data, (-1, pred.shape[-1]))
        picked = rows[np.arange(len(rows)), np.reshape(target, -1)]
        assert ce.data[0, 0] == pytest.approx(-np.log(picked).mean(), rel=1e-12)


def test_oracle_not_trainable():
    oracle = OracleExpert("o", 3, 0)
    assert oracle.trainable is False and oracle.params is None
    with pytest.raises(ExpertError, match="not trainable"):
        train_expert_supervised(oracle, [], epochs=1)


@pytest.mark.parametrize("spec, expected", [
    ("face_mlp", [0.7451623203114187, 0.6969072000339542]),
    ("walk_rnn", [0.647929830868516, 0.6696016078060841]),
    ("edge_seg", [1.4479891647382472, 1.3638619757901742]),
], ids=["face_mlp", "walk_rnn", "edge_seg"])
def test_supervised_loss_history_is_pinned(spec, expected):
    """Two epochs of two batches (4 + 2 meshes), equal to the last bit."""
    data = (generate_segmentation_set(per_class=4, seed=3) if spec == "edge_seg"
            else generate_classification_set(2, 4, seed=3))
    meshes = data.train_meshes[:6]
    expert = build_experts([spec], num_classes=data.num_classes, seed=4, hidden=8)[0]
    assert train_expert_supervised(expert, meshes, epochs=2, batch_size=4,
                                   lr=1e-2, seed=5) == expected
