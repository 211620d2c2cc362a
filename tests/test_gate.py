"""Gate: shape contracts, determinism, aggregation, averaging, permutation."""

import numpy as np
import pytest

from meshmoe import autodiff as ad
from meshmoe.autodiff import Tensor
from meshmoe.gate import (GateConfig, GateError, average_pretrained_gates,
                          gate_forward_batch, gate_forward_features,
                          gate_forward_mesh, gate_forward_walk,
                          init_gate_params, pretrain_imitation)
from meshmoe.gradcheck import check_gradients
from meshmoe.rng import Rng
from meshmoe.synth import generate_classification_set
from meshmoe.walks import extract_walk, walk_length

TINY = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2,
                  d_model=8, heads=2, ff_width=16)


def test_config_validation():
    with pytest.raises(GateError, match="divide evenly"):
        GateConfig(num_experts=2, d_model=10, heads=4)
    with pytest.raises(GateError, match="head_mode"):
        GateConfig(num_experts=2, head_mode="blend")
    with pytest.raises(GateError, match="num_classes"):
        GateConfig(num_experts=2, head_mode="class_imitation", num_classes=0)


def test_default_config_is_paper_faithful():
    cfg = GateConfig(num_experts=3)
    assert cfg.encoder_layers == 8 and cfg.decoder_layers == 8


def test_head_shapes(tetrahedron):
    walk = extract_walk(tetrahedron, seed=1)
    params = init_gate_params(TINY, seed=2)
    logits = gate_forward_walk(walk, params, TINY)
    assert logits.shape == (3,)

    imit = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2,
                      d_model=8, heads=2, ff_width=16,
                      head_mode="class_imitation", num_classes=30)
    params30 = init_gate_params(imit, seed=2)
    assert gate_forward_walk(walk, params30, imit).shape == (30,)


def test_identical_walks_identical_logits(tetrahedron):
    params = init_gate_params(TINY, seed=3)
    walk = extract_walk(tetrahedron, seed=7)
    a = gate_forward_walk(walk, params, TINY)
    b = gate_forward_walk(walk, params, TINY)
    np.testing.assert_array_equal(a.data, b.data)


def test_walk_length_agnostic(tetrahedron, triangle):
    """Same parameters work for any L >= 2 without shape errors."""
    params = init_gate_params(TINY, seed=4)
    for mesh in (tetrahedron, triangle):
        for length in (2, 3):
            walk = extract_walk(mesh, seed=1, length=length)
            assert gate_forward_walk(walk, params, TINY).shape == (3,)


def test_gate_weights_sum_to_one_on_random_fixtures():
    ds = generate_classification_set(3, 4, seed=11)
    params = init_gate_params(TINY, seed=5)
    for i, mesh in enumerate(ds.meshes[:12]):
        weights = gate_forward_mesh(mesh, 4, params, TINY, seed=i)
        assert weights.shape == (3,)
        assert weights.data.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(weights.data > 0)


def test_single_walk_equals_softmax_of_logits(tetrahedron):
    params = init_gate_params(TINY, seed=6)
    weights = gate_forward_mesh(tetrahedron, 1, params, TINY, seed=9)
    from meshmoe.walks import extract_walks
    walk = extract_walks(tetrahedron, 1, 9)[0]
    logits = gate_forward_walk(walk, params, TINY)
    np.testing.assert_allclose(weights.data, ad.softmax(logits).data, atol=1e-15)


def test_mean_logit_aggregation(tetrahedron):
    """Mesh weights are softmax of the mean of per-walk logits."""
    from meshmoe.walks import extract_walks
    params = init_gate_params(TINY, seed=16)
    walks = extract_walks(tetrahedron, 4, 21)
    logit_rows = [gate_forward_walk(w, params, TINY).data for w in walks]
    expected = np.exp(np.mean(logit_rows, axis=0))
    expected /= expected.sum()
    weights = gate_forward_mesh(tetrahedron, 4, params, TINY, seed=21)
    np.testing.assert_allclose(weights.data, expected, atol=1e-12)


def test_permuting_head_permutes_weights(tetrahedron):
    """Reordering columns of the expert head reorders GateWeights."""
    params = init_gate_params(TINY, seed=7)
    weights = gate_forward_mesh(tetrahedron, 2, params, TINY, seed=1).data
    perm = [2, 0, 1]
    params["head.expert.w"] = Tensor(params["head.expert.w"].data[:, perm],
                                     requires_grad=True)
    params["head.expert.b"] = Tensor(params["head.expert.b"].data[perm],
                                     requires_grad=True)
    permuted = gate_forward_mesh(tetrahedron, 2, params, TINY, seed=1).data
    np.testing.assert_allclose(permuted, weights[perm], atol=1e-12)
    assert np.argmax(permuted) == perm.index(np.argmax(weights)) or np.allclose(
        sorted(permuted), sorted(weights))


def test_gate_end_to_end_gradients(tetrahedron):
    """Finite differences through embed + encoder + decoder + head."""
    params = init_gate_params(TINY, seed=8)
    walk = extract_walk(tetrahedron, seed=2)
    target = 1

    def fn():
        logits = gate_forward_walk(walk, params, TINY)
        from meshmoe.layers import cross_entropy
        return cross_entropy(ad.softmax(logits), target)

    report = check_gradients(fn, params, max_coords=3, tolerance=1e-4)
    assert report.passed, str(report)


def test_batched_walks_match_loop(tetrahedron):
    from meshmoe.walks import extract_walks, walk_feature_batch
    params = init_gate_params(TINY, seed=9)
    walks = extract_walks(tetrahedron, 3, seed=5)
    batched = gate_forward_features(walk_feature_batch(walks), params, TINY).data
    for i, walk in enumerate(walks):
        np.testing.assert_allclose(
            batched[i], gate_forward_walk(walk, params, TINY).data, atol=1e-12)


def test_batched_rows_equal_per_mesh_rows_in_input_order():
    """One gate call per walk length gives each mesh its own row, bit for bit."""
    ds = generate_classification_set(3, 4, seed=11)
    params = init_gate_params(TINY, seed=14)
    by_length = {}
    for mesh in ds.meshes:
        by_length.setdefault(walk_length(mesh.vertex_count), []).append(mesh)
    short, long = sorted(by_length)[:2]
    batch = [by_length[short][0], by_length[long][0], by_length[short][1],
             by_length[long][1], by_length[short][2]]
    seeds = [30 + i for i in range(len(batch))]
    rows = gate_forward_batch(batch, 3, params, TINY, seeds)
    assert len(rows) == len(batch)
    for row, mesh, seed in zip(rows, batch, seeds):
        assert row.shape == (3,)
        np.testing.assert_array_equal(
            row.data, gate_forward_mesh(mesh, 3, params, TINY, seed).data)


def test_batched_rows_reject_seed_count_mismatch(tetrahedron):
    params = init_gate_params(TINY, seed=15)
    with pytest.raises(GateError, match="seeds"):
        gate_forward_batch([tetrahedron, tetrahedron], 2, params, TINY, [1])


def test_average_pretrained_gates_identities():
    params_a = init_gate_params(TINY, seed=10)
    # averaging one set leaves the body unchanged
    merged = average_pretrained_gates([params_a], TINY, seed=99)
    for path in params_a:
        if not path.startswith("head."):
            np.testing.assert_array_equal(merged[path].data, params_a[path].data)
    # set with itself: unchanged; w and -w: zero body
    merged2 = average_pretrained_gates([params_a, params_a], TINY, seed=99)
    negated = {k: Tensor(-v.data, requires_grad=True) if not k.startswith("head.")
               else v for k, v in params_a.items()}
    merged3 = average_pretrained_gates([params_a, negated], TINY, seed=99)
    for path in params_a:
        if not path.startswith("head."):
            np.testing.assert_array_equal(merged2[path].data, params_a[path].data)
            np.testing.assert_allclose(merged3[path].data, 0.0, atol=1e-15)


def test_average_fresh_head_differs():
    params_a = init_gate_params(TINY, seed=11)
    merged = average_pretrained_gates([params_a], TINY, seed=1234)
    assert not np.array_equal(merged["head.expert.w"].data,
                              params_a["head.expert.w"].data)


def test_average_shape_mismatch_rejected():
    small = init_gate_params(TINY, seed=12)
    other = dict(small)
    other["embed.w"] = Tensor(np.zeros((4, 16)), requires_grad=True)
    with pytest.raises(GateError, match="shape mismatch"):
        average_pretrained_gates([small, other], TINY, seed=0)


def test_pretrain_imitation_reduces_loss():
    """Imitation loss after training < before, on a 3-class fixture."""
    from meshmoe.experts import OracleExpert
    from meshmoe.gate import imitation_loss
    ds = generate_classification_set(3, 4, seed=13)
    cfg = GateConfig(num_experts=3, encoder_layers=1, decoder_layers=1,
                     d_model=8, heads=2, ff_width=16,
                     head_mode="class_imitation", num_classes=3)
    for seed in (0, 1, 2):
        params = init_gate_params(cfg, seed=seed)
        expert = OracleExpert("oracle", 3, specialty_class=0, seed=seed)
        meshes = ds.train_meshes[:9]
        targets = [expert.predict(m).data for m in meshes]
        before = imitation_loss(params, cfg, meshes, targets, 2, seed=77).item()
        pretrain_imitation(params, cfg, expert, meshes, epochs=3, walk_count=2,
                           lr=3e-3, seed=seed)
        after = imitation_loss(params, cfg, meshes, targets, 2, seed=77).item()
        assert after < before


def test_pretrain_requires_imitation_mode():
    from meshmoe.experts import OracleExpert
    with pytest.raises(GateError, match="class_imitation"):
        pretrain_imitation(init_gate_params(TINY, 0), TINY,
                           OracleExpert("o", 3, 0), [], epochs=1)
