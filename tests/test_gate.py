"""Gate: shape contracts, determinism, aggregation, averaging, permutation,
grad-free chunking, two shards per graph batch."""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from meshmoe import autodiff as ad
from meshmoe import layers
from meshmoe.autodiff import Tensor
from meshmoe.experts import build_experts
from meshmoe.gate import (CHUNK_TOKENS, GateConfig, GateError,
                          average_pretrained_gates, compute_view, gate_forward_batch,
                          gate_forward_features, gate_forward_mesh,
                          init_gate_params, pretrain_imitation)
from meshmoe.gradcheck import check_gradients
from meshmoe.rng import Rng, derive
from meshmoe.synth import generate_classification_set
from meshmoe.walks import walk_length
from walk_reference import extract_walk, walk_features

TINY = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2,
                  d_model=8, heads=2, ff_width=16)


def gate_forward_walk(mesh, walk, params, config):
    """Per-walk reference: the logits of one walk, shape (out_dim,)."""
    logits = gate_forward_features(walk_features(mesh, [walk]), params, config)
    return ad.reshape(logits, (logits.shape[1],))


def test_config_validation():
    with pytest.raises(GateError, match="heads must divide d_model"):
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
    logits = gate_forward_walk(tetrahedron, walk, params, TINY)
    assert logits.shape == (3,)

    imit = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2,
                      d_model=8, heads=2, ff_width=16,
                      head_mode="class_imitation", num_classes=30)
    params30 = init_gate_params(imit, seed=2)
    assert gate_forward_walk(tetrahedron, walk, params30, imit).shape == (30,)


def test_identical_walks_identical_logits(tetrahedron):
    params = init_gate_params(TINY, seed=3)
    walk = extract_walk(tetrahedron, seed=7)
    a = gate_forward_walk(tetrahedron, walk, params, TINY)
    b = gate_forward_walk(tetrahedron, walk, params, TINY)
    np.testing.assert_array_equal(a.data, b.data)


def test_walk_length_agnostic(tetrahedron, triangle):
    """Same parameters work for any L >= 2 without shape errors."""
    params = init_gate_params(TINY, seed=4)
    for mesh in (tetrahedron, triangle):
        for length in (2, 3):
            walk = extract_walk(mesh, seed=1, length=length)
            assert gate_forward_walk(mesh, walk, params, TINY).shape == (3,)


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
    logits = gate_forward_walk(tetrahedron, walk, params, TINY)
    np.testing.assert_allclose(weights.data, ad.softmax(logits).data, atol=1e-15)


def test_mean_logit_aggregation(tetrahedron):
    """Mesh weights are softmax of the mean of per-walk logits."""
    from meshmoe.walks import extract_walks
    params = init_gate_params(TINY, seed=16)
    walks = extract_walks(tetrahedron, 4, 21)
    logit_rows = [gate_forward_walk(tetrahedron, w, params, TINY).data for w in walks]
    expected = np.exp(np.mean(logit_rows, axis=0))
    expected /= expected.sum()
    weights = gate_forward_mesh(tetrahedron, 4, params, TINY, seed=21)
    np.testing.assert_allclose(weights.data, expected, atol=1e-12)


def test_permuting_head_permutes_weights(tetrahedron):
    """Reordering columns of the expert head reorders GateWeights."""
    params = init_gate_params(TINY, seed=7)
    weights = gate_forward_mesh(tetrahedron, 2, params, TINY, seed=1).data
    perm = [2, 0, 1]
    params["head.w"] = Tensor(params["head.w"].data[:, perm], requires_grad=True)
    params["head.b"] = Tensor(params["head.b"].data[perm], requires_grad=True)
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
        logits = gate_forward_walk(tetrahedron, walk, params, TINY)
        from meshmoe.layers import cross_entropy
        return cross_entropy(ad.softmax(logits), target)

    report = check_gradients(fn, params, max_coords=3, tolerance=1e-4)
    assert report.passed, str(report)


def test_decoder_projects_no_memory(monkeypatch, tetrahedron):
    """Six linears per encoder block, four per decoder block (no key or
    value projection of the memory), plus the embedding and the head."""
    config = GateConfig(num_experts=3, encoder_layers=3, decoder_layers=2,
                        d_model=8, heads=2, ff_width=16)
    params = init_gate_params(config, seed=8)
    calls = []
    real_linear = layers.linear

    def counting_linear(*args):
        calls.append(args[1])
        return real_linear(*args)

    monkeypatch.setattr(layers, "linear", counting_linear)
    gate_forward_mesh(tetrahedron, 3, params, config, seed=1)
    assert len(calls) == 6 * 3 + 4 * 2 + 2
    decoder_weights = {id(params[f"dec.{i}.attn.{w}"]) for i in range(2) for w in ("wk", "wv")}
    assert not any(id(w) in decoder_weights for w in calls)


def test_batched_walks_match_loop(tetrahedron):
    from meshmoe.walks import extract_walks
    params = init_gate_params(TINY, seed=9)
    walks = extract_walks(tetrahedron, 3, seed=5)
    batched = gate_forward_features(walk_features(tetrahedron, walks), params, TINY).data
    for i, walk in enumerate(walks):
        np.testing.assert_allclose(
            batched[i], gate_forward_walk(tetrahedron, walk, params, TINY).data, atol=1e-12)


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


def frozen(params, dtype=np.float32):
    """Grad-free `dtype` copies of `params`; float32 is what
    `trainer.inference` makes."""
    return {name: Tensor(tensor.data.astype(dtype)) for name, tensor in params.items()}


def trainable(params, dtype):
    """Trainable `dtype` copies of `params`: the gate builds a graph on them."""
    return {name: Tensor(tensor.data.astype(dtype), requires_grad=True)
            for name, tensor in params.items()}


def assert_chunks_equal_one_graph_chunk(head_mode, dtype):
    """Chunks of 5 walks (the last of 2) give the bits of one 32-walk graph
    call on `dtype` parameters."""
    config = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2,
                        d_model=8, heads=2, ff_width=16, head_mode=head_mode,
                        num_classes=5)
    walks, length = 32, 100
    assert CHUNK_TOKENS // length == 5 and walks % 5 != 0
    features = Rng(9).normal_fill((walks, length, 4))
    params = init_gate_params(config, seed=6)
    trained = gate_forward_features(features, trainable(params, dtype), config)
    chunked = gate_forward_features(features, frozen(params, dtype), config)
    assert trained._parents and chunked._parents == ()
    assert chunked.shape == trained.shape
    assert chunked.data.dtype == trained.data.dtype == dtype
    assert np.array_equal(chunked.data, trained.data)


@pytest.mark.parametrize("head_mode", ["expert_weights", "class_imitation"])
def test_grad_free_chunks_equal_one_graph_chunk(head_mode):
    """In float64, as the gradient battery runs the gate."""
    assert_chunks_equal_one_graph_chunk(head_mode, np.float64)


@pytest.mark.parametrize("head_mode", ["expert_weights", "class_imitation"])
def test_float32_grad_free_chunks_equal_one_float32_graph_chunk(head_mode):
    """In float32, as `compute_view(..., graph=False)` runs it at inference."""
    assert_chunks_equal_one_graph_chunk(head_mode, np.float32)


def chunk_threads(monkeypatch, cpus: int, blas, meet=False, fail=False):
    """Pin the worker rule's inputs: `cpus` usable CPUs and `blas` BLAS
    threads (None: unknown).  Returns the idents of the threads that run
    each chunk.  With `meet`, each thread's first chunk waits until two
    threads hold one, so both surely work; with `fail`, a helper's chunk
    raises."""
    import meshmoe.gate as gate
    monkeypatch.setattr(gate.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(gate, "blas_threads", lambda: blas)
    real, idents, seen = gate._walk_tokens, [], threading.local()
    barrier = threading.Barrier(2, timeout=30)

    def recording(*args):
        idents.append(threading.get_ident())
        if meet and not getattr(seen, "met", False):
            seen.met = True
            barrier.wait()
        if fail and threading.current_thread() is not threading.main_thread():
            raise RuntimeError("chunk failed in a helper")
        return real(*args)

    monkeypatch.setattr(gate, "_walk_tokens", recording)
    return idents


@pytest.mark.parametrize("walks, length", [(3, 257), (7, 256)])
def test_two_chunk_workers_give_the_rows_of_one(monkeypatch, walks, length):
    """Chunks of 1 walk at L=257 and of 2 walks at L=256, the last of 1."""
    chunk = max(1, CHUNK_TOKENS // length)
    assert (chunk, walks % chunk) in ((1, 0), (2, 1))
    features = Rng(5).normal_fill((walks, length, 4))
    params = frozen(init_gate_params(TINY, seed=8))
    idents = chunk_threads(monkeypatch, cpus=1, blas=1)
    one = gate_forward_features(features, params, TINY)
    assert len(set(idents)) == 1
    idents = chunk_threads(monkeypatch, cpus=2, blas=1, meet=True)
    two = gate_forward_features(features, params, TINY)
    assert len(set(idents)) == 2 and len(idents) == -(-walks // chunk)
    assert one.data.dtype == two.data.dtype == np.float32
    assert np.array_equal(one.data, two.data)


def test_a_helper_chunk_error_reaches_the_caller_and_no_thread_is_left(monkeypatch):
    features = Rng(5).normal_fill((4, 257, 4))
    params = frozen(init_gate_params(TINY, seed=8))
    before = threading.active_count()
    chunk_threads(monkeypatch, cpus=2, blas=1, meet=True, fail=True)
    with pytest.raises(RuntimeError, match="chunk failed in a helper"):
        gate_forward_features(features, params, TINY)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus, blas", [(2, 2), (3, 2), (4, None), (1, 1)])
def test_chunks_run_on_one_thread_when_no_cpu_is_idle(monkeypatch, cpus, blas):
    """BLAS threads x 2 workers would exceed the usable CPUs, or the BLAS
    count is unknown."""
    features = Rng(5).normal_fill((4, 257, 4))
    idents = chunk_threads(monkeypatch, cpus, blas)
    gate_forward_features(features, frozen(init_gate_params(TINY, seed=8)), TINY)
    assert idents == [threading.get_ident()] * 4


def test_many_chunk_workers_run_each_item_once_into_its_own_slot(monkeypatch):
    """More workers than cores, switching threads as often as the
    interpreter allows: every item still runs once, into its own slot."""
    import meshmoe.gate as gate
    monkeypatch.setattr(gate, "_chunk_workers", lambda chunks: 8)
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = gate._on_idle_cpus(lambda i: calls.append(i) or i * i, list(range(500)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(500)]
    assert sorted(calls) == list(range(500))


def test_cast_masters_give_the_rows_and_gradients_of_float32_leaves():
    """Training's view of the gate, `compute_view`'s float32 casts of float64
    masters, gives the rows of the same graph over float32 leaf copies and
    master gradients equal to those leaves' gradients cast to float64, bit
    for bit; two walk lengths make each parameter collect two uses."""
    ds = generate_classification_set(3, 4, seed=11)
    masters = init_gate_params(TINY, seed=14)
    leaves = trainable(masters, np.float32)
    cast = compute_view(masters)
    batch = ds.meshes[:6]
    assert len({walk_length(m.vertex_count) for m in batch}) >= 2
    seeds = [40 + i for i in range(len(batch))]
    mix = Tensor(Rng(3).normal_fill((len(batch), 3)))
    rows = []
    for params in (cast, leaves):
        rows.append(ad.stack(gate_forward_batch(batch, 3, params, TINY, seeds)))
        ad.tsum(ad.mul(rows[-1], mix)).backward()
    assert np.array_equal(rows[0].data, rows[1].data)
    for name, master in masters.items():
        assert master.grad.dtype == np.float64 and leaves[name].grad.dtype == np.float32
        assert np.array_equal(master.grad, leaves[name].grad.astype(np.float64)), name


def test_inference_rows_equal_trainable_batch_rows(monkeypatch):
    """Each mesh's chunked inference row is its batch row from a float32
    graph, bit for bit, and inference enters `gate_forward_features` once
    per mesh."""
    import meshmoe.gate as gate
    import meshmoe.trainer as trainer
    ds = generate_classification_set(3, 4, seed=11)
    experts = build_experts([f"oracle:{c}" for c in range(3)], num_classes=3, seed=1)
    system = trainer.build_system(experts, gate_config=TINY, seed=2)
    assert any(system.walks_infer * walk_length(m.vertex_count) > CHUNK_TOKENS
               for m in ds.meshes)
    seeds = [derive(4, "gate", mesh.mesh_id) for mesh in ds.meshes]
    reference = gate_forward_batch(ds.meshes, system.walks_infer,
                                   trainable(system.gate_params, np.float32), TINY, seeds)

    rows, calls = [], []
    real_batch, real_features = trainer.gate_forward_batch, gate.gate_forward_features

    def recording_batch(*args, **kwargs):
        out = real_batch(*args, **kwargs)
        rows.extend(out)
        return out

    def counting_features(features, *args, **kwargs):
        calls.append(features.shape)
        return real_features(features, *args, **kwargs)

    monkeypatch.setattr(trainer, "gate_forward_batch", recording_batch)
    monkeypatch.setattr(gate, "gate_forward_features", counting_features)
    for k, mesh in enumerate(ds.meshes):
        _, j = trainer.inference(system, mesh, seed=4)
        assert np.array_equal(rows[k].data, reference[k].data)
        assert j == int(np.argmax(reference[k].data))
        assert calls[k] == (system.walks_infer, walk_length(mesh.vertex_count), 4)
    assert len(calls) == len(ds.meshes)


def test_grad_free_forward_memory_stays_below_half_the_score_buffer():
    """Chunking bounds the attention scores by the chunk, not by all walks."""
    config = GateConfig(num_experts=3, encoder_layers=1, decoder_layers=1,
                        d_model=16, heads=4, ff_width=32)
    walks, length = 32, 80
    features = Rng(3).normal_fill((walks, length, 4))
    params = frozen(init_gate_params(config, seed=4))
    layers.positional_encoding(length, config.d_model)  # cached, not per call
    tracemalloc.start()
    try:
        gate_forward_features(features, params, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    score_buffer = walks * config.heads * length * length * 8
    assert peak < score_buffer / 2


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
    assert not np.array_equal(merged["head.w"].data, params_a["head.w"].data)


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


def test_pretrain_imitation_loss_history_is_pinned():
    """Two epochs of two batches (4 + 2 meshes), equal to the last bit."""
    from meshmoe.experts import build_experts
    meshes = generate_classification_set(2, 4, seed=3).train_meshes
    cfg = GateConfig(num_experts=1, encoder_layers=1, decoder_layers=1,
                     d_model=8, heads=2, ff_width=16,
                     head_mode="class_imitation", num_classes=2)
    expert = build_experts(["face_mlp"], num_classes=2, seed=4, hidden=8)[0]
    history = pretrain_imitation(init_gate_params(cfg, seed=6), cfg, expert,
                                 meshes, epochs=2, walk_count=2, batch_size=4,
                                 lr=1e-2, seed=7)
    assert history == [0.09071021262829192, 0.04172746399506595]


def test_pretraining_runs_a_float32_body_on_float64_state(monkeypatch):
    """Gate pre-training runs the body on `compute_view`'s float32 casts, as
    training does, while every master, its gradient and its Adam moments
    stay float64."""
    import meshmoe.gate as gate
    import meshmoe.optim as optim
    from meshmoe.experts import OracleExpert
    dtypes, optimizers = [], []
    real_tokens = gate._walk_tokens

    def recording_tokens(features, params, config):
        dtypes.append(params["embed.w"].data.dtype)
        return real_tokens(features, params, config)

    class RecordingAdam(optim.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(gate, "_walk_tokens", recording_tokens)
    monkeypatch.setattr(optim, "Adam", RecordingAdam)
    cfg = GateConfig(num_experts=1, encoder_layers=1, decoder_layers=1,
                     d_model=8, heads=2, ff_width=16,
                     head_mode="class_imitation", num_classes=3)
    params = init_gate_params(cfg, seed=2)
    meshes = generate_classification_set(3, 4, seed=5).train_meshes[:6]
    pretrain_imitation(params, cfg, OracleExpert("oracle", 3, specialty_class=0, seed=1),
                       meshes, epochs=2, walk_count=2, batch_size=3, seed=4)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    (opt,) = optimizers
    assert opt.params is params
    arrays = []
    for path, tensor in params.items():
        arrays += [(path, tensor.data), (path, tensor.grad), (path, opt.m[path]),
                   (path, opt.v[path])]
    assert [name for name, a in arrays if a.dtype != np.float64] == []


def test_pretrain_requires_imitation_mode():
    from meshmoe.experts import OracleExpert
    with pytest.raises(GateError, match="class_imitation"):
        pretrain_imitation(init_gate_params(TINY, 0), TINY,
                           OracleExpert("o", 3, 0), [], epochs=1)


# --- two shards per graph batch over the shard rule --------------------------

WIDE = GateConfig(num_experts=3, encoder_layers=1, decoder_layers=1,
                  d_model=64, heads=4, ff_width=32)


def shard_batch():
    """Eight meshes in two walk-length groups (L = 17 and 11, four each):
    at 16 walks their groups average 57,344 W * L * d_model floats, at 4
    walks 14,336, so 16 walks cross the shard rule and 4 stay below it."""
    import meshmoe.gate as gate
    meshes = generate_classification_set(3, 4, seed=11).meshes[:8]
    lengths = [walk_length(mesh.vertex_count) for mesh in meshes]
    groups = {length: lengths.count(length) for length in lengths}
    assert groups == {17: 4, 11: 4}
    floats = {walks: sum(walks * length * n * WIDE.d_model for length, n in groups.items())
              / len(groups) for walks in (4, 16)}
    assert floats[4] < gate.SHARD_FLOATS <= floats[16]
    return meshes, [50 + i for i in range(len(meshes))]


def test_shards_take_the_longest_walks_first_and_cut_nearest_half_the_work():
    """Six meshes whose three walk-length groups average exactly
    SHARD_FLOATS floats; a mesh's work is W * L * (2d + ff_width + L), so
    the two L=20 meshes (2 * 57,600) sit nearest half of 271,680.  Ties
    keep their input order; frozen parameters never shard."""
    import meshmoe.gate as gate
    features = [np.zeros((16, length, 4)) for length in (11, 20, 17, 20, 11, 17)]
    params = trainable(init_gate_params(WIDE, seed=3), np.float32)
    assert 16 * 96 * WIDE.d_model == 3 * gate.SHARD_FLOATS
    assert gate._shards(features, params, WIDE) == [[1, 3], [2, 5, 0, 4]]
    assert gate._shards(features[:-1], params, WIDE) is None
    assert gate._shards(features, frozen(init_gate_params(WIDE, seed=3)), WIDE) is None


def shard_leaves(root, params) -> list:
    """Nodes reachable from `root` that share a parameter's array but are
    not that parameter: the shards' own leaves."""
    arrays = {id(p.data): p for p in params.values()}
    return [node for node in ad._topological_order(root)
            if id(node.data) in arrays and node is not arrays[id(node.data)]]


def mixed_rows(meshes, walks, params, seeds, mix):
    rows = ad.stack(gate_forward_batch(meshes, walks, params, WIDE, seeds))
    return rows, ad.tsum(ad.mul(rows, Tensor(mix)))


def test_sharded_rows_are_the_unsharded_rows_and_gradients_agree(monkeypatch):
    """Over the rule the boundary node returns each mesh's unsharded row bit
    for bit; the master gradients, summed shard 0 + shard 1, agree with one
    graph's to 1e-5 of each tensor's largest entry."""
    import meshmoe.gate as gate
    meshes, seeds = shard_batch()
    masters = init_gate_params(WIDE, seed=3)
    mix = Rng(4).normal_fill((len(meshes), 3))
    results = []
    for sharded in (True, False):
        if not sharded:
            monkeypatch.setattr(gate, "_shards", lambda *args: None)
        view = compute_view(masters)
        rows, loss = mixed_rows(meshes, 16, view, seeds, mix)
        assert len(shard_leaves(loss, view)) == (2 * len(view) if sharded else 0)
        loss.backward()
        results.append((rows.data, {name: p.grad for name, p in masters.items()}))
        for p in masters.values():
            p.grad = None
    (sharded_rows, sharded_grads), (rows, grads) = results
    assert np.array_equal(sharded_rows, rows)
    for name, grad in grads.items():
        error = np.abs(sharded_grads[name] - grad).max() / np.abs(grad).max()
        assert error <= 1e-5, (name, error)


def test_below_the_shard_rule_the_graph_has_no_boundary_node():
    meshes, seeds = shard_batch()
    view = compute_view(init_gate_params(WIDE, seed=3))
    _, loss = mixed_rows(meshes, 4, view, seeds, Rng(4).normal_fill((len(meshes), 3)))
    assert shard_leaves(loss, view) == []


def test_float64_gradients_pass_the_shard_boundary():
    """The finite-difference check, on float64 masters, of a sharded batch."""
    meshes, seeds = shard_batch()
    params = init_gate_params(WIDE, seed=3)
    mix = Rng(4).normal_fill((len(meshes), 3))
    assert shard_leaves(mixed_rows(meshes, 16, params, seeds, mix)[1], params)
    probed = {name: params[name] for name in
              ("embed.w", "enc.0.attn.wk", "dec.0.attn.wv", "dec.0.ff.w2", "head.b")}
    report = check_gradients(lambda: mixed_rows(meshes, 16, params, seeds, mix)[1],
                             probed, max_coords=4)
    assert report.passed, str(report)


def shard_step(monkeypatch, workers: int) -> tuple:
    """One `train_iteration` over the sharded batch with `workers` shard
    threads: the gate's parameters as bytes, and the threads that ran the
    body, `gate_forward_features` and `Tensor.backward`."""
    import meshmoe.gate as gate
    from meshmoe import trainer
    from meshmoe.optim import Adam
    meshes, _ = shard_batch()
    experts = build_experts([f"oracle:{c}" for c in range(3)], num_classes=3, seed=1)
    system = replace(trainer.build_system(experts, gate_config=WIDE, seed=2), walks_train=16)
    threads = {"body": [], "features": [], "backward": []}

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            threads[key].append(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gate, "_chunk_workers", lambda items: workers)
    monkeypatch.setattr(gate, "_walk_tokens", recording("body", gate._walk_tokens))
    monkeypatch.setattr(gate, "gate_forward_features",
                        recording("features", gate.gate_forward_features))
    monkeypatch.setattr(Tensor, "backward", recording("backward", Tensor.backward))
    trainer.train_iteration(system, meshes, 0.3, Adam(system.gate_params, lr=1e-3), {},
                            seed=6)
    monkeypatch.undo()
    return {name: p.data.tobytes() for name, p in system.gate_params.items()}, threads


def test_one_and_two_shard_workers_train_the_same_bits(monkeypatch):
    one, threads_one = shard_step(monkeypatch, 1)
    two, threads_two = shard_step(monkeypatch, 2)
    assert len(set(threads_one["body"])) == 1 and len(set(threads_two["body"])) == 2
    assert one == two


def test_no_helper_thread_enters_a_traced_name(monkeypatch):
    """perfbench's `Tracer` keeps one span stack, so the names it wraps run
    on the main thread only, even while a helper runs a shard."""
    _, threads = shard_step(monkeypatch, 2)
    main = threading.main_thread()
    assert threads["backward"] and set(threads["backward"]) == {main}
    assert set(threads["features"]) <= {main}
    assert set(threads["body"]) - {main}
