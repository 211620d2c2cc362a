"""Layer-level checks: fused ops against composed references, attention,
MHA blocks, GRU, layer norm."""

import numpy as np
import pytest

from meshmoe import autodiff as ad
from meshmoe import layers
from meshmoe.autodiff import Tensor
from meshmoe.gradcheck import check_gradients
from meshmoe.rng import Rng, derive


def rand(shape, seed, scale=0.5):
    return Tensor(Rng(seed).normal_fill(shape) * scale, requires_grad=True)


# --- composed references: the fused ops spelled out in autodiff primitives --

def reference_linear(x, w, b=None):
    flat = ad.reshape(x, (-1, x.shape[-1]))
    out = ad.reshape(ad.matmul(flat, w), x.shape[:-1] + (w.shape[-1],))
    return out if b is None else ad.add(out, b)


def reference_layer_norm(x, gain, bias, eps=1e-5):
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.pow_const(ad.add(var, Tensor(eps)), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def reference_attention(q, k, v, heads):
    def split(t):
        *batch, length, d = t.shape
        return ad.swapaxes(ad.reshape(t, (*batch, length, heads, d // heads)), -2, -3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = ad.mul(ad.matmul(qh, ad.swapaxes(kh, -1, -2)),
                    Tensor(1.0 / np.sqrt(qh.shape[-1])))
    merged = ad.swapaxes(ad.matmul(ad.softmax(scores), vh), -2, -3)
    *batch, length, _, _ = merged.shape
    return ad.reshape(merged, (*batch, length, q.shape[-1]))


def reference_sigmoid(a):
    return ad.div(Tensor(1.0), ad.add(Tensor(1.0), ad.exp(ad.mul(a, Tensor(-1.0)))))


def reference_gru_forward(xs, params, prefix, d_hidden):
    """The per-step cell, one autodiff op per matmul, add and gate."""
    p = lambda name: params[f"{prefix}.{name}"]
    h = Tensor(np.zeros((*xs.shape[:-2], d_hidden)))
    for t in range(xs.shape[-2]):
        x = ad.slice_index(xs, xs.ndim - 2, t)
        z = reference_sigmoid(ad.add(ad.add(ad.matmul(x, p("wz")), ad.matmul(h, p("uz"))), p("bz")))
        r = reference_sigmoid(ad.add(ad.add(ad.matmul(x, p("wr")), ad.matmul(h, p("ur"))), p("br")))
        n = ad.tanh(ad.add(ad.add(ad.matmul(x, p("wn")),
                                  ad.matmul(ad.mul(r, h), p("un"))), p("bn")))
        h = ad.add(ad.mul(ad.sub(Tensor(1.0), z), n), ad.mul(z, h))
    return h


def assert_fused_matches(fused, reference, inputs, out_shape, seed):
    """Same output and the same gradient for every input, to rtol 1e-12."""
    mix = Tensor(Rng(seed).normal_fill(out_shape))
    results = []
    for fn in (fused, reference):
        for t in inputs:
            t.grad = None
        out = fn(*inputs)
        ad.tsum(ad.mul(out, mix)).backward()
        results.append((out.data, [t.grad for t in inputs]))
    (fused_out, fused_grads), (ref_out, ref_grads) = results
    np.testing.assert_allclose(fused_out, ref_out, rtol=1e-12, atol=0)
    for got, want in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("x_shape", [(5,), (3, 5), (2, 3, 5), (2, 2, 3, 5)])
@pytest.mark.parametrize("bias", [True, False])
def test_fused_linear_matches_composed(x_shape, bias):
    inputs = [rand(x_shape, 71), rand((5, 4), 72)] + ([rand((4,), 73)] if bias else [])
    assert_fused_matches(layers.linear, reference_linear, inputs,
                         x_shape[:-1] + (4,), seed=74)


def test_fused_layer_norm_matches_composed():
    inputs = [rand((2, 3, 6), 81, scale=2.0), rand((6,), 82), rand((6,), 83)]
    inputs[1].data += 1.0
    assert_fused_matches(layers.layer_norm, reference_layer_norm, inputs, (2, 3, 6), seed=84)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("q_len,k_len", [(4, 4), (1, 5)], ids=["self", "cross"])
def test_fused_attention_matches_composed(heads, q_len, k_len):
    inputs = [rand((3, q_len, 8), 91), rand((3, k_len, 8), 92), rand((3, k_len, 8), 93)]
    assert_fused_matches(
        lambda q, k, v: layers.multi_head_attention(q, k, v, heads),
        lambda q, k, v: reference_attention(q, k, v, heads),
        inputs, (3, q_len, 8), seed=94)


@pytest.mark.parametrize("heads,batch,k_len", [(1, (3,), 5), (2, (3,), 1), (4, (2, 3), 7)],
                         ids=["one-head", "L1", "two-batch-axes"])
def test_query_attention_matches_projected_memory(heads, batch, k_len):
    """Output and all five gradients equal attention over linear(memory)."""
    inputs = [rand((*batch, 1, 8), 95), rand((*batch, k_len, 8), 96),
              rand((8, 8), 97), rand((8, 8), 98), rand((8,), 99)]
    assert_fused_matches(
        lambda q, m, wk, wv, vb: layers.query_attention(q, m, wk, wv, vb, heads),
        lambda q, m, wk, wv, vb: layers.multi_head_attention(
            q, layers.linear(m, wk), layers.linear(m, wv, vb), heads),
        inputs, (*batch, 1, 8), seed=100)


def frozen(*tensors):
    return [Tensor(t.data) for t in tensors]


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_grad_free_attention_equals_graph_call(heads):
    """Without a trainable input the forward skips normalising the
    probabilities, yet its output equals the graph call bit for bit."""
    q, k, v = rand((2, 3, 4, 8), 101), rand((2, 3, 6, 8), 102), rand((2, 3, 6, 8), 103)
    graph = layers.multi_head_attention(q, k, v, heads)
    free = layers.multi_head_attention(*frozen(q, k, v), heads)
    np.testing.assert_array_equal(free.data, graph.data)
    inputs = [rand((2, 3, 1, 8), 104), rand((2, 3, 6, 8), 105),
              rand((8, 8), 106), rand((8, 8), 107), rand((8,), 108)]
    graph = layers.query_attention(*inputs, heads)
    free = layers.query_attention(*frozen(*inputs), heads)
    np.testing.assert_array_equal(free.data, graph.data)


def test_grad_free_attention_builds_no_node():
    q, k, v = frozen(rand((3, 4, 8), 109), rand((3, 5, 8), 110), rand((3, 5, 8), 111))
    assert layers.multi_head_attention(q, k, v, 2)._parents == ()
    wk, wv, vb = frozen(rand((8, 8), 112), rand((8, 8), 113), rand((8,), 114))
    assert layers.query_attention(Tensor(q.data[:, :1]), k, wk, wv, vb, 2)._parents == ()


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_with_huge_scores_stays_finite(heads):
    """Inputs x30 put self-attention scores in the thousands, where a naive
    exp overflows; the row-max shift keeps the output finite and equal to
    the composed softmax."""
    x = Tensor(rand((2, 8, 64), 115).data * 30.0)
    xh = layers._heads(x.data, heads)
    scores = xh @ np.swapaxes(xh, -1, -2) / np.sqrt(xh.shape[-1])
    assert scores.max() > 1000.0
    out = layers.multi_head_attention(x, x, x, heads)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, reference_attention(x, x, x, heads).data,
                               rtol=1e-12, atol=0)


def test_layer_norm_output_stats_and_grad():
    x = rand((4, 6), 1, scale=3.0)
    g, b = layers.ones((6,)), layers.zeros((6,))
    out = layers.layer_norm(x, g, b)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)
    report = check_gradients(
        lambda: ad.tsum(ad.mul(layers.layer_norm(x, g, b), Tensor(Rng(9).normal_fill((4, 6))))),
        {"x": x, "g": g, "b": b})
    assert report.passed, str(report)


def test_positional_encoding_shape_and_values():
    table = layers.positional_encoding(5, 8)
    assert table.shape == (5, 8)
    np.testing.assert_allclose(table[0, 0::2], 0.0, atol=1e-15)   # sin(0)
    np.testing.assert_allclose(table[0, 1::2], 1.0, atol=1e-15)   # cos(0)
    assert table[1, 0] == pytest.approx(np.sin(1.0))
    # walk-length agnosticism: longer table extends the shorter one
    longer = layers.positional_encoding(9, 8)
    np.testing.assert_array_equal(longer[:5], table)


def test_attention_weights_rows_sum_to_one():
    q, k, v = rand((3, 4), 2), rand((5, 4), 3), rand((5, 4), 4)
    out = layers.multi_head_attention(q, k, v, heads=1)
    assert out.shape == (3, 4)
    # rows of softmax(qk^T) are convex weights, so outputs stay in the
    # convex hull of the value rows
    assert out.data.min() >= v.data.min() - 1e-12
    assert out.data.max() <= v.data.max() + 1e-12


def test_attention_gradients():
    q, k, v = rand((3, 4), 5), rand((6, 4), 6), rand((6, 4), 7)
    w = Tensor(Rng(8).normal_fill((3, 4)))

    def fn():
        return ad.tsum(ad.mul(layers.multi_head_attention(q, k, v, heads=2), w))

    report = check_gradients(fn, {"q": q, "k": k, "v": v}, tolerance=1e-5)
    assert report.passed, str(report)


def test_mha_block_self_attention_gradients():
    d_model, heads, ff = 8, 2, 16
    params = {}
    layers.init_mha_block(params, "blk", d_model, ff, seed=11)
    x = rand((5, d_model), 12)
    w = Tensor(Rng(13).normal_fill((5, d_model)))

    def fn():
        return ad.tsum(ad.mul(layers.mha_block(x, params, "blk", heads), w))

    report = check_gradients(fn, {**params, "x": x}, max_coords=6)
    assert report.passed, str(report)


def test_mha_block_cross_attention_gradients():
    d_model, heads, ff = 8, 2, 16
    params = {}
    layers.init_mha_block(params, "xblk", d_model, ff, seed=21)
    x = rand((1, d_model), 22)
    memory = rand((7, d_model), 23)
    w = Tensor(Rng(24).normal_fill((1, d_model)))

    def fn():
        return ad.tsum(ad.mul(layers.mha_block(x, params, "xblk", heads, memory=memory), w))

    report = check_gradients(fn, {**params, "x": x, "memory": memory}, max_coords=6)
    assert report.passed, str(report)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_mha_block_gradients_hold_for_any_seed(seed, cross):
    d_model, heads, ff = 8, 2, 16
    params = {}
    layers.init_mha_block(params, "blk", d_model, ff, seed=derive(seed, "blk"))
    x = rand((2, 1 if cross else 3, d_model), derive(seed, "x"))
    inputs = {**params, "x": x}
    if cross:
        inputs["memory"] = rand((2, 5, d_model), derive(seed, "memory"))
    w = Tensor(Rng(derive(seed, "mix")).normal_fill(x.shape))

    def fn():
        return ad.tsum(ad.mul(layers.mha_block(x, params, "blk", heads,
                                               memory=inputs.get("memory")), w))

    report = check_gradients(fn, inputs, max_coords=6, seed=seed)
    assert report.passed, str(report)


def test_mha_block_adds_twelve_graph_nodes():
    """Two layer norms, six linears, attention, relu and two residual adds:
    a de-fused layer shows up here as extra nodes."""
    params = {}
    layers.init_mha_block(params, "blk", 8, 16, seed=35)
    x = rand((2, 3, 8), 36)
    out = layers.mha_block(x, params, "blk", heads=2)
    nodes = [n for n in ad._topological_order(out) if n._parents]
    assert len(nodes) <= 12


def test_cross_attention_block_adds_ten_graph_nodes():
    """The memory is read unprojected: no key or value linear node."""
    params = {}
    layers.init_mha_block(params, "blk", 8, 16, seed=35)
    x, memory = rand((2, 1, 8), 36), rand((2, 5, 8), 37)
    out = layers.mha_block(x, params, "blk", heads=2, memory=memory)
    nodes = [n for n in ad._topological_order(out) if n._parents]
    assert len(nodes) <= 10


def test_mha_block_batched_matches_loop():
    """A (W, L, d) batch equals running each walk separately."""
    d_model, heads, ff = 8, 2, 16
    params = {}
    layers.init_mha_block(params, "blk", d_model, ff, seed=31)
    xs = Rng(32).normal_fill((3, 4, d_model))
    batched = layers.mha_block(Tensor(xs), params, "blk", heads).data
    for w in range(3):
        single = layers.mha_block(Tensor(xs[w]), params, "blk", heads).data
        np.testing.assert_allclose(batched[w], single, atol=1e-12)


@pytest.mark.parametrize("xs_shape", [(3, 2, 4), (3, 17, 4), (2, 3, 17, 4)],
                         ids=["W-L2", "W-L17", "B-W-L17"])
def test_fused_gru_matches_per_step_cell(xs_shape):
    """Bit-equal hidden state; every gradient within 1e-12 of its largest entry."""
    d_h = 32
    params = {}
    layers.init_gru(params, "gru", 4, d_h, seed=201)
    for k, gate in enumerate("zrn"):
        params[f"gru.b{gate}"].data = Rng(202 + k).normal_fill((d_h,)) * 0.1
    xs = rand(xs_shape, 205)
    mix = Tensor(Rng(206).normal_fill(xs_shape[:-2] + (d_h,)))
    inputs = {**params, "xs": xs}
    results = []
    for fn in (layers.gru_forward, reference_gru_forward):
        for t in inputs.values():
            t.grad = None
        h = fn(xs, params, "gru", d_h)
        ad.tsum(ad.mul(h, mix)).backward()
        results.append((h.data, {name: t.grad for name, t in inputs.items()}))
    (fused_h, fused_grads), (ref_h, ref_grads) = results
    np.testing.assert_array_equal(fused_h, ref_h)
    # the fused backward sums over steps and rows in another order, so a
    # cancelling entry may differ in its low bits: bound the error by the
    # largest entry of the same gradient
    for name, want in ref_grads.items():
        assert np.abs(fused_grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


def test_gru_cell_gradients():
    d_in, d_h = 3, 5
    params = {}
    layers.init_gru(params, "cell", d_in, d_h, seed=41)
    xs = rand((4, d_in), 42)
    w = Tensor(Rng(43).normal_fill((1, d_h)))

    def fn():
        h = layers.gru_forward(ad.reshape(xs, (1, 4, d_in)), params, "cell", d_h)
        return ad.tsum(ad.mul(h, w))

    report = check_gradients(fn, {**params, "xs": xs}, max_coords=8)
    assert report.passed, str(report)


def test_gru_zero_input_zero_state_fixed_point():
    """With zero biases and zero input, h stays at tanh(0)-ish equilibrium."""
    d = 4
    params = {}
    layers.init_gru(params, "cell", d, d, seed=51)
    for gate in ("z", "r", "n"):
        params[f"cell.b{gate}"] = layers.zeros((d,))
    xs = Tensor(np.zeros((1, 6, d)))
    h = layers.gru_forward(xs, params, "cell", d)
    # z = r = 0.5, n = tanh(0.5 h Un); h -> 0 is the fixed point from h0 = 0
    np.testing.assert_allclose(h.data, 0.0, atol=1e-12)


def test_glorot_bounds_and_determinism():
    w1 = layers.glorot((20, 30), seed=61)
    w2 = layers.glorot((20, 30), seed=61)
    np.testing.assert_array_equal(w1.data, w2.data)
    bound = np.sqrt(6.0 / 50.0)
    assert np.all(np.abs(w1.data) <= bound)
    assert w1.requires_grad
