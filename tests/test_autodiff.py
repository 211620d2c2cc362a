"""Reverse-mode core: per-op finite-difference checks and frozen loss values."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe import autodiff as ad
from meshmoe import layers
from meshmoe.autodiff import Tensor
from meshmoe.gate import GateConfig, gate_forward_features, init_gate_params
from meshmoe.gradcheck import check_gradients
from meshmoe.optim import Adam, OptimError, descend
from meshmoe.rng import Rng, derive


def rand_tensor(shape, seed, scale=1.0, shift=0.0):
    return Tensor(Rng(seed).normal_fill(shape) * scale + shift, requires_grad=True)


def test_simple_square_gradient():
    """d(x*x)/dx at 3 is 6; difference quotient agrees to 1e-6."""
    x = Tensor(3.0, requires_grad=True)
    report = check_gradients(lambda: ad.mul(x, x), {"x": x}, tolerance=1e-6)
    assert report.passed, str(report)
    y = ad.mul(x, x)
    y.backward()
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_broadcast_add_mul_grads():
    a = rand_tensor((3, 4), 1)
    b = rand_tensor((4,), 2)
    c = rand_tensor((3, 1), 3)
    fn = lambda: ad.tsum(ad.mul(ad.add(a, b), c))
    report = check_gradients(fn, {"a": a, "b": b, "c": c})
    assert report.passed, str(report)


def test_matmul_grads_batched():
    a = rand_tensor((2, 3, 4), 4)
    b = rand_tensor((4, 5), 5)
    fn = lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))
    report = check_gradients(fn, {"a": a, "b": b})
    assert report.passed, str(report)


@pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)])
def test_shared_weight_gradient_is_one_gemm(a_shape):
    """`linear` with a 2-D weight under a batched input: same gradients as
    the batched products (weight: summed over the batch axes), up to
    summation order."""
    a = rand_tensor(a_shape, 6)
    b = rand_tensor((4, 7), 7)
    mix = Rng(8).normal_fill(a_shape[:-1] + (7,))
    ad.tsum(ad.mul(layers.linear(a, b), Tensor(mix))).backward()
    reference = np.swapaxes(a.data, -1, -2) @ mix
    while reference.ndim > 2:
        reference = reference.sum(axis=0)
    np.testing.assert_allclose(b.grad, reference, rtol=1e-12, atol=0)
    np.testing.assert_allclose(a.grad, mix @ b.data.T, rtol=1e-12, atol=0)


def test_batched_matmul_gradient_unchanged():
    a = rand_tensor((3, 5, 4), 9)
    b = rand_tensor((3, 4, 7), 10)
    mix = Rng(11).normal_fill((3, 5, 7))
    ad.tsum(ad.mul(ad.matmul(a, b), Tensor(mix))).backward()
    np.testing.assert_array_equal(b.grad, np.swapaxes(a.data, -1, -2) @ mix)
    np.testing.assert_array_equal(a.grad, mix @ np.swapaxes(b.data, -1, -2))


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError, match="ndim >= 2"):
        ad.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_elementwise_op_grads():
    x = rand_tensor((6,), 6, scale=0.8)
    positive = rand_tensor((6,), 7, scale=0.3, shift=2.0)
    ops = {
        "relu": lambda: ad.tsum(ad.relu(x)),
        "tanh": lambda: ad.tsum(ad.tanh(x)),
        "exp": lambda: ad.tsum(ad.exp(x)),
        "log": lambda: ad.tsum(ad.log(positive)),
        "sqrt": lambda: ad.tsum(ad.sqrt(positive)),
        "div": lambda: ad.tsum(ad.div(x, positive)),
    }
    for name, fn in ops.items():
        report = check_gradients(fn, {"x": x, "positive": positive})
        assert report.passed, f"{name}: {report}"


def test_reduction_and_shape_grads():
    x = rand_tensor((3, 4, 5), 8)
    fns = [
        lambda: ad.tsum(ad.tmean(x, axis=1)),
        lambda: ad.tsum(ad.tsum(x, axis=(0, 2))),
        lambda: ad.tsum(ad.mul(ad.reshape(x, (12, 5)), ad.reshape(x, (12, 5)))),
        lambda: ad.tsum(ad.mul(ad.swapaxes(x, 0, 2), ad.swapaxes(x, 0, 2))),
        lambda: ad.tsum(ad.slice_index(x, 1, 2)),
    ]
    for i, fn in enumerate(fns):
        report = check_gradients(fn, {"x": x})
        assert report.passed, f"case {i}: {report}"


def test_stack_concat_gather_grads():
    xs = [rand_tensor((4,), 10 + i) for i in range(3)]
    params = {f"x{i}": t for i, t in enumerate(xs)}
    report = check_gradients(
        lambda: ad.tsum(ad.mul(ad.stack(xs), ad.stack(xs))), params)
    assert report.passed, str(report)
    report = check_gradients(
        lambda: ad.tsum(ad.mul(ad.concat(xs), ad.concat(xs))), params)
    assert report.passed, str(report)


def test_softmax_grad_and_normalization():
    x = rand_tensor((3, 5), 30)
    w = Tensor(Rng(31).normal_fill((3, 5)))
    report = check_gradients(lambda: ad.tsum(ad.mul(ad.softmax(x), w)), {"x": x})
    assert report.passed, str(report)
    s = ad.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s > 0)


def test_clamp_grads_pass_above_floor_only():
    x = Tensor(np.array([0.5, 1e-15, -3.0]), requires_grad=True)
    y = ad.tsum(ad.clamp(x, 1e-12))
    y.backward()
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


def test_clamp_with_both_bounds_passes_grads_strictly_inside():
    # below, at lo, inside, at hi, above
    x = Tensor(np.array([-7.0, -5.0, 0.25, 2.0, 3.5]), requires_grad=True)
    y = ad.clamp(x, -5.0, 2.0)
    np.testing.assert_array_equal(y.data, [-5.0, -5.0, 0.25, 2.0, 2.0])
    ad.tsum(ad.mul(y, Tensor(np.arange(1.0, 6.0)))).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 3.0, 0.0, 0.0])


def test_grad_accumulates_on_reuse():
    x = Tensor(2.0, requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
    y.backward()
    assert x.grad == pytest.approx(5.0)


def test_first_gradient_is_not_shared_between_parents():
    """add hands both parents the same cotangent; a later contribution to
    one of them must not reach the other."""
    a = rand_tensor((3,), 12)
    b = rand_tensor((3,), 13)
    y = ad.add(a, b)
    loss = ad.tsum(ad.add(ad.mul(y, Tensor(2.0)), ad.mul(a, Tensor(5.0))))
    loss.backward()
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(a.grad, [7.0, 7.0, 7.0])
    assert y.grad is None


def test_detach_blocks_gradient():
    x = Tensor(2.0, requires_grad=True)
    y = ad.mul(x.detach(), x)
    y.backward()
    assert x.grad == pytest.approx(2.0)


@pytest.mark.parametrize("data", [np.ones(3), 2, [1, 2.5], np.ones(3, np.float16)],
                         ids=["float64", "int", "list", "float16"])
def test_tensor_turns_every_input_but_float32_into_float64(data):
    assert Tensor(data).data.dtype == np.float64


def test_tensor_keeps_float32_and_a_float64_operand_promotes():
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    assert x.data.dtype == np.float32
    out = layers.linear(x, Tensor(np.ones((3, 2), np.float32)))
    assert out.data.dtype == np.float32
    assert ad.tmean(out).data.dtype == np.float64   # its 1/count scale is float64


def test_astype_casts_value_and_dtype():
    x = Tensor(np.array([[1.0, 1.0 / 3.0, -2.5e-8]]), requires_grad=True)
    for dtype in (np.float32, np.float64):
        out = ad.astype(x, dtype)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, x.data.astype(dtype))
        assert out._parents == (x,)
    assert ad.astype(Tensor(x.data), np.float32)._parents == ()   # no grad, no graph


def test_astype_gradient_lands_on_a_float64_leaf_as_float64():
    """A float32 computation on a cast float64 leaf: the leaf's gradient is
    the float32 cotangent, cast up to float64 and summed over both uses."""
    x = Tensor(np.array([0.5, -1.25, 3.0]), requires_grad=True)
    w = Tensor(np.array([1.0, 1.0 / 3.0, 0.1], np.float32))
    cast = ad.astype(x, np.float32)
    y = ad.tsum(ad.add(ad.mul(cast, w), cast))
    assert y.data.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float64
    np.testing.assert_array_equal(x.grad, (w.data + np.float32(1.0)).astype(np.float64))


def test_backward_requires_scalar():
    x = rand_tensor((3,), 1)
    with pytest.raises(ValueError, match="scalar"):
        ad.add(x, x).backward()


def test_deep_chain_no_recursion_blowup():
    x = Tensor(0.1, requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, Tensor(0.0))
    y.backward()
    assert x.grad == pytest.approx(1.0)


def test_second_backward_through_released_graph_raises():
    x = rand_tensor((3,), 2)
    y = ad.mul(x, x)
    loss = ad.tsum(y)
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    np.testing.assert_array_equal(y.data, x.data * x.data)   # data outlives backward
    with pytest.raises(ValueError, match="backward already ran"):
        loss.backward()
    with pytest.raises(ValueError, match="backward already ran"):
        ad.tsum(ad.add(y, x)).backward()     # a new graph reaching released y


def test_backprop_from_a_non_scalar_root_equals_backward_of_its_weighted_sum():
    """`backprop(root, g)` gives the leaf gradients of `tsum(root * g)`'s
    backward bit for bit, and releases the graph as backward does."""
    g = Rng(5).normal_fill((4, 3))
    grads = []
    for weighted in (False, True):
        x, w = rand_tensor((4, 5), 3), rand_tensor((5, 3), 4)
        root = ad.softmax(ad.tanh(layers.linear(x, w)))
        if weighted:
            ad.tsum(ad.mul(root, Tensor(g))).backward()
        else:
            ad.backprop(root, g.copy())
            with pytest.raises(ValueError, match="backward already ran"):
                ad.backprop(root, g.copy())
        grads.append((x.grad, w.grad))
    for ours, theirs in zip(*grads):
        assert np.array_equal(ours, theirs)


def graph_bytes(root: Tensor) -> int:
    """Bytes of the distinct arrays behind the data of every node reachable
    from `root` (a view counts its base once)."""
    buffers, seen, stack = {}, {id(root)}, [root]
    while stack:
        node = stack.pop()
        owner = node.data if node.data.base is None else node.data.base
        buffers[id(owner)] = owner.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return sum(buffers.values())


def test_backward_frees_the_graph_as_it_goes():
    """Backward adds little above the forward graph and leaves almost
    nothing of it behind: interior grads and saved arrays are freed once
    used, and the caller's loss no longer reaches the graph."""
    config = GateConfig(num_experts=3, encoder_layers=8, decoder_layers=2,
                        d_model=16, heads=4, ff_width=32)
    params = init_gate_params(config, seed=4)
    features = Rng(3).normal_fill((16, 32, 4))
    layers.positional_encoding(32, config.d_model)  # cached, not per call
    tracemalloc.start()
    try:
        logits = gate_forward_features(features, params, config)
        loss = ad.tsum(ad.mul(logits, logits))
        forward_end, _ = tracemalloc.get_traced_memory()
        node_bytes = graph_bytes(loss)
        tracemalloc.reset_peak()
        loss.backward()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    assert peak - forward_end <= 0.10 * node_bytes
    assert held <= 0.05 * node_bytes


# --- losses: frozen worked values ------------------------------------------


def test_cross_entropy_uniform_four_classes():
    """CE of the uniform 4-class vector is ln 4 regardless of the target."""
    pred = Tensor(np.full(4, 0.25), requires_grad=True)
    for target in range(4):
        assert layers.cross_entropy(pred, target).item() == pytest.approx(
            math.log(4.0), abs=1e-12)


def test_cross_entropy_clamp_value():
    """A zero-probability target costs -ln(1e-12), about 27.631."""
    pred = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    value = layers.cross_entropy(pred, 1).item()
    assert value == pytest.approx(-math.log(1e-12), abs=1e-9)
    assert value == pytest.approx(27.631021115928547, abs=1e-9)


def test_cross_entropy_validates():
    with pytest.raises(ValueError, match="out of range"):
        layers.cross_entropy(Tensor(np.full(3, 1 / 3)), 3)
    with pytest.raises(ValueError, match="sum to 1"):
        layers.cross_entropy(Tensor(np.array([0.9, 0.3])), 0)


def test_cross_entropy_validates_every_row():
    rows = np.array([[0.5, 0.5], [0.9, 0.3], [0.25, 0.75]])
    with pytest.raises(ValueError, match="sum to 1"):
        layers.cross_entropy(Tensor(rows), np.array([0, 1, 0]))
    rows[1] = [0.7, 0.3]
    with pytest.raises(ValueError, match="does not match"):
        layers.cross_entropy(Tensor(rows), np.array([0, 1]))
    with pytest.raises(ValueError, match="does not match"):
        layers.cross_entropy(Tensor(rows), 1)
    assert layers.cross_entropy(Tensor(rows), np.array([0, 1, 0])).shape == (3,)


@pytest.mark.parametrize("shape", [(3, 50, 4), (5,)])
def test_cross_entropy_equals_numpy_reference(shape):
    """Value -log(max(p[i, t_i], floor)) and its scatter gradient, to the bit."""
    rng = Rng(derive(8, "ce", *shape))
    probs = np.exp(rng.normal_fill(shape) * 4.0)
    probs[..., 1::3] = 0.0                      # floored entries
    probs /= probs.sum(axis=-1, keepdims=True)
    target = np.array([rng.randbelow(shape[-1])
                       for _ in range(int(np.prod(shape[:-1])))]).reshape(shape[:-1])
    if target.shape == ():
        target = int(target)
    pred = Tensor(probs, requires_grad=True)
    loss = layers.cross_entropy(pred, target)
    ad.tsum(loss).backward()

    rows = probs.reshape(-1, shape[-1])
    flat = np.reshape(target, -1)
    index = np.arange(len(rows))
    picked = np.maximum(rows[index, flat], layers.PROB_FLOOR)
    want_grad = np.zeros_like(rows)
    want_grad[index, flat] = np.where(rows[index, flat] > layers.PROB_FLOOR,
                                      -1.0 / picked, 0.0)
    if len(shape) > 1:
        assert np.any(rows[index, flat] < layers.PROB_FLOOR)
    assert np.array_equal(loss.data, (-np.log(picked)).reshape(np.shape(target)))
    assert np.array_equal(pred.grad, want_grad.reshape(shape))


def test_kl_one_hot_vs_uniform_is_ln2():
    p = Tensor(np.array([1.0, 0.0]))
    q = Tensor(np.array([0.5, 0.5]))
    assert layers.kl_divergence(p, q).item() == pytest.approx(math.log(2.0), abs=1e-9)


def test_kl_identical_is_zero():
    p = Tensor(np.array([0.2, 0.3, 0.5]))
    assert layers.kl_divergence(p, p).item() == 0.0


def test_kl_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        layers.kl_divergence(Tensor(np.ones(2) / 2), Tensor(np.ones(3) / 3))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**9))
def test_kl_nonnegative_property(seed):
    """KL of random distribution pairs is >= -1e-12 (clamp allows tiny dip)."""
    rng = Rng(seed)
    p = rng.uniform_fill((5,)) + 1e-3
    q = rng.uniform_fill((5,)) + 1e-3
    p, q = p / p.sum(), q / q.sum()
    value = layers.kl_divergence(Tensor(p), Tensor(q)).item()
    assert value >= -1e-12


def test_cross_entropy_gradient():
    raw = rand_tensor((4,), 40)

    def fn():
        return layers.cross_entropy(ad.softmax(raw), 2)

    report = check_gradients(fn, {"raw": raw}, tolerance=1e-6)
    assert report.passed, str(report)


def test_kl_gradient_both_sides():
    raw_p = rand_tensor((5,), 41)
    raw_q = rand_tensor((5,), 42)

    def fn():
        return layers.kl_divergence(ad.softmax(raw_p), ad.softmax(raw_q))

    report = check_gradients(fn, {"p": raw_p, "q": raw_q}, tolerance=1e-6)
    assert report.passed, str(report)


def test_rowwise_losses_match_scalar_forms():
    rng = Rng(77)
    pred = rng.uniform_fill((6, 4)) + 0.05
    pred /= pred.sum(axis=1, keepdims=True)
    targets = np.array([0, 3, 1, 2, 2, 0])
    batched = ad.tmean(layers.cross_entropy(Tensor(pred), targets)).item()
    single = np.mean([layers.cross_entropy(Tensor(pred[i]), int(t)).item()
                      for i, t in enumerate(targets)])
    assert batched == pytest.approx(single, abs=1e-12)

    q = rng.uniform_fill((6, 4)) + 0.05
    q /= q.sum(axis=1, keepdims=True)
    batched_kl = ad.tmean(layers.kl_divergence(Tensor(pred), Tensor(q))).item()
    single_kl = np.mean([layers.kl_divergence(Tensor(pred[i]), Tensor(q[i])).item()
                         for i in range(6)])
    assert batched_kl == pytest.approx(single_kl, abs=1e-12)


# --- optimizer ---------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    p.grad = None
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adam_descends_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.2)
    for _ in range(200):
        opt.zero_grad()
        loss = ad.tsum(ad.mul(p, p))
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_descend_clears_backpropagates_and_steps_each_optimizer_once():
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]), requires_grad=True)
    idle = Tensor(np.array([4.0]), requires_grad=True)       # not in the loss
    outside = Tensor(np.array([0.5]), requires_grad=True)    # in no optimizer
    first = Adam({"a": a, "idle": idle}, lr=0.1)
    second = Adam({"b": b}, lr=0.1)
    a.grad = np.array([1e6, 1e6])                            # stale, must not count
    loss = ad.add(ad.tsum(ad.mul(a, a)), ad.tsum(ad.mul(b, outside)))
    descend(loss, first, second)
    np.testing.assert_allclose(a.data, [0.9, -1.9], rtol=1e-8)   # first step ~ lr
    np.testing.assert_allclose(b.data, [2.9], rtol=1e-8)
    np.testing.assert_array_equal(idle.data, [4.0])
    assert idle.grad is None and first.t["idle"] == 0
    assert first.t["a"] == 1 and second.t["b"] == 1
    np.testing.assert_array_equal(a.grad, [2.0, -4.0])
    np.testing.assert_array_equal(outside.grad, [3.0])       # added, not stepped
    np.testing.assert_array_equal(outside.data, [0.5])


def test_adam_rejects_nan_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"bad.path": p})
    p.grad = np.array([np.nan])
    with pytest.raises(OptimError, match="non-finite gradient at bad.path"):
        opt.step()


def test_adam_first_step_size_is_lr():
    # bias-corrected first step moves by ~lr regardless of gradient scale
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    p.grad = np.array([123.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.01, rel=1e-6)
