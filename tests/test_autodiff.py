"""Reverse-mode core: per-op finite-difference checks and frozen loss values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe import autodiff as ad
from meshmoe import layers
from meshmoe.autodiff import Tensor
from meshmoe.gradcheck import check_gradients
from meshmoe.optim import Adam, OptimError
from meshmoe.rng import Rng


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
    """A 2-D weight under a batched input: same gradients as the batched
    products (weight: summed over the batch axes), up to summation order."""
    a = rand_tensor(a_shape, 6)
    b = rand_tensor((4, 7), 7)
    mix = Rng(8).normal_fill(a_shape[:-1] + (7,))
    ad.tsum(ad.mul(ad.matmul(a, b), Tensor(mix))).backward()
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
        "sigmoid": lambda: ad.tsum(ad.sigmoid(x)),
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

    m = rand_tensor((4, 3), 20)
    idx = np.array([0, 2, 1, 2])
    report = check_gradients(
        lambda: ad.tsum(ad.mul(ad.gather_rows(m, idx), ad.gather_rows(m, idx))),
        {"m": m})
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
    y = ad.tsum(ad.clamp_min(x, 1e-12))
    y.backward()
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


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
    np.testing.assert_array_equal(y.grad, [2.0, 2.0, 2.0])


def test_detach_blocks_gradient():
    x = Tensor(2.0, requires_grad=True)
    y = ad.mul(x.detach(), x)
    y.backward()
    assert x.grad == pytest.approx(2.0)


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
    batched = layers.cross_entropy_rows(Tensor(pred), targets).item()
    single = np.mean([layers.cross_entropy(Tensor(pred[i]), int(t)).item()
                      for i, t in enumerate(targets)])
    assert batched == pytest.approx(single, abs=1e-12)

    q = rng.uniform_fill((6, 4)) + 0.05
    q /= q.sum(axis=1, keepdims=True)
    batched_kl = layers.kl_divergence_rows(Tensor(pred), Tensor(q)).item()
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
