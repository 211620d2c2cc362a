"""Differentiable layers: linear, layer norm, attention, GRU, losses.

Shapes use trailing (sequence, feature) axes so batch axes broadcast.
`linear`, `segment_mean`, `layer_norm`, `multi_head_attention`,
`query_attention` and `gru_forward` are fused: each is one autodiff node
with a hand-written backward, so a self-attention block adds 12 graph
nodes and keeps one (heads, Lq, Lk) probability buffer alive (a
grad-free call keeps none and never normalises it), and a GRU over L
steps is one node that keeps h_prev, z, r, r * h_prev and n for each
step.  A cross-attention block adds 10 nodes: `query_attention` folds the key
projection into its short query and projects the pooled memory, so it
keeps no (..., Lk, d) key or value array.
A 2-D weight under a batched input gets its gradient from one GEMM over
the flattened leading axes.  Attention blocks are pre-norm residual:
x + attn(norm(x)), then x + ff(norm(x)); the key projection has no bias.
The two losses, `cross_entropy` and `kl_divergence`, reduce the last axis
and return one value per row, so callers take whatever mean they need.
Probability inputs to the losses are clamped at PROB_FLOOR before any log.
"""

import math
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import Rng, derive

PROB_FLOOR = 1e-12


# --- initialization --------------------------------------------------------

def glorot(shape, seed: int) -> Tensor:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), trainable."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    data = Rng(seed).uniform_fill(shape, -bound, bound)
    return Tensor(data, requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


# --- basic layers ----------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) as one node; x (..., d) of any rank >= 1, w (d, k).

    The forward product stays one small GEMM per leading index, so a row's
    bits do not depend on the batch it sits in.  The backward treats every
    leading index as a row of one 2-D GEMM.
    """
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            ad._accumulate(x, (rows @ w.data.T).reshape(x.data.shape), owned=True)
        if w.requires_grad:
            ad._accumulate(w, x.data.reshape(-1, x.data.shape[-1]).T @ rows)
        if b is not None and b.requires_grad:
            ad._accumulate(b, rows.sum(axis=0))

    return ad._node(out_data, (x, w) if b is None else (x, w, b), backward)


def segment_mean(x: Tensor, counts: list) -> Tensor:
    """(len(counts), d) means of x's consecutive (counts[i], d) row blocks,
    as one node.  Each block is summed on its own, as `tmean` would sum it."""
    bounds = np.cumsum([0, *counts])
    scale = 1.0 / np.array(counts)[:, None]
    out_data = np.stack([x.data[lo:hi].sum(axis=0)
                         for lo, hi in zip(bounds[:-1], bounds[1:])])
    out_data *= scale

    def backward(g):
        if x.requires_grad:
            ad._accumulate(x, np.repeat(g * scale, counts, axis=0), owned=True)

    return ad._node(out_data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (eps 1e-5), then affine."""
    scale = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    inv = (var + 1e-5) ** -0.5
    normed = centered * inv
    out_data = normed * gain.data + bias.data

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            g_hat = g * gain.data
            mean_g = g_hat.sum(axis=-1, keepdims=True) * scale
            mean_gx = (g_hat * normed).sum(axis=-1, keepdims=True) * scale
            g_hat -= mean_g
            g_hat -= normed * mean_gx
            g_hat *= inv
            ad._accumulate(x, g_hat, owned=True)
        if gain.requires_grad:
            ad._accumulate(gain, (rows * normed.reshape(rows.shape)).sum(axis=0))
        if bias.requires_grad:
            ad._accumulate(bias, rows.sum(axis=0))

    return ad._node(out_data, (x, gain, bias), backward)


@lru_cache(maxsize=64)
def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Sinusoidal table, (length, d_model), cached per shape."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    dims = np.arange(d_model, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * (dims // 2) / d_model)
    table = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return table


# --- attention -------------------------------------------------------------

def _heads(a: np.ndarray, heads: int) -> np.ndarray:
    # (..., L, d) -> (..., heads, L, d // heads), a view
    *batch, length, d = a.shape
    return np.swapaxes(a.reshape(*batch, length, heads, d // heads), -2, -3)


def _merged(a: np.ndarray) -> np.ndarray:
    # (..., heads, L, dh) -> (..., L, heads * dh)
    *batch, heads, length, dh = a.shape
    return np.swapaxes(a, -2, -3).reshape(*batch, length, heads * dh)


def _pool(scores: np.ndarray, values: np.ndarray, keep_probs: bool):
    """(softmax(scores) @ values, probs), the pooled rows divided by the row
    sums; probs, `scores` normalised in place, only if `keep_probs`, else None."""
    probs, sums = ad._exp_rows(scores)
    pooled = probs @ values
    pooled /= sums
    if keep_probs:
        probs /= sums
    return pooled, probs if keep_probs else None


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q k^T / sqrt(dh)) v per head, as one node.

    q is (..., Lq, d), k and v are (..., Lk, d); each head reads a
    contiguous d / heads slice of the feature axis and the heads' outputs
    are concatenated back to (..., Lq, d).  The pooled rows are divided by
    the softmax row sums; only a graph call normalises and keeps the
    (..., heads, Lq, Lk) probabilities, the one array its backward reads
    besides the inputs.
    """
    qh, kh, vh = (_heads(t.data, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    pooled, probs = _pool((qh * scale) @ np.swapaxes(kh, -1, -2), vh,
                          any(t.requires_grad for t in (q, k, v)))
    out_data = _merged(pooled)

    def backward(g):
        gh = _heads(g, heads)
        if v.requires_grad:
            ad._accumulate(v, _merged(np.swapaxes(probs, -1, -2) @ gh), owned=True)
        d_scores = ad._softmax_grad(gh @ np.swapaxes(vh, -1, -2), probs)
        d_scores *= scale
        if q.requires_grad:
            ad._accumulate(q, _merged(d_scores @ kh), owned=True)
        if k.requires_grad:
            ad._accumulate(k, _merged(np.swapaxes(d_scores, -1, -2) @ qh), owned=True)

    return ad._node(out_data, (q, k, v), backward)


def query_attention(q: Tensor, memory: Tensor, wk: Tensor, wv: Tensor, vb: Tensor,
                    heads: int) -> Tensor:
    """multi_head_attention(q, linear(memory, wk), linear(memory, wv, vb)) as
    one node that never forms the (..., Lk, d) keys and values.

    q is (..., Lq, d) with a short Lq (one learned query per walk), memory
    (..., Lk, d).  Each head folds its slice of wk into the query and
    scores the raw memory, q_h (M wk_h)^T = (q_h wk_h^T) M^T; it pools the
    raw memory and projects once, sum_l p_l (M_l wv_h + vb_h) =
    (sum_l p_l M_l) wv_h + vb_h, since the probabilities sum to 1.  Like
    `multi_head_attention` it divides the pooled rows by the row sums.  The
    node keeps the probabilities, the folded queries and the pooled
    memory, all (..., heads * Lq, ·).
    """
    *batch, lq, d = q.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    # (heads, d, dh): head h's columns of a (d, d) projection
    wkh, wvh = (np.swapaxes(w.data.reshape(d, heads, dh), 0, 1) for w in (wk, wv))
    qh = _heads(q.data, heads)                                     # (..., H, Lq, dh)
    folded = (qh @ np.swapaxes(wkh, -1, -2)).reshape(*batch, heads * lq, d)
    mem_t = np.swapaxes(memory.data, -1, -2)
    pooled, probs = _pool(folded @ mem_t * scale, memory.data,    # (..., H*Lq, Lk)
                          any(t.requires_grad for t in (q, memory, wk, wv, vb)))
    out_data = _merged(pooled.reshape(*batch, heads, lq, d) @ wvh)
    out_data += vb.data

    def weight_grad(a, b):
        # per head, a^T b over every (..., Lq) row, as a (d, heads * dh) weight
        a, b = (np.moveaxis(t.reshape(-1, heads, lq, t.shape[-1]), 1, 0)
                .reshape(heads, -1, t.shape[-1]) for t in (a, b))
        return np.swapaxes(np.swapaxes(a, -1, -2) @ b, 0, 1).reshape(d, d)

    def backward(g):
        gh = _heads(g, heads)                                      # (..., H, Lq, dh)
        if vb.requires_grad:
            ad._accumulate(vb, g.reshape(-1, d).sum(axis=0))
        if wv.requires_grad:
            ad._accumulate(wv, weight_grad(pooled, gh))
        d_pooled = (gh @ np.swapaxes(wvh, -1, -2)).reshape(*batch, heads * lq, d)
        d_scores = ad._softmax_grad(d_pooled @ mem_t, probs)
        d_scores *= scale
        if memory.requires_grad:
            d_memory = np.swapaxes(probs, -1, -2) @ d_pooled
            d_memory += np.swapaxes(d_scores, -1, -2) @ folded
            ad._accumulate(memory, d_memory, owned=True)
        d_folded = (d_scores @ memory.data).reshape(*batch, heads, lq, d)
        if q.requires_grad:
            ad._accumulate(q, _merged(d_folded @ wkh), owned=True)
        if wk.requires_grad:
            ad._accumulate(wk, weight_grad(d_folded, qh))

    return ad._node(out_data, (q, memory, wk, wv, vb), backward)


def init_mha_block(params: dict, prefix: str, d_model: int, ff_width: int, seed: int) -> None:
    """Create one pre-norm attention + feed-forward block under `prefix`."""
    for name in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.attn.{name}"] = glorot((d_model, d_model), derive(seed, prefix, name))
    # no key bias: softmax ignores a per-query shift, so its gradient is 0
    for name in ("qb", "vb", "ob"):
        params[f"{prefix}.attn.{name}"] = zeros((d_model,))
    params[f"{prefix}.ln1.g"] = ones((d_model,))
    params[f"{prefix}.ln1.b"] = zeros((d_model,))
    params[f"{prefix}.ln2.g"] = ones((d_model,))
    params[f"{prefix}.ln2.b"] = zeros((d_model,))
    params[f"{prefix}.ff.w1"] = glorot((d_model, ff_width), derive(seed, prefix, "ff1"))
    params[f"{prefix}.ff.b1"] = zeros((ff_width,))
    params[f"{prefix}.ff.w2"] = glorot((ff_width, d_model), derive(seed, prefix, "ff2"))
    params[f"{prefix}.ff.b2"] = zeros((d_model,))


def mha_block(x: Tensor, params: dict, prefix: str, heads: int,
              memory: Tensor | None = None) -> Tensor:
    """Pre-norm residual block; cross-attends to `memory` when given.

    Queries come from the normed input; keys and values come from the
    normed input in the self-attention case.  In the cross-attention case
    `query_attention` reads the memory as-is, without projecting it.
    """
    p = lambda name: params[f"{prefix}.{name}"]
    normed = layer_norm(x, p("ln1.g"), p("ln1.b"))
    query = linear(normed, p("attn.wq"), p("attn.qb"))
    if memory is None:
        attended = multi_head_attention(query, linear(normed, p("attn.wk")),
                                        linear(normed, p("attn.wv"), p("attn.vb")), heads)
    else:
        attended = query_attention(query, memory, p("attn.wk"), p("attn.wv"),
                                   p("attn.vb"), heads)
    x = ad.add(x, linear(attended, p("attn.wo"), p("attn.ob")))
    normed = layer_norm(x, p("ln2.g"), p("ln2.b"))
    hidden = ad.relu(linear(normed, p("ff.w1"), p("ff.b1")))
    return ad.add(x, linear(hidden, p("ff.w2"), p("ff.b2")))


# --- recurrent cell ----------------------------------------------------------

def init_gru(params: dict, prefix: str, d_in: int, d_hidden: int, seed: int) -> None:
    for gate in ("z", "r", "n"):
        params[f"{prefix}.w{gate}"] = glorot((d_in, d_hidden), derive(seed, prefix, "w" + gate))
        params[f"{prefix}.u{gate}"] = glorot((d_hidden, d_hidden), derive(seed, prefix, "u" + gate))
        params[f"{prefix}.b{gate}"] = zeros((d_hidden,))


def gru_forward(xs: Tensor, params: dict, prefix: str, d_hidden: int) -> Tensor:
    """Run the GRU over axis -2 from h = 0; returns the final hidden state.

    One node.  The input projections of all L steps are one GEMM on
    [wz|wr|wn]; each step then adds h @ [uz|ur] (and (r * h) @ un) and
    the bias in the order of the per-step cell, so the hidden state does
    not depend on the hoisting.  Per step the node keeps h_prev, z, r,
    r * h_prev and n; the backward runs through time once to fill an
    (L, ..., 3H) pre-activation gradient, then takes every weight
    gradient and dxs from one GEMM each.
    """
    names = [f"{prefix}.{k}{gate}" for k in "wub" for gate in "zrn"]
    wz, wr, wn, uz, ur, un, bz, br, bn = (params[name] for name in names)
    *batch, length, d_in = xs.shape
    hh = d_hidden
    w_all = np.concatenate([wz.data, wr.data, wn.data], axis=1)      # (d_in, 3H)
    u_zr = np.concatenate([uz.data, ur.data], axis=1)                # (H, 2H)
    b_zr = np.concatenate([bz.data, br.data])
    xproj = (xs.data.reshape(-1, d_in) @ w_all).reshape(*batch, length, 3 * hh)
    h_prev, rh, n = (np.empty((length, *batch, hh)) for _ in range(3))
    zr = np.empty((length, *batch, 2 * hh))                          # [z|r]
    h = np.zeros((*batch, hh))
    for t in range(length):
        h_prev[t] = h
        pre = xproj[..., t, :2 * hh] + h @ u_zr
        pre += b_zr
        zr[t] = 1.0 / (1.0 + np.exp(-pre))
        z = zr[t, ..., :hh]
        np.multiply(zr[t, ..., hh:], h, out=rh[t])
        pre = xproj[..., t, 2 * hh:] + rh[t] @ un.data
        pre += bn.data
        np.tanh(pre, out=n[t])
        h = (1.0 - z) * n[t] + z * h

    def backward(g):
        z, r = zr[..., :hh], zr[..., hh:]
        # every step's local factors at once; the loop keeps the chain only
        dn_factor = (1.0 - z) * (1.0 - n * n)
        dz_factor = (h_prev - n) * z * (1.0 - z)
        dr_factor = h_prev * r * (1.0 - r)
        d_pre = np.empty((length, *batch, 3 * hh))                   # [dz|dr|dn]
        dh = g
        for t in reversed(range(length)):
            np.multiply(dh, dn_factor[t], out=d_pre[t, ..., 2 * hh:])
            d_rh = d_pre[t, ..., 2 * hh:] @ un.data.T
            np.multiply(dh, dz_factor[t], out=d_pre[t, ..., :hh])
            np.multiply(d_rh, dr_factor[t], out=d_pre[t, ..., hh:2 * hh])
            dh = dh * z[t] + d_rh * r[t] + d_pre[t, ..., :2 * hh] @ u_zr.T
        rows = d_pre.reshape(-1, 3 * hh)
        if xs.requires_grad:
            ad._accumulate(xs, np.moveaxis((rows @ w_all.T).reshape(
                length, *batch, d_in), 0, -2))
        d_w = np.moveaxis(xs.data, -2, 0).reshape(-1, d_in).T @ rows
        d_uzr = h_prev.reshape(-1, hh).T @ rows[:, :2 * hh]
        d_b = rows.sum(axis=0)
        grads = {wz: d_w[:, :hh], wr: d_w[:, hh:2 * hh], wn: d_w[:, 2 * hh:],
                 uz: d_uzr[:, :hh], ur: d_uzr[:, hh:],
                 un: rh.reshape(-1, hh).T @ rows[:, 2 * hh:],
                 bz: d_b[:hh], br: d_b[hh:2 * hh], bn: d_b[2 * hh:]}
        for tensor, grad in grads.items():
            if tensor.requires_grad:
                ad._accumulate(tensor, grad)

    return ad._node(h, (xs, wz, wr, wn, uz, ur, un, bz, br, bn), backward)


# --- losses ------------------------------------------------------------------

def cross_entropy(pred: Tensor, target) -> Tensor:
    """-log pred[..., target] with the floor clamp, one value per row.

    pred (..., C) holds probability rows; target holds one class index per
    row, shaped like pred's leading axes (a plain int for a (C,) vector).
    The target entry is read out as the row sum of the clamped rows times
    a one-hot mask, which adds only exact zeros to it.
    """
    target = np.asarray(target, dtype=np.int64)
    num_classes = pred.shape[-1]
    if target.shape != pred.shape[:-1]:
        raise ValueError(f"target shape {target.shape} does not match "
                         f"prediction rows {pred.shape[:-1]}")
    if target.size and (target.min() < 0 or target.max() >= num_classes):
        raise ValueError(f"target index out of range for {num_classes} classes")
    if np.any(np.abs(pred.data.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("prediction row does not sum to 1")
    onehot = Tensor(np.arange(num_classes) == target[..., None])
    picked = ad.tsum(ad.mul(ad.clamp(pred, PROB_FLOOR), onehot), axis=-1)
    return ad.mul(ad.log(picked), Tensor(-1.0))


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """sum p * (log p - log q) over the last axis, one value per row.

    Both sides are clamped at the floor; leading axes broadcast; natural log.
    """
    if p.shape[-1:] != q.shape[-1:]:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    pc = ad.clamp(p, PROB_FLOOR)
    qc = ad.clamp(q, PROB_FLOOR)
    return ad.tsum(ad.mul(pc, ad.sub(ad.log(pc), ad.log(qc))), axis=-1)
