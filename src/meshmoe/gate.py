"""Walk-attention gate: encoder-decoder transformer scoring the experts.

Encoder: linear embedding of (xyz, jump) walk positions + sinusoidal
positions, then 8 self-attention blocks.  Decoder: a learned query token
cross-attends to the encoder output through 8 blocks.  Each block reads
the unprojected encoder output through `layers.query_attention`: one
folded query per head and one pooled row per walk, with no per-position
keys or values.  One linear head, `head.w` / `head.b`, maps the token to
one logit per expert, or per class in the `class_imitation` mode that
pre-training uses; a gate holds only the head its mode reads.
Per-mesh weights are the softmax of walk-averaged logits, batched by
`walks.walk_softmax_rows`.

Without trainable parameters (inference) the body runs over chunks of
max(1, CHUNK_TOKENS // L) walks and the head over all walks at once, so
attention memory is O(chunk * heads * L^2), not O(W * heads * L^2).  The
bits do not change: `linear` does one GEMM per leading index, layer norm
reduces per row and attention does its GEMMs per walk, so no walk's
numbers depend on the others.  The chunks run on the CPUs BLAS leaves
idle: n = min(chunks, usable CPUs // BLAS threads) threads, the caller
among them, and thread k runs chunks k, k + n, ...; when the BLAS thread
count is unknown the caller runs them all.  With a graph all walks of a
walk-length group are one chunk, and a batch whose groups average at
least SHARD_FLOATS W * L * d_model floats runs as two shards on the same
threads: its meshes, longest walk first (ties by position), are cut where
an encoder block's multiply-adds, W * L * 2d (2d + ff_width + L), are
closest to half, and each shard builds its graph over its own leaves.
The rows keep their bits; each parameter's gradient is shard 0's plus
shard 1's, in that order, whatever the thread count.
The body computes in the dtype of its parameters.  Training,
pre-training and inference run it on `compute_view`, the one float32 view
of the float64 masters; the gradient battery runs it in float64.

Pre-training runs one class-headed gate per expert against that expert's
prediction vectors with KL(expert || gate); the pre-trained bodies are
averaged to initialize the real gate, whose expert head starts fresh.
"""

import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .blas import blas_threads
from .checkpoint import at_least, must
from .experts import predict_batch
from .optim import fit
from .rng import derive
# unused here: perfbench/spans.py wraps `extract_walks` in this module by name
from .walks import WALK_CHANNELS, extract_walks, walk_batch, walk_softmax_rows

CHUNK_TOKENS = 512  # walk positions per grad-free body chunk
SHARD_FLOATS = 64 * CHUNK_TOKENS  # mean W * L * d_model of a sharded batch's groups


class GateError(ValueError):
    pass


@dataclass(frozen=True)
class GateConfig:
    num_experts: int
    encoder_layers: int = 8
    decoder_layers: int = 8
    d_model: int = 64
    heads: int = 4
    ff_width: int = 128
    head_mode: str = "expert_weights"   # or "class_imitation"
    num_classes: int = 0

    def __post_init__(self):
        at_least(self, GateError, num_experts=1, encoder_layers=0, decoder_layers=0,
                 d_model=1, heads=1, ff_width=1, num_classes=0)
        if self.head_mode not in ("expert_weights", "class_imitation"):
            raise GateError(f"unknown head_mode: {self.head_mode}")
        must(self, ("heads", "d_model"), self.d_model % self.heads == 0,
             f"divide d_model {self.d_model}", GateError)
        if self.head_mode == "class_imitation" and self.num_classes < 2:
            raise GateError("class_imitation mode needs num_classes >= 2")


def init_gate_params(config: GateConfig, seed: int) -> dict:
    """The body plus the one head `config.head_mode` reads, as `head.w` /
    `head.b`: one logit per class in imitation mode, per expert otherwise."""
    params = {}
    params["embed.w"] = layers.glorot((WALK_CHANNELS, config.d_model), derive(seed, "embed"))
    params["embed.b"] = layers.zeros((config.d_model,))
    for i in range(config.encoder_layers):
        layers.init_mha_block(params, f"enc.{i}", config.d_model, config.ff_width,
                              derive(seed, "enc", i))
    params["query"] = layers.glorot((1, config.d_model), derive(seed, "query"))
    for i in range(config.decoder_layers):
        layers.init_mha_block(params, f"dec.{i}", config.d_model, config.ff_width,
                              derive(seed, "dec", i))
    params["final_norm.g"] = layers.ones((config.d_model,))
    params["final_norm.b"] = layers.zeros((config.d_model,))
    if config.head_mode == "class_imitation":
        width, key = config.num_classes, "head_imitate"
    else:
        width, key = config.num_experts, "head_expert"
    params["head.w"] = layers.glorot((config.d_model, width), derive(seed, key))
    params["head.b"] = layers.zeros((width,))
    return params


def gate_parameters(params: dict) -> dict:
    """Every gate tensor, named gate.<path> as checkpoints store it."""
    return {f"gate.{path}": tensor for path, tensor in params.items()}


def compute_view(params: dict, graph: bool = True) -> dict:
    """The float32 parameters the gate body runs on: `ad.astype` casts whose
    gradients land on the float64 masters, or with `graph=False` detached
    copies that build no graph."""
    return {name: ad.astype(p if graph else Tensor(p.data), np.float32)
            for name, p in params.items()}


def gate_forward_features(features: np.ndarray, params: dict,
                          config: GateConfig) -> Tensor:
    """Logits for a (W, L, 4) walk-feature batch; returns (W, out_dim).

    With no trainable parameter the body runs over chunks of
    max(1, CHUNK_TOKENS // L) walks, spread over `_chunk_workers` threads;
    otherwise all W walks are one chunk.
    """
    if features.ndim != 3 or features.shape[-1] != WALK_CHANNELS or len(features) == 0:
        raise GateError(f"expected (W, L, {WALK_CHANNELS}) features, got {features.shape}")
    w_count, length, _ = features.shape
    if any(p.requires_grad for p in params.values()):
        token = _walk_tokens(features, params, config)
    else:
        chunk = max(1, CHUNK_TOKENS // length)
        chunks = [features[i:i + chunk] for i in range(0, w_count, chunk)]
        token = Tensor(np.concatenate(_on_idle_cpus(
            lambda walks: _walk_tokens(walks, params, config).data, chunks)))
    return layers.linear(token, params["head.w"], params["head.b"])


def _chunk_workers(chunks: int) -> int:
    """Threads for `chunks` grad-free chunks: as many as the usable CPUs hold
    beside BLAS's own threads, or 1 when the BLAS count is unknown."""
    threads = blas_threads()
    if not threads or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(chunks, len(os.sched_getaffinity(0)) // threads))


def _on_idle_cpus(fn, items: list) -> list:
    """[fn(item) for item in items], shared by the calling thread and up to
    `_chunk_workers - 1` helper threads that end before the call returns.
    Worker k runs items k, k + workers, ... into their own slots, so the
    order of the results is fixed.  Once an item raises, no worker starts
    another, and the error of the lowest failing index is raised."""
    workers = _chunk_workers(len(items))
    results, errors = [None] * len(items), {}

    def work(k):
        for i in range(k, len(items), workers):
            if errors:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised in the caller below
                errors[i] = exc

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _walk_tokens(features: np.ndarray, params: dict, config: GateConfig) -> Tensor:
    """The gate body: (n, L, 4) walk features to (n, d) final-norm tokens,
    in the dtype of `embed.w`, to which its constant inputs are cast."""
    n, length, _ = features.shape
    dtype = params["embed.w"].data.dtype
    table = layers.positional_encoding(length, config.d_model)
    x = layers.linear(Tensor(features.astype(dtype, copy=False)),
                      params["embed.w"], params["embed.b"])
    x = ad.add(x, Tensor(table.astype(dtype, copy=False)))
    for i in range(config.encoder_layers):
        x = layers.mha_block(x, params, f"enc.{i}", config.heads)

    token = ad.add(Tensor(np.zeros((n, 1, config.d_model), dtype)), params["query"])
    for i in range(config.decoder_layers):
        token = layers.mha_block(token, params, f"dec.{i}", config.heads, memory=x)
    token = layers.layer_norm(token, params["final_norm.g"], params["final_norm.b"])
    return ad.reshape(token, (n, config.d_model))


def gate_forward_batch(meshes: list, walk_count: int, params: dict,
                       config: GateConfig, seeds: list) -> list:
    """GateWeights of each mesh, shape (J,) each, in input order.

    Mesh i draws `walk_count` walks from `seeds[i]`; see `walk_softmax_rows`.
    A graph batch over the shard rule runs as two shards (`_shard_rows`).
    """
    if len(meshes) != len(seeds):
        raise GateError(f"{len(meshes)} meshes but {len(seeds)} seeds")
    features = walk_batch(meshes, walk_count, seeds)
    shards = _shards(features, params, config)
    if shards:
        return _shard_rows(features, shards, params, config)
    return walk_softmax_rows(features,
                             lambda walks: gate_forward_features(walks, params, config))


def _shards(features: list, params: dict, config: GateConfig) -> list | None:
    """Two lists of mesh indices, or None below the shard rule: a graph
    batch of two or more meshes whose walk-length groups average at least
    SHARD_FLOATS W * L * d_model floats.  Meshes are ordered longest walk
    first, ties by position, and cut where the shards' work is closest to
    half; a mesh's work is an encoder block's multiply-adds over its walks,
    W * L * 2d (2d + ff_width + L): projections, feed-forward, attention."""
    lengths = [walks.shape[1] for walks in features]
    tokens = sum(walks.shape[0] * walks.shape[1] for walks in features)
    if (len(features) < 2 or not any(p.requires_grad for p in params.values())
            or tokens * config.d_model < SHARD_FLOATS * len(set(lengths))):
        return None
    order = sorted(range(len(features)), key=lambda i: -lengths[i])
    width = 2 * config.d_model + config.ff_width
    work = np.cumsum([len(features[i]) * lengths[i] * (width + lengths[i]) for i in order])
    cut = 1 + int(np.argmin(np.abs(2 * work[:-1] - work[-1])))
    return [order[:cut], order[cut:]]


def _shard_rows(features: list, shards: list, params: dict, config: GateConfig) -> list:
    """Each mesh's row from one boundary node over the shards' (n_s, J) rows.

    Each shard builds its `walk_softmax_rows` graph over its own leaves,
    which share `params`' arrays; the forwards, and in backward the shards'
    `ad.backprop` from their slices of the cotangent, run on `_on_idle_cpus`.
    Each parameter then gets shard 0's gradient plus shard 1's, once.
    """
    leaves = [{name: Tensor(p.data, requires_grad=p.requires_grad)
               for name, p in params.items()} for _ in shards]

    def forward(k):
        # `_walk_tokens`, not `gate_forward_features`: perfbench wraps that
        # name with a tracer that keeps one span stack, and this may run on
        # a helper thread
        own = leaves[k]
        return ad.stack(walk_softmax_rows(
            [features[i] for i in shards[k]],
            lambda walks: layers.linear(_walk_tokens(walks, own, config),
                                        own["head.w"], own["head.b"])))

    roots = _on_idle_cpus(forward, [0, 1])

    def backward(g):
        _on_idle_cpus(lambda k: ad.backprop(roots[k], g[shards[k]]), [0, 1])
        for name, p in params.items():
            if p.requires_grad:
                grad = leaves[0][name].grad
                grad += leaves[1][name].grad
                ad._accumulate(p, grad, owned=True)

    positions = np.argsort(np.concatenate(shards))
    rows = np.concatenate([root.data for root in roots])[positions]
    # the shard leaves are other tensors, so `params` are parents too: a
    # backward reaches them, after this node has added their gradients
    boundary = ad._node(rows, (*roots, *params.values()), backward)
    return [ad.slice_index(boundary, 0, i) for i in range(len(features))]


def gate_forward_mesh(mesh, walk_count: int, params: dict, config: GateConfig,
                      seed: int) -> Tensor:
    """GateWeights: softmax over walk-averaged logits, shape (J,)."""
    return gate_forward_batch([mesh], walk_count, params, config, [seed])[0]


def imitation_loss(gate_params: dict, config: GateConfig, meshes: list,
                   targets: list, walk_count: int, seed: int) -> Tensor:
    """Mean KL(expert prediction || gate class distribution) over meshes."""
    rows = gate_forward_batch(meshes, walk_count, gate_params, config,
                              [derive(seed, mesh.mesh_id) for mesh in meshes])
    return ad.tmean(layers.kl_divergence(Tensor(np.stack(targets)), ad.stack(rows)))


def pretrain_imitation(gate_params: dict, config: GateConfig, expert, meshes: list,
                       epochs: int = 10, walk_count: int = 8, batch_size: int = 8,
                       lr: float = 1e-3, seed: int = 0) -> list:
    """Train the imitation head to match one expert; returns per-epoch losses.

    Expert predictions are computed once up front by `predict_batch` (they
    do not change); fresh walks are drawn every epoch.
    """
    if config.head_mode != "class_imitation":
        raise GateError("pretraining requires class_imitation mode")
    if expert.per_edge:
        raise GateError(f"expert {expert.name} predicts per-edge rows, which gate "
                        f"imitation (one class vector per mesh) cannot match")
    seeds = [derive(seed, "target", mesh.mesh_id) for mesh in meshes]
    targets = dict(zip((mesh.mesh_id for mesh in meshes),
                       predict_batch(expert, meshes, seeds)[0].data))

    def batch_loss(batch, epoch):
        return imitation_loss(compute_view(gate_params), config, batch,
                              [targets[m.mesh_id] for m in batch],
                              walk_count, derive(seed, "walks", epoch))

    return fit(gate_params, meshes, batch_loss, epochs, batch_size, lr, seed)


def average_pretrained_gates(params_list: list, config: GateConfig,
                             seed: int) -> dict:
    """Mean of shared-body weights under a fresh expert head.

    Imitation heads are class-sized and cannot feed the J-sized head, so
    the result carries the `expert_weights` head of a fresh init.
    """
    if not params_list:
        raise GateError("no parameter sets to average")
    body_paths = [sorted(k for k in p if not k.startswith("head.")) for p in params_list]
    if any(paths != body_paths[0] for paths in body_paths[1:]):
        raise GateError("parameter sets have mismatched body paths")
    averaged = init_gate_params(replace(config, head_mode="expert_weights"), seed)
    for path in body_paths[0]:
        shapes = {p[path].data.shape for p in params_list}
        if len(shapes) != 1:
            raise GateError(f"body shape mismatch at {path}: {sorted(shapes)}")
        mean = np.mean([p[path].data for p in params_list], axis=0)
        averaged[path] = Tensor(mean, requires_grad=True)
    return averaged
