"""Walk-attention gate: encoder-decoder transformer scoring the experts.

Encoder: linear embedding of (xyz, jump) walk positions + sinusoidal
positions, then 8 self-attention blocks.  Decoder: a learned query token
cross-attends to the encoder output through 8 blocks; a final linear head
maps the token to one logit per expert (or per class in the imitation
head used for pre-training).  Per-mesh weights are the softmax of
walk-averaged logits, batched by `walks.walk_softmax_rows`.

Without trainable parameters (inference) the body runs over chunks of
max(1, CHUNK_TOKENS // L) walks and the head over all walks at once, so
attention memory is O(chunk * heads * L^2), not O(W * heads * L^2).  The
bits do not change: `linear` does one GEMM per leading index, layer norm
reduces per row and attention one GEMM per (walk, head), so no walk's
numbers depend on the others.  With a graph all walks are one chunk.

Pre-training runs one gate per expert against that expert's prediction
vectors with KL(expert || gate); the pre-trained bodies are averaged to
initialize the real gate, whose expert head starts fresh.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .optim import fit
from .rng import derive
from .walks import extract_walks, walk_features, walk_softmax_rows

WALK_CHANNELS = 4  # xyz + jump flag
CHUNK_TOKENS = 512  # walk positions per grad-free body chunk


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
        if self.num_experts < 1:
            raise GateError("need at least one expert")
        if self.d_model % self.heads != 0:
            raise GateError("d_model must divide evenly into heads")
        if self.head_mode not in ("expert_weights", "class_imitation"):
            raise GateError(f"unknown head_mode: {self.head_mode}")
        if self.head_mode == "class_imitation" and self.num_classes < 2:
            raise GateError("class_imitation mode needs num_classes >= 2")


def init_gate_params(config: GateConfig, seed: int) -> dict:
    """Both heads are always created so checkpoints are mode-agnostic."""
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
    params["head.expert.w"] = layers.glorot((config.d_model, config.num_experts),
                                            derive(seed, "head_expert"))
    params["head.expert.b"] = layers.zeros((config.num_experts,))
    if config.num_classes >= 2:
        params["head.imitate.w"] = layers.glorot((config.d_model, config.num_classes),
                                                 derive(seed, "head_imitate"))
        params["head.imitate.b"] = layers.zeros((config.num_classes,))
    return params


def gate_forward_features(features: np.ndarray, params: dict,
                          config: GateConfig) -> Tensor:
    """Logits for a (W, L, 4) walk-feature batch; returns (W, out_dim).

    With no trainable parameter the body runs over chunks of
    max(1, CHUNK_TOKENS // L) walks; otherwise all W walks are one chunk.
    """
    if features.ndim != 3 or features.shape[-1] != WALK_CHANNELS or len(features) == 0:
        raise GateError(f"expected (W, L, {WALK_CHANNELS}) features, got {features.shape}")
    w_count, length, _ = features.shape
    chunk = w_count
    if not any(p.requires_grad for p in params.values()):
        chunk = max(1, CHUNK_TOKENS // length)
    tokens = [_walk_tokens(features[i:i + chunk], params, config)
              for i in range(0, w_count, chunk)]
    token = tokens[0] if len(tokens) == 1 else Tensor(np.concatenate([t.data for t in tokens]))
    if config.head_mode == "expert_weights":
        return layers.linear(token, params["head.expert.w"], params["head.expert.b"])
    return layers.linear(token, params["head.imitate.w"], params["head.imitate.b"])


def _walk_tokens(features: np.ndarray, params: dict, config: GateConfig) -> Tensor:
    """The gate body: (n, L, 4) walk features to (n, d) final-norm tokens."""
    n, length, _ = features.shape
    x = layers.linear(Tensor(features), params["embed.w"], params["embed.b"])
    x = ad.add(x, Tensor(layers.positional_encoding(length, config.d_model)))
    for i in range(config.encoder_layers):
        x = layers.mha_block(x, params, f"enc.{i}", config.heads)

    token = ad.add(Tensor(np.zeros((n, 1, config.d_model))), params["query"])
    for i in range(config.decoder_layers):
        token = layers.mha_block(token, params, f"dec.{i}", config.heads, memory=x)
    token = layers.layer_norm(token, params["final_norm.g"], params["final_norm.b"])
    return ad.reshape(token, (n, config.d_model))


def gate_forward_batch(meshes: list, walk_count: int, params: dict,
                       config: GateConfig, seeds: list) -> list:
    """GateWeights of each mesh, shape (J,) each, in input order.

    Mesh i draws `walk_count` walks from `seeds[i]`; see `walk_softmax_rows`.
    """
    if len(meshes) != len(seeds):
        raise GateError(f"{len(meshes)} meshes but {len(seeds)} seeds")
    features = [walk_features(mesh, extract_walks(mesh, walk_count, seed))
                for mesh, seed in zip(meshes, seeds)]
    return walk_softmax_rows(
        features, lambda walks: gate_forward_features(walks, params, config))


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

    Expert predictions are computed once up front (they do not change);
    fresh walks are drawn every epoch.
    """
    if config.head_mode != "class_imitation":
        raise GateError("pretraining requires class_imitation mode")
    targets = {}
    for mesh in meshes:
        values = expert.predict(mesh, derive(seed, "target", mesh.mesh_id)).data
        if values.shape != (config.num_classes,):
            raise GateError(f"expert prediction shape {values.shape} does not "
                            f"match num_classes {config.num_classes}")
        targets[mesh.mesh_id] = values

    def batch_loss(batch, epoch):
        return imitation_loss(gate_params, config, batch,
                              [targets[m.mesh_id] for m in batch],
                              walk_count, derive(seed, "walks", epoch))

    return fit(gate_params, meshes, batch_loss, epochs, batch_size, lr, seed)


def average_pretrained_gates(params_list: list, config: GateConfig,
                             seed: int) -> dict:
    """Mean of shared-body weights; expert head freshly initialized.

    Imitation heads are class-sized and cannot feed the J-sized head, so
    every `head.*` parameter is replaced from a fresh init.
    """
    if not params_list:
        raise GateError("no parameter sets to average")
    body_paths = [sorted(k for k in p if not k.startswith("head.")) for p in params_list]
    if any(paths != body_paths[0] for paths in body_paths[1:]):
        raise GateError("parameter sets have mismatched body paths")
    averaged = init_gate_params(config, seed)
    for path in body_paths[0]:
        shapes = {p[path].data.shape for p in params_list}
        if len(shapes) != 1:
            raise GateError(f"body shape mismatch at {path}: {sorted(shapes)}")
        mean = np.mean([p[path].data for p in params_list], axis=0)
        averaged[path] = Tensor(mean, requires_grad=True)
    return averaged
