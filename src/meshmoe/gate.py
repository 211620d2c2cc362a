"""Walk-attention gate: encoder-decoder transformer scoring the experts.

Encoder: linear embedding of (xyz, jump) walk positions + sinusoidal
positions, then 8 self-attention blocks.  Decoder: a learned query token
cross-attends to the encoder output through 8 blocks; a final linear head
maps the token to one logit per expert (or per class in the imitation
head used for pre-training).  Per-mesh weights are the softmax of
walk-averaged logits.  A batch of meshes is run as one gate call per walk
length: the walks of every mesh with the same L are stacked into one
(n * W, L, 4) array, so no padding or mask is needed.

Pre-training runs one gate per expert against that expert's prediction
vectors with KL(expert || gate); the pre-trained bodies are averaged to
initialize the real gate, whose expert head starts fresh.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .optim import Adam
from .rng import Rng, derive
from .walks import extract_walks, walk_feature_batch

WALK_CHANNELS = 4  # xyz + jump flag


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
    """Logits for a (W, L, 4) walk-feature batch; returns (W, out_dim)."""
    if features.ndim != 3 or features.shape[-1] != WALK_CHANNELS:
        raise GateError(f"expected (W, L, {WALK_CHANNELS}) features, got {features.shape}")
    w_count, length, _ = features.shape
    x = layers.linear(Tensor(features), params["embed.w"], params["embed.b"])
    x = ad.add(x, Tensor(layers.positional_encoding(length, config.d_model)))
    for i in range(config.encoder_layers):
        x = layers.mha_block(x, params, f"enc.{i}", config.heads)

    token = ad.add(Tensor(np.zeros((w_count, 1, config.d_model))), params["query"])
    for i in range(config.decoder_layers):
        token = layers.mha_block(token, params, f"dec.{i}", config.heads, memory=x)
    token = layers.layer_norm(token, params["final_norm.g"], params["final_norm.b"])
    token = ad.reshape(token, (w_count, config.d_model))
    if config.head_mode == "expert_weights":
        return layers.linear(token, params["head.expert.w"], params["head.expert.b"])
    return layers.linear(token, params["head.imitate.w"], params["head.imitate.b"])


def gate_forward_walk(walk, params: dict, config: GateConfig) -> Tensor:
    """Logits for a single walk, shape (J,) or (num_classes,)."""
    logits = gate_forward_features(walk.features()[None, :, :], params, config)
    return ad.reshape(logits, (logits.shape[1],))


def gate_forward_batch(meshes: list, walk_count: int, params: dict,
                       config: GateConfig, seeds: list) -> list:
    """GateWeights of each mesh, shape (J,) each, in input order.

    Mesh i draws `walk_count` walks from `seeds[i]`.  Meshes are grouped by
    walk length; each group runs through one `gate_forward_features` call,
    and its logits are averaged over each mesh's walks before the softmax.
    """
    if len(meshes) != len(seeds):
        raise GateError(f"{len(meshes)} meshes but {len(seeds)} seeds")
    groups = {}
    for index, (mesh, seed) in enumerate(zip(meshes, seeds)):
        features = walk_feature_batch(extract_walks(mesh, walk_count, seed))
        groups.setdefault(features.shape[1], []).append((index, features))
    rows = [None] * len(meshes)
    for members in groups.values():
        logits = gate_forward_features(
            np.concatenate([features for _, features in members]), params, config)
        logits = ad.reshape(logits, (len(members), walk_count, logits.shape[-1]))
        weights = ad.softmax(ad.tmean(logits, axis=1), axis=-1)
        for k, (index, _) in enumerate(members):
            rows[index] = ad.slice_index(weights, 0, k)
    return rows


def gate_forward_mesh(mesh, walk_count: int, params: dict, config: GateConfig,
                      seed: int) -> Tensor:
    """GateWeights: softmax over walk-averaged logits, shape (J,)."""
    return gate_forward_batch([mesh], walk_count, params, config, [seed])[0]


def imitation_loss(gate_params: dict, config: GateConfig, meshes: list,
                   targets: list, walk_count: int, seed: int) -> Tensor:
    """Mean KL(expert prediction || gate class distribution) over meshes."""
    rows = gate_forward_batch(meshes, walk_count, gate_params, config,
                              [derive(seed, mesh.mesh_id) for mesh in meshes])
    terms = [layers.kl_divergence(Tensor(target), weights)
             for target, weights in zip(targets, rows)]
    return ad.tmean(ad.stack(terms))


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
        pred = expert.predict(mesh, derive(seed, "target", mesh.mesh_id))
        values = pred.data if isinstance(pred, Tensor) else np.asarray(pred)
        if values.shape != (config.num_classes,):
            raise GateError(f"expert prediction shape {values.shape} does not "
                            f"match num_classes {config.num_classes}")
        targets[mesh.mesh_id] = values
    optimizer = Adam(gate_params, lr=lr)
    history = []
    for epoch in range(epochs):
        order = list(range(len(meshes)))
        Rng(derive(seed, "order", epoch)).shuffle(order)
        losses = []
        for start in range(0, len(order), batch_size):
            batch = [meshes[i] for i in order[start:start + batch_size]]
            batch_targets = [targets[m.mesh_id] for m in batch]
            optimizer.zero_grad()
            loss = imitation_loss(gate_params, config, batch, batch_targets,
                                  walk_count, derive(seed, "walks", epoch))
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return history


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
