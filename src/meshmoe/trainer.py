"""Mixture-of-experts training environment.

Each iteration runs the gate and every expert on a mesh batch (the gate
and each walk-RNN once per walk length, the other trainable experts once
over the batch), routes each mesh to its argmax-weight expert, and
optimizes a joint objective

    L_joint = lambda_t * L_sim + L_div

where L_sim sums pairwise divergences between expert predictions (pushing
experts together for lambda > 0, apart for lambda < 0) and L_div is the
gate-weighted cross-entropy of every expert.  Both losses work on one
(J, N, C) stack of every expert's probability rows (a class vector is one
row, an edge matrix one row per edge), built once per step: L_sim is one
broadcast divergence over all ordered expert pairs, L_div pre-training's
cross-entropy, and a constant (N, B) matrix averages each mesh's rows.
The batch-mean gate weights form the agent's state s_t and the batch's
task metric its reward r_t; the agent answers with the next coefficient
lambda.  Inference routes with 32 walks and returns the chosen expert's
prediction alone; no coefficient involved.  `task_scores` is the one
scorer of routed predictions, for the reward and for evaluation alike;
`step_loss` the one builder of L_joint, for training and the gradient
battery alike.  `train_iteration` and `inference` run the gate body on
`gate.compute_view`; the gate's parameters, gradients and Adam moments,
the losses and the experts stay float64.
"""

import csv
import io

import numpy as np

from dataclasses import dataclass, replace

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .checkpoint import atomic_write, copy_into, load_checkpoint, save_checkpoint
from .experts import (expert_parameters, mesh_average, mesh_cross_entropy,
                      mesh_target, predict_batch, stacked_rows)
from .gate import (GateConfig, compute_view, gate_forward_batch, gate_forward_mesh,
                   gate_parameters, init_gate_params)
from .mesh import TASKS
from .metrics import (edge_accuracy, mean_average_precision,
                      mean_instance_accuracy, ndcg, retrieval_relevance)
from .optim import Adam, descend, epoch_batches
from .rng import derive

SIM_KINDS = ("kld", "cosine", "mse", "none")


class TrainerError(RuntimeError):
    pass


@dataclass
class MoESystem:
    """Gate plus expert bundle with its routing configuration."""

    gate_params: dict
    gate_config: GateConfig
    experts: list
    task: str = "classification"
    walks_train: int = 8
    walks_infer: int = 32

    def __post_init__(self):
        if self.gate_config.num_experts != len(self.experts):
            raise TrainerError(
                f"gate routes {self.gate_config.num_experts} experts, got "
                f"{len(self.experts)}")
        check_pool(self.experts, self.task)


def check_pool(experts: list, task: str) -> None:
    """Every expert must predict the layout `task` scores: per-edge rows for
    segmentation, one class vector per mesh for classification."""
    if task not in TASKS:
        raise TrainerError(f"unknown task {task!r}")
    for expert in experts:
        if expert.per_edge != (task == "segmentation"):
            layout = "per-edge rows" if expert.per_edge else "one class vector per mesh"
            raise TrainerError(f"expert {expert.name} predicts {layout}, which "
                               f"the {task} task cannot score")


@dataclass
class BatchOutcome:
    """What one training iteration hands to the coefficient agent."""

    state: np.ndarray                  # (J,) batch-mean gate weights
    reward: float                      # batch reward metric in [0, 1]
    chosen: list                       # per-mesh argmax expert index
    per_mesh_weights: np.ndarray       # (B, J), rows on the simplex
    loss_values: tuple                 # (L_sim, L_div, L_joint) floats


def build_system(experts: list, task: str = "classification",
                 gate_config: GateConfig | None = None, seed: int = 0,
                 **gate_kwargs) -> MoESystem:
    if gate_config is None:
        gate_config = GateConfig(num_experts=len(experts), **gate_kwargs)
    params = init_gate_params(gate_config, derive(seed, "gate"))
    return MoESystem(gate_params=params, gate_config=gate_config,
                     experts=list(experts), task=task)


def expert_chooser(per_mesh_weights: np.ndarray, expert_predictions: list):
    """Route each mesh to its argmax-weight expert (ties: lowest index).

    `expert_predictions[i][j]` is expert j's prediction for mesh i.
    Returns (indices, chosen predictions).
    """
    weights = np.asarray(per_mesh_weights, dtype=np.float64)
    if weights.ndim != 2:
        raise TrainerError("per-mesh weights must be a B x J matrix")
    chosen = [int(np.argmax(row)) for row in weights]
    picked = [preds[j] for preds, j in zip(expert_predictions, chosen)]
    return chosen, picked


def similarity_loss(expert_predictions: list, kind: str = "kld") -> Tensor:
    """`stack_similarity` of expert j's prediction for mesh i, `[i][j]`."""
    return stack_similarity(*stacked_rows(expert_predictions), kind)


def stack_similarity(rows: Tensor, average: Tensor, kind: str = "kld") -> Tensor:
    """Batch-mean sum of divergences over ordered expert pairs, from every
    expert's (J, N, C) rows and their (N, B) `mesh_average`.

    All pairs come from one broadcast of the (J, 1, N, C) rows against the
    (1, J, N, C) rows, with the j == w diagonal masked out.  Zero when all
    experts agree (every kind is a true divergence) and for a single
    expert (empty pair sum).  kind "none" switches the term off.
    """
    if kind not in SIM_KINDS:
        raise TrainerError(f"unknown similarity kind {kind!r}; expected {SIM_KINDS}")
    num_experts, num_rows, num_classes = rows.shape
    if kind == "none" or num_experts < 2:
        return Tensor(0.0)
    p = ad.reshape(rows, (num_experts, 1, num_rows, num_classes))
    q = ad.reshape(rows, (1, num_experts, num_rows, num_classes))
    if kind == "kld":
        per_row = layers.kl_divergence(p, q)                    # (J, J, N)
    elif kind == "mse":
        diff = ad.sub(p, q)
        per_row = ad.tmean(ad.mul(diff, diff), axis=-1)
    else:
        norms = ad.mul(ad.sqrt(ad.tsum(ad.mul(p, p), axis=-1)),
                       ad.sqrt(ad.tsum(ad.mul(q, q), axis=-1)))
        cos = ad.div(ad.tsum(ad.mul(p, q), axis=-1),
                     ad.clamp(norms, layers.PROB_FLOOR))
        per_row = ad.clamp(ad.sub(Tensor(1.0), cos), 0.0)   # cos may round past 1
    per_mesh = ad.matmul(per_row, average)                      # (J, J, B)
    off_diagonal = Tensor((1.0 - np.eye(num_experts))[:, :, None])
    total = ad.tsum(ad.mul(per_mesh, off_diagonal))
    return ad.div(total, Tensor(float(average.shape[1])))


def diversity_loss(gate_weight_rows: list, expert_predictions: list,
                   targets: list) -> Tensor:
    """`stack_diversity` of expert j's prediction for mesh i, `[i][j]`, once
    each mesh's pieces are checked to agree."""
    if not (len(gate_weight_rows) == len(expert_predictions) == len(targets)):
        raise TrainerError("batch pieces disagree in length")
    for weights, preds, target in zip(gate_weight_rows, expert_predictions, targets):
        if weights.shape != (len(preds),):
            raise TrainerError(f"gate row shape {weights.shape} vs {len(preds)} experts")
        if np.shape(target) != preds[0].shape[:-1]:
            raise TrainerError(
                f"target shape {np.shape(target)} vs prediction rows {preds[0].shape[:-1]}")
    return stack_diversity(gate_weight_rows, *stacked_rows(expert_predictions), targets)


def stack_diversity(gate_weight_rows: list, rows: Tensor, average: Tensor,
                    targets: list) -> Tensor:
    """Batch-mean of gate-weighted expert cross-entropies, from every
    expert's (J, N, C) rows and their (N, B) `mesh_average`.

    `gate_weight_rows[i]` is the (J,) gate output for mesh i (kept in the
    graph so the gate learns which expert is cheap to trust).  One
    cross-entropy covers every expert's rows; each expert's per-mesh mean
    is weighted by the gate, summed over experts within each mesh first,
    then over meshes, and divided by B last, so one-hot gate rows give
    exactly the batch mean of the chosen expert's cross-entropy.
    """
    per_mesh = mesh_cross_entropy(rows, average, targets)          # (J, B)
    weighted = ad.mul(ad.stack(gate_weight_rows, axis=1), per_mesh)
    total = ad.tsum(ad.tsum(weighted, axis=0))
    return ad.div(total, Tensor(float(len(targets))))


def joint_loss(l_sim: Tensor, l_div: Tensor, lambda_t: float) -> Tensor:
    return ad.add(ad.mul(Tensor(float(lambda_t)), l_sim), l_div)


def task_scores(task: str, meshes: list, predictions: list) -> dict:
    """Task metrics of per-mesh prediction arrays, the reward metric first.

    classification: accuracy of the argmax class; segmentation: mean of
    the per-mesh length-weighted edge accuracy; retrieval: mAP and NDCG
    at cutoff B - 1 with the prediction as the shape descriptor (both 0.0
    under two meshes, where no query has a corpus).
    """
    if task == "segmentation":
        scores = [edge_accuracy(np.argmax(pred, axis=-1), mesh.edge_labels,
                                mesh.edge_lengths)
                  for mesh, pred in zip(meshes, predictions)]
        return {"edge_accuracy": float(np.mean(scores))}
    if task == "retrieval":
        if len(meshes) < 2:
            return {"map": 0.0, "ndcg": 0.0}
        descriptors = {m.mesh_id: p for m, p in zip(meshes, predictions)}
        relevance = retrieval_relevance(descriptors,
                                        {m.mesh_id: m.class_label for m in meshes})
        cutoff = len(meshes) - 1
        return {"map": mean_average_precision(relevance, cutoff),
                "ndcg": ndcg(relevance, cutoff)}
    predicted = [int(np.argmax(pred)) for pred in predictions]
    return {"accuracy": mean_instance_accuracy(
        predicted, [m.class_label for m in meshes])}


def batch_reward(task: str, meshes: list, chosen_predictions: list) -> float:
    """The routed prediction arrays' reward metric: the first of `task_scores`."""
    return next(iter(task_scores(task, meshes, chosen_predictions).values()))


def _expert_rows(experts: list, meshes: list, seed: int) -> tuple:
    """The experts' `predict_batch` rows as one (J, N, C) stack, and the row counts."""
    columns = [predict_batch(e, meshes, [derive(seed, "expert", e.name, m.mesh_id)
                                         for m in meshes]) for e in experts]
    return ad.stack([rows for rows, _ in columns]), columns[0][1]


def step_loss(system: MoESystem, batch: list, lambda_t: float, seed: int,
              sim_kind: str = "kld") -> tuple[Tensor, BatchOutcome]:
    """The joint loss of one training step and what it hands the agent.

    The gate and each walk-RNN expert run once per walk length in the
    batch, every other trainable expert once.  Both losses read one
    (J, N, C) stack of the experts' rows and one `mesh_average`; the
    chooser and the reward read each mesh's slice of the stack.  Returns
    (L_joint, BatchOutcome); the reward scores the current parameters.
    """
    if not batch:
        raise TrainerError("empty batch")
    gate_rows = gate_forward_batch(
        batch, system.walks_train, system.gate_params, system.gate_config,
        [derive(seed, "gate", mesh.mesh_id) for mesh in batch])
    rows, counts = _expert_rows(system.experts, batch, seed)
    per_edge = system.task == "segmentation"
    predictions = [piece if per_edge else piece[:, 0]           # (J, E_i, S) or (J, C)
                   for piece in np.split(rows.data, np.cumsum(counts)[:-1], axis=1)]
    per_mesh_weights = np.stack([row.data for row in gate_rows])
    chosen, picked = expert_chooser(per_mesh_weights, predictions)
    reward = batch_reward(system.task, batch, picked)

    targets = [mesh_target(mesh, per_edge) for mesh in batch]
    average = mesh_average(counts)
    l_sim = stack_similarity(rows, average, sim_kind)
    l_div = stack_diversity(gate_rows, rows, average, targets)
    l_joint = joint_loss(l_sim, l_div, lambda_t)
    values = (float(l_sim.data), float(l_div.data), float(l_joint.data))
    if not np.isfinite(values[2]):
        ids = [m.mesh_id for m in batch]
        raise TrainerError(
            f"non-finite loss {values} at lambda={lambda_t} on batch {ids}")
    return l_joint, BatchOutcome(state=per_mesh_weights.mean(axis=0), reward=reward,
                                 chosen=chosen, per_mesh_weights=per_mesh_weights,
                                 loss_values=values)


def train_iteration(system: MoESystem, batch: list, lambda_t: float,
                    gate_opt: Adam, expert_opts: dict, seed: int,
                    sim_kind: str = "kld") -> BatchOutcome:
    """One optimize step on `step_loss` over the gate's `compute_view`;
    reward reflects the pre-step model."""
    view = replace(system, gate_params=compute_view(system.gate_params))
    l_joint, outcome = step_loss(view, batch, lambda_t, seed, sim_kind)
    descend(l_joint, gate_opt, *expert_opts.values())
    return outcome


def train_run(system: MoESystem, dataset, agent, epochs: int,
              batch_size: int = 32, gate_lr: float = 1e-3,
              expert_lr: float = 1e-3, sim_kind: str = "kld", seed: int = 0,
              log_path=None, epoch_callback=None) -> list:
    """Alternate environment iterations and agent actions for `epochs`.

    The agent sees (s_t, r_t) after every batch and answers with the next
    coefficient; the final batch of each epoch is terminal.  Returns one
    summary dict per epoch; `epoch_callback(epoch, summary)` may return
    True to stop early.  `log_path` gets one CSV row per iteration; it is
    rewritten whole at every epoch end, before the callback.
    """
    num_experts = len(system.experts)
    gate_opt = Adam(system.gate_params, lr=gate_lr)
    expert_opts = {e.name: Adam(e.params, lr=expert_lr)
                   for e in system.experts if e.trainable}
    train_meshes = dataset.train_meshes
    if not train_meshes and epochs > 0:
        raise TrainerError("dataset has no training meshes")

    log = io.StringIO()                # rows rendered once, written whole per epoch
    csv.writer(log).writerow(["epoch", "iteration", "lambda", "l_sim", "l_div", "l_joint",
                              "reward"] + [f"sel_{e.name}" for e in system.experts])
    history = []
    prev_state = np.full(num_experts, 1.0 / num_experts)
    lam = agent.step(prev_state, 0.0, None, False)
    iteration = 0
    for epoch in range(epochs):
        batches = epoch_batches(len(train_meshes), batch_size, seed, epoch)
        epoch_rewards = []
        epoch_lambdas = []
        counts = np.zeros(num_experts)
        for b, batch_idx in enumerate(batches):
            batch = [train_meshes[i] for i in batch_idx]
            outcome = train_iteration(
                system, batch, lam, gate_opt, expert_opts,
                derive(seed, "it", epoch, b), sim_kind=sim_kind)
            epoch_rewards.append(outcome.reward)
            epoch_lambdas.append(lam)
            routed = np.bincount(outcome.chosen, minlength=num_experts)
            counts += routed
            csv.writer(log).writerow([epoch, iteration, lam, *outcome.loss_values,
                                      outcome.reward, *(routed / len(batch)).tolist()])
            lam = agent.step(outcome.state, outcome.reward, prev_state,
                             b == len(batches) - 1)          # terminal batch
            prev_state = outcome.state
            iteration += 1
        summary = {
            "epoch": epoch,
            "reward": float(np.mean(epoch_rewards)),
            "lambda": float(np.mean(epoch_lambdas)),
            **dict(zip(("l_sim", "l_div", "l_joint"), outcome.loss_values)),
            "selection": (counts / counts.sum()).tolist(),
        }
        history.append(summary)
        if log_path is not None:
            with atomic_write(log_path) as fh:
                fh.write(log.getvalue())
        if epoch_callback is not None and epoch_callback(epoch, summary):
            break
    return history


def inference(system: MoESystem, mesh, seed: int = 0):
    """Route with 32 walks; returns (prediction array, chosen expert index).

    The gate runs on its grad-free `compute_view`, so it builds no autodiff
    graph; the routed expert predicts in float64.
    """
    weights = gate_forward_mesh(
        mesh, system.walks_infer, compute_view(system.gate_params, graph=False),
        system.gate_config, derive(seed, "gate", mesh.mesh_id))
    j = int(np.argmax(weights.data))
    expert = system.experts[j]
    pred = expert.predict(mesh, derive(seed, "expert", expert.name, mesh.mesh_id))
    return np.asarray(pred.data), j


def hard_voting_ensemble(expert_predictions: np.ndarray) -> np.ndarray:
    """Majority vote over expert argmax classes; ties to the lowest class."""
    preds = np.asarray(expert_predictions, dtype=np.float64)
    if preds.ndim != 3:
        raise TrainerError("expected a B x J x C prediction array")
    votes = np.argmax(preds, axis=-1)                      # (B, J)
    num_classes = preds.shape[-1]
    return np.array([int(np.argmax(np.bincount(row, minlength=num_classes)))
                     for row in votes])


def evaluate_classification(system: MoESystem, meshes: list, seed: int = 0) -> dict:
    routed = [inference(system, mesh, seed) for mesh in meshes]
    predictions = [pred for pred, _ in routed]
    return {"accuracy": task_scores("classification", meshes, predictions)["accuracy"],
            "predicted": [int(np.argmax(pred)) for pred in predictions],
            "chosen": [j for _, j in routed],
            "truth": [m.class_label for m in meshes]}


def evaluate_ensemble(system: MoESystem, meshes: list, seed: int = 0) -> dict:
    """Hard-voting baseline over all experts, bypassing the gate."""
    rows, _ = _expert_rows(system.experts, meshes, seed)
    predicted = hard_voting_ensemble(np.swapaxes(rows.data, 0, 1))
    truth = [m.class_label for m in meshes]
    return {"accuracy": mean_instance_accuracy(predicted.tolist(), truth),
            "predicted": predicted.tolist()}


def system_parameters(system: MoESystem) -> dict:
    """Flat named view of every trainable tensor for checkpointing."""
    return {**gate_parameters(system.gate_params),
            **expert_parameters(system.experts)}


def save_system(system: MoESystem, path) -> None:
    save_checkpoint(system_parameters(system), path)


def load_system(system: MoESystem, path) -> None:
    """Load a checkpoint into an architecturally identical system, in place."""
    copy_into(system_parameters(system), load_checkpoint(path))
