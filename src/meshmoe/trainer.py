"""Mixture-of-experts training environment.

Each iteration runs the gate and every expert on a mesh batch, routes each
mesh to its argmax-weight expert, and optimizes a joint objective

    L_joint = lambda_t * L_sim + L_div

where L_sim sums pairwise divergences between expert predictions (pushing
experts together for lambda > 0, apart for lambda < 0) and L_div is the
gate-weighted cross-entropy of every expert.  The batch-mean gate weights
form the agent's state s_t and the batch accuracy its reward r_t; the agent
answers with the next coefficient lambda.  Inference routes with 32 walks
and returns the chosen expert's prediction alone; no coefficient involved.
"""

import csv

import numpy as np

from dataclasses import dataclass

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .gate import (GateConfig, gate_forward_batch, gate_forward_mesh,
                   init_gate_params)
from .metrics import (edge_accuracy, mean_average_precision,
                      mean_instance_accuracy, ndcg, retrieval_results)
from .optim import Adam
from .rng import Rng, derive

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
        if self.task not in ("classification", "retrieval", "segmentation"):
            raise TrainerError(f"unknown task {self.task!r}")


@dataclass
class BatchOutcome:
    """What one training iteration hands to the coefficient agent."""

    state: np.ndarray                  # (J,) batch-mean gate weights
    reward: float                      # batch accuracy in [0, 1]
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


def _pair_divergence(p: Tensor, q: Tensor, kind: str) -> Tensor:
    if kind == "kld":
        if p.ndim == 1:
            return layers.kl_divergence(p, q)
        return layers.kl_divergence_rows(p, q)
    pm = p if p.ndim == 2 else ad.reshape(p, (1, p.shape[0]))
    qm = q if q.ndim == 2 else ad.reshape(q, (1, q.shape[0]))
    if kind == "cosine":
        dot = ad.tsum(ad.mul(pm, qm), axis=-1)
        norms = ad.mul(ad.sqrt(ad.tsum(ad.mul(pm, pm), axis=-1)),
                       ad.sqrt(ad.tsum(ad.mul(qm, qm), axis=-1)))
        cos = ad.div(dot, ad.clamp_min(norms, layers.PROB_FLOOR))
        return ad.tmean(ad.sub(Tensor(1.0), cos))
    if kind == "mse":
        diff = ad.sub(pm, qm)
        return ad.tmean(ad.mul(diff, diff))
    raise TrainerError(f"unknown similarity kind {kind!r}; expected {SIM_KINDS}")


def similarity_loss(expert_predictions: list, kind: str = "kld") -> Tensor:
    """Batch-mean sum of divergences over ordered expert pairs.

    Zero when all experts agree (every kind is a true divergence) and for a
    single expert (empty pair sum).  kind "none" switches the term off.
    """
    if kind not in SIM_KINDS:
        raise TrainerError(f"unknown similarity kind {kind!r}; expected {SIM_KINDS}")
    if kind == "none" or not expert_predictions:
        return Tensor(0.0)
    num_experts = len(expert_predictions[0])
    if num_experts < 2:
        return Tensor(0.0)
    terms = []
    for preds in expert_predictions:
        for j in range(num_experts):
            for w in range(num_experts):
                if w != j:
                    terms.append(_pair_divergence(preds[j], preds[w], kind))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.div(total, Tensor(float(len(expert_predictions))))


def _prediction_ce(pred: Tensor, target) -> Tensor:
    # 1-D against a class index, 2-D against per-edge labels
    if pred.ndim == 1:
        return layers.cross_entropy(pred, int(target))
    return layers.cross_entropy_rows(pred, target)


def diversity_loss(gate_weight_rows: list, expert_predictions: list,
                   targets: list) -> Tensor:
    """Batch-mean of gate-weighted expert cross-entropies.

    `gate_weight_rows[i]` is the (J,) gate output for mesh i (kept in the
    graph so the gate learns which expert is cheap to trust).
    """
    if not (len(gate_weight_rows) == len(expert_predictions) == len(targets)):
        raise TrainerError("batch pieces disagree in length")
    terms = []
    for weights, preds, target in zip(gate_weight_rows, expert_predictions, targets):
        if weights.shape != (len(preds),):
            raise TrainerError(
                f"gate row shape {weights.shape} vs {len(preds)} experts")
        for j, pred in enumerate(preds):
            s_j = ad.slice_index(weights, 0, j)
            terms.append(ad.mul(s_j, _prediction_ce(pred, target)))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.div(total, Tensor(float(len(targets))))


def joint_loss(l_sim: Tensor, l_div: Tensor, lambda_t: float) -> Tensor:
    return ad.add(ad.mul(Tensor(float(lambda_t)), l_sim), l_div)


def _target(task: str, mesh):
    if task == "segmentation":
        if mesh.edge_labels is None:
            raise TrainerError(f"{mesh.mesh_id}: no edge labels")
        return mesh.edge_labels
    if mesh.class_label is None:
        raise TrainerError(f"{mesh.mesh_id}: no class label")
    return mesh.class_label


def batch_reward(task: str, meshes: list, chosen_predictions: list) -> float:
    """Batch accuracy of the routed predictions, by task metric."""
    if task == "segmentation":
        scores = []
        for mesh, pred in zip(meshes, chosen_predictions):
            labels = np.argmax(pred.data, axis=-1)
            scores.append(edge_accuracy(labels, mesh.edge_labels,
                                        mesh.edge_lengths))
        return float(np.mean(scores))
    if task == "retrieval":
        if len(meshes) < 2:
            return 0.0
        descriptors = {m.mesh_id: np.asarray(p.data)
                       for m, p in zip(meshes, chosen_predictions)}
        labels = {m.mesh_id: m.class_label for m in meshes}
        results = retrieval_results(descriptors, labels)
        return mean_average_precision(results, cutoff=len(meshes) - 1)
    predicted = [int(np.argmax(p.data)) for p in chosen_predictions]
    truth = [m.class_label for m in meshes]
    return mean_instance_accuracy(predicted, truth)


def train_iteration(system: MoESystem, batch: list, lambda_t: float,
                    gate_opt: Adam, expert_opts: dict, seed: int,
                    sim_kind: str = "kld") -> BatchOutcome:
    """One optimize step on a mesh batch; reward reflects the pre-step model.

    The gate runs once per walk length in the batch (`gate_forward_batch`);
    each mesh's row equals its `gate_forward_mesh` row.  The experts
    predict mesh by mesh.
    """
    if not batch:
        raise TrainerError("empty batch")
    gate_rows = gate_forward_batch(
        batch, system.walks_train, system.gate_params, system.gate_config,
        [derive(seed, "gate", mesh.mesh_id) for mesh in batch])
    predictions = [
        [expert.predict(mesh, derive(seed, "expert", expert.name, mesh.mesh_id))
         for expert in system.experts]
        for mesh in batch]
    per_mesh_weights = np.stack([row.data for row in gate_rows])
    chosen, picked = expert_chooser(per_mesh_weights, predictions)
    reward = batch_reward(system.task, batch, picked)

    targets = [_target(system.task, mesh) for mesh in batch]
    l_sim = similarity_loss(predictions, sim_kind)
    l_div = diversity_loss(gate_rows, predictions, targets)
    l_joint = joint_loss(l_sim, l_div, lambda_t)
    values = (float(l_sim.data), float(l_div.data), float(l_joint.data))
    if not np.isfinite(values[2]):
        ids = [m.mesh_id for m in batch]
        raise TrainerError(
            f"non-finite loss {values} at lambda={lambda_t} on batch {ids}")

    gate_opt.zero_grad()
    for opt in expert_opts.values():
        opt.zero_grad()
    l_joint.backward()
    gate_opt.step()
    for opt in expert_opts.values():
        opt.step()

    return BatchOutcome(state=per_mesh_weights.mean(axis=0), reward=reward,
                        chosen=chosen, per_mesh_weights=per_mesh_weights,
                        loss_values=values)


def train_run(system: MoESystem, dataset, agent, epochs: int,
              batch_size: int = 32, gate_lr: float = 1e-3,
              expert_lr: float = 1e-3, sim_kind: str = "kld", seed: int = 0,
              log_path=None, epoch_callback=None) -> list:
    """Alternate environment iterations and agent actions for `epochs`.

    The agent sees (s_t, r_t) after every batch and answers with the next
    coefficient; the final batch of each epoch is terminal.  Returns one
    summary dict per epoch; `epoch_callback(epoch, summary)` may return
    True to stop early.  `log_path` writes one CSV row per iteration.
    """
    num_experts = len(system.experts)
    gate_opt = Adam(system.gate_params, lr=gate_lr)
    expert_opts = {e.name: Adam(e.params, lr=expert_lr)
                   for e in system.experts if e.trainable}
    train_meshes = dataset.train_meshes
    if not train_meshes and epochs > 0:
        raise TrainerError("dataset has no training meshes")

    rows = []
    history = []
    prev_state = np.full(num_experts, 1.0 / num_experts)
    lam = agent.step(prev_state, 0.0, None, False)
    iteration = 0
    for epoch in range(epochs):
        order = list(range(len(train_meshes)))
        Rng(derive(seed, "order", epoch)).shuffle(order)
        batches = [order[i:i + batch_size]
                   for i in range(0, len(order), batch_size)]
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
            counts += np.bincount(outcome.chosen, minlength=num_experts)
            freqs = np.bincount(outcome.chosen,
                                minlength=num_experts) / len(batch)
            rows.append([epoch, iteration, lam, *outcome.loss_values,
                         outcome.reward, *freqs.tolist()])
            terminal = b == len(batches) - 1
            lam_next = agent.step(outcome.state, outcome.reward, prev_state,
                                  terminal)
            prev_state = outcome.state
            lam = lam_next
            iteration += 1
        summary = {
            "epoch": epoch,
            "reward": float(np.mean(epoch_rewards)),
            "lambda": float(np.mean(epoch_lambdas)),
            "l_sim": rows[-1][3], "l_div": rows[-1][4], "l_joint": rows[-1][5],
            "selection": (counts / counts.sum()).tolist(),
        }
        history.append(summary)
        if epoch_callback is not None and epoch_callback(epoch, summary):
            break

    if log_path is not None:
        header = ["epoch", "iteration", "lambda", "l_sim", "l_div", "l_joint",
                  "reward"] + [f"sel_{e.name}" for e in system.experts]
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return history


def inference(system: MoESystem, mesh, seed: int = 0):
    """Route with 32 walks; returns (prediction array, chosen expert index).

    The gate runs on grad-free views of its parameters, so its forward
    pass builds no autodiff graph.
    """
    frozen = {name: Tensor(tensor.data) for name, tensor in system.gate_params.items()}
    weights = gate_forward_mesh(
        mesh, system.walks_infer, frozen, system.gate_config,
        derive(seed, "gate", mesh.mesh_id))
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
    predicted, chosen = [], []
    for mesh in meshes:
        pred, j = inference(system, mesh, seed)
        predicted.append(int(np.argmax(pred)))
        chosen.append(j)
    truth = [m.class_label for m in meshes]
    return {"accuracy": mean_instance_accuracy(predicted, truth),
            "predicted": predicted, "chosen": chosen, "truth": truth}


def evaluate_ensemble(system: MoESystem, meshes: list, seed: int = 0) -> dict:
    """Hard-voting baseline over all experts, bypassing the gate."""
    stacks = []
    for mesh in meshes:
        stacks.append([
            expert.predict(mesh, derive(seed, "expert", expert.name, mesh.mesh_id)).data
            for expert in system.experts])
    predicted = hard_voting_ensemble(np.asarray(stacks))
    truth = [m.class_label for m in meshes]
    return {"accuracy": mean_instance_accuracy(predicted.tolist(), truth),
            "predicted": predicted.tolist()}


def evaluate_segmentation(system: MoESystem, meshes: list, seed: int = 0) -> dict:
    scores = []
    for mesh in meshes:
        pred, _ = inference(system, mesh, seed)
        labels = np.argmax(pred, axis=-1)
        scores.append(edge_accuracy(labels, mesh.edge_labels, mesh.edge_lengths))
    return {"edge_accuracy": float(np.mean(scores)), "per_mesh": scores}


def retrieval_descriptor(system: MoESystem, mesh, seed: int = 0) -> np.ndarray:
    """The routed expert's probability vector, used as the shape descriptor."""
    pred, _ = inference(system, mesh, seed)
    return pred


def evaluate_retrieval(system: MoESystem, meshes: list, seed: int = 0,
                       cutoff: int | None = None) -> dict:
    if len(meshes) < 2:
        raise TrainerError("retrieval needs at least two meshes")
    descriptors = {m.mesh_id: retrieval_descriptor(system, m, seed)
                   for m in meshes}
    labels = {m.mesh_id: m.class_label for m in meshes}
    results = retrieval_results(descriptors, labels)
    if cutoff is None:
        cutoff = len(meshes) - 1
    return {"map": mean_average_precision(results, cutoff),
            "ndcg": ndcg(results, cutoff)}


def system_parameters(system: MoESystem) -> dict:
    """Flat named view of every trainable tensor for checkpointing."""
    out = {f"gate.{k}": v for k, v in system.gate_params.items()}
    for expert in system.experts:
        if expert.params is None:
            continue
        for k, v in expert.params.items():
            out[f"expert.{expert.name}.{k}"] = v
    return out


def save_system(system: MoESystem, path) -> None:
    save_checkpoint(system_parameters(system), path)


def load_system(system: MoESystem, path) -> None:
    """Load a checkpoint into an architecturally identical system, in place."""
    stored = load_checkpoint(path)
    live = system_parameters(system)
    missing = sorted(set(live) - set(stored))
    extra = sorted(set(stored) - set(live))
    if missing or extra:
        raise TrainerError(
            f"checkpoint mismatch: missing {missing[:3]}, extra {extra[:3]}")
    for name, tensor in live.items():
        if stored[name].data.shape != tensor.data.shape:
            raise TrainerError(
                f"{name}: shape {stored[name].data.shape} vs "
                f"{tensor.data.shape}")
        tensor.data = stored[name].data.copy()
