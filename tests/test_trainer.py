"""Expert environment: chooser, losses, iteration protocol, round trips."""

import copy
import csv
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.array_utils import byte_bounds

from meshmoe import autodiff as ad, trainer
from meshmoe.autodiff import Tensor
from meshmoe.checkpoint import CheckpointError
from meshmoe.experts import build_experts
from meshmoe.experts import mesh_average
from meshmoe.gate import GateConfig, compute_view, gate_forward_batch, gate_forward_mesh
from meshmoe.gradcheck import check_gradients
from meshmoe.layers import PROB_FLOOR, cross_entropy
from meshmoe.metrics import mean_instance_accuracy
from meshmoe.optim import Adam
from meshmoe.rng import Rng, derive
from meshmoe.sac import StaticLambdaAgent
from meshmoe.synth import generate_classification_set, generate_segmentation_set
from meshmoe.trainer import (BatchOutcome, MoESystem, TrainerError,
                             batch_reward, build_system, diversity_loss,
                             evaluate_classification, evaluate_ensemble,
                             expert_chooser, hard_voting_ensemble, inference,
                             joint_loss, load_system, save_system,
                             similarity_loss, stack_diversity, stack_similarity,
                             step_loss, system_parameters,
                             task_scores, train_iteration, train_run)
from meshmoe.walks import walk_length

TINY = GateConfig(num_experts=2, encoder_layers=1, decoder_layers=1,
                  d_model=8, heads=2, ff_width=16)


def prob_vector(rng: Rng, n: int) -> np.ndarray:
    # coarse dyadic grid keeps the vectors exactly representable
    raw = np.array([rng.randbelow(16) + 1 for _ in range(n)], dtype=np.float64)
    return raw / raw.sum()


def tiny_dataset():
    return generate_classification_set(classes=2, per_class=6, seed=13)


def oracle_system(num_classes=2, gate_config=TINY, seed=3):
    specs = [f"oracle:{c}" for c in range(gate_config.num_experts)]
    experts = build_experts(specs, num_classes=num_classes, seed=seed)
    return build_system(experts, gate_config=gate_config, seed=seed)


# ---------------------------------------------------------------- chooser

def test_chooser_picks_argmax():
    preds = [[Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0])),
              Tensor(np.array([0.5, 0.5]))]]
    chosen, picked = expert_chooser(np.array([[0.2, 0.5, 0.3]]), preds)
    assert chosen == [1]
    np.testing.assert_array_equal(picked[0].data, [0.0, 1.0])


def test_chooser_tie_breaks_low():
    preds = [[Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0]))]]
    chosen, _ = expert_chooser(np.array([[0.5, 0.5]]), preds)
    assert chosen == [0]


def test_chooser_permutation_equivariant():
    rng = Rng(4)
    weights = np.array([prob_vector(rng, 4) for _ in range(5)])
    preds = [[Tensor(prob_vector(rng, 3)) for _ in range(4)] for _ in range(5)]
    chosen, _ = expert_chooser(weights, preds)
    perm = [2, 0, 3, 1]
    weights_p = weights[:, perm]
    preds_p = [[row[j] for j in perm] for row in preds]
    chosen_p, _ = expert_chooser(weights_p, preds_p)
    assert [perm[c] for c in chosen_p] == chosen


# ---------------------------------------------------------------- losses

def test_similarity_zero_when_identical():
    rng = Rng(9)
    v = Tensor(prob_vector(rng, 5))
    preds = [[v, v, v] for _ in range(3)]
    assert similarity_loss(preds, "kld").data == 0.0
    assert similarity_loss(preds, "mse").data == 0.0
    assert abs(similarity_loss(preds, "cosine").data) < 1e-12


def test_similarity_single_expert_zero():
    preds = [[Tensor(np.array([0.3, 0.7]))]]
    assert similarity_loss(preds, "kld").data == 0.0


def test_similarity_none_kind_and_unknown():
    preds = [[Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0]))]]
    assert similarity_loss(preds, "none").data == 0.0
    with pytest.raises(TrainerError, match="unknown similarity kind"):
        similarity_loss(preds, "jsd")


def test_similarity_two_expert_hand_value():
    # independent scalar evaluation of the clamped symmetric KL pair
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.5, 0.5])
    c1 = np.maximum(v1, PROB_FLOOR)
    c2 = np.maximum(v2, PROB_FLOOR)
    expected = float(np.sum(c1 * (np.log(c1) - np.log(c2)))
                     + np.sum(c2 * (np.log(c2) - np.log(c1))))
    got = similarity_loss([[Tensor(v1), Tensor(v2)]], "kld").data
    assert abs(float(got) - expected) < 1e-12
    assert abs(expected - 13.815510557) < 1e-6


@given(seed=st.integers(0, 10_000), num_experts=st.integers(2, 4),
       batch=st.integers(1, 3), classes=st.integers(2, 5))
@example(seed=5713, num_experts=2, batch=1, classes=2)   # cosine rounded past 1
@settings(deadline=None, max_examples=60)
def test_similarity_nonnegative(seed, num_experts, batch, classes):
    rng = Rng(seed)
    preds = [[Tensor(prob_vector(rng, classes)) for _ in range(num_experts)]
             for _ in range(batch)]
    for kind in ("kld", "cosine", "mse"):
        assert similarity_loss(preds, kind).data >= 0.0


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_similarity_permutation_invariant(seed):
    rng = Rng(seed)
    preds = [[Tensor(prob_vector(rng, 4)) for _ in range(3)] for _ in range(2)]
    base = similarity_loss(preds, "kld").data
    swapped = [[row[2], row[0], row[1]] for row in preds]
    assert abs(float(similarity_loss(swapped, "kld").data) - float(base)) < 1e-12


def test_similarity_segmentation_rows():
    a = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
    b = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
    preds = [[a, b]]
    assert similarity_loss(preds, "kld").data == 0.0


def test_diversity_single_expert_is_mean_ce():
    rng = Rng(2)
    preds = [[Tensor(prob_vector(rng, 3))] for _ in range(4)]
    weights = [Tensor(np.array([1.0])) for _ in range(4)]
    targets = [0, 1, 2, 0]
    expected = np.mean([float(cross_entropy(p[0], t).data)
                        for p, t in zip(preds, targets)])
    got = float(diversity_loss(weights, preds, targets).data)
    assert abs(got - expected) < 1e-12


@given(seed=st.integers(0, 10_000), hot=st.integers(0, 2))
@settings(deadline=None, max_examples=40)
def test_diversity_one_hot_weights_select_expert(seed, hot):
    rng = Rng(seed)
    batch = 3
    preds = [[Tensor(prob_vector(rng, 4)) for _ in range(3)]
             for _ in range(batch)]
    one_hot = np.zeros(3)
    one_hot[hot] = 1.0
    weights = [Tensor(one_hot.copy()) for _ in range(batch)]
    targets = [rng.randbelow(4) for _ in range(batch)]
    expected = sum(float(cross_entropy(preds[i][hot], targets[i]).data)
                   for i in range(batch)) / batch
    got = float(diversity_loss(weights, preds, targets).data)
    assert got == expected


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_diversity_identical_experts_ignore_weights(seed):
    rng = Rng(seed)
    batch = 3
    shared = [Tensor(prob_vector(rng, 4)) for _ in range(batch)]
    preds = [[shared[i], shared[i], shared[i]] for i in range(batch)]
    weights = [Tensor(prob_vector(rng, 3)) for _ in range(batch)]
    targets = [rng.randbelow(4) for _ in range(batch)]
    expected = np.mean([float(cross_entropy(shared[i], targets[i]).data)
                        for i in range(batch)])
    got = float(diversity_loss(weights, preds, targets).data)
    assert abs(got - expected) < 1e-12


def prob_rows(rng: Rng, shape) -> np.ndarray:
    # rows kept off the clamp floor so every entry carries a gradient
    raw = rng.uniform_fill(shape) + 0.05
    return raw / raw.sum(axis=-1, keepdims=True)


def loss_batch(task: str, num_experts: int = 3, seed: int = 21):
    """Leaf predictions, gate rows and targets of one small batch; the
    segmentation meshes have 5, 8 and 3 edges."""
    rng = Rng(seed)
    shapes = [(5, 3), (8, 3), (3, 3)] if task == "segmentation" else [(4,)] * 3
    preds = [[Tensor(prob_rows(rng, shape), requires_grad=True)
              for _ in range(num_experts)] for shape in shapes]
    weights = [Tensor(prob_rows(rng, (num_experts,)), requires_grad=True)
               for _ in shapes]
    targets = [np.array([rng.randbelow(shape[-1]) for _ in range(shape[0])])
               if len(shape) == 2 else rng.randbelow(shape[-1])
               for shape in shapes]
    return preds, weights, targets


def reference_similarity(preds, kind):
    # one subgraph per (mesh, j, w): row-mean divergence of that pair
    total = Tensor(0.0)
    for mesh_preds in preds:
        rows = [ad.reshape(p, (-1, p.shape[-1])) for p in mesh_preds]
        for j, p in enumerate(rows):
            for w, q in enumerate(rows):
                if w == j:
                    continue
                if kind == "kld":
                    pc, qc = ad.clamp(p, PROB_FLOOR), ad.clamp(q, PROB_FLOOR)
                    per_row = ad.tsum(ad.mul(pc, ad.sub(ad.log(pc), ad.log(qc))), axis=-1)
                elif kind == "mse":
                    diff = ad.sub(p, q)
                    per_row = ad.tmean(ad.mul(diff, diff), axis=-1)
                else:
                    dot = ad.tsum(ad.mul(p, q), axis=-1)
                    norms = ad.mul(ad.sqrt(ad.tsum(ad.mul(p, p), axis=-1)),
                                   ad.sqrt(ad.tsum(ad.mul(q, q), axis=-1)))
                    per_row = ad.sub(Tensor(1.0), ad.div(dot, norms))
                total = ad.add(total, ad.tmean(per_row))
    return ad.div(total, Tensor(float(len(preds))))


def reference_diversity(weights, preds, targets):
    # one subgraph per (mesh, j): gate weight times the row-mean CE
    total = Tensor(0.0)
    for row, mesh_preds, target in zip(weights, preds, targets):
        for j, p in enumerate(mesh_preds):
            rows = ad.clamp(ad.reshape(p, (-1, p.shape[-1])), PROB_FLOOR)
            picked = ad.stack([ad.slice_index(ad.slice_index(rows, 0, r), 0, int(t))
                               for r, t in enumerate(np.reshape(target, -1))])
            ce = ad.mul(ad.tmean(ad.log(picked)), Tensor(-1.0))
            total = ad.add(total, ad.mul(ad.slice_index(row, 0, j), ce))
    return ad.div(total, Tensor(float(len(preds))))


def value_and_grads(loss_fn, leaves):
    for leaf in leaves:
        leaf.grad = None
    loss = loss_fn()
    loss.backward()
    return float(loss.data), [leaf.grad.copy() for leaf in leaves]


@pytest.mark.parametrize("task", ["classification", "segmentation"])
@pytest.mark.parametrize("kind", ["kld", "mse", "cosine"])
def test_batched_similarity_matches_per_pair_reference(task, kind):
    preds, _, _ = loss_batch(task)
    leaves = [p for mesh_preds in preds for p in mesh_preds]
    got, got_grads = value_and_grads(lambda: similarity_loss(preds, kind), leaves)
    want, want_grads = value_and_grads(lambda: reference_similarity(preds, kind),
                                       leaves)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("task", ["classification", "segmentation"])
def test_batched_diversity_matches_per_mesh_reference(task):
    preds, weights, targets = loss_batch(task)
    leaves = weights + [p for mesh_preds in preds for p in mesh_preds]
    got, got_grads = value_and_grads(
        lambda: diversity_loss(weights, preds, targets), leaves)
    want, want_grads = value_and_grads(
        lambda: reference_diversity(weights, preds, targets), leaves)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


def test_diversity_rejects_target_rows_mismatch():
    preds, weights, targets = loss_batch("segmentation")
    targets[0] = targets[0][:-1]
    with pytest.raises(TrainerError, match="target shape"):
        diversity_loss(weights, preds, targets)


def test_losses_build_no_per_pair_subgraphs():
    # B=16, J=4: the per-pair losses added 1,537 and 641 nodes, and one
    # reshape per (mesh, expert) made the count grow with the batch
    rng = Rng(5)
    num_experts = 4

    def added_nodes(root, leaves):
        seen, stack = {id(root)}, [root]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen - leaves)

    counts = []
    for batch in (16, 32):
        preds = [[Tensor(prob_rows(rng, (5,)), requires_grad=True)
                  for _ in range(num_experts)] for _ in range(batch)]
        weights = [Tensor(prob_rows(rng, (num_experts,)), requires_grad=True)
                   for _ in range(batch)]
        targets = [rng.randbelow(5) for _ in range(batch)]
        leaves = {id(t) for t in weights} | {id(p) for row in preds for p in row}
        counts.append((added_nodes(similarity_loss(preds, "kld"), leaves),
                       added_nodes(diversity_loss(weights, preds, targets), leaves)))
    assert counts[0] == counts[1]
    assert max(counts[0]) <= 2 * 16 * num_experts


@pytest.mark.parametrize("task", ["classification", "segmentation"])
@pytest.mark.parametrize("kind", ["kld", "mse", "cosine"])
def test_stack_fed_losses_equal_the_list_wrappers(task, kind):
    """`step_loss` feeds both losses one (J, N, C) stack; the list-taking
    wrappers stack the same rows themselves.  Values and gradients agree to
    the bit."""
    preds, weights, targets = loss_batch(task)
    counts = [int(np.prod(p[0].shape[:-1])) for p in preds]
    width = preds[0][0].shape[-1]
    stack = Tensor(np.stack([np.concatenate([np.reshape(p[j].data, (-1, width)) for p in preds])
                             for j in range(3)]), requires_grad=True)
    listed = [p for mesh_preds in preds for p in mesh_preds]

    def run(loss_fn, leaves):
        for leaf in leaves + weights:
            leaf.grad = None
        loss = loss_fn()
        loss.backward()
        return loss.data, [leaf.grad for leaf in leaves + weights]

    for stacked, wrapped in [
            (lambda: stack_similarity(stack, mesh_average(counts), kind),
             lambda: similarity_loss(preds, kind)),
            (lambda: stack_diversity(weights, stack, mesh_average(counts), targets),
             lambda: diversity_loss(weights, preds, targets))]:
        got, got_grads = run(stacked, [stack])
        want, want_grads = run(wrapped, listed)
        assert got.tobytes() == want.tobytes()
        bounds = np.cumsum([0, *counts])
        per_mesh = [g.reshape(p[0].shape) for p, lo, hi in zip(preds, bounds[:-1], bounds[1:])
                    for g in got_grads[0][:, lo:hi]]
        raw = [None if g is None else g.tobytes() for g in per_mesh + got_grads[1:]]
        assert raw == [None if g is None else g.tobytes() for g in want_grads]


@pytest.mark.parametrize("specs, task", [(["face_mlp"] * 3, "classification"),
                                         (["edge_seg"] * 2, "segmentation")],
                         ids=["face_mlp", "edge_seg"])
def test_step_loss_graph_past_the_gate_does_not_grow_with_the_batch(specs, task,
                                                                    monkeypatch):
    """Past the gate's per-mesh rows, a step builds a fixed number of nodes:
    each perceptron expert runs once over the batch and both losses read
    one stack of their rows.  One reshape per (mesh, expert) made it grow
    with B, and mesh-by-mesh experts added a subgraph per mesh."""
    data = (generate_segmentation_set(per_class=11, seed=3) if task == "segmentation"
            else generate_classification_set(classes=4, per_class=8, seed=3))
    experts = build_experts(specs, num_classes=data.num_classes, seed=6, hidden=8)
    system = build_system(experts, task=task, gate_config=replace(
        TINY, num_experts=len(specs)), seed=6)

    def reachable(roots):
        seen, stack = {id(r) for r in roots}, list(roots)
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return seen

    gate_rows = []

    def recording(*args):
        gate_rows[:] = gate_forward_batch(*args)
        return gate_rows

    monkeypatch.setattr(trainer, "gate_forward_batch", recording)
    counts = []
    for batch in (16, 32):
        meshes = data.meshes[:batch]
        assert len(meshes) == batch
        l_joint, _ = step_loss(system, meshes, 0.3, seed=2)
        counts.append(len(reachable([l_joint]) - reachable(gate_rows)))
    assert counts[0] == counts[1] <= 15 * len(specs) + 35


@given(ls=st.floats(-100, 100), ld=st.floats(-100, 100))
@settings(deadline=None, max_examples=60)
def test_joint_zero_lambda_is_div_bit_exact(ls, ld):
    out = joint_loss(Tensor(ls), Tensor(ld), 0.0)
    assert float(out.data) == ld


def test_joint_arithmetic():
    assert float(joint_loss(Tensor(2.0), Tensor(3.0), 1.0).data) == 5.0
    assert float(joint_loss(Tensor(2.0), Tensor(3.0), -1.0).data) == 1.0


def test_joint_gradient_splits():
    ls = Tensor(2.0, requires_grad=True)
    ld = Tensor(3.0, requires_grad=True)
    joint_loss(ls, ld, -0.5).backward()
    assert ls.grad == -0.5 and ld.grad == 1.0


# ---------------------------------------------------------------- iteration

def test_train_iteration_outcome_contract():
    data = tiny_dataset()
    system = oracle_system()
    gate_opt = Adam(system.gate_params, lr=1e-3)
    batch = data.train_meshes[:4]
    outcome = train_iteration(system, batch, 0.0, gate_opt, {}, seed=5)
    assert isinstance(outcome, BatchOutcome)
    assert outcome.per_mesh_weights.shape == (4, 2)
    np.testing.assert_allclose(outcome.per_mesh_weights.sum(axis=1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(outcome.state,
                               outcome.per_mesh_weights.mean(axis=0))
    assert 0.0 <= outcome.reward <= 1.0
    assert all(0 <= c < 2 for c in outcome.chosen)
    l_sim, l_div, l_joint = outcome.loss_values
    assert l_joint == l_div      # lambda = 0


def test_reward_matches_independent_recount():
    data = tiny_dataset()
    system = oracle_system()
    batch = data.train_meshes[:4]
    seed = 17
    gate_opt = Adam(system.gate_params, lr=1e-3)
    outcome = train_iteration(system, batch, 0.0, gate_opt, {}, seed=seed)
    # recompute routed predictions from scratch with the same seeds
    predicted = []
    for mesh, j in zip(batch, outcome.chosen):
        expert = system.experts[j]
        pred = expert.predict(mesh, derive(seed, "expert", expert.name,
                                           mesh.mesh_id))
        predicted.append(int(np.argmax(pred.data)))
    truth = [m.class_label for m in batch]
    assert outcome.reward == mean_instance_accuracy(predicted, truth)


def test_all_correct_batch_scores_one():
    data = tiny_dataset()
    experts = build_experts(["oracle:0", "oracle:1"], num_classes=2, seed=3)
    system = build_system(experts, gate_config=TINY, seed=3)
    class0 = [m for m in data.train_meshes if m.class_label == 0][:3]
    preds = [[e.predict(m, 0) for e in system.experts] for m in class0]
    # force routing to the specialist for every mesh
    weights = np.tile(np.array([[1.0, 0.0]]), (len(class0), 1))
    _, picked = expert_chooser(weights, preds)
    assert batch_reward("classification", class0, [p.data for p in picked]) == 1.0


@pytest.mark.parametrize("task, spec, metrics", [
    ("classification", "face_mlp", ["accuracy"]),
    ("retrieval", "face_mlp", ["map", "ndcg"]),
    ("segmentation", "edge_seg", ["edge_accuracy"]),
], ids=["classification", "retrieval", "segmentation"])
def test_batch_reward_is_first_task_score(task, spec, metrics):
    """The reward and the reported evaluation score come from one scorer."""
    data = (generate_segmentation_set(per_class=4, seed=5)
            if task == "segmentation" else tiny_dataset())
    batch = data.train_meshes[:6]
    experts = build_experts([spec, spec], num_classes=data.num_classes, seed=2,
                            hidden=8)
    preds = [[e.predict(m, derive(1, e.name, m.mesh_id)) for e in experts]
             for m in batch]
    weights = np.array([[0.7, 0.3], [0.2, 0.8]] * 3)
    _, picked = expert_chooser(weights, preds)
    scores = task_scores(task, batch, [p.data for p in picked])
    assert list(scores) == metrics
    assert batch_reward(task, batch, [p.data for p in picked]) == scores[metrics[0]]


def test_non_finite_loss_aborts():
    data = tiny_dataset()
    system = oracle_system()
    system.gate_params["embed.w"].data[0, 0] = np.nan
    gate_opt = Adam(system.gate_params, lr=1e-3)
    with pytest.raises(TrainerError, match="non-finite"):
        train_iteration(system, data.train_meshes[:2], 0.0, gate_opt, {}, seed=0)


def test_train_iteration_reaches_every_parameter():
    """A system built as the CLI builds it, with the dataset's class count
    on its gate config, holds no tensor that a training step leaves unread."""
    data = tiny_dataset()
    experts = build_experts(["walk_rnn", "face_mlp"], num_classes=data.num_classes,
                            seed=6, hidden=8)
    system = build_system(experts, gate_config=replace(TINY, num_classes=data.num_classes),
                          seed=6)
    gate_opt = Adam(system.gate_params, lr=1e-3)
    expert_opts = {e.name: Adam(e.params, lr=1e-3) for e in system.experts}
    train_iteration(system, data.train_meshes[:4], 0.3, gate_opt, expert_opts, seed=2)
    unread = [name for name, tensor in system_parameters(system).items()
              if tensor.grad is None]
    assert not unread


def test_no_two_gradients_share_memory(monkeypatch):
    """Fused ops hand their fresh input gradients over without a copy.  A
    gradient stored that way must still belong to one tensor alone, or a
    later in-place add to it would reach another tensor: every array any
    tensor holds as `.grad` during a step's backward is its own."""
    held = {}

    def recording(tensor, grad, owned=False):
        accumulate(tensor, grad, owned)
        held[id(tensor)] = (tensor, tensor.grad)

    accumulate = ad._accumulate
    monkeypatch.setattr(ad, "_accumulate", recording)
    data = tiny_dataset()
    experts = build_experts(["walk_rnn", "face_mlp"], num_classes=2, seed=6, hidden=8)
    system = build_system(experts, gate_config=TINY, seed=6)
    view = replace(system, gate_params=compute_view(system.gate_params))
    l_joint, _ = step_loss(view, data.train_meshes[:4], 0.3, seed=2)
    l_joint.backward()
    assert all(id(t) in held for t in system_parameters(system).values())
    # pairs whose byte ranges overlap, then the exact test on those alone
    grads = sorted(((byte_bounds(g), g) for _, g in held.values()), key=lambda p: p[0])
    shared = [(i, k) for i, ((_, end), g) in enumerate(grads)
              for k in range(i + 1, len(grads)) if grads[k][0][0] < end
              and np.shares_memory(g, grads[k][1])]
    assert len(grads) > 100 and shared == []


def test_train_iteration_is_step_loss_backward_and_adam():
    """A step descends the float32-body twin of the loss the gradient battery
    checks: `step_loss` over float32 casts of the float64 gate masters, then
    backward and Adam on the masters.  The battery finite-differences the
    float64 loss; `test_mixed_precision_gradient_is_near_the_float64_one`
    bounds the gap between the two."""
    data = tiny_dataset()
    experts = build_experts(["walk_rnn", "face_mlp", "oracle:1"], num_classes=2,
                            seed=6, hidden=8)
    system = build_system(experts, gate_config=replace(TINY, num_experts=3), seed=6)
    clone = copy.deepcopy(system)
    before = {k: v.data.copy() for k, v in system_parameters(system).items()}
    length = walk_length(data.train_meshes[0].vertex_count)
    batch = data.train_meshes[:3] + [next(   # two walk lengths: two gate and GRU groups
        m for m in data.train_meshes if walk_length(m.vertex_count) != length)]

    def optimizers(s):
        return (Adam(s.gate_params, lr=1e-2),
                {e.name: Adam(e.params, lr=1e-2) for e in s.experts if e.trainable})

    outcome = train_iteration(system, batch, 0.3, *optimizers(system), seed=9)
    gate_opt, expert_opts = optimizers(clone)
    view = replace(clone, gate_params=compute_view(clone.gate_params))
    l_joint, expected = step_loss(view, batch, 0.3, seed=9)
    l_joint.backward()
    for opt in (gate_opt, *expert_opts.values()):
        opt.step()

    for field in fields(BatchOutcome):
        np.testing.assert_array_equal(getattr(outcome, field.name),
                                      getattr(expected, field.name))
    trained, cloned = system_parameters(system), system_parameters(clone)
    assert trained.keys() == cloned.keys() == before.keys()
    for name, tensor in trained.items():
        assert not np.array_equal(tensor.data, before[name]), name
        np.testing.assert_array_equal(tensor.data, cloned[name].data, err_msg=name)


@pytest.mark.parametrize("seed", [3, 8])
def test_mixed_precision_gradient_is_near_the_float64_one(seed):
    """The gradient a step descends (`step_loss` through float32 casts of
    the gate masters) against the float64 gradient the battery checks, on
    the TINY gate with a walk-RNN and a face-MLP expert: every parameter's
    ||g_mixed - g_float64|| / ||g_float64|| stays within 1e-5.  Over seeds
    0-11 the worst ratio measured 1.3e-6 (gate.enc.0.ln1.g at seed 8, one
    of the two seeds here) and the median 2.4e-7 for gate tensors, 2.6e-7
    at most for expert tensors; float32's epsilon is 1.2e-7."""
    data = tiny_dataset()
    experts = build_experts(["walk_rnn", "face_mlp"], num_classes=2, seed=seed, hidden=8)
    system = build_system(experts, gate_config=TINY, seed=seed)
    params = system_parameters(system)
    cast = compute_view(system.gate_params)
    grads = []
    for view in (system, replace(system, gate_params=cast)):
        for tensor in params.values():
            tensor.grad = None
        step_loss(view, data.train_meshes[:4], 0.3, seed=seed)[0].backward()
        grads.append({name: tensor.grad for name, tensor in params.items()})
    exact, mixed = grads
    ratios = {name: np.linalg.norm(mixed[name] - exact[name]) / np.linalg.norm(exact[name])
              for name in params}
    assert all(mixed[name].dtype == np.float64 for name in params)
    assert 0 < max(ratios.values()) <= 1e-5, max(ratios.items(), key=lambda kv: kv[1])


def test_gate_gradient_matches_finite_differences():
    data = tiny_dataset()
    # smooth experts keep the loss O(1) so central differences stay clean
    experts = build_experts(["face_mlp", "face_mlp"], num_classes=2, seed=11)
    system = build_system(experts, gate_config=TINY, seed=3)
    lengths = [walk_length(m.vertex_count) for m in data.train_meshes]
    first = data.train_meshes[0]
    other = next(m for m, length in zip(data.train_meshes, lengths)
                 if length != lengths[0])
    batch = [first, other]
    seed = 23

    report = check_gradients(lambda: step_loss(system, batch, 0.7, seed)[0],
                             system.gate_params, tolerance=1e-4, max_coords=6, seed=1)
    assert report.passed, str(report)


# ---------------------------------------------------------------- run loop

def test_zero_epochs_changes_nothing():
    data = tiny_dataset()
    system = oracle_system()
    before = {k: v.data.copy() for k, v in system_parameters(system).items()}
    history = train_run(system, data, StaticLambdaAgent(0.0), epochs=0, seed=0)
    assert history == []
    for k, v in system_parameters(system).items():
        np.testing.assert_array_equal(v.data, before[k])


def test_static_agent_run_and_log(tmp_path):
    data = tiny_dataset()
    system = oracle_system()
    log = tmp_path / "log.csv"
    history = train_run(system, data, StaticLambdaAgent(0.1), epochs=2,
                        batch_size=4, seed=0, log_path=log)
    assert len(history) == 2
    for entry in history:
        assert set(entry) >= {"epoch", "reward", "lambda", "l_sim", "l_div",
                              "l_joint", "selection"}
        assert abs(entry["lambda"] - 0.1) < 1e-12
        assert abs(sum(entry["selection"]) - 1.0) < 1e-12
    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:7] == ["epoch", "iteration", "lambda", "l_sim", "l_div",
                           "l_joint", "reward"]
    assert len(rows[0]) == 7 + len(system.experts)
    # 10 train meshes in batches of 4 -> 3 iterations per epoch
    assert len(rows) == 1 + 2 * 3
    assert [r[1] for r in rows[1:]] == [str(i) for i in range(6)]


def test_epoch_callback_stops_early():
    data = tiny_dataset()
    system = oracle_system()
    seen = []

    def stop_at_one(epoch, summary):
        seen.append(epoch)
        return epoch >= 1

    history = train_run(system, data, StaticLambdaAgent(0.0), epochs=10,
                        batch_size=8, seed=0, epoch_callback=stop_at_one)
    assert seen == [0, 1]
    assert len(history) == 2


def test_crash_after_an_epoch_leaves_the_log_so_far(tmp_path):
    """A run killed in its epoch-1 callback keeps the rows of epochs 0-1,
    byte for byte the start of the same run's full log, and no temp file."""
    full, crashed = tmp_path / "full.csv", tmp_path / "crashed.csv"
    train_run(oracle_system(), tiny_dataset(), StaticLambdaAgent(0.1), epochs=3,
              batch_size=4, seed=0, log_path=full)

    def killed_in_epoch_one(epoch, summary):
        if epoch == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        train_run(oracle_system(), tiny_dataset(), StaticLambdaAgent(0.1), epochs=3,
                  batch_size=4, seed=0, log_path=crashed,
                  epoch_callback=killed_in_epoch_one)
    with open(crashed, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["epoch", "iteration"]
    # 10 train meshes in batches of 4 -> 3 iterations per epoch
    assert [r[0] for r in rows[1:]] == ["0"] * 3 + ["1"] * 3
    text = crashed.read_bytes()
    assert full.read_bytes()[:len(text)] == text
    assert len(full.read_bytes().splitlines()) == 1 + 3 * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["crashed.csv", "full.csv"]


# ---------------------------------------------------------------- ensemble

def test_hard_voting_majority():
    preds = np.zeros((1, 3, 3))
    preds[0, 0, 2] = 1.0
    preds[0, 1, 2] = 1.0
    preds[0, 2, 0] = 1.0
    assert hard_voting_ensemble(preds).tolist() == [2]


def test_hard_voting_tie_breaks_low_class():
    preds = np.zeros((1, 2, 2))
    preds[0, 0, 1] = 1.0
    preds[0, 1, 0] = 1.0
    assert hard_voting_ensemble(preds).tolist() == [0]


def test_hard_voting_single_expert():
    preds = np.array([[[0.1, 0.7, 0.2]]])
    assert hard_voting_ensemble(preds).tolist() == [1]


# ---------------------------------------------------------------- inference

def test_inference_contract():
    data = tiny_dataset()
    system = oracle_system()
    assert system.walks_infer == 32
    mesh = data.test_meshes[0]
    pred1, j1 = inference(system, mesh, seed=5)
    pred2, j2 = inference(system, mesh, seed=5)
    assert 0 <= j1 < len(system.experts) and j1 == j2
    np.testing.assert_array_equal(pred1, pred2)
    assert pred1.shape == (2,)


def test_inference_routes_like_the_gate_and_keeps_no_graph(monkeypatch):
    data = tiny_dataset()
    system = oracle_system()
    mesh = data.test_meshes[1]
    # inference runs the gate on float32 copies; a float32 graph gives its bits
    params32 = {name: Tensor(t.data.astype(np.float32), requires_grad=True)
                for name, t in system.gate_params.items()}
    weights = gate_forward_mesh(mesh, system.walks_infer, params32,
                                system.gate_config, derive(5, "gate", mesh.mesh_id))
    detached = gate_forward_mesh(mesh, system.walks_infer,
                                 compute_view(system.gate_params, graph=False),
                                 system.gate_config, derive(5, "gate", mesh.mesh_id))
    np.testing.assert_array_equal(detached.data, weights.data)
    assert detached._parents == () and not detached.requires_grad
    j_ref = int(np.argmax(weights.data))
    expert = system.experts[j_ref]
    pred_ref = expert.predict(mesh, derive(5, "expert", expert.name, mesh.mesh_id))

    outputs = []

    def recording(*args, **kwargs):
        outputs.append(gate_forward_mesh(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(trainer, "gate_forward_mesh", recording)
    pred, j = inference(system, mesh, seed=5)
    assert j == j_ref
    np.testing.assert_array_equal(pred, pred_ref.data)
    assert len(outputs) == 1
    np.testing.assert_array_equal(outputs[0].data, weights.data)
    assert outputs[0]._parents == () and not outputs[0].requires_grad


def test_float32_inference_routes_like_the_float64_gate(monkeypatch):
    """On a gen-data test split the float32 inference rows pick the float64
    gate's expert and lie within 1e-5 of its rows."""
    data = generate_classification_set(classes=3, per_class=8, seed=21)
    config = GateConfig(num_experts=3, encoder_layers=2, decoder_layers=2,
                        d_model=32, heads=4, ff_width=64)
    system = oracle_system(num_classes=3, gate_config=config, seed=8)
    rows = []

    def recording(*args, **kwargs):
        rows.append(gate_forward_mesh(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(trainer, "gate_forward_mesh", recording)
    for mesh in data.test_meshes:
        _, j = inference(system, mesh, seed=4)
        row64 = gate_forward_mesh(mesh, system.walks_infer, system.gate_params,
                                  config, derive(4, "gate", mesh.mesh_id)).data
        assert j == int(np.argmax(row64)), mesh.mesh_id
        assert np.max(np.abs(rows[-1].data - row64)) <= 1e-5, mesh.mesh_id
    assert len(rows) == len(data.test_meshes) >= 6


def test_gradient_battery_checks_the_float64_gate_body(monkeypatch):
    """Training, pre-training and inference cast the gate to float32 through
    `compute_view`, but the battery does not: its `loss_composite`
    finite-differences `step_loss` with the gate body in float64, so its
    tolerance is not spent on float32 rounding."""
    import meshmoe.gate as gate
    from meshmoe.gradcheck import standard_battery
    in_step_loss, dtypes = [], set()
    real_tokens, real_step_loss = gate._walk_tokens, trainer.step_loss

    def recording_tokens(features, params, config):
        if in_step_loss:
            dtypes.add(params["embed.w"].data.dtype)
        return real_tokens(features, params, config)

    def marked_step_loss(*args, **kwargs):
        in_step_loss.append(True)
        try:
            return real_step_loss(*args, **kwargs)
        finally:
            in_step_loss.pop()

    monkeypatch.setattr(gate, "_walk_tokens", recording_tokens)
    monkeypatch.setattr(trainer, "step_loss", marked_step_loss)
    reports = dict(standard_battery(seed=0))
    assert reports["loss_composite"].passed, str(reports["loss_composite"])
    assert dtypes == {np.dtype(np.float64)}


def test_training_keeps_every_parameter_gradient_and_moment_float64():
    """The gate body computes in float32 in training as in inference, but
    every parameter the step updates, its gradient and its Adam moments
    stay float64."""
    data = tiny_dataset()
    experts = build_experts(["walk_rnn", "face_mlp"], num_classes=2, seed=6, hidden=8)
    system = build_system(experts, gate_config=TINY, seed=6)
    gate_opt = Adam(system.gate_params, lr=1e-2)
    expert_opts = {e.name: Adam(e.params, lr=1e-2) for e in system.experts}
    inference(system, data.test_meshes[0], seed=1)
    train_iteration(system, data.train_meshes[:4], 0.3, gate_opt, expert_opts, seed=2)
    arrays = [(name, t.data) for name, t in system_parameters(system).items()]
    for opt in (gate_opt, *expert_opts.values()):
        for path, tensor in opt.params.items():
            arrays += [(path, tensor.grad), (path, opt.m[path]), (path, opt.v[path])]
    assert len(arrays) == 4 * len(system_parameters(system))
    assert [name for name, a in arrays if a.dtype != np.float64] == []


def test_evaluation_helpers_run():
    data = tiny_dataset()
    system = oracle_system()
    ev = evaluate_classification(system, data.test_meshes, seed=2)
    assert 0.0 <= ev["accuracy"] <= 1.0
    assert len(ev["predicted"]) == len(data.test_ids)
    ens = evaluate_ensemble(system, data.test_meshes, seed=2)
    assert 0.0 <= ens["accuracy"] <= 1.0


def test_ensemble_votes_equal_per_mesh_predictions():
    """Batched walk-RNN rows are bit-equal to one-mesh rows, so the votes
    equal a per-mesh recount exactly."""
    data = generate_classification_set(classes=5, per_class=4, seed=11)
    experts = build_experts(["walk_rnn", "walk_rnn", "face_mlp"], num_classes=5,
                            seed=4)
    system = build_system(experts, gate_config=replace(TINY, num_experts=3), seed=3)
    ens = evaluate_ensemble(system, data.meshes, seed=2)
    stacks = [[e.predict(m, derive(2, "expert", e.name, m.mesh_id)).data
               for e in experts] for m in data.meshes]
    assert ens["predicted"] == hard_voting_ensemble(np.asarray(stacks)).tolist()
    assert len(set(ens["predicted"])) > 1


# ---------------------------------------------------------------- round trip

def test_checkpoint_round_trip_evaluation(tmp_path):
    data = tiny_dataset()
    system = oracle_system()
    train_run(system, data, StaticLambdaAgent(0.0), epochs=1, batch_size=8,
              seed=4)
    before = evaluate_classification(system, data.test_meshes, seed=9)
    path = tmp_path / "system.ckpt"
    save_system(system, path)
    # scramble, reload, evaluate again
    for tensor in system_parameters(system).values():
        tensor.data = tensor.data + 1.0
    load_system(system, path)
    after = evaluate_classification(system, data.test_meshes, seed=9)
    assert before["predicted"] == after["predicted"]
    assert before["chosen"] == after["chosen"]
    assert before["accuracy"] == after["accuracy"]


def test_checkpoint_round_trip_with_trainable_experts_is_bit_exact(tmp_path):
    def trainable_system(seed):
        experts = build_experts(["face_mlp", "walk_rnn"], num_classes=2, seed=seed,
                                hidden=8)
        system = build_system(experts, gate_config=TINY, seed=seed)
        system.walks_train, system.walks_infer = 4, 8
        return system

    data = tiny_dataset()
    system = trainable_system(11)
    train_run(system, data, StaticLambdaAgent(0.1), epochs=1, batch_size=6, seed=4)
    before = [inference(system, mesh, seed=9) for mesh in data.meshes]
    assert {j for _, j in before} == {0, 1}     # both experts' parameters are read
    path = tmp_path / "system.ckpt"
    save_system(system, path)
    reloaded = trainable_system(12)             # another init, overwritten by the load
    load_system(reloaded, path)
    after = [inference(reloaded, mesh, seed=9) for mesh in data.meshes]
    assert [j for _, j in after] == [j for _, j in before]
    for (pred_after, _), (pred_before, _) in zip(after, before):
        assert pred_after.tobytes() == pred_before.tobytes()


def test_checkpoint_mismatch_rejected(tmp_path):
    system = oracle_system()
    path = tmp_path / "sys.ckpt"
    save_system(system, path)
    other = oracle_system(gate_config=GateConfig(
        num_experts=3, encoder_layers=1, decoder_layers=1, d_model=8,
        heads=2, ff_width=16), num_classes=3)
    with pytest.raises(CheckpointError, match="mismatch|shape"):
        load_system(other, path)


def test_system_validation():
    experts = build_experts(["oracle:0", "oracle:1"], num_classes=2, seed=0)
    with pytest.raises(TrainerError, match="routes"):
        MoESystem(gate_params={}, gate_config=GateConfig(num_experts=3),
                  experts=experts)
    with pytest.raises(TrainerError, match="unknown task"):
        build_system(experts, task="generation", gate_config=TINY)
