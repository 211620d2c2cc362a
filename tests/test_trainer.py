"""Expert environment: chooser, losses, iteration protocol, round trips."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe import autodiff as ad
from meshmoe.autodiff import Tensor
from meshmoe.experts import build_experts
from meshmoe.gate import GateConfig, gate_forward_batch, gate_forward_mesh
from meshmoe.gradcheck import check_gradients
from meshmoe.layers import PROB_FLOOR, cross_entropy
from meshmoe.metrics import mean_instance_accuracy
from meshmoe.optim import Adam
from meshmoe.rng import Rng, derive
from meshmoe.sac import StaticLambdaAgent
from meshmoe.synth import generate_classification_set
from meshmoe.trainer import (BatchOutcome, MoESystem, TrainerError,
                             batch_reward, build_system, diversity_loss,
                             evaluate_classification, evaluate_ensemble,
                             expert_chooser, hard_voting_ensemble, inference,
                             joint_loss, load_system, save_system,
                             similarity_loss, system_parameters,
                             train_iteration, train_run)
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
    assert batch_reward("classification", class0, picked) == 1.0


def test_non_finite_loss_aborts():
    data = tiny_dataset()
    system = oracle_system()
    system.gate_params["embed.w"].data[0, 0] = np.nan
    gate_opt = Adam(system.gate_params, lr=1e-3)
    with pytest.raises(TrainerError, match="non-finite"):
        train_iteration(system, data.train_meshes[:2], 0.0, gate_opt, {}, seed=0)


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

    def loss_fn():
        rows = gate_forward_batch(
            batch, system.walks_train, system.gate_params, system.gate_config,
            [derive(seed, "gate", mesh.mesh_id) for mesh in batch])
        preds = [[e.predict(mesh, derive(seed, "expert", e.name, mesh.mesh_id))
                  for e in system.experts] for mesh in batch]
        targets = [mesh.class_label for mesh in batch]
        return joint_loss(similarity_loss(preds),
                          diversity_loss(rows, preds, targets), 0.7)

    report = check_gradients(loss_fn, system.gate_params, tolerance=1e-4,
                             max_coords=6, seed=1)
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
    import meshmoe.trainer as trainer
    data = tiny_dataset()
    system = oracle_system()
    mesh = data.test_meshes[1]
    weights = gate_forward_mesh(mesh, system.walks_infer, system.gate_params,
                                system.gate_config, derive(5, "gate", mesh.mesh_id))
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


def test_evaluation_helpers_run():
    data = tiny_dataset()
    system = oracle_system()
    ev = evaluate_classification(system, data.test_meshes, seed=2)
    assert 0.0 <= ev["accuracy"] <= 1.0
    assert len(ev["predicted"]) == len(data.test_ids)
    ens = evaluate_ensemble(system, data.test_meshes, seed=2)
    assert 0.0 <= ens["accuracy"] <= 1.0


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


def test_checkpoint_mismatch_rejected(tmp_path):
    system = oracle_system()
    path = tmp_path / "sys.ckpt"
    save_system(system, path)
    other = oracle_system(gate_config=GateConfig(
        num_experts=3, encoder_layers=1, decoder_layers=1, d_model=8,
        heads=2, ff_width=16), num_classes=3)
    with pytest.raises(TrainerError, match="mismatch|shape"):
        load_system(other, path)


def test_system_validation():
    experts = build_experts(["oracle:0", "oracle:1"], num_classes=2, seed=0)
    with pytest.raises(TrainerError, match="routes"):
        MoESystem(gate_params={}, gate_config=GateConfig(num_experts=3),
                  experts=experts)
    with pytest.raises(TrainerError, match="unknown task"):
        build_system(experts, task="generation", gate_config=TINY)
