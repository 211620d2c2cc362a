"""Metric oracles: hand-derived values and brute-force cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe.metrics import (average_precision, dcg, edge_accuracy,
                             mean_average_precision, mean_instance_accuracy,
                             ndcg, ndcg_single, rank_by_distance,
                             retrieval_relevance)
from meshmoe.rng import Rng


# --- independent brute-force oracles (kept deliberately naive) -------------

def brute_force_ap(relevance, cutoff):
    relevance = list(relevance)
    total = sum(relevance)
    if total == 0:
        return 0.0
    acc = 0.0
    for k in range(1, min(cutoff, len(relevance)) + 1):
        if relevance[k - 1]:
            acc += sum(relevance[:k]) / k
    return acc / min(total, cutoff)


def brute_force_ndcg(relevance, cutoff):
    relevance = list(relevance)
    total = sum(relevance)
    score = 0.0
    for k in range(1, min(cutoff, len(relevance)) + 1):
        score += relevance[k - 1] / math.log2(k + 1)
    ideal = 0.0
    for k in range(1, min(cutoff, total) + 1):
        ideal += 1.0 / math.log2(k + 1)
    return 0.0 if ideal == 0 else score / ideal


# --- frozen worked examples --------------------------------------------------

def test_accuracy_examples():
    assert mean_instance_accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert mean_instance_accuracy([0, 1, 2], [0, 1, 1]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="empty"):
        mean_instance_accuracy([], [])
    with pytest.raises(ValueError, match="equal length"):
        mean_instance_accuracy([0], [0, 1])


def test_ap_worked_example():
    """[1,0,1], 2 relevant: AP = (1/1 + 2/3) / 2 = 0.83333..."""
    value = average_precision([1, 0, 1], cutoff=10)
    assert value == pytest.approx(5 / 6, abs=1e-15)
    assert value == pytest.approx(0.8333333333333333, abs=1e-12)


def test_ap_trivial_cases():
    assert average_precision([1, 1, 1], cutoff=10) == 1.0
    assert average_precision([0, 0, 0], cutoff=10) == 0.0


def test_ndcg_worked_example():
    """DCG = 1 + 1/log2(4) = 1.5, IDCG = 1 + 1/log2(3), ratio ~ 0.9197."""
    value = ndcg_single([1, 0, 1], cutoff=10)
    idcg = 1.0 + 1.0 / math.log2(3.0)
    assert idcg == pytest.approx(1.6309297535714573, abs=1e-12)
    assert value == pytest.approx(1.5 / idcg, abs=1e-15)
    assert value == pytest.approx(0.9197207891481876, abs=1e-12)


def test_ndcg_trivial_cases():
    assert ndcg_single([1, 1, 0], cutoff=10) == 1.0
    assert ndcg_single([0, 0, 0], cutoff=10) == 0.0


def test_edge_accuracy_worked_example():
    """lengths [2,1,1], correctness [1,0,1] -> 3/4."""
    value = edge_accuracy([0, 0, 1], [0, 1, 1], [2.0, 1.0, 1.0])
    assert value == 0.75


def test_edge_accuracy_uniform_reduces_to_unweighted():
    pred = [0, 1, 1, 0]
    truth = [0, 1, 0, 0]
    assert edge_accuracy(pred, truth, [3.0] * 4) == pytest.approx(
        mean_instance_accuracy(pred, truth))


def test_edge_accuracy_rejects_nonpositive_length():
    with pytest.raises(ValueError, match="positive"):
        edge_accuracy([0], [0], [0.0])


# --- brute-force agreement on random corpora --------------------------------

def test_map_ndcg_match_brute_force_100_corpora():
    """100 random rankings: library vs naive double loop within 1e-12."""
    for trial in range(100):
        rng = Rng(1000 + trial)
        n = 2 + rng.randbelow(18)
        cutoff = 1 + rng.randbelow(25)
        relevance = [rng.randbelow(2) for _ in range(n)]
        assert average_precision(relevance, cutoff) == pytest.approx(
            brute_force_ap(relevance, cutoff), abs=1e-12)
        assert ndcg_single(relevance, cutoff) == pytest.approx(
            brute_force_ndcg(relevance, cutoff), abs=1e-12)


def test_mean_over_queries():
    relevances = [[1, 0, 1], [0, 0, 1], [1, 1, 0]]
    expected_map = np.mean([brute_force_ap(r, 3) for r in relevances])
    expected_ndcg = np.mean([brute_force_ndcg(r, 3) for r in relevances])
    assert mean_average_precision(relevances, 3) == pytest.approx(expected_map, abs=1e-12)
    assert ndcg(relevances, 3) == pytest.approx(expected_ndcg, abs=1e-12)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=40))
def test_metrics_in_unit_interval(relevance, cutoff):
    assert 0.0 <= average_precision(relevance, cutoff) <= 1.0
    assert 0.0 <= ndcg_single(relevance, cutoff) <= 1.0


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
       st.integers(min_value=0, max_value=4))
def test_ndcg_invariant_to_class_relabeling(labels, query_label):
    relevance = [int(l == query_label) for l in labels]
    relabeled = [int((l * 7 + 3) % 11 == (query_label * 7 + 3) % 11) for l in labels]
    assert relevance == relabeled  # binary relevance only sees equality


# --- ranking helpers ----------------------------------------------------------

def test_rank_by_distance_excludes_query_and_breaks_ties_by_id():
    corpus = {"q": np.zeros(2), "b": np.array([1.0, 0.0]),
              "a": np.array([1.0, 0.0]), "c": np.array([2.0, 0.0])}
    ranking = rank_by_distance("q", np.zeros(2), corpus)
    assert [mesh_id for mesh_id, _ in ranking] == ["a", "b", "c"]
    assert ranking[0][1] == ranking[1][1] == 1.0


def test_retrieval_results_self_excluded_and_relevant():
    descriptors = {f"m{i}": np.array([float(i % 2), 0.0]) for i in range(6)}
    labels = {f"m{i}": i % 2 for i in range(6)}
    relevance = retrieval_relevance(descriptors, labels)
    assert len(relevance) == 6
    for flags in relevance:
        assert len(flags) == 5          # every id but the query
        # identical descriptors share a class here, so top-2 are relevant
        assert flags[:2] == [1, 1]


def test_retrieval_relevance_follows_rank_by_distance():
    """Row q holds, in id order of q, the same-class flags of
    `rank_by_distance`'s ranking for q."""
    rng = Rng(31)
    ids = [f"m{i:02d}" for i in range(12)]
    descriptors = {i: rng.normal_fill((3,)) for i in reversed(ids)}
    descriptors["m05"] = descriptors["m03"].copy()          # a distance tie
    labels = {i: rng.randbelow(3) for i in ids}
    relevance = retrieval_relevance(descriptors, labels)
    assert len(relevance) == len(ids)
    for query, flags in zip(ids, relevance):
        ranking = rank_by_distance(query, descriptors[query], descriptors)
        assert flags == [int(labels[m] == labels[query]) for m, _ in ranking]


def test_dcg_discount_positions():
    # rank 1 undiscounted, rank 2 discounted by log2(3), etc.
    assert dcg([1, 0, 0], cutoff=3) == 1.0
    assert dcg([0, 1, 0], cutoff=3) == pytest.approx(1 / math.log2(3))
    assert dcg([1, 1, 1], cutoff=2) == pytest.approx(1.0 + 1 / math.log2(3))
