"""Task metrics: instance accuracy, retrieval mAP/NDCG, segmentation accuracy.

Retrieval relevance is binary same-class membership.  AP divides the sum
of precision@k at relevant ranks (k <= cutoff) by min(total relevant,
cutoff); NDCG uses binary gains with a log2(k+1) discount.  Queries with
no relevant items score 0 in both, keeping every metric in [0, 1].
"""

import numpy as np


def mean_instance_accuracy(predictions, targets) -> float:
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have equal length")
    if predictions.size == 0:
        raise ValueError("empty input")
    return float(np.mean(predictions == targets))


def average_precision(relevance, cutoff: int) -> float:
    """AP = sum of precision@k over relevant k <= cutoff, over the capped count."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    relevance = np.asarray(relevance, dtype=np.int64)
    total_relevant = int(relevance.sum())
    if total_relevant == 0:
        return 0.0
    hits = 0
    score = 0.0
    for k, flag in enumerate(relevance[:cutoff], start=1):
        if flag:
            hits += 1
            score += hits / k
    return score / min(total_relevant, cutoff)


def mean_average_precision(relevances: list, cutoff: int) -> float:
    """Mean AP over per-query relevance lists."""
    if not relevances:
        raise ValueError("no retrieval results")
    return float(np.mean([average_precision(r, cutoff) for r in relevances]))


def dcg(relevance, cutoff: int) -> float:
    relevance = np.asarray(relevance, dtype=np.float64)[:cutoff]
    if relevance.size == 0:
        return 0.0
    discounts = np.log2(np.arange(2, relevance.size + 2))
    return float((relevance / discounts).sum())


def ndcg_single(relevance, cutoff: int) -> float:
    relevance = np.asarray(relevance, dtype=np.int64)
    ideal = np.ones(min(int(relevance.sum()), cutoff), dtype=np.float64)
    idcg = dcg(ideal, cutoff)
    if idcg == 0.0:
        return 0.0
    return dcg(relevance, cutoff) / idcg


def ndcg(relevances: list, cutoff: int) -> float:
    """Mean NDCG over per-query relevance lists."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not relevances:
        raise ValueError("no retrieval results")
    return float(np.mean([ndcg_single(r, cutoff) for r in relevances]))


def edge_accuracy(predicted, truth, lengths) -> float:
    """Length-weighted fraction of correctly labeled edges."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    lengths = np.asarray(lengths, dtype=np.float64)
    if not (predicted.shape == truth.shape == lengths.shape):
        raise ValueError("label and length arrays must have equal length")
    if predicted.size == 0:
        raise ValueError("empty input")
    if np.any(lengths <= 0.0):
        raise ValueError("edge lengths must be positive")
    return float((lengths * (predicted == truth)).sum() / lengths.sum())


def rank_by_distance(query_id: str, query_descriptor: np.ndarray,
                     corpus: dict) -> list:
    """Sort corpus ids by Euclidean distance ascending, ties by mesh_id.

    `corpus` maps mesh_id to descriptor; the query id is excluded.
    Returns [(mesh_id, distance), ...].
    """
    entries = []
    for mesh_id in corpus:
        if mesh_id == query_id:
            continue
        distance = float(np.linalg.norm(np.asarray(corpus[mesh_id]) - query_descriptor))
        entries.append((distance, mesh_id))
    entries.sort()
    return [(mesh_id, distance) for distance, mesh_id in entries]


def retrieval_relevance(descriptors: dict, labels: dict) -> list:
    """Per query, in id order: the same-class flags (1/0) of every other id,
    in `rank_by_distance` order."""
    return [[int(labels[mesh_id] == labels[query_id]) for mesh_id, _ in
             rank_by_distance(query_id, np.asarray(descriptors[query_id]), descriptors)]
            for query_id in sorted(descriptors)]
