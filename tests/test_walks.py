"""Walk extraction: length law, distinctness, edge validity, branch enumeration."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe import synth
from meshmoe.autodiff import Tensor
from meshmoe.mesh import build_mesh, mesh_from_edges, normalize_coordinates
from meshmoe.rng import MASK64, derive
from meshmoe.synth import MAX_CLASSES, generate_classification_set, generate_segmentation_set
from meshmoe.walks import (WalkError, extract_walks, pick_below, walk_batch, walk_length,
                           walk_softmax_rows)
from walk_reference import extract_walk, reference_walks, walk_features


def make_path_mesh():
    return mesh_from_edges([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [(0, 1), (1, 2)],
                           mesh_id="path3")


def make_triangle_graph():
    return mesh_from_edges([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                           [(0, 1), (1, 2), (0, 2)], mesh_id="tri3")


def test_walk_length_examples():
    assert walk_length(4) == 2          # ceil(1.6) = 2
    assert walk_length(100) == 40
    assert walk_length(2) == 2
    assert walk_length(3) == 2
    assert walk_length(5) == 2
    assert walk_length(42) == 17        # ceil(16.8)


@given(st.integers(min_value=2, max_value=100000))
def test_walk_length_formula(v):
    expected = max(2, math.ceil(0.4 * v))
    assert walk_length(v) == min(expected, v)


def test_walk_length_too_small():
    with pytest.raises(WalkError, match="too small"):
        walk_length(1)


def test_path_graph_single_neighbor():
    mesh = make_path_mesh()
    walk = extract_walk(mesh, seed=0, start=0, length=2)
    assert walk.vertex_indices == [0, 1]
    assert walk.jump_flags == [False, False]


def test_path_graph_branches():
    """Start 1 on 0-1-2: either [1,0,2] (jump at end) or [1,2,0] (same)."""
    mesh = make_path_mesh()
    seen = set()
    for seed in range(64):
        walk = extract_walk(mesh, seed, start=1, length=3)
        assert walk.vertex_indices in ([1, 0, 2], [1, 2, 0])
        assert walk.jump_flags == [False, False, True]
        seen.add(tuple(walk.vertex_indices))
    assert seen == {(1, 0, 2), (1, 2, 0)}


def test_triangle_all_orderings_no_jumps():
    """Complete graph on 3 vertices: all 6 orderings, never a jump."""
    mesh = make_triangle_graph()
    seen = set()
    for seed in range(256):
        walk = extract_walk(mesh, seed, length=3)
        assert walk.jump_flags == [False, False, False]
        seen.add(tuple(walk.vertex_indices))
    assert seen == {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}


def test_walk_deterministic(tetrahedron):
    a = extract_walk(tetrahedron, seed=42)
    b = extract_walk(tetrahedron, seed=42)
    assert a.vertex_indices == b.vertex_indices
    assert a.jump_flags == b.jump_flags
    np.testing.assert_array_equal(walk_features(tetrahedron, [a]),
                                  walk_features(tetrahedron, [b]))


def test_walk_coordinates_match_vertices(tetrahedron):
    walk = extract_walk(tetrahedron, seed=3)
    np.testing.assert_array_equal(walk_features(tetrahedron, [walk])[0, :, :3],
                                  tetrahedron.vertices[walk.vertex_indices])


def test_walk_start_respected(tetrahedron):
    for start in range(4):
        walk = extract_walk(tetrahedron, seed=0, start=start)
        assert walk.vertex_indices[0] == start
    with pytest.raises(WalkError, match="out of range"):
        extract_walk(tetrahedron, seed=0, start=7)


def test_extract_walks_independent_and_deterministic(tetrahedron):
    walks1 = extract_walks(tetrahedron, 8, seed=9)
    walks2 = extract_walks(tetrahedron, 8, seed=9)
    assert len(walks1) == 8
    for a, b in zip(walks1, walks2):
        assert a.vertex_indices == b.vertex_indices
    assert len({tuple(w.vertex_indices) for w in walks1}) > 1


def test_features_shape_and_jump_channel():
    mesh = make_path_mesh()
    walk = extract_walk(mesh, seed=1, start=1, length=3)
    feats = walk_features(mesh, [walk])[0]
    assert feats.shape == (3, 4)
    np.testing.assert_array_equal(feats[:, 3], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(feats[:, :3], mesh.vertices[walk.vertex_indices])


def test_walk_feature_batch(tetrahedron):
    walks = extract_walks(tetrahedron, 5, seed=2)
    batch = walk_features(tetrahedron, walks)
    assert batch.shape == (5, 2, 4)
    for walk, rows in zip(walks, batch):
        np.testing.assert_array_equal(rows, walk_features(tetrahedron, [walk])[0])
    with pytest.raises(WalkError, match="mixed lengths"):
        walk_features(tetrahedron, [walks[0], extract_walk(tetrahedron, 1, length=3)])


def test_walk_softmax_rows_runs_once_per_length_in_input_order():
    """Rings of 5, 10 and 15 vertices (L = 2, 4, 6), interleaved, each ring
    scaled by its position so that every mesh gets a different row."""
    def ring(count, scale):
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        vertices = scale * np.stack([np.cos(angles), np.sin(angles), angles], axis=1)
        return mesh_from_edges(vertices, [(i, (i + 1) % count) for i in range(count)])

    meshes = [ring(count, 1.0 + i)
              for i, count in enumerate([5, 10, 15, 10, 5, 15, 5])]
    features = [walk_features(mesh, extract_walks(mesh, 3, seed=i))
                for i, mesh in enumerate(meshes)]
    calls = []

    def run(walks):
        calls.append(walks.copy())
        return Tensor(walks.sum(axis=1))            # (n * W, 4) logits

    rows = walk_softmax_rows(features, run)
    assert sorted(call.shape[1] for call in calls) == [2, 4, 6]
    for call in calls:
        expected = [f for f in features if f.shape[1] == call.shape[1]]
        np.testing.assert_array_equal(call, np.concatenate(expected))
    assert len({row.data.tobytes() for row in rows}) == len(meshes)
    for mesh_features, row in zip(features, rows):
        assert row.shape == (4,)
        alone = walk_softmax_rows([mesh_features], run)[0]
        assert row.data.tobytes() == alone.data.tobytes()


def test_walk_features_digest_is_pinned():
    """8 walks on one mesh of every synthetic family and of the segmentation
    set: the (W, L, 4) feature bytes are pinned, so a rewrite of the walk or
    feature code must keep every bit."""
    families = generate_classification_set(MAX_CLASSES, 4, seed=11).meshes[::4]
    digest = hashlib.sha256()
    for mesh in families + generate_segmentation_set(4, seed=11).meshes[::4]:
        walks = extract_walks(mesh, 8, derive(13, mesh.mesh_id))
        digest.update(walk_features(mesh, walks).tobytes())
    assert digest.hexdigest() == (
        "c1eb6d61a4d77e2c06fe755f9f6123735291ca526d4c6d3f5c3897073ea7a858")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_walk_contract_on_larger_graph(seed):
    """Distinct vertices, non-jump steps traverse edges, exact length."""
    rng = np.random.default_rng(1234)
    n = 30
    verts = rng.normal(size=(n, 3))
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(int(a), int(b)) for a, b in rng.integers(0, n, size=(40, 2)) if a != b]
    mesh = mesh_from_edges(verts, edges, mesh_id="rand30")
    walk = extract_walk(mesh, seed)
    assert len(walk.vertex_indices) == walk_length(n) == 12
    assert len(set(walk.vertex_indices)) == len(walk.vertex_indices)
    assert walk.jump_flags[0] is False
    adjacency = {i: set(mesh.adjacency[i]) for i in range(n)}
    for prev, cur, flag in zip(walk.vertex_indices, walk.vertex_indices[1:],
                               walk.jump_flags[1:]):
        if not flag:
            assert cur in adjacency[prev]


def assert_batch_is_the_reference(meshes, count, seeds):
    """`walk_batch` against the per-walk reference, mesh by mesh: the same
    feature bytes, and `extract_walks` the same index and flag lists.  Every
    mesh has distinct vertex rows, so the features pin the indices too."""
    batch = walk_batch(meshes, count, seeds)
    assert len(batch) == len(meshes)
    for mesh, seed, features in zip(meshes, seeds, batch):
        assert len(np.unique(mesh.vertices, axis=0)) == mesh.vertex_count
        reference = reference_walks(mesh, count, seed)
        expected = walk_features(mesh, reference)
        assert features.shape == expected.shape == (count, walk_length(mesh.vertex_count), 4)
        assert features.dtype == expected.dtype
        assert features.tobytes() == expected.tobytes()
        walks = extract_walks(mesh, count, seed)
        assert [w.vertex_indices for w in walks] == [w.vertex_indices for w in reference]
        assert [w.jump_flags for w in walks] == [w.jump_flags for w in reference]
    return batch


def test_walk_batch_is_the_reference_on_meshes_of_different_sizes():
    meshes = generate_classification_set(MAX_CLASSES, 4, seed=4).meshes[::2]
    assert len({mesh.vertex_count for mesh in meshes}) > 3
    seeds = [derive(9, "it", mesh.mesh_id) for mesh in meshes]
    assert_batch_is_the_reference(meshes, 8, seeds)


def test_walk_batch_is_the_reference_on_a_segmentation_batch_with_jumps():
    meshes = generate_segmentation_set(6, seed=2).meshes[:16]
    batch = assert_batch_is_the_reference(meshes, 8, [derive(5, m.mesh_id) for m in meshes])
    assert sum(int(features[..., 3].sum()) for features in batch) > 16


@pytest.mark.parametrize("builder, args", [("icosphere", (3,)), ("torus", (32, 20)),
                                           ("cylinder", (40, 16))])
def test_walk_batch_is_the_reference_on_large_meshes(builder, args):
    vertices, faces = getattr(synth, builder)(*args)
    mesh = normalize_coordinates(build_mesh(vertices, faces, mesh_id=builder))
    assert mesh.vertex_count >= 640
    (features,) = assert_batch_is_the_reference([mesh], 32, [derive(7, builder)])
    assert features[..., 3].sum() > 32


def test_walks_are_the_reference_on_graphs_with_isolated_vertices():
    """A walk that reaches an isolated vertex, or starts on a mesh with no
    edge at all, jumps; the -1 padding of short neighbour rows is never picked."""
    star = mesh_from_edges(np.arange(21.0).reshape(7, 3), [(0, 1), (0, 2), (0, 3), (4, 5)])
    bare = mesh_from_edges([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [])
    for seed in range(40):
        assert_batch_is_the_reference([star, bare, star], 3, [seed, seed + 1, seed + 2])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=MASK64))
def test_walk_batch_is_the_reference_on_a_random_graph(seed):
    """Uneven degrees and many jumps: 30 vertices, a path plus 40 random edges,
    next to a ring of 5 (shorter walks, so its lanes stop early)."""
    rng = np.random.default_rng(1234)
    edges = [(i, i + 1) for i in range(29)]
    edges += [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(40, 2)) if a != b]
    graph = mesh_from_edges(rng.normal(size=(30, 3)), edges, mesh_id="rand30")
    ring = mesh_from_edges(rng.normal(size=(5, 3)), [(i, (i + 1) % 5) for i in range(5)])
    assert_batch_is_the_reference([ring, graph, ring], 6, [seed, seed ^ 1, derive(seed)])


def test_a_mesh_walks_the_same_alone_and_in_a_batch():
    meshes = (generate_classification_set(3, 4, seed=8).meshes[::3]
              + generate_segmentation_set(4, seed=8).meshes[::4])
    seeds = [derive(1, k) for k in range(len(meshes))]
    batch = walk_batch(meshes, 5, seeds)
    for mesh, seed, features in zip(meshes, seeds, batch):
        assert features.tobytes() == walk_batch([mesh], 5, [seed])[0].tobytes()
    flipped = walk_batch(meshes[::-1], 5, seeds[::-1])[::-1]
    assert [f.tobytes() for f in flipped] == [f.tobytes() for f in batch]


def test_extract_walks_hands_out_python_ints_and_bools(tetrahedron):
    for walk in extract_walks(tetrahedron, 4, seed=3):
        assert all(type(v) is int for v in walk.vertex_indices)
        assert all(type(f) is bool for f in walk.jump_flags)
        assert walk.jump_flags[0] is False


def test_walk_batch_checks_its_arguments(tetrahedron):
    with pytest.raises(WalkError, match="count must be >= 1, got 0"):
        walk_batch([tetrahedron], 0, [1])
    with pytest.raises(WalkError, match="2 meshes but 1 seeds"):
        walk_batch([tetrahedron, tetrahedron], 2, [1])
    assert walk_batch([], 2, []) == []


def boundary_words(n: int) -> list:
    """The words at which (word * n) >> 64 steps up to 1, n // 2 and n - 1,
    and the words just below them: where a pick that drops a carry errs."""
    steps = {-(-(j << 64) // n) for j in (1, n // 2, n - 1) if j}
    return sorted({w + d for w in steps for d in (-1, 0) if 0 <= w + d <= MASK64})


@pytest.mark.parametrize("words", [range(0, 64), range(MASK64 - 63, MASK64 + 1),
                                   [1 << 32, (1 << 32) - 1, (1 << 63) - 1, 1 << 63,
                                    0x9E3779B97F4A7C15, 0xFFFFFFFF00000000, 0xFFFFFFFF]])
def test_pick_below_is_the_python_integer_pick(words):
    """(word * n) >> 64 from 32-bit halves, for n = 1 ... 4096, against Python's
    unbounded integers, at words near 0, near 2**64 - 1 and at the half seams."""
    words = list(words)
    column = np.array(words, dtype=np.uint64)[:, None]
    n = np.arange(1, 4097)
    picks = pick_below(column >> 32, column & 0xFFFFFFFF, n[None, :])
    assert picks.dtype == np.uint64
    assert picks.tolist() == [[(word * k) >> 64 for k in range(1, 4097)] for word in words]


def test_pick_below_is_exact_where_the_pick_steps_up():
    pairs = [(word, n) for n in range(1, 4097) for word in boundary_words(n)]
    words = np.array([word for word, _ in pairs], dtype=np.uint64)
    picks = pick_below(words >> 32, words & 0xFFFFFFFF, np.array([n for _, n in pairs]))
    assert picks.tolist() == [(word * n) >> 64 for word, n in pairs]
