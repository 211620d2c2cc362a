"""Walk extraction: length law, distinctness, edge validity, branch enumeration."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe.autodiff import Tensor
from meshmoe.mesh import mesh_from_edges
from meshmoe.rng import derive
from meshmoe.synth import MAX_CLASSES, generate_classification_set, generate_segmentation_set
from meshmoe.walks import (WalkError, extract_walk, extract_walks,
                           walk_features, walk_length, walk_softmax_rows)


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
