"""Synthetic datasets: determinism, validity, connectivity, label rules."""

import numpy as np
import pytest

from meshmoe.mesh import MeshError, save_off
from meshmoe.synth import (MAX_CLASSES, box_grid, cone, cylinder,
                           generate_classification_set,
                           generate_segmentation_set, icosphere,
                           jitter_vertices, random_rotation, segment_labels,
                           torus)
from meshmoe.mesh import build_mesh
from meshmoe.rng import Rng


def euler_characteristic(mesh) -> int:
    return mesh.vertex_count - mesh.edge_count + mesh.face_count


def is_connected(mesh) -> bool:
    """Breadth-first sweep over adjacency."""
    if mesh.vertex_count == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for n in mesh.adjacency[v]:
                if n not in seen:
                    seen.add(n)
                    nxt.append(n)
        frontier = nxt
    return len(seen) == mesh.vertex_count


def test_primitive_euler_characteristics():
    """Genus-0 families have chi = 2; the torus has chi = 0."""
    for name, (verts, faces) in {
        "icosphere": icosphere(1),
        "box": box_grid(2),
        "cylinder": cylinder(12, 4),
        "cone": cone(16),
    }.items():
        mesh = build_mesh(verts, faces, mesh_id=name)
        assert euler_characteristic(mesh) == 2, name
    verts, faces = torus(10, 6)
    assert euler_characteristic(build_mesh(verts, faces)) == 0


def test_icosphere_subdivision_counts():
    verts, faces = icosphere(1)
    assert len(verts) == 42 and len(faces) == 80


def test_every_primitive_is_connected_and_watertight():
    for verts, faces in (icosphere(1), box_grid(2), cylinder(12, 4),
                         cone(16), torus(10, 6)):
        mesh = build_mesh(verts, faces)
        assert is_connected(mesh)
        # closed surface: every edge borders exactly two faces
        assert all(len(fs) == 2 for fs in mesh.edge_faces)


def test_rotation_matrix_is_orthonormal():
    for seed in range(5):
        r = random_rotation(Rng(seed))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_jitter_deterministic():
    verts, _ = icosphere(1)
    a = jitter_vertices(verts, seed=5)
    b = jitter_vertices(verts, seed=5)
    np.testing.assert_array_equal(a, b)
    c = jitter_vertices(verts, seed=6)
    assert not np.array_equal(a, c)


def test_classification_set_counts_and_split():
    ds = generate_classification_set(3, 20, seed=1)
    assert len(ds.meshes) == 60
    assert len(ds.train_ids) == 48 and len(ds.test_ids) == 12
    for cls in range(3):
        train = [m for m in ds.train_meshes if m.class_label == cls]
        test = [m for m in ds.test_meshes if m.class_label == cls]
        assert len(train) == 16 and len(test) == 4


def test_classification_set_meshes_valid():
    ds = generate_classification_set(5, 4, seed=2)
    for mesh in ds.meshes:
        assert is_connected(mesh)
        assert np.all(mesh.edge_lengths > 0)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert radii.max() == pytest.approx(1.0, abs=1e-9)


def test_classification_set_deterministic_files(tmp_path):
    a = generate_classification_set(2, 4, seed=9)
    b = generate_classification_set(2, 4, seed=9)
    for ma, mb in zip(a.meshes, b.meshes):
        pa, pb = tmp_path / "a.off", tmp_path / "b.off"
        save_off(ma, pa)
        save_off(mb, pb)
        assert pa.read_bytes() == pb.read_bytes()


def test_class_count_limits():
    with pytest.raises(MeshError, match="unsupported class count"):
        generate_classification_set(MAX_CLASSES + 1, 4, seed=0)
    with pytest.raises(MeshError, match="at least 2"):
        generate_classification_set(1, 4, seed=0)
    with pytest.raises(MeshError, match="at least 4"):
        generate_classification_set(2, 3, seed=0)


def test_ten_classes_supported():
    ds = generate_classification_set(10, 4, seed=3)
    assert len(ds.meshes) == 40
    assert ds.num_classes == 10


def test_segment_labels_two_bands():
    verts, faces = cylinder(12, 7)
    mesh = build_mesh(verts, faces)
    edge_labels = segment_labels(verts, mesh.edges, 2)
    assert edge_labels.shape == (mesh.edge_count,)
    assert set(edge_labels) == {0, 1}
    # boundary rule: ring edges exactly at z=0 go to the lower band
    mids = verts[mesh.edges].mean(axis=1)[:, 2]
    on_boundary = np.abs(mids) < 1e-12
    assert on_boundary.any()
    assert np.all(edge_labels[on_boundary] == 0)


def test_segmentation_set_labels_align():
    ds = generate_segmentation_set(4, seed=4)
    assert len(ds.meshes) == 12
    assert ds.task == "segmentation"
    for mesh in ds.meshes:
        assert mesh.edge_labels.shape == (mesh.edge_count,)
    two_seg = [m for m in ds.meshes if m.mesh_id.startswith("cyl2seg")]
    assert all(set(m.edge_labels) == {0, 1} for m in two_seg)
    four_seg = [m for m in ds.meshes if m.mesh_id.startswith("cyl4seg")]
    assert all(set(m.edge_labels) == {0, 1, 2, 3} for m in four_seg)


def test_segmentation_rotation_preserves_band_geometry():
    """Axial rotation keeps z bands; edge midpoint heights order labels."""
    ds = generate_segmentation_set(4, seed=8)
    for mesh in ds.meshes:
        mids = mesh.vertices[mesh.edges].mean(axis=1)[:, 2]
        for lo in range(int(mesh.edge_labels.max())):
            below = mids[mesh.edge_labels == lo].mean()
            above = mids[mesh.edge_labels == lo + 1].mean()
            assert below < above
