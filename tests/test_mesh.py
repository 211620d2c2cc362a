"""Mesh construction, OFF round-trips, normalization, dataset packaging."""

import contextlib

import numpy as np
import pytest

from meshmoe import mesh as mesh_module
from meshmoe.mesh import (Dataset, MeshError, build_adjacency, build_mesh,
                          load_dataset, load_label_sidecar, load_off,
                          mesh_from_edges, normalize_coordinates, save_dataset,
                          save_label_sidecar, save_off, split_dataset)
from meshmoe.synth import generate_classification_set, generate_segmentation_set


def test_tetrahedron_connectivity(tetrahedron):
    assert tetrahedron.vertex_count == 4
    assert tetrahedron.face_count == 4
    assert tetrahedron.edge_count == 6
    assert tetrahedron.vertex_count - tetrahedron.edge_count + tetrahedron.face_count == 2
    # complete graph on 4 vertices
    assert tetrahedron.adjacency == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def test_edges_canonical_and_sorted(tetrahedron):
    edges = tetrahedron.edges
    assert np.all(edges[:, 0] < edges[:, 1])
    as_tuples = [tuple(e) for e in edges]
    assert as_tuples == sorted(as_tuples)


def test_every_edge_has_positive_length(tetrahedron):
    assert np.all(tetrahedron.edge_lengths > 0)


def test_interior_edges_have_two_faces(tetrahedron):
    assert all(len(fs) == 2 for fs in tetrahedron.edge_faces)


def test_boundary_edge_has_one_face(triangle):
    assert all(len(fs) == 1 for fs in triangle.edge_faces)


def test_face_index_out_of_range():
    with pytest.raises(MeshError, match="out of range"):
        build_adjacency(np.array([[0, 1, 5]]), vertex_count=3)


def test_degenerate_face_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        build_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_zero_length_edge_rejected():
    verts = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    with pytest.raises(MeshError, match="zero-length"):
        build_mesh(verts, [[0, 1, 2]])
    with pytest.raises(MeshError, match="zero-length"):
        mesh_from_edges(verts, [(0, 1)])


def test_normalize_centroid_and_radius(tetrahedron):
    normed = normalize_coordinates(tetrahedron)
    np.testing.assert_allclose(normed.vertices.mean(axis=0), 0.0, atol=1e-15)
    radii = np.linalg.norm(normed.vertices, axis=1)
    assert radii.max() == pytest.approx(1.0, abs=1e-12)
    assert radii.max() <= 1.0 + 1e-12


def test_normalize_zero_extent_rejected():
    # distinct vertices but coincident after jitter is impossible here, so
    # construct directly: all vertices at the same point is caught earlier
    # by the zero-length edge check; a single-vertex cloud triggers it.
    mesh = mesh_from_edges([[0.0, 0.0, 0.0]], [], mesh_id="point")
    with pytest.raises(MeshError, match="zero spatial extent"):
        normalize_coordinates(mesh)


def test_normalization_is_idempotent(tetrahedron):
    once = normalize_coordinates(tetrahedron)
    twice = normalize_coordinates(once)
    np.testing.assert_allclose(once.vertices, twice.vertices, atol=1e-15)


def test_off_round_trip_bit_exact(tmp_path, tetrahedron):
    path = tmp_path / "tetra.off"
    save_off(tetrahedron, path)
    back = load_off(path)
    np.testing.assert_array_equal(back.vertices, tetrahedron.vertices)
    np.testing.assert_array_equal(back.faces, tetrahedron.faces)
    assert back.mesh_id == "tetra"


def test_off_irrational_coordinates_survive(tmp_path):
    verts = np.array([[np.pi, np.e, np.sqrt(2)],
                      [1 / 3, 2 / 7, -1e-17],
                      [1e30, -1e-30, 0.1]])
    mesh = build_mesh(verts, [[0, 1, 2]], mesh_id="precise")
    path = tmp_path / "precise.off"
    save_off(mesh, path)
    np.testing.assert_array_equal(load_off(path).vertices, verts)


def test_off_comments_and_blanks(tmp_path):
    text = "# comment\nOFF\n\n3 1 0\n0 0 0\n1 0 0  # inline\n0 1 0\n3 0 1 2\n"
    path = tmp_path / "c.off"
    path.write_text(text)
    mesh = load_off(path)
    assert mesh.vertex_count == 3 and mesh.face_count == 1


def test_off_bad_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OOF\n3 1 0\n")
    with pytest.raises(MeshError, match="header"):
        load_off(path)


def test_off_non_triangle_rejected_with_line(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshError, match=r"quad\.off:7.*non-triangular"):
        load_off(path)


def test_off_truncated(tmp_path):
    path = tmp_path / "short.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshError, match="only 2 data lines"):
        load_off(path)


def test_off_trailing_content(tmp_path):
    path = tmp_path / "long.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n0 0 0\n")
    with pytest.raises(MeshError, match="trailing"):
        load_off(path)


def test_off_vertex_out_of_range(tmp_path):
    path = tmp_path / "oob.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
    with pytest.raises(MeshError, match="out of range"):
        load_off(path)


@pytest.mark.parametrize("counts", ["-1 0 0", "3 -1 0"])
def test_off_negative_count_names_its_line(tmp_path, counts):
    path = tmp_path / "neg.off"
    path.write_text(f"OFF\n# counts\n{counts}\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(MeshError, match=r"neg\.off:3: negative"):
        load_off(path)


@pytest.mark.parametrize("face", ["3 0 -1 2", "3 0 1 3", "3 0 1 99999999999999999999"],
                         ids=["negative", "past-the-end", "past-int64"])
def test_off_face_index_out_of_range_names_its_line(tmp_path, face):
    path = tmp_path / "oob.off"
    path.write_text(f"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n{face}\n")
    with pytest.raises(MeshError, match=r"oob\.off:7: face index out of range \[0, 3\) or repeated"):
        load_off(path)


def test_off_repeated_face_vertex_names_its_line(tmp_path):
    path = tmp_path / "rep.off"
    path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\n3 2 0 2\n")
    with pytest.raises(MeshError, match=r"rep\.off:8: face index out of range \[0, 3\) or repeated"):
        load_off(path)


class _DiesAfter:
    """Text handle that raises on its `budget`+1-th write."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, text):
        if self.budget == 0:
            raise OSError("disk full")
        self.budget -= 1
        return self.fh.write(text)


@pytest.mark.parametrize("writer", ["off", "sidecar"])
def test_crash_half_way_through_a_mesh_keeps_the_old_file(tmp_path, monkeypatch,
                                                          tetrahedron, writer):
    """Per-mesh writers go through `atomic_write`: a write that dies part-way
    leaves the old file byte-identical and no temp file."""
    save = {"off": lambda mesh, path: save_off(mesh, path),
            "sidecar": lambda mesh, path: save_label_sidecar(mesh.edge_lengths * 10, path)}[writer]
    path = tmp_path / "m.out"
    save(tetrahedron, path)
    before = path.read_bytes()
    moved = build_mesh(tetrahedron.vertices * 2.0, tetrahedron.faces)
    real_write = mesh_module.atomic_write

    @contextlib.contextmanager
    def dying_write(target):
        with real_write(target) as fh:
            yield _DiesAfter(fh, 3)

    monkeypatch.setattr(mesh_module, "atomic_write", dying_write)
    with pytest.raises(OSError, match="disk full"):
        save(moved, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.out"]
    monkeypatch.undo()
    save(moved, path)
    assert path.read_bytes() != before


def test_label_sidecar_round_trip(tmp_path):
    labels = np.array([0, 1, 2, 1, 0])
    path = tmp_path / "m.eseg"
    save_label_sidecar(labels, path)
    np.testing.assert_array_equal(load_label_sidecar(path), labels)


def test_mesh_from_edges_path_graph():
    mesh = mesh_from_edges([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [(0, 1), (1, 2)])
    assert mesh.adjacency == [[1], [0, 2], [1]]
    assert mesh.edge_count == 2


def test_normalize_keeps_faceless_graph_edges():
    mesh = mesh_from_edges([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [(0, 1), (1, 2)])
    normed = normalize_coordinates(mesh)
    assert normed.adjacency == [[1], [0, 2], [1]]
    np.testing.assert_array_equal(normed.edges, [[0, 1], [1, 2]])
    np.testing.assert_array_equal(normed.edge_lengths, [1.0, 1.0])
    assert normed.edge_faces == [[], []]


@pytest.mark.parametrize("dataset", [
    generate_classification_set(3, 4, seed=2),
    generate_segmentation_set(per_class=4, seed=2),
], ids=["classification", "segmentation"])
def test_normalized_mesh_equals_fresh_build(dataset):
    """Normalizing rescales only: connectivity matches a full rebuild."""
    for mesh in dataset.meshes:
        fresh = build_mesh(mesh.vertices, mesh.faces, mesh_id=mesh.mesh_id,
                           class_label=mesh.class_label,
                           edge_labels=mesh.edge_labels)
        assert mesh.adjacency == fresh.adjacency
        assert mesh.edge_faces == fresh.edge_faces
        for name in ("edges", "edge_lengths", "edge_labels"):
            np.testing.assert_array_equal(getattr(mesh, name), getattr(fresh, name))
        assert mesh.edge_lengths.tobytes() == fresh.edge_lengths.tobytes()
        assert all(adj == sorted(set(adj)) for adj in mesh.adjacency)


def test_generation_builds_connectivity_once_per_mesh(monkeypatch):
    calls = []
    real = mesh_module.build_adjacency

    def counting(faces, vertex_count):
        calls.append(vertex_count)
        return real(faces, vertex_count)

    monkeypatch.setattr(mesh_module, "build_adjacency", counting)
    dataset = generate_classification_set(3, 4, seed=0)
    # one build per family; its instances share the connectivity
    assert len(calls) == 3 and len(dataset.meshes) == 12


def test_dataset_split_validation(tetrahedron, triangle):
    t2 = build_mesh(triangle.vertices, triangle.faces, mesh_id="triangle2")
    with pytest.raises(MeshError, match="both splits"):
        Dataset(meshes=[tetrahedron, t2], num_classes=1,
                train_ids=["tetra"], test_ids=["tetra", "triangle2"])
    with pytest.raises(MeshError, match="no split"):
        Dataset(meshes=[tetrahedron, t2], num_classes=1,
                train_ids=["tetra"], test_ids=[])


def test_dataset_duplicate_ids(tetrahedron):
    dup = build_mesh(tetrahedron.vertices, tetrahedron.faces, mesh_id="tetra")
    with pytest.raises(MeshError, match="duplicate"):
        Dataset(meshes=[tetrahedron, dup], num_classes=1,
                train_ids=["tetra"], test_ids=[])


def test_split_dataset_is_balanced_and_seeded():
    meshes = []
    verts = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    for cls in range(3):
        for i in range(10):
            m = build_mesh(np.asarray(verts, float), faces, mesh_id=f"m{cls}_{i}")
            m.class_label = cls
            meshes.append(m)
    train, test = split_dataset(meshes, 0.8, seed=5)
    assert len(train) == 24 and len(test) == 6
    for cls in range(3):
        assert sum(1 for i in train if i.startswith(f"m{cls}_")) == 8
    train2, test2 = split_dataset(meshes, 0.8, seed=5)
    assert train == train2 and test == test2
    train3, _ = split_dataset(meshes, 0.8, seed=6)
    assert train3 != train


def test_dataset_save_load_round_trip(tmp_path, tetrahedron, triangle):
    a = build_mesh(tetrahedron.vertices, tetrahedron.faces, mesh_id="a", class_label=0)
    b = build_mesh(triangle.vertices, triangle.faces, mesh_id="b", class_label=1,
                   edge_labels=np.array([0, 1, 1]))
    ds = Dataset(meshes=[a, b], num_classes=2, task="classification",
                 train_ids=["a"], test_ids=["b"])
    save_dataset(ds, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert back.num_classes == 2
    assert back.train_ids == ["a"] and back.test_ids == ["b"]
    by_id = {m.mesh_id: m for m in back.meshes}
    assert by_id["a"].class_label == 0
    np.testing.assert_array_equal(by_id["b"].edge_labels, [0, 1, 1])
    # meshes come back normalized
    np.testing.assert_allclose(by_id["a"].vertices.mean(axis=0), 0, atol=1e-15)


def test_segmentation_set_saves_edge_labels_only(tmp_path):
    """Labels are per edge: no `.fseg` is written, and a stray one is ignored."""
    out = tmp_path / "data"
    ds = generate_segmentation_set(per_class=4, seed=2)
    save_dataset(ds, out)
    assert not list(out.glob("*.fseg"))
    assert len(list(out.glob("*.eseg"))) == len(ds.meshes)
    stem = ds.meshes[0].mesh_id
    (out / f"{stem}.fseg").write_text("7\nnot a label\n")
    back = {m.mesh_id: m for m in load_dataset(out).meshes}
    for mesh in ds.meshes:
        np.testing.assert_array_equal(back[mesh.mesh_id].edge_labels, mesh.edge_labels)
    assert not hasattr(back[stem], "face_labels")


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(MeshError, match="manifest"):
        load_dataset(tmp_path)


def _saved_dataset(tmp_path, tetrahedron, triangle):
    a = build_mesh(tetrahedron.vertices, tetrahedron.faces, mesh_id="a", class_label=0)
    b = build_mesh(triangle.vertices, triangle.faces, mesh_id="b", class_label=1)
    save_dataset(Dataset(meshes=[a, b], num_classes=2, train_ids=["a"],
                         test_ids=["b"]), tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.csv"
    return manifest, manifest.read_text().splitlines()


def test_load_dataset_rejects_unknown_split(tmp_path, tetrahedron, triangle):
    manifest, lines = _saved_dataset(tmp_path, tetrahedron, triangle)
    assert lines[2] == "b,b.off,1,test"
    lines[2] = "b,b.off,1,trian"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=r"manifest\.csv:3: split .*'trian'"):
        load_dataset(tmp_path / "data")


def test_load_dataset_rejects_non_integer_class(tmp_path, tetrahedron, triangle):
    manifest, lines = _saved_dataset(tmp_path, tetrahedron, triangle)
    assert lines[1] == "a,a.off,0,train"
    lines[1] = "a,a.off,zero,train"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=r"manifest\.csv:2: non-integer class 'zero'"):
        load_dataset(tmp_path / "data")


def test_load_dataset_rejects_non_integer_num_classes(tmp_path, tetrahedron, triangle):
    _saved_dataset(tmp_path, tetrahedron, triangle)
    ini = tmp_path / "data" / "dataset.ini"
    ini.write_text("[dataset]\ntask = classification\nnum_classes = two\n")
    with pytest.raises(MeshError, match=r"dataset\.ini:3: num_classes .*'two'"):
        load_dataset(tmp_path / "data")


@pytest.mark.parametrize("ini, message", [
    ("[dataset]\ntask = segmentaton\n", r"dataset\.ini:2: unknown task 'segmentaton'"),
    ("[dataset]\ntask = classification\nnum_classes = -3\n",
     r"dataset\.ini:3: num_classes must be an integer >= 0, got '-3'"),
    ("[dataset]\nnum_clases = 5\n", r"dataset\.ini:2: \[dataset\] has no key 'num_clases'"),
    ("[dataset]\nnum_classes = 2\n[labels]\n", r"dataset\.ini:3: unknown section \[labels\]"),
    ("[DEFAULT]\ntask = segmentation\nnum_classes = 7\n",
     r"dataset\.ini:1: unknown section \[DEFAULT\]"),
], ids=["task", "negative-num-classes", "unknown-key", "unknown-section", "default-section"])
def test_load_dataset_rejects_bad_ini_entry(tmp_path, tetrahedron, triangle, ini, message):
    _saved_dataset(tmp_path, tetrahedron, triangle)
    (tmp_path / "data" / "dataset.ini").write_text(ini)
    with pytest.raises(MeshError, match=message):
        load_dataset(tmp_path / "data")


def test_load_dataset_rejects_non_utf8_ini(tmp_path, tetrahedron, triangle):
    _saved_dataset(tmp_path, tetrahedron, triangle)
    (tmp_path / "data" / "dataset.ini").write_bytes(b"[dataset]\nnum_classes = 2\xff\n")
    with pytest.raises(MeshError, match=r"dataset\.ini:2: not UTF-8 text$"):
        load_dataset(tmp_path / "data")


def test_load_dataset_num_classes_zero_infers_the_count(tmp_path, tetrahedron, triangle):
    _saved_dataset(tmp_path, tetrahedron, triangle)
    (tmp_path / "data" / "dataset.ini").write_text("[dataset]\nnum_classes = 0\n")
    assert load_dataset(tmp_path / "data").num_classes == 2


def test_load_dataset_rejects_ini_without_section(tmp_path, tetrahedron, triangle):
    _saved_dataset(tmp_path, tetrahedron, triangle)
    (tmp_path / "data" / "dataset.ini").write_text("num_classes = 2\n")
    with pytest.raises(MeshError, match=r"dataset\.ini:1: .*no section headers"):
        load_dataset(tmp_path / "data")


def test_crashed_save_leaves_the_old_index_whole(tmp_path, monkeypatch):
    """A save that dies on the third OFF file keeps the old 8-mesh index."""
    out = tmp_path / "data"
    save_dataset(generate_classification_set(2, 4, seed=7), out)
    before = {name: (out / name).read_bytes() for name in ("manifest.csv", "dataset.ini")}
    real_save_off, calls = mesh_module.save_off, []

    def failing_save_off(mesh, path):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_save_off(mesh, path)

    monkeypatch.setattr(mesh_module, "save_off", failing_save_off)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(generate_classification_set(2, 4, seed=8), out)
    assert {name: (out / name).read_bytes() for name in before} == before
    assert not list(out.glob("*.tmp"))
    assert len(load_dataset(out).meshes) == 8
