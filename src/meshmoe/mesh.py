"""Triangle mesh container, OFF I/O, and dataset packaging.

Meshes are vertex/face index arrays plus connectivity derived once
(sorted adjacency lists, canonical edge list, per-edge lengths and
incident faces), a class label and per-edge segmentation labels (`.eseg`).
Coordinates are normalized to centroid zero and unit max radius before
anything downstream sees them; normalizing replaces the vertices and edge
lengths only, so connectivity and labels ride along.
"""

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import atomic_write, read_ini
from .rng import Rng, derive


class MeshError(ValueError):
    def __init__(self, message: str, setting: str | None = None):
        super().__init__(message)
        self.setting = setting          # the argument at fault, where there is one


@dataclass(eq=False)
class Mesh:
    mesh_id: str
    vertices: np.ndarray            # (V, 3) float64
    faces: np.ndarray               # (F, 3) int64, triangles only
    adjacency: list                 # per vertex, sorted list of neighbor indices
    edges: np.ndarray               # (E, 2) int64, each row (lo, hi), rows sorted
    edge_lengths: np.ndarray        # (E,) float64, all > 0
    edge_faces: list                # per edge, indices of incident faces
    class_label: int | None = None
    edge_labels: np.ndarray | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _neighbor_lists(edges: np.ndarray, vertex_count: int) -> list:
    """Sorted neighbour lists from canonical (lo, hi) edge rows.

    The rows are duplicate-free and in lexicographic order, so each vertex
    meets its lower neighbours and then its higher ones in increasing order.
    """
    neighbors = [[] for _ in range(vertex_count)]
    for u, v in edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


def edge_lengths(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(E,) Euclidean lengths of the (E, 2) edge rows; all must be > 0."""
    deltas = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    lengths = np.sqrt((deltas * deltas).sum(axis=1))
    if np.any(lengths <= 0.0):
        raise MeshError("degenerate zero-length edge")
    return lengths


def build_adjacency(faces: np.ndarray, vertex_count: int):
    """Derive sorted adjacency lists and the canonical edge list.

    Edges are undirected, stored as (min, max) pairs in lexicographic
    order, so edge indices are stable across save/load and sidecar label
    files stay aligned.
    """
    faces = np.asarray(faces, dtype=np.int64)
    if faces.ndim != 2 or (faces.size and faces.shape[1] != 3):
        raise MeshError("faces must be an (F, 3) index array")
    if faces.size and (faces.min() < 0 or faces.max() >= vertex_count):
        raise MeshError("face references a vertex index out of range")

    edge_face_map: dict[tuple, list] = {}
    for fi, row in enumerate(faces.tolist()):
        a, b, c = row
        if a == b or b == c or a == c:
            raise MeshError(f"degenerate face with repeated vertex: {row}")
        for u, v in ((a, b), (b, c), (a, c)):
            edge_face_map.setdefault((u, v) if u < v else (v, u), []).append(fi)

    edge_keys = sorted(edge_face_map)
    edges = np.array(edge_keys, dtype=np.int64).reshape(len(edge_keys), 2)
    edge_faces = [edge_face_map[k] for k in edge_keys]
    return _neighbor_lists(edges, vertex_count), edges, edge_faces


def build_mesh(vertices, faces, mesh_id: str = "mesh", class_label=None,
               edge_labels=None) -> Mesh:
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError("vertices must be a (V, 3) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertices contain non-finite coordinates")
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    adjacency, edges, edge_faces = build_adjacency(faces, len(vertices))
    lengths = edge_lengths(vertices, edges)
    if edge_labels is not None:
        edge_labels = np.asarray(edge_labels, dtype=np.int64)
        if edge_labels.shape != (len(edges),):
            raise MeshError("edge label count does not match edge count")
    return Mesh(mesh_id=mesh_id, vertices=vertices, faces=faces,
                adjacency=adjacency, edges=edges, edge_lengths=lengths,
                edge_faces=edge_faces, class_label=class_label,
                edge_labels=edge_labels)


def mesh_from_edges(vertices, edge_list, mesh_id: str = "graph") -> Mesh:
    """Faceless mesh from an explicit edge list.

    Walk extraction only needs vertices and adjacency, so tests can pin
    walk behavior on graphs (paths, cycles) that no triangle mesh has.
    """
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    keys = set()
    for u, v in edge_list:
        u, v = int(u), int(v)
        if u == v or not (0 <= u < len(vertices)) or not (0 <= v < len(vertices)):
            raise MeshError(f"bad edge ({u}, {v})")
        keys.add((min(u, v), max(u, v)))
    edges = np.array(sorted(keys), dtype=np.int64).reshape(len(keys), 2)
    return Mesh(mesh_id=mesh_id, vertices=vertices,
                faces=np.zeros((0, 3), dtype=np.int64),
                adjacency=_neighbor_lists(edges, len(vertices)),
                edges=edges, edge_lengths=edge_lengths(vertices, edges),
                edge_faces=[[] for _ in range(len(edges))])


def normalize_coordinates(mesh: Mesh) -> Mesh:
    """Translate centroid to the origin, scale max vertex norm to 1.

    Connectivity and labels are shared with `mesh`, not rebuilt.
    """
    centroid = mesh.vertices.mean(axis=0)
    shifted = mesh.vertices - centroid
    radius = float(np.sqrt((shifted * shifted).sum(axis=1)).max(initial=0.0))
    if radius < 1e-12:
        raise MeshError(f"mesh {mesh.mesh_id} has zero spatial extent")
    vertices = shifted / radius
    return replace(mesh, vertices=vertices,
                   edge_lengths=edge_lengths(vertices, mesh.edges))


# --- OFF files and label sidecars ---------------------------------------

def load_off(path) -> Mesh:
    """Parse an ASCII OFF file holding a pure triangle mesh.

    Accepts '#' comments and blank lines anywhere; rejects non-triangular
    faces, bad face indices, malformed or negative counts, and truncated
    files, reporting 1-based line numbers.  The declared edge count is
    ignored (it is conventionally 0).
    """
    mesh_id = os.path.splitext(os.path.basename(str(path)))[0]
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((lineno, text))
    if not rows:
        raise MeshError(f"{path}: empty OFF file")
    lineno, header = rows[0]
    if header != "OFF":
        raise MeshError(f"{path}:{lineno}: malformed header, expected 'OFF'")
    if len(rows) < 2:
        raise MeshError(f"{path}: missing counts line")
    lineno, counts = rows[1]
    parts = counts.split()
    if len(parts) != 3:
        raise MeshError(f"{path}:{lineno}: counts line must read 'V F E'")
    try:
        n_vertices, n_faces = int(parts[0]), int(parts[1])
        int(parts[2])
    except ValueError:
        raise MeshError(f"{path}:{lineno}: non-integer counts") from None
    if n_vertices < 0 or n_faces < 0:
        raise MeshError(f"{path}:{lineno}: negative vertex or face count")

    body = rows[2:]
    if len(body) < n_vertices + n_faces:
        raise MeshError(
            f"{path}: declared {n_vertices} vertices and {n_faces} faces "
            f"but only {len(body)} data lines present")
    if len(body) > n_vertices + n_faces:
        lineno, _ = body[n_vertices + n_faces]
        raise MeshError(f"{path}:{lineno}: unexpected trailing content")

    vertices = np.empty((n_vertices, 3), dtype=np.float64)
    for i in range(n_vertices):
        lineno, text = body[i]
        parts = text.split()
        if len(parts) != 3:
            raise MeshError(f"{path}:{lineno}: vertex line needs 3 coordinates")
        try:
            vertices[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshError(f"{path}:{lineno}: non-numeric coordinate") from None

    faces = np.empty((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        lineno, text = body[n_vertices + i]
        parts = text.split()
        if not parts or parts[0] != "3":
            raise MeshError(f"{path}:{lineno}: non-triangular face")
        if len(parts) != 4:
            raise MeshError(f"{path}:{lineno}: face line needs exactly 3 indices")
        try:
            row = [int(p) for p in parts[1:]]
        except ValueError:
            raise MeshError(f"{path}:{lineno}: non-integer face index") from None
        if len(set(row)) != 3 or not all(0 <= v < n_vertices for v in row):
            raise MeshError(f"{path}:{lineno}: face index out of range [0, {n_vertices}) "
                            "or repeated")
        faces[i] = row

    try:
        return build_mesh(vertices, faces, mesh_id=mesh_id)
    except MeshError as err:
        raise MeshError(f"{path}: {err}") from None


def save_off(mesh: Mesh, path) -> None:
    with atomic_write(path) as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.vertex_count} {mesh.face_count} {mesh.edge_count}\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"3 {a} {b} {c}\n")


def load_label_sidecar(path) -> np.ndarray:
    """Read one integer label per line (.eseg convention)."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                labels.append(int(text))
            except ValueError:
                raise MeshError(f"{path}:{lineno}: non-integer label") from None
    return np.array(labels, dtype=np.int64)


def save_label_sidecar(labels: np.ndarray, path) -> None:
    with atomic_write(path) as fh:
        for value in labels:
            fh.write(f"{int(value)}\n")


# --- datasets ------------------------------------------------------------

TASKS = ("classification", "retrieval", "segmentation")


@dataclass
class Dataset:
    meshes: list
    num_classes: int
    task: str = "classification"
    train_ids: list = field(default_factory=list)
    test_ids: list = field(default_factory=list)

    def __post_init__(self):
        if self.task not in TASKS:
            raise MeshError(f"unknown task: {self.task}")
        ids = [m.mesh_id for m in self.meshes]
        if len(set(ids)) != len(ids):
            raise MeshError("duplicate mesh ids in dataset")
        overlap = set(self.train_ids) & set(self.test_ids)
        if overlap:
            raise MeshError(f"mesh ids in both splits: {sorted(overlap)}")
        missing = set(ids) - set(self.train_ids) - set(self.test_ids)
        if self.train_ids or self.test_ids:
            if missing:
                raise MeshError(f"mesh ids in no split: {sorted(missing)}")
        for m in self.meshes:
            lab = m.class_label
            if lab is not None and not (0 <= lab < self.num_classes):
                raise MeshError(f"{m.mesh_id}: class label {lab} out of range")
            arr = m.edge_labels
            if arr is not None and arr.size and (arr.min() < 0 or arr.max() >= self.num_classes):
                raise MeshError(f"{m.mesh_id}: segment label out of range")
        self._index = {m.mesh_id: m for m in self.meshes}

    @property
    def train_meshes(self) -> list:
        return [self._index[i] for i in self.train_ids]

    @property
    def test_meshes(self) -> list:
        return [self._index[i] for i in self.test_ids]


def split_dataset(meshes: list, fraction_train: float, seed: int):
    """Per-class seeded shuffle, first `fraction_train` of each class trains."""
    by_class: dict = {}
    for m in meshes:
        by_class.setdefault(m.class_label, []).append(m.mesh_id)
    train_ids, test_ids = [], []
    for label in sorted(by_class, key=lambda v: (v is None, v)):
        ids = sorted(by_class[label])
        Rng(derive(seed, "split", -1 if label is None else int(label))).shuffle(ids)
        cut = int(round(fraction_train * len(ids)))
        train_ids.extend(ids[:cut])
        test_ids.extend(ids[cut:])
    return sorted(train_ids), sorted(test_ids)


def save_dataset(dataset: Dataset, out_dir) -> None:
    """OFF files and label sidecars, then manifest.csv and dataset.ini, each
    through `atomic_write`: a crash part-way leaves the old index files whole."""
    split_of = {i: "train" for i in dataset.train_ids}
    split_of.update({i: "test" for i in dataset.test_ids})
    for mesh in dataset.meshes:
        save_off(mesh, os.path.join(out_dir, f"{mesh.mesh_id}.off"))
        if mesh.edge_labels is not None:
            save_label_sidecar(mesh.edge_labels, os.path.join(out_dir, f"{mesh.mesh_id}.eseg"))
    with atomic_write(os.path.join(out_dir, "manifest.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["mesh_id", "file", "class", "split"])
        writer.writerows([mesh.mesh_id, f"{mesh.mesh_id}.off",
                          "" if mesh.class_label is None else str(mesh.class_label),
                          split_of.get(mesh.mesh_id, "train")] for mesh in dataset.meshes)
    with atomic_write(os.path.join(out_dir, "dataset.ini")) as fh:
        fh.write(f"[dataset]\ntask = {dataset.task}\nnum_classes = {dataset.num_classes}\n")


@dataclass
class DatasetSection:          # dataset.ini's [dataset]
    task: str = "classification"
    num_classes: str = "0"     # an integer >= 0; 0 infers the count from the labels


def _read_dataset_ini(ini) -> DatasetSection:
    """[dataset] of the file `ini`; an unknown task, or a num_classes that is
    not an integer >= 0 (never a default), names the line `read_ini` read."""
    meta = DatasetSection()
    where = read_ini(ini, {"dataset": meta}, MeshError)
    if meta.task not in TASKS:
        raise MeshError(f"{where['dataset', 'task']}: unknown task "
                        f"{meta.task!r}; expected one of {TASKS}")
    if not meta.num_classes.isdecimal():
        raise MeshError(f"{where['dataset', 'num_classes']}: num_classes "
                        f"must be an integer >= 0, got {meta.num_classes!r}")
    return meta


def load_dataset(data_dir) -> Dataset:
    """Load a directory written by save_dataset; meshes come back normalized."""
    manifest = os.path.join(data_dir, "manifest.csv")
    if not os.path.exists(manifest):
        raise MeshError(f"{data_dir}: no manifest.csv")
    ini = os.path.join(data_dir, "dataset.ini")
    meta = _read_dataset_ini(ini) if os.path.exists(ini) else DatasetSection()

    meshes, train_ids, test_ids = [], [], []
    max_label = -1
    with open(manifest, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for column in ("mesh_id", "file"):
            if column not in (reader.fieldnames or ()):
                raise MeshError(f"{manifest}:1: missing column {column!r}")
        for row in reader:
            where = f"{manifest}:{reader.line_num}"
            split = row.get("split", "train")
            if split not in ("train", "test"):
                raise MeshError(f"{where}: split must be 'train' or 'test', got {split!r}")
            path = os.path.join(data_dir, row["file"])
            mesh = load_off(path)
            mesh.mesh_id = row["mesh_id"]
            if row.get("class"):
                try:
                    mesh.class_label = int(row["class"])
                except ValueError:
                    raise MeshError(f"{where}: non-integer class {row['class']!r}") from None
                max_label = max(max_label, mesh.class_label)
            stem = os.path.splitext(path)[0]
            if os.path.exists(stem + ".eseg"):
                labels = load_label_sidecar(stem + ".eseg")
                if labels.shape != (mesh.edge_count,):
                    raise MeshError(f"{stem}.eseg: {len(labels)} labels for {mesh.edge_count} edges")
                mesh.edge_labels = labels
                max_label = max(max_label, int(labels.max(initial=-1)))
            meshes.append(normalize_coordinates(mesh))
            (train_ids if split == "train" else test_ids).append(mesh.mesh_id)
    num_classes = int(meta.num_classes) or (max_label + 1)
    return Dataset(meshes=meshes, num_classes=num_classes, task=meta.task,
                   train_ids=train_ids, test_ids=test_ids)
