"""The expert pool behind a uniform predict interface.

Three trainable desk-scale experts consume different views of a mesh
(walk sequences, face statistics, edge statistics), plus scripted oracle
experts for controlled routing tests.  Classification experts return a
(C,) probability vector; the edge segmenter (`per_edge`) returns an (E, S)
row-softmax matrix.  Oracles are frozen and per-mesh seeded: the same mesh
always draws the same prediction regardless of training step.

`predict_batch` gives a batch's predictions as one (N, C) tensor of rows
plus each mesh's row count: a trainable expert's `rows` runs once over the
batch (the walk-RNN once per walk length), and its `predict` is the
one-mesh case.

A mesh's geometry is fixed once it is built, so the face and edge
experts' input arrays are built once per `Mesh` object, on first use, and
shared read-only by every expert and every later step.
"""

import weakref
from itertools import compress

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .mesh import Mesh
from .optim import fit
from .rng import Rng, derive
# unused here: perfbench/spans.py wraps `extract_walks` in this module by name
from .walks import WALK_CHANNELS, extract_walks, walk_batch, walk_softmax_rows


class ExpertError(ValueError):
    pass


# Mesh -> {expert kind: read-only input array}; entries die with their mesh
_mesh_inputs = weakref.WeakKeyDictionary()


def _mesh_input(mesh: Mesh, kind: str, build) -> np.ndarray:
    """`build(mesh)`, made once per mesh object and shared read-only."""
    arrays = _mesh_inputs.setdefault(mesh, {})
    if kind not in arrays:
        arrays[kind] = build(mesh)
        arrays[kind].flags.writeable = False
    return arrays[kind]


def face_normals(mesh: Mesh):
    """(F, 3) unit face normals and (F, 1) face areas."""
    corners = mesh.vertices[mesh.faces]                       # (F, 3, 3)
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    norms = np.linalg.norm(cross, axis=1, keepdims=True)
    # zero-area faces get zero normals rather than NaN
    return np.where(norms > 1e-12, cross / np.maximum(norms, 1e-12), 0.0), norms / 2.0


class WalkRnnExpert:
    """GRU over 8 walks; per-walk class logits are averaged, then softmaxed.

    `rows` runs all walks of one walk length through one fused
    `layers.gru_forward` node, through `walk_softmax_rows` as the gate does.
    """

    kind = "walk_rnn"
    trainable = True
    per_edge = False
    walk_count = 8

    def __init__(self, name: str, num_classes: int, seed: int, hidden: int = 32):
        self.name = name
        self.num_classes = num_classes
        self.hidden = hidden
        self.params = {}
        layers.init_gru(self.params, "gru", WALK_CHANNELS, hidden, derive(seed, name, "gru"))
        self.params["head.w"] = layers.glorot((hidden, num_classes),
                                              derive(seed, name, "head"))
        self.params["head.b"] = layers.zeros((num_classes,))

    def rows(self, meshes: list, seeds: list) -> tuple:
        def run(walks):
            h = layers.gru_forward(Tensor(walks), self.params, "gru", self.hidden)
            return layers.linear(h, self.params["head.w"], self.params["head.b"])

        rows = walk_softmax_rows(walk_batch(meshes, self.walk_count, seeds), run)
        return ad.stack(rows), [1] * len(meshes)

    def predict(self, mesh: Mesh, seed: int) -> Tensor:
        return ad.reshape(self.rows([mesh], [seed])[0], (self.num_classes,))


class _Perceptron:
    """Two relu layers over every mesh's (N_i, `width`) input rows, run once
    over the batch's concatenated rows, then a head."""

    trainable = True
    per_edge = False

    def __init__(self, name: str, num_classes: int, seed: int, hidden: int = 32):
        self.name = name
        self.num_classes = num_classes
        self.params = {
            "mlp.w1": layers.glorot((self.width, hidden), derive(seed, name, "w1")),
            "mlp.b1": layers.zeros((hidden,)),
            "mlp.w2": layers.glorot((hidden, hidden), derive(seed, name, "w2")),
            "mlp.b2": layers.zeros((hidden,)),
            "head.w": layers.glorot((hidden, num_classes), derive(seed, name, "head")),
            "head.b": layers.zeros((num_classes,)),
        }

    def _hidden(self, meshes: list, build) -> tuple:
        """(sum N_i, hidden) activations of the rows `build(mesh)` makes for
        every mesh, and each N_i."""
        for mesh in meshes:
            if getattr(mesh, f"{self.unit}_count") == 0:
                raise ExpertError(f"{mesh.mesh_id}: {self.unit} expert needs {self.unit}s")
        inputs = [_mesh_input(mesh, self.kind, build) for mesh in meshes]
        x = Tensor(np.concatenate(inputs))
        h = ad.relu(layers.linear(x, self.params["mlp.w1"], self.params["mlp.b1"]))
        h = ad.relu(layers.linear(h, self.params["mlp.w2"], self.params["mlp.b2"]))
        return h, [len(rows) for rows in inputs]

    def _head(self, h: Tensor) -> Tensor:
        return ad.softmax(layers.linear(h, self.params["head.w"], self.params["head.b"]))


class FaceMlpExpert(_Perceptron):
    """Mean-pooled 2-layer perceptron over per-face (centroid, normal, area)."""

    kind = "face_mlp"
    unit = "face"
    width = 7

    @staticmethod
    def face_features(mesh: Mesh) -> np.ndarray:
        centroids = mesh.vertices[mesh.faces].mean(axis=1)
        normals, areas = face_normals(mesh)
        return np.concatenate([centroids, normals, areas], axis=1)

    def rows(self, meshes: list, seeds: list | None = None) -> tuple:
        h, counts = self._hidden(meshes, self.face_features)
        return self._head(layers.segment_mean(h, counts)), [1] * len(meshes)

    def predict(self, mesh: Mesh, seed: int | None = None) -> Tensor:
        return ad.reshape(self.rows([mesh])[0], (self.num_classes,))


class EdgeSegmenterExpert(_Perceptron):
    """Per-edge perceptron over (length, dihedral proxy, midpoint height)."""

    kind = "edge_seg"
    unit = "edge"
    width = 3
    per_edge = True

    @staticmethod
    def edge_features(mesh: Mesh) -> np.ndarray:
        normals, _ = face_normals(mesh)
        features = np.zeros((mesh.edge_count, 3))
        midpoints = mesh.vertices[mesh.edges].mean(axis=1)
        features[:, 0] = mesh.edge_lengths
        # 1 - cos(dihedral) on edges with two faces, as one stacked product
        # (bit-identical to a per-edge 1-D `@`, unlike einsum or a row sum);
        # boundary and non-manifold edges stay at the flat value 0
        interior = np.fromiter(map(len, mesh.edge_faces), np.int64, mesh.edge_count) == 2
        pairs = np.array(list(compress(mesh.edge_faces, interior)), np.int64).reshape(-1, 2)
        a, b = normals[pairs[:, 0]], normals[pairs[:, 1]]
        features[interior, 1] = 1.0 - (a[:, None, :] @ b[:, :, None])[:, 0, 0]
        features[:, 2] = midpoints[:, 2]
        return features

    def rows(self, meshes: list, seeds: list | None = None) -> tuple:
        h, counts = self._hidden(meshes, self.edge_features)
        return self._head(h), counts                     # (sum E_i, S) rows

    def predict(self, mesh: Mesh, seed: int | None = None) -> Tensor:
        return self.rows([mesh])[0]


class OracleExpert:
    """Scripted non-trainable expert, perfect (or near) on one class only.

    On specialty meshes it emits the true one-hot with probability
    `accuracy`; everywhere else (and on misses) the behavior parameter
    applies: `random_onehot` draws a uniformly random class one-hot,
    `uniform` returns the flat distribution.  The draw is keyed by mesh
    id alone, so a given mesh always gets the same answer.
    """

    kind = "oracle"
    trainable = False
    per_edge = False
    params = None

    def __init__(self, name: str, num_classes: int, specialty_class: int,
                 accuracy: float = 1.0, behavior: str = "random_onehot", seed: int = 0):
        if not (0.0 <= accuracy <= 1.0):
            raise ExpertError("accuracy must lie in [0, 1]")
        if behavior not in ("random_onehot", "uniform"):
            raise ExpertError(f"unknown off-specialty behavior: {behavior}")
        if not (0 <= specialty_class < num_classes):
            raise ExpertError(f"specialty class {specialty_class} is out of range "
                              f"for {num_classes} classes")
        self.name = name
        self.num_classes = num_classes
        self.specialty_class = specialty_class
        self.accuracy = accuracy
        self.behavior = behavior
        self.seed = seed

    def predict(self, mesh: Mesh, seed: int | None = None) -> Tensor:
        rng = Rng(derive(self.seed, "oracle", self.name, mesh.mesh_id))
        on_specialty = (mesh.class_label == self.specialty_class
                        and rng.uniform() < self.accuracy)
        if on_specialty:
            cls = self.specialty_class
        elif self.behavior == "uniform":
            return Tensor(np.full(self.num_classes, 1.0 / self.num_classes))
        else:
            cls = rng.randbelow(self.num_classes)
        probs = np.zeros(self.num_classes)
        probs[cls] = 1.0
        return Tensor(probs)


def predict_batch(expert, meshes: list, seeds: list) -> tuple:
    """Every mesh's prediction rows as one (N, C) tensor, in input order, and
    each mesh's row count (1 for a class vector, E_i for per-edge rows);
    mesh i draws from `seeds[i]`.  A trainable expert runs once over the
    batch, an oracle mesh by mesh.
    """
    if not meshes:
        raise ExpertError("no meshes to predict")
    if len(meshes) != len(seeds):
        raise ExpertError(f"{len(meshes)} meshes but {len(seeds)} seeds")
    if expert.trainable:
        return expert.rows(meshes, seeds)
    return (Tensor(np.stack([expert.predict(mesh, seed).data
                             for mesh, seed in zip(meshes, seeds)])), [1] * len(meshes))


def make_expert(spec: str, name: str, num_classes: int, seed: int, hidden: int = 32):
    """Registry: 'walk_rnn' | 'face_mlp' | 'edge_seg' | 'oracle:CLS[:ACC[:BEHAVIOR]]'."""
    if spec == "walk_rnn":
        return WalkRnnExpert(name, num_classes, seed, hidden=hidden)
    if spec == "face_mlp":
        return FaceMlpExpert(name, num_classes, seed, hidden=hidden)
    if spec == "edge_seg":
        return EdgeSegmenterExpert(name, num_classes, seed, hidden=hidden)
    if spec.startswith("oracle:"):
        parts = spec.split(":")
        try:
            return OracleExpert(name, num_classes, int(parts[1]),
                                float(parts[2]) if len(parts) > 2 else 1.0,
                                parts[3] if len(parts) > 3 else "random_onehot", seed=seed)
        except ValueError as exc:
            raise ExpertError(f"expert spec {spec}: {exc}") from None
    raise ExpertError(f"unknown expert spec: {spec}")


def build_experts(specs: list, num_classes: int, seed: int, hidden: int = 32) -> list:
    """Instantiate the pool with unique names (spec + position)."""
    experts = []
    for idx, spec in enumerate(specs):
        base = spec.replace(":", "_").replace(".", "")
        experts.append(make_expert(spec, f"{base}_{idx}", num_classes,
                                   derive(seed, "expert", idx), hidden=hidden))
    return experts


def mesh_target(mesh: Mesh, per_edge: bool):
    """The one target rule: edge labels for per-edge rows, else the class label."""
    target = mesh.edge_labels if per_edge else mesh.class_label
    if target is None:
        raise ExpertError(f"{mesh.mesh_id}: no {'edge labels' if per_edge else 'class label'}")
    return target


def mesh_average(counts: list) -> Tensor:
    """The constant (N, B) matrix that averages each mesh's rows, given each
    mesh's row count: a row weighs 1 / (rows in its mesh), so a mesh counts
    once whatever its edge count."""
    return Tensor(np.repeat(np.eye(len(counts)) / counts, counts, axis=0))


def stacked_rows(expert_predictions: list):
    """`expert_predictions[i][j]`, expert j's prediction for mesh i, as one
    (J, N, C) tensor of rows, plus its `mesh_average`.

    A (C,) class vector is one row and an (E_i, S) edge matrix is E_i rows.
    """
    num_experts = len(expert_predictions[0])
    if any(len(preds) != num_experts for preds in expert_predictions):
        raise ExpertError("meshes disagree in expert count")
    counts = [int(np.prod(preds[0].shape[:-1])) for preds in expert_predictions]
    rows = ad.stack([ad.reshape(ad.concat(list(column)), (-1, column[0].shape[-1]))
                     for column in zip(*expert_predictions)])
    return rows, mesh_average(counts)


def mesh_cross_entropy(rows: Tensor, average: Tensor, targets: list) -> Tensor:
    """(J, B) cross-entropy of every expert on every mesh, from the (J, N, C)
    rows and their (N, B) `average`: one over all rows, then each mesh's
    rows averaged.  `targets[i]` is mesh i's `mesh_target`."""
    target_rows = np.concatenate([np.reshape(t, -1) for t in targets])
    ce = layers.cross_entropy(rows, np.broadcast_to(target_rows, rows.shape[:-1]))
    return ad.matmul(ce, average)


def train_expert_supervised(expert, meshes: list, epochs: int = 10,
                            batch_size: int = 8, lr: float = 1e-3,
                            seed: int = 0) -> list:
    """Supervised pre-training on the joint step's batched path; returns
    per-epoch mean losses."""
    if not expert.trainable:
        raise ExpertError(f"{expert.name} is not trainable")

    def batch_loss(batch, epoch):
        rows, counts = predict_batch(expert, batch, [derive(seed, "walks", epoch, m.mesh_id)
                                                     for m in batch])
        targets = [mesh_target(mesh, expert.per_edge) for mesh in batch]
        return ad.tmean(mesh_cross_entropy(ad.reshape(rows, (1, *rows.shape)),
                                           mesh_average(counts), targets))

    return fit(expert.params, meshes, batch_loss, epochs, batch_size, lr, seed)


def expert_parameters(experts: list) -> dict:
    """Every trainable expert tensor, named expert.<name>.<key>."""
    return {f"expert.{expert.name}.{key}": tensor
            for expert in experts if expert.params is not None
            for key, tensor in expert.params.items()}
