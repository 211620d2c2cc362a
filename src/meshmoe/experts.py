"""The expert pool behind a uniform predict interface.

Three trainable desk-scale experts consume different views of a mesh
(walk sequences, face statistics, edge statistics), plus scripted oracle
experts for controlled routing tests.  Classification experts return a
(C,) probability vector; the edge segmenter returns an (E, S) row-softmax
matrix.  Oracles are frozen and per-mesh seeded: the same mesh always
draws the same prediction regardless of training step.

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
from .walks import extract_walks, walk_features, walk_softmax_rows


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

    `predict_batch` runs all walks of one walk length through one fused
    `layers.gru_forward` node; `predict` is its one-mesh case.
    """

    kind = "walk_rnn"
    trainable = True
    walk_count = 8

    def __init__(self, name: str, num_classes: int, seed: int, hidden: int = 32):
        self.name = name
        self.num_classes = num_classes
        self.hidden = hidden
        self.params = {}
        layers.init_gru(self.params, "gru", 4, hidden, derive(seed, name, "gru"))
        self.params["head.w"] = layers.glorot((hidden, num_classes),
                                              derive(seed, name, "head"))
        self.params["head.b"] = layers.zeros((num_classes,))

    def predict(self, mesh: Mesh, seed: int) -> Tensor:
        return predict_batch(self, [mesh], [seed])[0]


class _Perceptron:
    """Two relu layers over a mesh's (N, `width`) input rows, then a head."""

    trainable = True

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

    def _hidden(self, mesh: Mesh, build) -> Tensor:
        """(N, hidden) activations of the rows `build(mesh)` makes."""
        x = Tensor(_mesh_input(mesh, self.kind, build))
        h = ad.relu(layers.linear(x, self.params["mlp.w1"], self.params["mlp.b1"]))
        return ad.relu(layers.linear(h, self.params["mlp.w2"], self.params["mlp.b2"]))


class FaceMlpExpert(_Perceptron):
    """Mean-pooled 2-layer perceptron over per-face (centroid, normal, area)."""

    kind = "face_mlp"
    width = 7

    @staticmethod
    def face_features(mesh: Mesh) -> np.ndarray:
        centroids = mesh.vertices[mesh.faces].mean(axis=1)
        normals, areas = face_normals(mesh)
        return np.concatenate([centroids, normals, areas], axis=1)

    def predict(self, mesh: Mesh, seed: int | None = None) -> Tensor:
        if mesh.face_count == 0:
            raise ExpertError(f"{mesh.mesh_id}: face expert needs faces")
        pooled = ad.tmean(self._hidden(mesh, self.face_features), axis=0)
        logits = layers.linear(ad.reshape(pooled, (1, -1)),
                               self.params["head.w"], self.params["head.b"])
        return ad.softmax(ad.reshape(logits, (self.num_classes,)), axis=-1)


class EdgeSegmenterExpert(_Perceptron):
    """Per-edge perceptron over (length, dihedral proxy, midpoint height)."""

    kind = "edge_seg"
    width = 3

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

    def predict(self, mesh: Mesh, seed: int | None = None) -> Tensor:
        if mesh.edge_count == 0:
            raise ExpertError(f"{mesh.mesh_id}: edge expert needs edges")
        h = self._hidden(mesh, self.edge_features)
        logits = layers.linear(h, self.params["head.w"], self.params["head.b"])
        return ad.softmax(logits, axis=-1)               # (E, S) rows


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
    params = None

    def __init__(self, name: str, num_classes: int, specialty_class: int,
                 accuracy: float = 1.0, behavior: str = "random_onehot", seed: int = 0):
        if not (0.0 <= accuracy <= 1.0):
            raise ExpertError("accuracy must lie in [0, 1]")
        if behavior not in ("random_onehot", "uniform"):
            raise ExpertError(f"unknown off-specialty behavior: {behavior}")
        if not (0 <= specialty_class < num_classes):
            raise ExpertError("specialty class out of range")
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


def predict_batch(expert, meshes: list, seeds: list) -> list:
    """Each mesh's prediction, in input order; mesh i draws from `seeds[i]`.

    A walk-RNN runs once per walk length over the stacked walks, through
    `walk_softmax_rows` as the gate does; other experts mesh by mesh.
    """
    if len(meshes) != len(seeds):
        raise ExpertError(f"{len(meshes)} meshes but {len(seeds)} seeds")
    if not isinstance(expert, WalkRnnExpert):
        return [expert.predict(mesh, seed) for mesh, seed in zip(meshes, seeds)]

    def run(walks):
        h = layers.gru_forward(Tensor(walks), expert.params, "gru", expert.hidden)
        return layers.linear(h, expert.params["head.w"], expert.params["head.b"])

    features = [walk_features(mesh, extract_walks(mesh, expert.walk_count, seed))
                for mesh, seed in zip(meshes, seeds)]
    return walk_softmax_rows(features, run)


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
        specialty = int(parts[1])
        accuracy = float(parts[2]) if len(parts) > 2 else 1.0
        behavior = parts[3] if len(parts) > 3 else "random_onehot"
        return OracleExpert(name, num_classes, specialty, accuracy, behavior, seed=seed)
    raise ExpertError(f"unknown expert spec: {spec}")


def build_experts(specs: list, num_classes: int, seed: int, hidden: int = 32) -> list:
    """Instantiate the pool with unique names (spec + position)."""
    experts = []
    for idx, spec in enumerate(specs):
        base = spec.replace(":", "_").replace(".", "")
        experts.append(make_expert(spec, f"{base}_{idx}", num_classes,
                                   derive(seed, "expert", idx), hidden=hidden))
    return experts


def expert_loss(expert, mesh: Mesh, seed: int) -> Tensor:
    """Supervised loss for one mesh: CE on the class or mean CE over edges."""
    pred = expert.predict(mesh, seed)
    labels, target = (("edge labels", mesh.edge_labels) if pred.ndim == 2
                      else ("class label", mesh.class_label))
    if target is None:
        raise ExpertError(f"{mesh.mesh_id}: no {labels}")
    return ad.tmean(layers.cross_entropy(pred, target))


def train_expert_supervised(expert, meshes: list, epochs: int = 10,
                            batch_size: int = 8, lr: float = 1e-3,
                            seed: int = 0) -> list:
    """Plain supervised pre-training; returns per-epoch mean losses."""
    if not expert.trainable:
        raise ExpertError(f"{expert.name} is not trainable")

    def batch_loss(batch, epoch):
        return ad.tmean(ad.stack([
            expert_loss(expert, mesh, derive(seed, "walks", epoch, mesh.mesh_id))
            for mesh in batch]))

    return fit(expert.params, meshes, batch_loss, epochs, batch_size, lr, seed)


def expert_parameters(experts: list) -> dict:
    """Every trainable expert tensor, named expert.<name>.<key>."""
    return {f"expert.{expert.name}.{key}": tensor
            for expert in experts if expert.params is not None
            for key, tensor in expert.params.items()}
