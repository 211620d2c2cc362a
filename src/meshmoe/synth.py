"""Deterministic synthetic mesh datasets.

Five parametric families (subdivided sphere, box, cylinder, torus, cone)
plus z-stretched variants give up to ten classes.  Per-instance jitter:
random rotation, anisotropic scale in [0.7, 1.3], vertex noise sigma 0.01,
then centroid/unit-radius normalization.  Everything is a pure function
of (parameters, seed) with per-mesh derived seeds.  Connectivity is
built once per family and shared, unmodified, by all of its instances.

Segmentation fixtures are cylinders cut into 2-4 axial bands.  Labels are
per edge, assigned on the canonical geometry before jitter so they survive
it, and the rotation part of the jitter is restricted to the cylinder axis:
the band structure must stay identifiable from per-edge geometry.
"""

import math
from dataclasses import replace

import numpy as np

from .checkpoint import blamed
from .mesh import Dataset, MeshError, build_mesh, normalize_coordinates, split_dataset
from .rng import Rng, derive


# --- parametric families -----------------------------------------------------

def icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


def icosphere(subdivisions: int = 1):
    """Subdivide each face 4-way and push vertices to the unit sphere."""
    verts, faces = icosahedron()
    verts = [v for v in verts]
    for _ in range(subdivisions):
        midpoint_cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = (verts[i] + verts[j]) / 2.0
                m = m / np.linalg.norm(m)
                verts.append(m)
                midpoint_cache[key] = len(verts) - 1
            return midpoint_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces, dtype=np.int64)
    return np.array(verts), faces


def box_grid(n: int = 2):
    """Cube surface triangulated as an n x n quad grid per side."""
    coords = {}
    verts = []

    def vid(p):
        key = (round(p[0], 9), round(p[1], 9), round(p[2], 9))
        if key not in coords:
            coords[key] = len(verts)
            verts.append(list(key))
        return coords[key]

    faces = []
    steps = np.linspace(-1.0, 1.0, n + 1)
    # each side is an axis held at +-1 with the other two axes gridded
    for axis in range(3):
        for sign in (-1.0, 1.0):
            for i in range(n):
                for j in range(n):
                    quad = []
                    for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        p = [0.0, 0.0, 0.0]
                        p[axis] = sign
                        p[(axis + 1) % 3] = steps[i + di]
                        p[(axis + 2) % 3] = steps[j + dj]
                        quad.append(vid(p))
                    a, b, c, d = quad
                    if sign > 0:
                        faces += [[a, b, c], [a, c, d]]
                    else:
                        faces += [[a, c, b], [a, d, c]]
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


def cylinder(segments: int = 12, rings: int = 4):
    """Closed cylinder along z in [-1, 1], radius 1, capped with fans."""
    verts = []
    for ring in range(rings):
        z = -1.0 + 2.0 * ring / (rings - 1)
        for k in range(segments):
            angle = 2.0 * math.pi * k / segments
            verts.append([math.cos(angle), math.sin(angle), z])
    bottom = len(verts)
    verts.append([0.0, 0.0, -1.0])
    top = len(verts)
    verts.append([0.0, 0.0, 1.0])

    faces = []
    for ring in range(rings - 1):
        for k in range(segments):
            a = ring * segments + k
            b = ring * segments + (k + 1) % segments
            c = a + segments
            d = b + segments
            faces += [[a, b, d], [a, d, c]]
    for k in range(segments):
        b = (k + 1) % segments
        faces.append([bottom, b, k])                                   # floor
        faces.append([top, (rings - 1) * segments + k,
                      (rings - 1) * segments + b])                     # roof
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


def cone(segments: int = 16):
    """Cone with one intermediate ring, apex up, fan-closed base."""
    verts = []
    for z, radius in ((-1.0, 1.0), (0.0, 0.5)):
        for k in range(segments):
            angle = 2.0 * math.pi * k / segments
            verts.append([radius * math.cos(angle), radius * math.sin(angle), z])
    apex = len(verts)
    verts.append([0.0, 0.0, 1.0])
    base = len(verts)
    verts.append([0.0, 0.0, -1.0])

    faces = []
    for k in range(segments):
        b = (k + 1) % segments
        faces += [[k, b, segments + b], [k, segments + b, segments + k]]
        faces.append([apex, segments + k, segments + b])
        faces.append([base, b, k])
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


def torus(major_segments: int = 10, minor_segments: int = 6,
          major_radius: float = 1.0, minor_radius: float = 0.4):
    verts = []
    for i in range(major_segments):
        u = 2.0 * math.pi * i / major_segments
        for j in range(minor_segments):
            v = 2.0 * math.pi * j / minor_segments
            r = major_radius + minor_radius * math.cos(v)
            verts.append([r * math.cos(u), r * math.sin(u), minor_radius * math.sin(v)])
    faces = []
    for i in range(major_segments):
        for j in range(minor_segments):
            a = i * minor_segments + j
            b = i * minor_segments + (j + 1) % minor_segments
            c = ((i + 1) % major_segments) * minor_segments + j
            d = ((i + 1) % major_segments) * minor_segments + (j + 1) % minor_segments
            faces += [[a, b, d], [a, d, c]]
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


_FAMILIES = (
    ("sphere", lambda: icosphere(1), 1.0),
    ("box", lambda: box_grid(2), 1.0),
    ("cylinder", lambda: cylinder(12, 4), 1.0),
    ("torus", lambda: torus(10, 6), 1.0),
    ("cone", lambda: cone(16), 1.0),
    ("sphere_tall", lambda: icosphere(1), 2.0),
    ("box_tall", lambda: box_grid(2), 2.0),
    ("cylinder_tall", lambda: cylinder(12, 4), 2.0),
    ("torus_tall", lambda: torus(10, 6), 2.0),
    ("cone_tall", lambda: cone(16), 2.0),
)

MAX_CLASSES = len(_FAMILIES)


# --- jitter --------------------------------------------------------------

def random_rotation(rng: Rng) -> np.ndarray:
    """Rotation matrix from a random unit quaternion."""
    q = rng.normal_fill((4,))
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def axial_rotation(rng: Rng) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def jitter_vertices(verts: np.ndarray, seed: int, axial_only: bool = False) -> np.ndarray:
    rng = Rng(seed)
    rotation = axial_rotation(rng) if axial_only else random_rotation(rng)
    scale = rng.uniform_fill((3,), 0.7, 1.3)
    noise = rng.normal_fill(verts.shape, 0.0, 0.01)
    return (verts * scale) @ rotation.T + noise


# --- datasets ------------------------------------------------------------

def generate_classification_set(classes: int, per_class: int, seed: int,
                                task: str = "classification") -> Dataset:
    """Balanced classed shapes with jitter; 80/20 per-class split.  A bad
    count raises MeshError with the argument's name as its `setting`."""
    if classes < 2:
        raise blamed(MeshError("need at least 2 classes"), "classes")
    if classes > MAX_CLASSES:
        raise blamed(MeshError(f"unsupported class count {classes} (max {MAX_CLASSES})"),
                     "classes")
    if per_class < 4:
        raise blamed(MeshError("need at least 4 meshes per class"), "per_class")
    meshes = []
    for cls in range(classes):
        family, builder, z_stretch = _FAMILIES[cls]
        base_verts, faces = builder()
        base = build_mesh(base_verts * np.array([1.0, 1.0, z_stretch]), faces,
                          mesh_id=family, class_label=cls)
        for inst in range(per_class):
            verts = jitter_vertices(base.vertices, derive(seed, "mesh", cls, inst))
            meshes.append(normalize_coordinates(replace(
                base, mesh_id=f"{family}_{cls:02d}_{inst:03d}", vertices=verts)))
    train_ids, test_ids = split_dataset(meshes, 0.8, seed=derive(seed, "split"))
    return Dataset(meshes=meshes, num_classes=classes, task=task,
                   train_ids=train_ids, test_ids=test_ids)


def segment_labels(verts: np.ndarray, edges: np.ndarray, num_segments: int):
    """(E,) axial band labels of the edges on canonical (pre-jitter) geometry.

    Bands split z in [-1, 1] evenly; an edge belongs to the band of its
    midpoint, and a midpoint exactly on a boundary takes the lower band.
    """
    # a label counts the cuts below z; the 1e-12 keeps exact hits low
    cuts = np.linspace(-1.0, 1.0, num_segments + 1)[1:-1] + 1e-12
    edge_z = verts[edges].mean(axis=1)[:, 2]
    return (edge_z[:, None] > cuts).sum(axis=1, dtype=np.int64)


def generate_segmentation_set(per_class: int, seed: int) -> Dataset:
    """Cylinders cut into 2-4 axial bands; labels assigned pre-jitter."""
    if per_class < 4:
        raise blamed(MeshError("need at least 4 meshes per segment count"), "per_class")
    meshes = []
    probe = build_mesh(*cylinder(12, 7), mesh_id="probe")
    for idx, num_segments in enumerate((2, 3, 4)):
        edge_labels = segment_labels(probe.vertices, probe.edges, num_segments)
        for inst in range(per_class):
            verts = jitter_vertices(probe.vertices, derive(seed, "seg", idx, inst),
                                    axial_only=True)
            meshes.append(normalize_coordinates(replace(
                probe, mesh_id=f"cyl{num_segments}seg_{idx:02d}_{inst:03d}",
                vertices=verts, class_label=idx, edge_labels=edge_labels)))
    train_ids, test_ids = split_dataset(meshes, 0.8, seed=derive(seed, "split"))
    return Dataset(meshes=meshes, num_classes=4, task="segmentation",
                   train_ids=train_ids, test_ids=test_ids)

