"""Random walks over mesh vertices.

A walk visits L = max(2, ceil(0.4 * V)) distinct vertices.  From the
current vertex it steps uniformly to an unvisited neighbor; when none
exists it restarts at a uniformly chosen unvisited vertex anywhere on the
mesh and that position is flagged as a jump.  Position 0 is the start,
never flagged.  A walk holds vertex indices and jump flags; its features
are the (L, 3) mesh coordinates plus the jump flag as a fourth channel.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .rng import Rng, derive


class WalkError(ValueError):
    pass


def walk_length(vertex_count: int) -> int:
    """L = max(2, ceil(0.4 * V)); a walk needs at least an edge's worth."""
    if vertex_count < 2:
        raise WalkError("mesh too small to walk (needs >= 2 vertices)")
    length = max(2, -((-4 * vertex_count) // 10))
    return min(length, vertex_count)


@dataclass
class Walk:
    vertex_indices: list
    jump_flags: list            # bool per position, [0] always False

    def __len__(self) -> int:
        return len(self.vertex_indices)


def extract_walk(mesh: Mesh, seed: int, start: int | None = None,
                 length: int | None = None) -> Walk:
    """One walk; every sampling decision comes from Rng(seed).

    `start` and `length` override the random start and the 40% length
    rule; fixtures use them to pin down specific walks.
    """
    rng = Rng(seed)
    if length is None:
        length = walk_length(mesh.vertex_count)
    elif not (2 <= length <= mesh.vertex_count):
        raise WalkError(f"length {length} not in [2, {mesh.vertex_count}]")
    if start is None:
        start = rng.randbelow(mesh.vertex_count)
    elif not (0 <= start < mesh.vertex_count):
        raise WalkError(f"start vertex {start} out of range")

    visited = {start}
    indices = [start]
    flags = [False]
    current = start
    while len(indices) < length:
        candidates = [v for v in mesh.adjacency[current] if v not in visited]
        if candidates:
            current = candidates[rng.randbelow(len(candidates))]
            flags.append(False)
        else:
            unvisited = [v for v in range(mesh.vertex_count) if v not in visited]
            current = unvisited[rng.randbelow(len(unvisited))]
            flags.append(True)
        visited.add(current)
        indices.append(current)

    return Walk(vertex_indices=indices, jump_flags=flags)


def extract_walks(mesh: Mesh, count: int, seed: int) -> list:
    """`count` independent walks, each on its own derived stream."""
    if count < 1:
        raise WalkError("walk count must be >= 1")
    return [extract_walk(mesh, derive(seed, "walk", k)) for k in range(count)]


def walk_features(mesh: Mesh, walks: list) -> np.ndarray:
    """(W, L, 4) features of same-length walks on `mesh`: xyz plus jump flag."""
    lengths = {len(w) for w in walks}
    if len(lengths) != 1:
        raise WalkError(f"walks have mixed lengths: {sorted(lengths)}")
    flags = np.array([w.jump_flags for w in walks], dtype=np.float64)
    return np.dstack([mesh.vertices[np.array([w.vertex_indices for w in walks])], flags])
