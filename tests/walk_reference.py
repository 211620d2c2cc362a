"""The per-walk walker that `meshmoe.walks` batches, and the features it
builds: the references its tests compare with, position by position in
plain Python.

`start` and `length` override the random start and the 40% length rule;
fixtures use them to pin down specific walks.
"""

import numpy as np

from meshmoe.mesh import Mesh
from meshmoe.rng import Rng, derive
from meshmoe.walks import Walk, WalkError, walk_length


def extract_walk(mesh: Mesh, seed: int, start: int | None = None,
                 length: int | None = None) -> Walk:
    """One walk; every sampling decision comes from Rng(seed)."""
    if length is None:
        length = walk_length(mesh.vertex_count)
    elif not (2 <= length <= mesh.vertex_count):
        raise WalkError(f"length {length} not in [2, {mesh.vertex_count}]")
    # draw k reads word k of the stream; (word * n) >> 64 is Rng.randbelow(n)
    words = Rng(seed).fill_u64(length).tolist()
    if start is None:
        start = (words.pop(0) * mesh.vertex_count) >> 64
    elif not (0 <= start < mesh.vertex_count):
        raise WalkError(f"start vertex {start} out of range")

    visited = bytearray(mesh.vertex_count)
    visited[start] = 1
    indices, flags = [start], [False]
    for word in words[:length - 1]:
        candidates = [v for v in mesh.adjacency[indices[-1]] if not visited[v]]
        flags.append(not candidates)
        if not candidates:
            candidates = [v for v, seen in enumerate(visited) if not seen]
        current = candidates[(word * len(candidates)) >> 64]
        visited[current] = 1
        indices.append(current)

    return Walk(vertex_indices=indices, jump_flags=flags)


def reference_walks(mesh: Mesh, count: int, seed: int) -> list:
    """`count` walks, walk k on Rng(derive(seed, "walk", k)), one at a time."""
    return [extract_walk(mesh, derive(seed, "walk", k)) for k in range(count)]


def walk_features(mesh: Mesh, walks: list) -> np.ndarray:
    """(W, L, WALK_CHANNELS) features of same-length walks: xyz plus jump flag."""
    lengths = {len(w) for w in walks}
    if len(lengths) != 1:
        raise WalkError(f"walks have mixed lengths: {sorted(lengths)}")
    return np.array([[[*mesh.vertices[v], flag] for v, flag in zip(w.vertex_indices, w.jump_flags)]
                     for w in walks], dtype=np.float64)
