"""Random walks over mesh vertices.

A walk visits L = max(2, ceil(0.4 * V)) distinct vertices.  From the
current vertex it steps uniformly to an unvisited neighbor; when none
exists it restarts at a uniformly chosen unvisited vertex anywhere on the
mesh and that position is flagged as a jump.  Position 0 is the start,
never flagged.  A walk holds vertex indices and jump flags; its features
are the (L, 3) mesh coordinates plus the jump flag as a fourth channel.

Walk k of a mesh drawn under `seed` reads the stream
Rng(derive(seed, "walk", k)): word 0 picks the start and word t the
vertex at position t, an n-way pick being (word * n) >> 64 over the
candidates in increasing vertex order (a vertex's sorted neighbors, or at
a jump every unvisited vertex).

`walk_batch` steps every walk of a batch of meshes together, one lane per
walk.  Lanes are ordered by walk length, longest first, so the lanes still
walking at step t are a prefix.  Each step gathers every lane's neighbors
from one (sum V, max degree) table, masks the visited ones in the lane's
own (max V + 1) row and takes the picked one by a running count.  A lane
with no unvisited neighbor has exactly V - t unvisited vertices at step t,
and picks among them by the same count over its visited row.
`extract_walks` is the one-mesh case.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import blamed
from .mesh import Mesh
from .rng import derive_range, stream_words

WALK_CHANNELS = 4  # xyz + jump flag, as `_features` builds them

# Mesh -> its padded neighbor table; building the tables on every call made
# a train_experts benchmark step about 4 % slower (2-core x86-64, one thread)
_neighbor_tables = weakref.WeakKeyDictionary()


class WalkError(ValueError):
    pass


def walk_length(vertex_count: int) -> int:
    """L = max(2, ceil(0.4 * V)); a walk needs at least an edge's worth."""
    if vertex_count < 2:
        raise WalkError("mesh too small to walk (needs >= 2 vertices)")
    return max(2, -((-4 * vertex_count) // 10))


@dataclass
class Walk:
    vertex_indices: list
    jump_flags: list            # bool per position, [0] always False

    def __len__(self) -> int:
        return len(self.vertex_indices)


def pick_below(hi: np.ndarray, lo: np.ndarray, n) -> np.ndarray:
    """(word * n) >> 64 per uint64 word, given as its 32-bit halves `hi` and
    `lo`; exact for 1 <= n <= 2**32.

    word * n = (hi * n + (lo * n >> 32)) * 2**32 plus a remainder below
    2**32, and no partial sum overflows 64 bits.
    """
    n = np.asarray(n).astype(np.uint64, copy=False)
    return (hi * n + ((lo * n) >> 32)) >> 32


def _neighbor_table(mesh: Mesh) -> np.ndarray:
    """(V, max degree) int64 sorted neighbor rows padded with -1, made once per mesh."""
    table = _neighbor_tables.get(mesh)
    if table is None:
        table = np.full((mesh.vertex_count, max(map(len, mesh.adjacency), default=0)),
                        -1, dtype=np.int64)
        for v, neighbors in enumerate(mesh.adjacency):
            table[v, :len(neighbors)] = neighbors
        _neighbor_tables[mesh] = table
    return table


def _walk_lanes(meshes: list, count: int, seeds: list) -> list:
    """Each mesh's (W, L) int64 vertex indices and (W, L) bool jump flags."""
    if count < 1:
        raise blamed(WalkError(f"count must be >= 1, got {count}"), "count")
    if len(meshes) != len(seeds):
        raise WalkError(f"{len(meshes)} meshes but {len(seeds)} seeds")
    if not meshes:
        return []
    lengths = [walk_length(mesh.vertex_count) for mesh in meshes]
    order = sorted(range(len(meshes)), key=lambda i: -lengths[i])
    tables = [_neighbor_table(meshes[i]) for i in order]
    sizes = np.array([len(table) for table in tables])
    lanes, longest, width = count * len(meshes), lengths[order[0]], sizes.max() + 1
    # one neighbor table for the batch, at least one column wide; a lane's row
    # is its mesh's offset plus its vertex
    neighbors = np.full((sizes.sum(), max(1, *(t.shape[1] for t in tables))), -1, np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for offset, table in zip(offsets, tables):
        neighbors[offset:offset + len(table), :table.shape[1]] = table
    offsets, sizes = np.repeat(offsets, count), np.repeat(sizes, count)
    # lanes still walking at step t: every lane of a mesh whose L exceeds t
    walking = count * np.searchsorted(-np.array([lengths[i] for i in order]),
                                      -np.arange(longest), side="left")
    words = stream_words(derive_range([(seeds[i], "walk") for i in order], count).ravel(),
                         longest)
    hi, lo = words >> 32, words & 0xFFFFFFFF
    # a lane jumping at step t picks among its V - t unvisited vertices (the
    # entries past a lane's own length are never read)
    jumps = pick_below(hi, lo, sizes - np.arange(longest)[:, None])
    # only a lane's own vertices start free; a -1 pad reads the previous row's
    # last column, `width - 1`, which is never free (lane 0 reads the last lane's)
    free = np.arange(width) < sizes[:, None]
    flat = free.reshape(-1)
    bases = np.arange(lanes) * width
    picks = np.arange(lanes) * neighbors.shape[1]
    indices = np.zeros((longest, lanes), np.int64)
    flags = np.zeros((longest, lanes), bool)
    indices[0] = jumps[0]          # the start: every vertex is free, so the k-th is k
    flat[bases + indices[0]] = False
    for t in range(1, longest):
        n = walking[t]
        around = neighbors[offsets[:n] + indices[t - 1, :n]]
        ranks = flat[bases[:n, None] + around].cumsum(axis=1, dtype=np.uint64)
        left = ranks[:, -1]
        k = pick_below(hi[t, :n], lo[t, :n], left)
        step = around.reshape(-1)[picks[:n] + (ranks > k[:, None]).argmax(axis=1)]
        if not left.all():
            stuck = (left == 0).nonzero()[0]
            ranks = free[stuck].cumsum(axis=1, dtype=np.uint64)
            step[stuck] = (ranks > jumps[t, stuck, None]).argmax(axis=1)
            flags[t, stuck] = True
        indices[t, :n] = step
        flat[bases[:n] + step] = False
    rows = [None] * len(meshes)
    for lane, i in zip(range(0, lanes, count), order):
        rows[i] = (indices[:lengths[i], lane:lane + count].T,
                   flags[:lengths[i], lane:lane + count].T)
    return rows


def _features(mesh: Mesh, indices, flags) -> np.ndarray:
    """(W, L, WALK_CHANNELS): the coordinates of each visited vertex, then its jump flag."""
    indices = np.asarray(indices)
    features = np.empty(indices.shape + (WALK_CHANNELS,))
    features[..., :3] = mesh.vertices[indices]
    features[..., 3] = flags
    return features


def walk_batch(meshes: list, count: int, seeds: list) -> list:
    """(count, L, WALK_CHANNELS) walk features of each mesh, in input order;
    mesh i draws its walks from `seeds[i]`, as `extract_walks` would."""
    return [_features(mesh, *lanes)
            for mesh, lanes in zip(meshes, _walk_lanes(meshes, count, seeds))]


def extract_walks(mesh: Mesh, count: int, seed: int) -> list:
    """`count` independent walks, each on its own derived stream."""
    indices, flags = _walk_lanes([mesh], count, [seed])[0]
    return [Walk(i, f) for i, f in zip(indices.tolist(), flags.tolist())]


def walk_softmax_rows(features: list, run) -> list:
    """Softmax of walk-averaged logits, one (K,) row per mesh, in input order.

    `features` holds each mesh's (W, L, 4) walk features, the same W for
    every mesh.  Meshes are grouped by walk length: the walks of every mesh
    with the same L are stacked into one (n * W, L, 4) array, so no padding
    or mask is needed, and `run` maps it to (n * W, K) logits.  The walk
    mean's float64 1/W scale promotes float32 logits, so the softmax rows
    are float64 whatever dtype `run` computes in.
    """
    groups = {}
    for index, walks in enumerate(features):
        groups.setdefault(walks.shape[1], []).append(index)
    rows = [None] * len(features)
    for members in groups.values():
        logits = run(np.concatenate([features[i] for i in members]))
        logits = ad.reshape(logits, (len(members), len(features[members[0]]), -1))
        weights = ad.softmax(ad.tmean(logits, axis=1))
        for k, index in enumerate(members):
            rows[index] = ad.slice_index(weights, 0, k)
    return rows
