"""Counter-based deterministic RNG used for every sampling decision.

splitmix64: the k-th state is seed + k * GOLDEN (mod 2**64) and the k-th
output is a fixed xorshift-multiply finalizer of that state.  Because the
stream is a pure function of (seed, counter), array fills vectorize in
numpy without changing the sequence, and tests can enumerate every branch
a sampler can take by sweeping seeds.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """Finalizer: avalanche a 64-bit state into an output word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def derive(*keys) -> int:
    """Fold ints and strings into a child seed, order sensitive.

    Strings are FNV-1a hashed first so mesh ids and tags can key streams.
    """
    h = _FNV_OFFSET
    for key in keys:
        if isinstance(key, str):
            k = _FNV_OFFSET
            for byte in key.encode("utf-8"):
                k = ((k ^ byte) * _FNV_PRIME) & MASK64
            key = k
        elif not isinstance(key, (int, np.integer)):
            raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")
        h = mix64((h ^ (int(key) & MASK64)) * _FNV_PRIME)
    return h


def _mix64_rows(z: np.ndarray) -> np.ndarray:
    """`mix64` of every word of a uint64 array, in place; returns `z`."""
    z ^= z >> 30
    z *= _M1
    z ^= z >> 27
    z *= _M2
    z ^= z >> 31
    return z


def derive_range(keys: list, count: int) -> np.ndarray:
    """(len(keys), count) uint64: word [i, k] is derive(*keys[i], k).

    Only the last fold reads k, so every k comes from one vector pass.
    """
    z = np.array([derive(*key) for key in keys], np.uint64)[:, None]
    z = z ^ np.arange(count, dtype=np.uint64)
    z *= _FNV_PRIME
    return _mix64_rows(z)


def stream_words(seeds: np.ndarray, n: int) -> np.ndarray:
    """(n, len(seeds)) uint64: column i holds Rng(seeds[i]).fill_u64(n)."""
    z = np.arange(1, n + 1, dtype=np.uint64)[:, None] * np.uint64(GOLDEN)
    return _mix64_rows(z + np.asarray(seeds, dtype=np.uint64))


class Rng:
    """Stateful view over the counter stream starting at `seed`."""

    __slots__ = ("seed", "count")

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self.count = 0

    def next_u64(self) -> int:
        self.count += 1
        return mix64(self.seed + self.count * GOLDEN)

    def fill_u64(self, n: int) -> np.ndarray:
        # same words next_u64 would produce, computed in one vector pass
        z = np.arange(self.count + 1, self.count + n + 1, dtype=np.uint64)
        self.count += n
        z *= GOLDEN
        z += self.seed
        return _mix64_rows(z)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + u * (hi - lo)

    def uniform_fill(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        u = (self.fill_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + u.reshape(shape) * (hi - lo)

    def normal(self) -> float:
        return float(self.normal_fill((1,))[0])

    def normal_fill(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        # Box-Muller on uniform pairs; the sine partner is discarded so the
        # consumed counter range stays exactly 2 words per sample.
        n = int(np.prod(shape)) if shape else 1
        u = (self.fill_u64(2 * n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        u1 = np.maximum(u[:n], 2.0**-53)
        u2 = u[n:]
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return (mu + sigma * z).reshape(shape)

    def randbelow(self, n: int) -> int:
        """Uniform int in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        # Fisher-Yates, in place
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
