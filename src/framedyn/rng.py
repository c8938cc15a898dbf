"""Deterministic pseudo-random number generation.

Every stochastic component of the package (weight init, data generation,
train/test splits, batch sampling) draws from the generator defined here so
that results are reproducible bit-for-bit from integer seeds, independent of
numpy's own generator evolution.  The scheme, precisely:

* Seed derivation / mixing uses the splitmix64 finalizer
  (``mix64``); string tags are folded in via the first 8 bytes of their
  SHA-256 digest, little-endian.
* Uniform values come from a bank of ``BANK_SIZE`` (1024) xorshift64*
  streams advanced in lockstep.  Stream ``j`` starts at
  ``mix64(seed + (j + 1) * 0x9E3779B97F4A7C15)`` (zero states are replaced by
  the golden-ratio constant).  Each advance applies
  ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and outputs
  ``x * 0x2545F4914F6CDD1D``.  Consumers take values from successive lockstep
  advances in stream order (a FIFO buffer), so the consumed sequence depends
  only on the seed and the cumulative number of values requested.
* A 64-bit value ``v`` maps to a double in [0, 1) as ``(v >> 11) * 2**-53``.
* ``integers(n)`` is ``floor(uniform() * n)`` (requires ``n < 2**53``).
* ``permutation(n)`` sorts ``n`` fresh 64-bit keys with a stable argsort.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_XS_MULT = np.uint64(0x2545F4914F6CDD1D)
BANK_SIZE = 1024


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def derive_seed(seed: int, *parts: int | str) -> int:
    """Derive a child seed from a parent seed and a sequence of tags.

    Integer tags are mixed in directly, string tags through SHA-256.  Used to
    give episodes, runs and substreams independent reproducible seeds.
    """
    s = mix64(seed & _MASK)
    for part in parts:
        if isinstance(part, str):
            part = int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "little")
        s = mix64(s ^ (part & _MASK))
    return s


class Rng:
    """Buffered bank of xorshift64* streams (see module docstring)."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        base = np.uint64(self.seed)
        j = np.arange(1, BANK_SIZE + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = base + j * np.uint64(_GOLDEN)
            state ^= state >> np.uint64(30)
            state *= np.uint64(0xBF58476D1CE4E5B9)
            state ^= state >> np.uint64(27)
            state *= np.uint64(0x94D049BB133111EB)
            state ^= state >> np.uint64(31)
        state[state == 0] = np.uint64(_GOLDEN)
        self._state = state
        self._buffer = np.empty(0, dtype=np.uint64)
        self._cursor = 0

    def _advance(self) -> np.ndarray:
        x = self._state
        with np.errstate(over="ignore"):
            x = x ^ (x >> np.uint64(12))
            x = x ^ (x << np.uint64(25))
            x = x ^ (x >> np.uint64(27))
            self._state = x
            return x * _XS_MULT

    def next_u64(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit values, in consumption order."""
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while filled < count:
            if self._cursor >= self._buffer.size:
                self._buffer = self._advance()
                self._cursor = 0
            take = min(count - filled, self._buffer.size - self._cursor)
            out[filled : filled + take] = self._buffer[self._cursor : self._cursor + take]
            self._cursor += take
            filled += take
        return out

    def _draw(self, size, transform):
        # ``transform`` of doubles in [0, 1) from the next 64-bit values:
        # a Python scalar when ``size`` is None, else an array of shape ``size``.
        count = 1 if size is None else int(np.prod(size))
        vals = transform((self.next_u64(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        return vals[0].item() if size is None else vals.reshape(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles in [low, high); scalar when ``size`` is None."""
        return self._draw(size, lambda u: low + u * (high - low))

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n); scalar when ``size`` is None."""
        if not 0 < n < 2**53:
            raise ValueError(f"integers() requires 0 < n < 2**53, got {n}")
        return self._draw(size, lambda u: np.floor(u * n).astype(np.int64))

    def angles(self, size=None):
        """Uniform angles in (-pi, pi]."""
        return self._draw(size, lambda u: np.pi - u * (2.0 * np.pi))

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n) via 64-bit sort keys."""
        keys = self.next_u64(n)
        return np.argsort(keys, kind="stable")

    def spawn(self, *parts: int | str) -> "Rng":
        """Independent child generator seeded by ``derive_seed``."""
        return Rng(derive_seed(self.seed, *parts))
