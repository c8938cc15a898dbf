"""Deterministic pseudo-random number generation.

Every stochastic component of the package (weight init, data generation,
train/test splits, batch sampling) draws from the generator defined here so
that results are reproducible bit-for-bit from integer seeds, independent of
numpy's own generator evolution.  The scheme, precisely:

* Seed derivation / mixing uses the splitmix64 finalizer
  (``mix64``); string tags are folded in via the first 8 bytes of their
  SHA-256 digest, little-endian.
* Uniform values come from a bank of ``BANK_SIZE`` (1024) xorshift64*
  streams advanced in lockstep.  Stream ``j`` (``0 <= j < 1024``) starts at
  ``mix64(seed + j * 0x9E3779B97F4A7C15)`` (zero states are replaced by
  the golden-ratio constant).  Each advance applies
  ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and outputs
  ``x * 0x2545F4914F6CDD1D``.  Consumers take values from successive lockstep
  advances in stream order (a FIFO buffer), so the consumed sequence depends
  only on the seed and the cumulative number of values requested.
* A 64-bit value ``v`` maps to ``u = (v >> 11) * 2**-53`` in [0, 1), and
  ``scale(u, low, high) = u * (high - low) + low`` maps ``u`` to a value:
  ``uniform`` is ``scale(u, low, high)``, ``angles`` ``scale(u, pi, -pi)`` and
  ``integers(n)`` ``floor(scale(u, 0, n))`` (requires ``n < 2**53``).
* ``permutation(n)`` sorts ``n`` fresh 64-bit keys with a stable argsort.
* ``uniform_rows(seeds, count)`` draws the first ``count`` uniforms of many
  fresh generators in one pass: row ``e`` is bit-equal to
  ``Rng(seeds[e]).uniform(size=count)``.  Lane seeding and the lockstep
  advance are the same helpers ``Rng`` uses.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_XS_MULT = np.uint64(0x2545F4914F6CDD1D)
BANK_SIZE = 1024
ANGLE_RANGE = (np.pi, -np.pi)  # scale(u, *ANGLE_RANGE): angles in (-pi, pi]


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = (z + _GOLDEN) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


@functools.lru_cache(maxsize=1024)
def _tag_word(tag: str) -> int:
    """First 8 bytes of the SHA-256 of ``tag``, little-endian.  Cached: the
    package uses a few dozen distinct tags, some thousands of times a run."""
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")


def derive_seed(seed: int, *parts: int | str) -> int:
    """Derive a child seed from a parent seed and a sequence of tags.

    Integer tags are mixed in directly, string tags through SHA-256.  Used to
    give episodes, runs and substreams independent reproducible seeds.
    """
    s = mix64(seed & _MASK)
    for part in parts:
        if isinstance(part, str):
            part = _tag_word(part)
        s = mix64(s ^ (part & _MASK))
    return s


def _seed_lanes(seeds, lanes: int) -> np.ndarray:
    """Starting states of the first ``lanes`` streams of each seed:
    shape ``np.shape(seeds) + (lanes,)``."""
    j = np.arange(1, lanes + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.asarray(seeds, dtype=np.uint64)[..., None] + j * np.uint64(_GOLDEN)
        state ^= state >> np.uint64(30)
        state *= np.uint64(0xBF58476D1CE4E5B9)
        state ^= state >> np.uint64(27)
        state *= np.uint64(0x94D049BB133111EB)
        state ^= state >> np.uint64(31)
    state[state == 0] = np.uint64(_GOLDEN)
    return state


def _xorshift(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lockstep advance of the streams ``x``: (new states, outputs)."""
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(12))
        x = x ^ (x << np.uint64(25))
        x = x ^ (x >> np.uint64(27))
        return x, x * _XS_MULT


def _unit(values: np.ndarray) -> np.ndarray:
    """64-bit values to doubles in [0, 1); shifts ``values`` in place."""
    values >>= np.uint64(11)
    out = values.astype(np.float64)
    out *= 2.0**-53
    return out


def scale(units, low, high):
    """``units * (high - low) + low``: the one map from draws in [0, 1) to
    values, which every sampler in the package uses.  ``low`` and ``high``
    broadcast against ``units``, which is not modified."""
    out = units * (high - low)
    out += low
    return out


def uniform_rows(seeds, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for many fresh generators at once: row ``e``
    of the ``(len(seeds), count)`` result is bit-equal to
    ``Rng(seeds[e]).uniform(size=count)``.

    Only the first ``min(count, BANK_SIZE)`` lanes of each bank are seeded,
    and each lockstep round is written straight into its columns, so one
    call costs a few numpy operations per round instead of per generator.
    """
    state = _seed_lanes([s & _MASK for s in seeds], min(count, BANK_SIZE))
    out = np.empty((state.shape[0], count))
    for start in range(0, count, BANK_SIZE):
        # The last round advances only the lanes it reads.
        state, values = _xorshift(state[:, : count - start])
        out[:, start : start + values.shape[1]] = _unit(values)
    return out


class Rng:
    """Buffered bank of xorshift64* streams (see module docstring)."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = _seed_lanes(self.seed, BANK_SIZE)
        self._buffer = np.empty(0, dtype=np.uint64)
        self._cursor = 0

    def _advance(self) -> np.ndarray:
        self._state, values = _xorshift(self._state)
        return values

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

    def _draw(self, size, low, high):
        # ``scale`` of the next draws: a Python scalar when ``size`` is None,
        # else an array of shape ``size``.
        units = _unit(self.next_u64(1 if size is None else int(np.prod(size))))
        values = scale(units, low, high)
        return values[0].item() if size is None else values.reshape(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles in [low, high); scalar when ``size`` is None."""
        return self._draw(size, low, high)

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n); scalar when ``size`` is None."""
        if not 0 < n < 2**53:
            raise ValueError(f"integers() requires 0 < n < 2**53, got {n}")
        values = np.floor(self._draw(size, 0, n))
        return int(values) if size is None else values.astype(np.int64)

    def angles(self, size=None):
        """Uniform angles in (-pi, pi]."""
        return self._draw(size, *ANGLE_RANGE)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n) via 64-bit sort keys."""
        keys = self.next_u64(n)
        return np.argsort(keys, kind="stable")
