"""Transition datasets and their JSONL serialization.

File layout: a header object on the first line, then one object per
transition::

    {"env_id": "parking2", "n": 24, "n_u": 4, "seed": 7, "count": 20000}
    {"x": [...], "u": [...], "xn": [...]}
    ...

Floats are written with 17 significant digits, which round-trips float64
exactly, so ``read(write(d)) == d`` bit-for-bit and re-serializing produces
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


class DatasetFormatError(ValueError):
    """Raised for malformed or inconsistent dataset files."""


@dataclass
class TransitionDataset:
    """Ordered transitions (x, u, x_next) with environment metadata."""

    env_id: str
    n: int
    n_u: int
    seed: int
    x: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    u: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    x_next: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64).reshape(-1, self.n)
        self.u = np.asarray(self.u, dtype=np.float64).reshape(-1, self.n_u)
        self.x_next = np.asarray(self.x_next, dtype=np.float64).reshape(-1, self.n)
        if not (len(self.x) == len(self.u) == len(self.x_next)):
            raise DatasetFormatError("x, u, x_next must have equal lengths")
        for name, arr in (("x", self.x), ("u", self.u), ("xn", self.x_next)):
            if not np.isfinite(arr).all():
                raise DatasetFormatError(f"dataset field '{name}' contains non-finite values")

    def __len__(self) -> int:
        return len(self.x)

    def triples(self):
        """Iterate (x, u, x_next) rows."""
        for i in range(len(self)):
            yield self.x[i], self.u[i], self.x_next[i]

    def content_hash(self) -> int:
        """64-bit hash of metadata plus the exact float contents."""
        h = hashlib.sha256()
        h.update(self.env_id.encode())
        for v in (self.n, self.n_u, self.seed, len(self)):
            h.update(int(v).to_bytes(8, "little", signed=True))
        for arr in (self.x, self.u, self.x_next):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return int.from_bytes(h.digest()[:8], "little")


def _fmt_floats(values) -> str:
    return "[" + ", ".join(f"{v:.17g}" for v in values) + "]"


def write_jsonl(path, dataset: TransitionDataset) -> None:
    header = {
        "env_id": dataset.env_id,
        "n": dataset.n,
        "n_u": dataset.n_u,
        "seed": dataset.seed,
        "count": len(dataset),
    }
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for x, u, xn in dataset.triples():
            f.write(
                f'{{"x": {_fmt_floats(x)}, "u": {_fmt_floats(u)}, "xn": {_fmt_floats(xn)}}}\n'
            )


def read_jsonl(path) -> TransitionDataset:
    with open(path) as f:
        header_line = f.readline()
        if not header_line.strip():
            raise DatasetFormatError(f"{path}: missing header line")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"{path}: line 1: invalid header: {e}") from e
        if not isinstance(header, dict):
            raise DatasetFormatError(f"{path}: line 1: header is not a JSON object")
        for key in ("env_id", "n", "n_u", "seed", "count"):
            if key not in header:
                raise DatasetFormatError(f"{path}: line 1: header missing field '{key}'")
        for key, low in (("n", 1), ("n_u", 1), ("count", 0), ("seed", None)):
            value = header[key]
            if type(value) is not int or (low is not None and value < low):
                bound = "" if low is None else f" >= {low}"
                raise DatasetFormatError(
                    f"{path}: line 1: header field '{key}' must be an integer{bound}, "
                    f"got {value!r}"
                )
        if type(header["env_id"]) is not str:
            raise DatasetFormatError(
                f"{path}: line 1: header field 'env_id' must be a string, "
                f"got {header['env_id']!r}"
            )
        n, n_u, count = header["n"], header["n_u"], header["count"]
        xs = np.empty((count, n))
        us = np.empty((count, n_u))
        xns = np.empty((count, n))
        rows = 0
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            if rows >= count:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: more data lines than header count {count}"
                )
            try:
                obj = json.loads(line)
                x, u, xn = obj["x"], obj["u"], obj["xn"]
                if len(x) != n or len(xn) != n or len(u) != n_u:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: dimensions do not match header "
                        f"(n={n}, n_u={n_u})"
                    )
                xs[rows], us[rows], xns[rows] = x, u, xn
            except DatasetFormatError:
                raise
            except (KeyError, TypeError, ValueError) as e:  # ValueError covers JSONDecodeError
                raise DatasetFormatError(f"{path}: line {lineno}: malformed record: {e}") from e
            rows += 1
        if rows != count:
            raise DatasetFormatError(
                f"{path}: header count {count} does not match {rows} data lines"
            )
    return TransitionDataset(
        env_id=header["env_id"], n=n, n_u=n_u, seed=header["seed"],
        x=xs, u=us, x_next=xns,
    )
