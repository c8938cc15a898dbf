"""Transition datasets and their JSONL serialization.

File layout: a header object on the first line, then one object per
transition::

    {"env_id": "parking2", "n": 24, "n_u": 4, "seed": 7, "count": 20000}
    {"x": [...], "u": [...], "xn": [...]}
    ...

Floats are written with 17 significant digits, which round-trips float64
exactly, so ``read(write(d)) == d`` bit-for-bit and re-serializing produces
identical bytes.  The writer formats each state once: where ``x[i + 1]`` is
bit-equal to ``x_next[i]``, as inside an episode, it reuses that text.  The
reader scans a line in the writer's layout once, decoding its lists in turn
and checking the text between them; where the ``x`` list is the text of the
previous scanned row's ``xn`` list, it copies that parsed row instead, and
it stores the scanned rows' numbers a block of rows at a time.  Any
other line (other key order or spacing, extra keys) is decoded as a whole by
the general JSON decoder, with the same result.  The reader rejects records
holding anything but lists of numbers (strings, ``true``, ``null``, ``NaN``,
...), numbers beyond the float64 range and bytes that are not UTF-8, with the
file and line; of several faults it names the first line in file order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
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
        for attr, name, width in (("x", "x", self.n), ("u", "u", self.n_u),
                                  ("x_next", "xn", self.n)):
            arr = np.asarray(getattr(self, attr), dtype=np.float64)
            if arr.size and arr.shape[-1:] != (width,):
                raise DatasetFormatError(
                    f"dataset field '{name}' has shape {arr.shape}, expected rows of {width}"
                )
            if not np.isfinite(arr).all():
                raise DatasetFormatError(f"dataset field '{name}' contains non-finite values")
            setattr(self, attr, arr.reshape(-1, width))
        if not (len(self.x) == len(self.u) == len(self.x_next)):
            raise DatasetFormatError("x, u, x_next must have equal lengths")

    def __len__(self) -> int:
        return len(self.x)

    def content_hash(self) -> int:
        """64-bit hash of metadata plus the exact float contents."""
        h = hashlib.sha256()
        h.update(self.env_id.encode())
        for v in (self.n, self.n_u, self.seed, len(self)):
            h.update(int(v).to_bytes(8, "little", signed=True))
        for arr in (self.x, self.u, self.x_next):
            h.update(np.ascontiguousarray(arr, dtype="<f8").data)
        return int.from_bytes(h.digest()[:8], "little")


# Rows the writer converts to Python floats, and the reader from them, at a
# time: larger blocks gained little and held more memory.
_BLOCK_ROWS = 256

# The writer's record layout: the text before, between and after its three
# number lists.  The reader scans a line of exactly this form; any other line
# goes through the general JSON decoder.
_X_OPEN = '{"x": '
_U_SEP = ', "u": '
_XN_SEP = ', "xn": '
_CLOSE = "}\n"


def write_jsonl(path, dataset: TransitionDataset) -> None:
    header = {"env_id": dataset.env_id, "n": dataset.n, "n_u": dataset.n_u,
              "seed": dataset.seed, "count": len(dataset)}
    # "%.17g" of a Python float is the same text as f"{v:.17g}".
    state_fmt = "[" + ", ".join(["%.17g"] * dataset.n) + "]"
    row_fmt = (_X_OPEN + "%s" + _U_SEP + "[" + ", ".join(["%.17g"] * dataset.n_u) + "]"
               + _XN_SEP + "%s" + _CLOSE)
    x, u, xn = dataset.x, dataset.u, dataset.x_next
    # Inside an episode x[i] is bit-equal to x_next[i - 1]; such a row reuses
    # that text.  Comparing bits keeps -0.0 and 0.0 apart.
    chained = np.zeros(len(dataset), dtype=bool)
    chained[1:] = (x[1:].view(np.uint64) == xn[:-1].view(np.uint64)).all(axis=1)
    xn_text = ""
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(dataset), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            for xi, ui, xni, reuse in zip(x[block].tolist(), u[block].tolist(),
                                          xn[block].tolist(), chained[block].tolist()):
                x_text = xn_text if reuse else state_fmt % tuple(xi)
                xn_text = state_fmt % tuple(xni)
                f.write(row_fmt % (x_text, *ui, xn_text))


# parse_int=float keeps the sign of a zero written as "-0".
_RECORD_DECODER = json.JSONDecoder(parse_int=float)


def _check_utf8(path, lineno, line) -> None:
    # The file is opened with errors="surrogateescape", so each byte that is
    # not valid UTF-8 arrives as a lone surrogate, which cannot be encoded.
    try:
        line.encode()
    except UnicodeEncodeError as e:
        byte = ord(line[e.start]) - 0xDC00
        raise DatasetFormatError(
            f"{path}: line {lineno}: not valid UTF-8 (byte 0x{byte:02x})"
        ) from None


def _scan(line, chain, scan_once):
    """The x, u and x_next lists of a line in the writer's layout, and the text
    of its x_next list; x is None where its text is ``chain``.  Raises
    StopIteration or ValueError where the line departs from the layout or a
    list holds a quote, which only a string has."""
    if chain is not None and line.startswith(chain, len(_X_OPEN)):
        x, end = None, len(_X_OPEN) + len(chain)
    else:
        x, end = scan_once(line, len(_X_OPEN))
        if line.find('"', len(_X_OPEN), end) >= 0:
            raise ValueError
    if not line.startswith(_U_SEP, end):
        raise ValueError
    start = end + len(_U_SEP)
    u, end = scan_once(line, start)
    if not line.startswith(_XN_SEP, end) or line.find('"', start, end) >= 0:
        raise ValueError
    start = end + len(_XN_SEP)
    xn, end = scan_once(line, start)
    text = line[start:end]
    if line[end:] != _CLOSE or '"' in text:
        raise ValueError
    return x, u, xn, text


def _floats(lists, width):
    """Lists of ``width`` Python floats as one (len(lists), width) array."""
    return np.fromiter(itertools.chain.from_iterable(lists), np.float64,
                       len(lists) * width).reshape(len(lists), width)


def _decode_record(path, lineno, line, n, n_u, decode):
    """The x, u and x_next lists of a line decoded as a whole JSON object;
    raises DatasetFormatError saying what is wrong with the record."""
    if not line.isascii():
        _check_utf8(path, lineno, line)
    try:
        if "t" in line or "a" in line or "l" in line:
            for token in ("true", "false", "null", "NaN", "Infinity"):
                if token in line:
                    raise ValueError(f"non-number token {token!r}")
        obj = decode(line)
        x, u, xn = obj["x"], obj["u"], obj["xn"]
        if len(x) != n or len(xn) != n or len(u) != n_u:
            raise DatasetFormatError(
                f"{path}: line {lineno}: dimensions do not match header (n={n}, n_u={n_u})"
            )
        for name, values in (("x", x), ("u", u), ("xn", xn)):
            if set(map(type, values)) != {float}:
                raise ValueError(f"'{name}' must be a list of numbers")
            # A number beyond the float64 range parses as an infinity.
            if not all(map(math.isfinite, values)):
                raise ValueError(f"'{name}' holds a non-finite value; numbers must lie "
                                 "within the float64 range")
    except DatasetFormatError:
        raise
    # ValueError covers JSONDecodeError; RecursionError is a list nested
    # deeper than the decoder follows.
    except (KeyError, RecursionError, TypeError, ValueError) as e:
        raise DatasetFormatError(f"{path}: line {lineno}: malformed record: {e}") from e
    return x, u, xn


def read_jsonl(path) -> TransitionDataset:
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        header_line = f.readline()
        if not header_line.strip():
            raise DatasetFormatError(f"{path}: missing header line")
        _check_utf8(path, 1, header_line)
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
        # scan_once is raw_decode without its Python frame: it returns (value,
        # end) or raises StopIteration where no value starts.
        decode, scan_once = _RECORD_DECODER.decode, _RECORD_DECODER.scan_once
        rows = 0
        chain = None  # the previous row's x_next list text, if that row was scanned
        # Scanned rows not yet stored, the last rows read: (lineno, line, x, u,
        # xn), x None where the row's x is the previous row's x_next.
        pending = []

        def store_pending():
            # One conversion and one finiteness check per field for the whole
            # block.  A block that fails holds a non-number, or a number beyond
            # the float64 range (parsed as an infinity); _decode_record rejects
            # both, so its rows are decoded whole in turn and the first bad one
            # reports what is wrong with it.
            start = rows - len(pending)
            chained = np.array([row[2] is None for row in pending], dtype=bool)
            try:
                xns[start:rows] = _floats([row[4] for row in pending], n)
                us[start:rows] = _floats([row[3] for row in pending], n_u)
                xs[start:rows][~chained] = _floats([row[2] for row in pending
                                                    if row[2] is not None], n)
                chained_rows = start + np.flatnonzero(chained)
                xs[chained_rows] = xns[chained_rows - 1]
                if not all(np.isfinite(a[start:rows]).all() for a in (xs, us, xns)):
                    raise ValueError
            except (RecursionError, TypeError, ValueError):
                for lineno, line, *_ in pending:
                    _decode_record(path, lineno, line, n, n_u, decode)
                raise
            pending.clear()

        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            if rows >= count:
                store_pending()
                raise DatasetFormatError(
                    f"{path}: line {lineno}: more data lines than header count {count}"
                )
            # A line in the writer's layout is scanned; where its x list is the
            # previous row's x_next text, it is that parsed row, since identical
            # text parses to identical bits.  A valid record holds no "t", "a"
            # or "l"; each JSON literal and constant (true, null, NaN, ...) has
            # one and would otherwise read as a float.
            text = None
            if line.startswith(_X_OPEN) and not ("t" in line or "a" in line or "l" in line):
                try:
                    x, u, xn, text = _scan(line, chain, scan_once)
                    if (x is not None and len(x) != n) or len(u) != n_u or len(xn) != n:
                        raise ValueError
                    pending.append((lineno, line, x, u, xn))
                except (RecursionError, StopIteration, TypeError, ValueError):
                    text = None
            if text is None:
                # Any other line is decoded whole and reports what is wrong.
                store_pending()
                xs[rows], us[rows], xns[rows] = _decode_record(path, lineno, line, n, n_u,
                                                               decode)
            chain = text
            rows += 1
            if len(pending) == _BLOCK_ROWS:
                store_pending()
        store_pending()
        if rows != count:
            raise DatasetFormatError(
                f"{path}: header count {count} does not match {rows} data lines"
            )
    return TransitionDataset(
        env_id=header["env_id"], n=n, n_u=n_u, seed=header["seed"],
        x=xs, u=us, x_next=xns,
    )
