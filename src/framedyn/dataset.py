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
reader decodes each state once in turn: a line in the writer's layout whose
``x`` text is identical to the previous row's ``xn`` text copies that parsed
row and decodes only its ``u`` and ``xn`` lists.  The files are unchanged; any
other line, in this layout or another (other key order or spacing, extra
keys), is decoded as a whole by the general JSON decoder, as before, with the
same result.  The reader rejects records holding anything but numbers
(``true``, ``null``, ``NaN``, ...), numbers beyond the float64 range and bytes
that are not UTF-8, with the file and line.
"""

from __future__ import annotations

import bisect
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
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return int.from_bytes(h.digest()[:8], "little")


# Rows converted to Python floats at a time: larger blocks gained little and
# held more memory.
_BLOCK_ROWS = 256

# The writer's record layout around its three number lists.  The reader cuts
# a chained row of exactly this form into its lists; any other row goes through
# the general JSON decoder.
_X_OPEN = '{"x": ['
_U_SEP = '], "u": ['
_XN_SEP = '], "xn": ['
_CLOSE = "]}\n"


def write_jsonl(path, dataset: TransitionDataset) -> None:
    header = {"env_id": dataset.env_id, "n": dataset.n, "n_u": dataset.n_u,
              "seed": dataset.seed, "count": len(dataset)}
    # "%.17g" of a Python float is the same text as f"{v:.17g}".
    state_fmt = ", ".join(["%.17g"] * dataset.n)
    row_fmt = (_X_OPEN + "%s" + _U_SEP + ", ".join(["%.17g"] * dataset.n_u)
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


def _x_next_text(line):
    # For a decoded record line whose last quote closes the key of an _XN_SEP:
    # the text from there to _CLOSE holds no later key, and if it holds no
    # brace either, it is the body of the top-level object's last "xn" list.
    start = line.rfind('"') + len('": [')
    text = line[start:-len(_CLOSE)]
    if line.startswith(_XN_SEP, start - len(_XN_SEP)) and line.endswith(_CLOSE) and "}" not in text:
        return text
    return None


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
        decode, raw_decode = _RECORD_DECODER.decode, _RECORD_DECODER.raw_decode
        rows = 0
        blank_before = []  # rows read before each blank line: the row-to-line map
        # The previous line, its x_next text once known, and where this line's
        # x text ends if it is that text.
        prev_line, prev_text, x_end = None, None, 0
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                blank_before.append(rows)
                continue
            if rows >= count:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: more data lines than header count {count}"
                )
            # A row whose x text is identical to the previous row's x_next text
            # copies that parsed row, since identical text parses to identical
            # bits; only its u and x_next lists are decoded.  A valid record has
            # no "t", "a" or "l"; each JSON literal and constant (true, null,
            # NaN, ...) has one and would otherwise read as a float.
            chained = False
            if (prev_line is not None and line.startswith(_U_SEP, x_end)
                    and line.startswith(_X_OPEN)):
                if prev_text is None:
                    prev_text = _x_next_text(prev_line)
                chained = (prev_text is not None and line.startswith(prev_text, len(_X_OPEN))
                           and line.endswith(_CLOSE)
                           and not ("t" in line or "a" in line or "l" in line))
            if chained:
                u_text, _, next_text = line[x_end + len(_U_SEP):-len(_CLOSE)].partition(_XN_SEP)
                u_list, xn_list = "[" + u_text + "]", "[" + next_text + "]"
                try:
                    (u, u_end), (xn, xn_end) = raw_decode(u_list), raw_decode(xn_list)
                    chained = (u_end == len(u_list) and xn_end == len(xn_list)
                               and len(u) == n_u and len(xn) == n)
                    if chained:
                        xs[rows], us[rows], xns[rows] = xns[rows - 1], u, xn
                except (TypeError, ValueError):
                    chained = False
            if chained:
                prev_text, x_end = next_text, len(_X_OPEN) + len(next_text)
            else:
                # Any other row is decoded as a whole and reports what is wrong.
                if not line.isascii():
                    _check_utf8(path, lineno, line)
                try:
                    if "t" in line or "a" in line or "l" in line:
                        for token in ("true", "false", "null", "NaN", "Infinity"):
                            if token in line:
                                raise ValueError(f"non-number token {token!r}")
                    # raw_decode skips decode's whitespace scans; a line that
                    # does not end right after its object gets decode's result
                    # or error.
                    try:
                        obj, end = raw_decode(line)
                    except ValueError:
                        end = None
                    if end is None or line[end:] != "\n":
                        obj = decode(line)
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
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: malformed record: {e}"
                    ) from e
                # The x_next text is found only when the next line has _U_SEP
                # where it would end.
                prev_text = None
                x_end = (len(_X_OPEN) + len(line) - len(_CLOSE)
                         - (line.rfind('"') + len('": [')))
            prev_line = line
            rows += 1
        if rows != count:
            raise DatasetFormatError(
                f"{path}: header count {count} does not match {rows} data lines"
            )
    # A number beyond the float64 range parses as an infinity.
    fields = (("x", xs), ("u", us), ("xn", xns))
    finite = np.logical_and.reduce([np.isfinite(arr).all(axis=1) for _, arr in fields])
    if not finite.all():
        row = int(np.argmin(finite))
        name = next(name for name, arr in fields if not np.isfinite(arr[row]).all())
        raise DatasetFormatError(
            f"{path}: line {row + 2 + bisect.bisect_right(blank_before, row)}: malformed "
            f"record: '{name}' holds a non-finite value; numbers must lie within the "
            f"float64 range"
        )
    return TransitionDataset(
        env_id=header["env_id"], n=n, n_u=n_u, seed=header["seed"],
        x=xs, u=us, x_next=xns,
    )
