"""Training loop, metrics, and model persistence.

Each run encodes its train and test splits once, so every transition is
validated and framed a single time: the regression pairs (canonical
coordinates for the symmetry model, raw concatenation for the baseline) for
fitting with mean-squared error and Adam on the flat parameter vector, and
the decode context for metrics.  Reported metrics are always computed in the
original state coordinates by running the full one-step prediction, so
symmetry and baseline models are scored in the same space.  Splits are
encoded and scored in blocks of ``_EVAL_ROWS`` rows, bit-identical to one
pass, and keep no next states or error array of the split, so a run's memory
is the splits' arrays plus one block, of block size times hidden width.

Determinism contract: given the same dataset, model seed and config, the
metric sequence is bit-identical (wall times excepted).  Three independent
seeds drive the run: the regressor's init seed, the train/test split seed
(derived from the dataset content hash and ``config.seed`` unless pinned via
``config.split_seed``), and ``config.seed`` for batch sampling.  Batch
indices are drawn for ``_DRAW_UPDATES`` updates at a time, which consumes the
batch stream in the same order as one draw per update, whatever the block, so
the contract holds unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .builtin import get_group
from .dataset import TransitionDataset
from .groups import FrameSingularityError, TransformationGroup, singular_frame
from .mlp import Adam, Mlp, MlpSpec
from .models import MODES, BaselineModel, SymmetryReducedModel
from .rng import Rng, derive_seed

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
MODEL_FORMAT_VERSION = 1
METRICS_HEADER = "update,train_mse,test_mse,wall_time_s"
# Batch indices are drawn for at most this many updates in one Rng call: at
# batch 256 each of the draw's temporaries is 128 KB, whatever ``updates`` is.
_DRAW_UPDATES = 64
# Rows per block of a split's encode and of an evaluation's regressor forward:
# at width 128 a block's hidden activation is 0.5 MB, small enough for L2 cache.
_EVAL_ROWS = 512
# A run whose final test MSE exceeds this multiple of its update-0 test MSE
# ran away, and counts as diverged.  At lr 1, small parking2 grids (6x10 and
# 10x20 files, width 8, 20-40 updates) end at 0.03-12.5 times their start; at
# lr 1e60 finite runs reach 1e118-1e243 times it.
_RUNAWAY_RATIO = 100.0


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite or the run ran away; carries the metrics recorded so far."""

    def __init__(self, message, metrics):
        super().__init__(message)
        self.metrics = metrics


class ModelFormatError(ValueError):
    """Raised for unreadable or mismatched model files."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    updates: int = 10000
    eval_every: int = 250
    test_fraction: float = 0.1
    seed: int = 0
    split_seed: Optional[int] = None

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size <= 0 or self.updates <= 0 or self.eval_every <= 0:
            raise ValueError("batch_size, updates and eval_every must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")


@dataclass
class MetricRecord:
    update_index: int
    train_mse: float
    test_mse: float
    wall_time_s: float


def train_test_split(count: int, test_fraction: float, split_seed: int):
    """Disjoint (train, test) index arrays; a pure function of its inputs."""
    if count < 2:
        raise ValueError("need at least 2 samples to split")
    n_test = min(count - 1, max(1, int(round(test_fraction * count))))
    perm = Rng(split_seed).permutation(count)
    return perm[n_test:], perm[:n_test]


def check_model_dataset(model, dataset: TransitionDataset):
    """Reject a dataset too small to split into train and test rows, and a
    model whose state and control sizes differ from the dataset's."""
    if len(dataset) < 2:
        raise ValueError("cannot train on an empty or one-transition dataset: need at least "
                         f"2 transitions, got {len(dataset)}")
    if (model.n, model.n_u) != (dataset.n, dataset.n_u):
        group = getattr(model, "group", None)
        what = f"group '{group.group_id}'" if group else "baseline model"
        raise ValueError(
            f"{what} expects n={model.n}, n_u={model.n_u} but dataset '{dataset.env_id}' "
            f"has n={dataset.n}, n_u={dataset.n_u}"
        )


def _encode_split(model, dataset: TransitionDataset, indices):
    """Regressor inputs, decode context and targets at ``indices``, encoded
    ``_EVAL_ROWS`` rows at a time into arrays made after the first block: the
    maps work row by row, so these hold the bits of one pass, with no
    split-sized temporary.  An array the encode returns twice is held once.
    A singular frame is named by the dataset row of the first singular row
    of the first block that fails."""
    rows, split = len(indices), None
    for start in range(0, max(rows, 1), _EVAL_ROWS):
        j = indices[start:start + _EVAL_ROWS]
        try:
            inputs, context, targets = model._encode(dataset.x[j], dataset.u[j], dataset.x_next[j])
        except FrameSingularityError as e:
            if len(getattr(e, "index", ())) != 1:
                raise
            raise singular_frame(e.reason, [j[e.index[0]]], "dataset row", e.factor) from None
        block = (inputs, *context, targets)
        if split is None:
            held = {id(a): a.shape[1:] for a in block}
            held = {key: np.empty((rows,) + tail) for key, tail in held.items()}
            split = [held[id(a)] for a in block]
        for whole, part in zip(split, block):
            whole[start:start + len(j)] = part
    return split[0], tuple(split[1:-1]), split[-1]


def _pairwise_sum(leaf_sum, start, stop, leaf):
    """Sum of elements ``[start, stop)`` along numpy's pairwise-sum tree, where
    a node of ``m > 128`` elements splits after its first ``m // 2 - (m // 2) % 8``:
    nodes of at most ``leaf >= 128`` elements are summed by ``leaf_sum(start,
    stop)`` and added in the tree's order, so ``np.add.reduce`` as ``leaf_sum``
    gives the bits of ``np.add.reduce`` over the range.  Module-level, since a
    nested function calling itself is a reference cycle that would keep
    ``leaf_sum``'s arrays alive until the cyclic collector runs."""
    m = stop - start
    if m <= leaf:
        return leaf_sum(start, stop)
    h = m // 2 - (m // 2) % 8
    return (_pairwise_sum(leaf_sum, start, start + h, leaf)
            + _pairwise_sum(leaf_sum, start + h, stop, leaf))


def observation_mse(model, dataset: TransitionDataset, indices, encoded=None) -> float:
    """Mean squared one-step prediction error in original coordinates;
    ``encoded`` is the ``_encode_split`` of ``indices`` when already known.

    The flattened ``rows x n`` error is cut into the nodes of numpy's
    pairwise-sum tree of at most ``_EVAL_ROWS x n`` elements; each node
    predicts only the rows it covers, gathers their next states, squares the
    error and sums its part.  The node sums, added in the tree's order and
    divided by the element count, are the bits of ``np.mean`` over the whole
    split's error array, which is never held: memory is bounded by a block.
    """
    inputs, context, _ = encoded or _encode_split(model, dataset, indices)
    rows, n = len(inputs), dataset.n

    def leaf_sum(start, stop):
        first, end = start // n, -(-stop // n)
        if end - first == 1 < rows:  # one row would take numpy's GEMV path, which rounds differently
            first, end = (first - 1, end) if first else (first, end + 1)
        block = slice(first, end)
        pred = model._decode(tuple(c[block] for c in context), model.regressor(inputs[block]))
        err = dataset.x_next.take(indices[block], axis=0)
        np.subtract(pred, err, out=err)
        err *= err
        return np.add.reduce(err.reshape(-1)[start - first * n:stop - first * n])

    return float(_pairwise_sum(leaf_sum, 0, rows * n, max(_EVAL_ROWS * n, 128)) / (rows * n))


def train(model, dataset: TransitionDataset, config: TrainConfig) -> list[MetricRecord]:
    """Fit the model's regressor; returns metric records at update 0, every
    ``eval_every`` updates, and the final update.

    Raises :class:`TrainingDivergedError` when the batch loss or an evaluation
    turns non-finite, or when the final test MSE exceeds 100 times the update-0
    one (``_RUNAWAY_RATIO``); a spike that recovers before the end does not.
    """
    check_model_dataset(model, dataset)
    regressor = model.regressor
    split_seed = config.split_seed
    if split_seed is None:
        split_seed = derive_seed(dataset.content_hash(), config.seed)
    train_idx, test_idx = train_test_split(len(dataset), config.test_fraction, split_seed)

    train_split = _encode_split(model, dataset, train_idx)
    test_split = _encode_split(model, dataset, test_idx)
    inputs, _, targets = train_split
    batch_rng = Rng(derive_seed(config.seed, "batches"))
    adam = Adam(regressor.flat_params, lr=config.learning_rate, betas=ADAM_BETAS, eps=ADAM_EPS)
    records: list[MetricRecord] = []
    start = time.perf_counter()

    def record(update_index):
        try:
            train_mse = observation_mse(model, dataset, train_idx, train_split)
            test_mse = observation_mse(model, dataset, test_idx, test_split)
        except ValueError as e:
            raise TrainingDivergedError(
                f"evaluation failed at update {update_index}: {e}", records
            ) from e
        if not (np.isfinite(train_mse) and np.isfinite(test_mse)):
            raise TrainingDivergedError(
                f"non-finite evaluation error at update {update_index}", records
            )
        records.append(
            MetricRecord(update_index, train_mse, test_mse, time.perf_counter() - start)
        )

    n_train, batch_size, eval_every = len(train_idx), config.batch_size, config.eval_every
    batch_inputs = np.empty((batch_size, inputs.shape[1]))
    batch_targets = np.empty((batch_size, targets.shape[1]))
    update = 0
    # Overflow is caught by the finiteness checks, not reported as warnings.
    with np.errstate(all="ignore"):
        record(0)
        while update < config.updates:
            next_record = min(config.updates, (update // eval_every + 1) * eval_every)
            block = min(_DRAW_UPDATES, next_record - update)
            for j in batch_rng.integers(n_train, size=(block, batch_size)):
                update += 1
                # integers(n_train) is always in range, so "clip" gathers the same
                # rows, and numpy does not buffer it as it does "raise" with out=.
                inputs.take(j, axis=0, out=batch_inputs, mode="clip")
                targets.take(j, axis=0, out=batch_targets, mode="clip")
                out, cache = regressor.forward_cached(batch_inputs)
                diff = np.subtract(out, batch_targets, out=out)
                sq = np.multiply(diff, diff, out=batch_targets)
                # np.mean's own reduction and division, so the same bits
                loss = np.add.reduce(sq, axis=None) / sq.size
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite batch loss at update {update}", records
                    )
                diff *= 2.0 / diff.size
                regressor.backward(cache, diff)
                adam.step(regressor.flat_params, regressor.flat_grads)
            if update == next_record:
                record(update)
    first, final = records[0].test_mse, records[-1].test_mse
    if final > _RUNAWAY_RATIO * first:
        raise TrainingDivergedError(f"test mse ran away from {first:.6e} at update 0 to "
                                    f"{final:.6e} at update {update}", records)
    return records


# -- model construction ------------------------------------------------------


def build_symmetry_model(
    group: TransformationGroup,
    hidden_layers,
    activation: str = "relu",
    seed: int = 0,
    mode: str = "delta",
) -> SymmetryReducedModel:
    spec = MlpSpec(
        input_dim=group.b_dim + group.n_u, output_dim=group.n,
        hidden_layers=tuple(hidden_layers), activation=activation, seed=seed,
    )
    return SymmetryReducedModel(group, Mlp.from_spec(spec), mode=mode)


def build_baseline_model(
    n: int,
    n_u: int,
    hidden_layers,
    activation: str = "relu",
    seed: int = 0,
    mode: str = "delta",
) -> BaselineModel:
    spec = MlpSpec(
        input_dim=n + n_u, output_dim=n,
        hidden_layers=tuple(hidden_layers), activation=activation, seed=seed,
    )
    return BaselineModel(n, n_u, Mlp.from_spec(spec), mode=mode)


# -- persistence ---------------------------------------------------------------


def save_model(path, model, train_seed: Optional[int] = None) -> None:
    """Write a model file: one JSON header line, then the parameters as a
    raw little-endian float64 block (weights then bias, layer by layer)."""
    regressor = model.regressor
    if not isinstance(regressor, Mlp):
        raise ModelFormatError("only Mlp-backed models can be serialized")
    spec = regressor.spec
    symmetric = isinstance(model, SymmetryReducedModel)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "symmetry" if symmetric else "baseline",
        "group_id": model.group.group_id if symmetric else None,
        "n": model.n,
        "n_u": model.n_u,
        "mode": model.mode,
        "mlp": {
            "input_dim": spec.input_dim,
            "output_dim": spec.output_dim,
            "hidden_layers": list(spec.hidden_layers),
            "activation": spec.activation,
            "seed": spec.seed,
        },
        "seeds": {"init": spec.seed, "train": train_seed},
        "param_count": regressor.param_count,
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode())
        f.write(np.ascontiguousarray(regressor.flatten_params(), dtype="<f8").tobytes())


def load_model(path, group: Union[TransformationGroup, str, None] = None):
    """Read a model file back; parameters are restored bit-exactly.

    ``group`` (an instance or id) must match the stored group id when given;
    symmetry models otherwise look their group up in the built-in registry.
    """
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"{path}: invalid model header: {e}") from e
        if not isinstance(header, dict):
            raise ModelFormatError(f"{path}: model header is not a JSON object")
        version = header.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported format version {version!r} "
                f"(expected {MODEL_FORMAT_VERSION})"
            )
        raw = f.read()

    def field(name, json_type=int):
        """Header value at a dotted ``name``; a typed error when absent or
        not of ``json_type``: int (never bool), str, or list of ints."""
        obj = header
        for key in name.split("."):
            if not isinstance(obj, dict) or key not in obj:
                raise ModelFormatError(f"{path}: model header missing field '{name}'")
            obj = obj[key]
        if type(obj) is not json_type or (
            json_type is list and not all(type(v) is int for v in obj)
        ):
            what = {int: "an integer", str: "a string", list: "a list of integers"}[json_type]
            raise ModelFormatError(
                f"{path}: model header field '{name}' must be {what}, got {obj!r}"
            )
        return obj

    kind = field("kind", str)
    if kind not in ("symmetry", "baseline"):
        raise ModelFormatError(
            f"{path}: model header field 'kind' must be 'symmetry' or 'baseline', "
            f"got {kind!r}"
        )
    count = field("param_count")
    if len(raw) != 8 * count:
        raise ModelFormatError(
            f"{path}: parameter block holds {len(raw)} bytes, expected {8 * count}"
        )
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise ModelFormatError(f"{path}: parameter {bad[0]} of {count} is {params[bad[0]]}, "
                               f"not a finite value")
    mlp = {key: field(f"mlp.{key}", json_type) for key, json_type in (
        ("input_dim", int), ("output_dim", int), ("hidden_layers", list),
        ("activation", str), ("seed", int))}
    try:
        regressor = Mlp(MlpSpec(**mlp))  # zero parameters, replaced by the stored ones
        regressor.load_flat_params(params)
    except ValueError as e:
        raise ModelFormatError(f"{path}: model header field 'mlp': {e}") from e

    mode = field("mode", str)
    if mode not in MODES:
        raise ModelFormatError(
            f"{path}: model header field 'mode' must be one of {MODES}, got {mode!r}"
        )
    n, n_u = field("n"), field("n_u")
    expected_id = group.group_id if isinstance(group, TransformationGroup) else group
    if kind == "symmetry":
        stored_id = field("group_id", str)
        if expected_id is not None and expected_id != stored_id:
            raise ModelFormatError(
                f"{path}: model was trained for group '{stored_id}', "
                f"not '{expected_id}'"
            )
        try:  # an unknown id, or a group whose sizes do not fit the regressor
            grp = group if isinstance(group, TransformationGroup) else get_group(stored_id)
            model = SymmetryReducedModel(grp, regressor, mode=mode)
        except ValueError as e:
            raise ModelFormatError(f"{path}: model header field 'group_id': {e}") from e
        for name, stored, size in (("n", n, grp.n), ("n_u", n_u, grp.n_u)):
            if stored != size:
                raise ModelFormatError(f"{path}: model header field '{name}' is {stored}, "
                                       f"but group '{stored_id}' has {name} = {size}")
        return model
    if expected_id is not None:
        raise ModelFormatError(
            f"{path}: baseline model carries no group, but '{expected_id}' was requested"
        )
    try:  # sizes that do not fit the regressor
        return BaselineModel(n, n_u, regressor, mode=mode)
    except ValueError as e:
        raise ModelFormatError(
            f"{path}: model header field 'n'/'n_u' (n={n}, n_u={n_u}): {e}") from e


# -- metrics files -------------------------------------------------------------


def write_metrics_csv(path, records, config: Optional[dict] = None) -> None:
    """CSV with one leading comment line recording the run configuration."""
    with open(path, "w") as f:
        if config is not None:
            f.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        f.write(METRICS_HEADER + "\n")
        for r in records:
            f.write(
                f"{r.update_index},{r.train_mse:.17g},{r.test_mse:.17g},"
                f"{r.wall_time_s:.6f}\n"
            )


def read_metrics_csv(path):
    """Returns (records, config-dict-or-None)."""
    config = None
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _, _, rest = line.partition("config:")
                if rest:
                    config = json.loads(rest)
                continue
            if line == METRICS_HEADER:
                continue
            upd, train_mse, test_mse, wall = line.split(",")
            records.append(
                MetricRecord(int(upd), float(train_mse), float(test_mse), float(wall))
            )
    return records, config
