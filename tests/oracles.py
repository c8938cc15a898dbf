"""Hand-transcribed closed-form references used as independent oracles.

These are written straight from the derivations (solve the cross-section
equations for each group), kept deliberately separate from the library code
paths they check: the library computes reductions by composing the frame
action with the b-projection, and frame inverses through the group inverse.
:class:`LoopAdam` is the per-parameter Adam loop that the fused update on a
flat parameter vector must reproduce bit for bit, :func:`train_per_update` the
training loop (one index draw, fancy-index gathers and ``np.mean`` loss per
update) whose records and parameters ``train`` must reproduce,
:func:`observation_mse_whole_split` the one-pass split scorer whose value the
row-blocked ``observation_mse`` must reproduce, :func:`write_jsonl_per_float`
is the dataset writer whose bytes the state-reusing writer must reproduce, and
:func:`read_jsonl_per_line` the dataset reader whose arrays and errors the
state-reusing reader must reproduce, and :func:`gradcheck_per_probe` the
gradient check (one network forward per parameter probe) whose worst errors
the stacked-probe check must reproduce.
"""

import json
import time

import numpy as np

from framedyn import training
from framedyn.dataset import DatasetFormatError, TransitionDataset
from framedyn.mlp import Adam, Mlp, MlpSpec
from framedyn.rng import Rng, derive_seed


def car_frame(x):
    y, z, _, _, hy, hz = x
    return np.array([-y * hy - z * hz, y * hz - z * hy, np.arctan2(-hz, hy)])


def car_frame_inverse(x):
    return np.array([x[0], x[1], np.arctan2(x[5], x[4])])


def car_reduce(x):
    _, _, vy, vz, hy, hz = x
    return np.array([hy * vy + hz * vz, -hz * vy + hy * vz])


def reacher_frame(x):
    return np.array([np.arctan2(-x[2], x[0]), -x[4], -x[5], -x[10]])


def reacher_frame_inverse(x):
    return np.array(
        [np.arctan2(x[2], x[0]),
         x[0] * x[4] + x[2] * x[5],
         -x[2] * x[4] + x[0] * x[5],
         x[10]]
    )


def reacher_reduce(x):
    return np.array(
        [x[1], x[3], x[6], x[7],
         x[0] * (x[8] + x[4]) + x[2] * (x[9] + x[5]),
         -x[2] * (x[8] + x[4]) + x[0] * (x[9] + x[5])]
    )


class LoopAdam:
    """Adam with bias correction, one parameter array at a time."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def train_per_update(model, dataset, config):
    """``training.train`` drawing each update's batch indices on their own."""
    regressor = model.regressor
    split_seed = config.split_seed
    if split_seed is None:
        split_seed = derive_seed(dataset.content_hash(), config.seed)
    train_idx, test_idx = training.train_test_split(
        len(dataset), config.test_fraction, split_seed)
    train_split = training._encode_split(model, dataset, train_idx)
    test_split = training._encode_split(model, dataset, test_idx)
    inputs, _, targets = train_split
    batch_rng = Rng(derive_seed(config.seed, "batches"))
    adam = Adam(regressor.flat_params, lr=config.learning_rate,
                betas=training.ADAM_BETAS, eps=training.ADAM_EPS)
    records = []
    start = time.perf_counter()

    def record(update_index):
        try:
            train_mse = training.observation_mse(model, dataset, train_idx, train_split)
            test_mse = training.observation_mse(model, dataset, test_idx, test_split)
        except ValueError as e:
            raise training.TrainingDivergedError(
                f"evaluation failed at update {update_index}: {e}", records) from e
        if not (np.isfinite(train_mse) and np.isfinite(test_mse)):
            raise training.TrainingDivergedError(
                f"non-finite evaluation error at update {update_index}", records)
        records.append(training.MetricRecord(
            update_index, train_mse, test_mse, time.perf_counter() - start))

    with np.errstate(all="ignore"):
        record(0)
        for update in range(1, config.updates + 1):
            j = batch_rng.integers(len(train_idx), size=config.batch_size)
            out, cache = regressor.forward_cached(inputs[j])
            diff = out - targets[j]
            loss = float(np.mean(diff * diff))
            if not np.isfinite(loss):
                raise training.TrainingDivergedError(
                    f"non-finite batch loss at update {update}", records)
            regressor.backward(cache, (2.0 / diff.size) * diff)
            adam.step(regressor.flat_params, regressor.flat_grads)
            if update % config.eval_every == 0 or update == config.updates:
                record(update)
    return records


def observation_mse_whole_split(model, dataset, indices):
    """``training.observation_mse`` as one encode, one forward, one decode and
    one mean over the whole split."""
    inputs, context, _ = model._encode(dataset.x[indices], dataset.u[indices])
    pred = model._decode(context, model.regressor(inputs))
    return float(np.mean((pred - dataset.x_next[indices]) ** 2))


def write_jsonl_per_float(path, dataset):
    """Write ``dataset`` as JSONL, formatting every float of every row on its own."""

    def fmt(values):
        return "[" + ", ".join(f"{v:.17g}" for v in values) + "]"

    header = {"env_id": dataset.env_id, "n": dataset.n, "n_u": dataset.n_u,
              "seed": dataset.seed, "count": len(dataset)}
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for x, u, xn in zip(dataset.x, dataset.u, dataset.x_next):
            f.write(f'{{"x": {fmt(x)}, "u": {fmt(u)}, "xn": {fmt(xn)}}}\n')


def read_jsonl_per_line(path):
    """Read a JSONL dataset, decoding every line as a whole JSON object."""
    # parse_int=float keeps the sign of a zero written as "-0".
    decoder = json.JSONDecoder(parse_int=float)
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
                # A valid record has no "t", "a" or "l"; each of these JSON
                # literals and constants has one and would otherwise read as a float.
                if "t" in line or "a" in line or "l" in line:
                    for token in ("true", "false", "null", "NaN", "Infinity"):
                        if token in line:
                            raise ValueError(f"non-number token {token!r}")
                obj = decoder.decode(line)
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


def gradcheck_per_probe(seed=0, probes=100):
    """(max_error, worst_index) per hidden-layer count of
    ``verify.check_gradient_exactness``, one forward pass per +-step probe."""
    results = []
    step = 1e-6
    for layers in (1, 2, 3):
        rng = Rng(derive_seed(seed, "gradcheck", layers))
        worst = (0.0, -1)
        nets = max(1, probes // 10)
        for k in range(nets):
            activation = "relu" if k % 2 == 0 else "tanh"
            net = Mlp.from_spec(MlpSpec(
                input_dim=5, output_dim=3, hidden_layers=(8,) * layers,
                activation=activation, seed=derive_seed(seed, "net", layers, k)))
            x = rng.uniform(-1.0, 1.0, size=(4, 5))
            y = rng.uniform(-1.0, 1.0, size=(4, 3))
            out, cache = net.forward_cached(x)
            diff = out - y
            net.backward(cache, (2.0 / diff.size) * diff)
            grads, params = net.flat_grads.copy(), net.flatten_params()
            base_signs = [a > 0.0 for a in cache[1:]]

            def loss_at(p):
                net.load_flat_params(p)
                out, inputs = net.forward_cached(x)
                d = out - y
                kink = activation == "relu" and any(
                    np.any((a > 0.0) != s) for a, s in zip(inputs[1:], base_signs))
                return float(np.mean(d * d)), kink

            for j, coord in enumerate(rng.integers(params.size, size=probes // nets)):
                while True:
                    plus, minus = params.copy(), params.copy()
                    plus[coord] += step
                    minus[coord] -= step
                    (f_plus, kink_plus), (f_minus, kink_minus) = loss_at(plus), loss_at(minus)
                    if not (kink_plus or kink_minus):
                        break
                    coord = rng.integers(params.size)
                fd = (f_plus - f_minus) / (2.0 * step)
                rel = abs(grads[coord] - fd) / max(abs(grads[coord]) + abs(fd), 1e-8)
                worst = max(worst, (rel, k * (probes // nets) + j), key=lambda t: t[0])
        results.append((float(worst[0]), worst[1]))
    return results
