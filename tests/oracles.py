"""Hand-transcribed closed-form references used as independent oracles.

These are written straight from the derivations (solve the cross-section
equations for each group), kept deliberately separate from the library code
paths they check: the library computes reductions by composing the frame
action with the b-projection, and frame inverses through the group inverse.
:class:`LoopAdam` is the per-parameter Adam loop that the fused update on a
flat parameter vector must reproduce bit for bit, and :func:`write_jsonl_per_float`
is the dataset writer whose bytes the state-reusing writer must reproduce.
"""

import json

import numpy as np


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
