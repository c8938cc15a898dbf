"""Multilayer perceptron with analytic backpropagation and Adam.

Self-contained on purpose: training runs must be reproducible bit-for-bit
from integer seeds (see :mod:`framedyn.rng`), and the gradient path is
checked against central finite differences in the test suite.

All parameters live in one contiguous float64 vector, ``flat_params``
(layer by layer: weights row-major, then bias), of which ``weights`` and
``biases`` are views; backward fills ``flat_grads`` in the same layout, and
:class:`Adam` updates the whole vector at once, whatever the layer count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: dims, hidden widths, activation, init seed."""

    input_dim: int
    output_dim: int
    hidden_layers: tuple[int, ...] = (64,)
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ValueError("input_dim and output_dim must be positive")
        if any(w <= 0 for w in self.hidden_layers):
            raise ValueError("hidden layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim,) + self.hidden_layers + (self.output_dim,)
        return list(zip(dims[:-1], dims[1:]))


def _layer_views(spec: MlpSpec, flat: np.ndarray):
    """Per-layer (weights, biases) views of a flat parameter-layout vector, or
    of a stack of them along leading axes."""
    weights, biases, offset = [], [], 0
    lead = flat.shape[:-1]
    for fan_in, fan_out in spec.layer_dims:
        weights.append(flat[..., offset : offset + fan_in * fan_out]
                       .reshape(lead + (fan_in, fan_out)))
        offset += fan_in * fan_out
        biases.append(flat[..., offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _propagate(weights, biases, activation, zero_rows, h, inputs=None):
    """Run the layers on ``h``, appending each layer's input to ``inputs`` if
    given.  Views of a stack of parameter vectors (:func:`_layer_views`) run
    every network of the stack at once; biases broadcast over the batch.
    ``zero_rows`` holds zeros of shape ``(1, width)`` per hidden layer: against
    them numpy's ReLU takes its SIMD loop, against a scalar 0.0 its strided
    one, at about twice the time for the same bits."""
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        if inputs is not None:
            inputs.append(h)
        h = h @ w
        h += b[..., None, :]
        if i != last:
            if activation == "relu":
                np.maximum(h, zero_rows[i], out=h)
            else:
                np.tanh(h, out=h)
    return h


class Mlp:
    """Feed-forward network: affine layers with activations between them,
    affine output.  Inputs may be single vectors or (batch, dim) arrays.
    """

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in spec.layer_dims)
        self.flat_params = np.zeros(size)
        self.flat_grads = np.zeros(size)
        self.input_dim, self.output_dim = spec.input_dim, spec.output_dim
        # weights each (fan_in, fan_out), biases each (fan_out,)
        self.weights, self.biases = _layer_views(spec, self.flat_params)
        self._grad_w, self._grad_b = _layer_views(spec, self.flat_grads)
        self._zero_rows = [np.zeros((1, w)) for w in spec.hidden_layers]

    @classmethod
    def from_spec(cls, spec: MlpSpec) -> "Mlp":
        """Initialize weights uniform in +-sqrt(6 / (fan_in + fan_out)),
        biases zero.  Entries are drawn layer by layer, row-major, from an
        :class:`Rng` seeded with ``spec.seed``.
        """
        net = cls(spec)
        rng = Rng(spec.seed)
        for w in net.weights:
            fan_in, fan_out = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return net

    def _check_input(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
        if arr.shape[-1] != self.input_dim:
            raise ValueError(
                f"input length {arr.shape[-1]} does not match input_dim {self.input_dim}"
            )
        return (arr[None] if arr.ndim == 1 else arr), arr.ndim == 1

    def forward(self, x) -> np.ndarray:
        arr, single = self._check_input(x)
        h = _propagate(self.weights, self.biases, self.spec.activation, self._zero_rows, arr)
        return h[0] if single else h

    __call__ = forward

    def forward_cached(self, x):
        """Forward pass keeping each layer's input (then activation) for backward."""
        arr, _ = self._check_input(x)
        inputs: list[np.ndarray] = []
        return _propagate(self.weights, self.biases, self.spec.activation, self._zero_rows,
                          arr, inputs), inputs

    def backward(self, cache, grad_out) -> None:
        """Gradients of a scalar loss w.r.t. every parameter, written into
        ``flat_grads`` (the layout of ``flat_params``).

        ``grad_out`` is the loss gradient w.r.t. the network output,
        shape (batch, output_dim); it is not modified.
        """
        grad = np.asarray(grad_out, dtype=np.float64)
        if grad.ndim == 1:
            grad = grad[None, :]
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i != last:  # grad is a fresh array here, so scale it in place
                a = cache[i + 1]
                if self.spec.activation == "relu":
                    grad *= a > 0.0
                else:
                    grad *= 1.0 - a * a
            np.matmul(cache[i].T, grad, out=self._grad_w[i])
            grad.sum(axis=0, out=self._grad_b[i])
            if i != 0:
                grad = grad @ self.weights[i].T

    @property
    def param_count(self) -> int:
        return self.flat_params.size

    def flatten_params(self) -> np.ndarray:
        return self.flat_params.copy()

    def load_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.param_count:
            raise ValueError(
                f"parameter vector has {flat.size} entries, expected {self.param_count}"
            )
        self.flat_params[...] = flat.reshape(-1)


class Adam:
    """Adaptive moment estimation with bias correction, on one flat
    parameter vector (:attr:`Mlp.flat_params`)."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.m, self.v, self._scratch = (np.zeros_like(params) for _ in range(3))
        self.t = 0

    def step(self, params, grads) -> None:
        """Update the flat ``params`` in place from the flat ``grads``: with
        ``m += (1 - b1) * g`` and ``v += (1 - b2) * g * g``, ``p -= lr *
        (m / bias1) / (sqrt(v / bias2) + eps)``, in that operation order."""
        self.t += 1
        b1, b2, m, v, a = self.beta1, self.beta2, self.m, self.v, self._scratch
        m *= b1
        m += np.multiply(grads, 1.0 - b1, out=a)
        v *= b2
        np.multiply(grads, 1.0 - b2, out=a)
        v += np.multiply(a, grads, out=a)
        np.sqrt(np.divide(v, 1.0 - b2**self.t, out=a), out=a)
        a += self.eps
        update = np.divide(m, 1.0 - b1**self.t)
        update *= self.lr
        update /= a
        params -= update
