import numpy as np
import pytest

from framedyn.mlp import Adam, Mlp, MlpSpec, ACTIVATIONS
from framedyn.rng import Rng
from framedyn.verify import check_gradient_exactness

import oracles


def _params(net):
    """Weights and biases, layer by layer: the order of ``flat_params``."""
    return [p for pair in zip(net.weights, net.biases) for p in pair]


def _grads(net):
    """Views of ``flat_grads`` shaped like :func:`_params`."""
    views, offset = [], 0
    for p in _params(net):
        views.append(net.flat_grads[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return views


def _reference_forward(net, x):
    # Independent evaluator: per-neuron dot products, no matrix algebra.
    h = list(np.asarray(x, dtype=float))
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            if layer != last:
                if net.spec.activation == "relu":
                    acc = max(acc, 0.0)
                else:
                    acc = np.tanh(acc)
            out.append(acc)
        h = out
    return np.array(h)


def test_zero_weight_network_outputs_bias():
    net = Mlp.from_spec(MlpSpec(input_dim=4, output_dim=3, hidden_layers=(8, 8)))
    for w in net.weights:
        w[...] = 0.0
    net.biases[-1][...] = [0.5, -1.0, 2.0]
    assert np.array_equal(net.forward(np.ones(4)), [0.5, -1.0, 2.0])


def test_no_hidden_layer_is_affine_map():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=()))
    x = np.array([0.3, -1.2, 0.7])
    expected = x @ net.weights[0] + net.biases[0]
    assert np.max(np.abs(net.forward(x) - expected)) < 1e-15


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("layers", [(), (5,), (7, 6)])
def test_forward_matches_independent_evaluator(activation, layers):
    spec = MlpSpec(input_dim=4, output_dim=3, hidden_layers=layers,
                   activation=activation, seed=9)
    net = Mlp.from_spec(spec)
    rng = Rng(33)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=4)
        assert np.max(np.abs(net.forward(x) - _reference_forward(net, x))) < 1e-12


def test_forward_batch_consistent_with_single():
    net = Mlp.from_spec(MlpSpec(input_dim=5, output_dim=2, hidden_layers=(16,)))
    x = Rng(1).uniform(-1, 1, size=(10, 5))
    batch = net.forward(x)
    rows = np.stack([net.forward(x[i]) for i in range(10)])
    # matmul summation order may differ between batch and single-row calls
    assert np.max(np.abs(batch - rows)) < 1e-12


def test_linear_layer_weight_gradient_is_outer_product():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=()))
    x = np.array([[0.5, -1.0, 2.0]])
    g = np.array([[0.3, -0.7]])
    _, cache = net.forward_cached(x)
    net.backward(cache, g)
    grads = _grads(net)
    assert np.max(np.abs(grads[0] - np.outer(x[0], g[0]))) < 1e-15
    assert np.array_equal(grads[1], g[0])


def test_zero_output_gradient_gives_zero_gradients():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=(4,)))
    _, cache = net.forward_cached(np.ones((5, 3)))
    net.flat_grads[...] = 1.0  # every entry must be overwritten
    net.backward(cache, np.zeros((5, 2)))
    assert np.all(net.flat_grads == 0.0)


def test_gradients_match_central_differences():
    for result in check_gradient_exactness(seed=1, probes=40):
        assert result.passed, f"{result.subject}: rel error {result.max_error}"


@pytest.mark.parametrize("seed, probes", [(0, 100), (4, 100), (11, 100), (1, 40), (3, 7)])
def test_stacked_gradcheck_matches_per_probe_oracle(seed, probes):
    # All probes of a network run in one stacked forward pass; the losses,
    # the kink redraws and so the worst errors equal one pass per probe.
    got = [(r.max_error, r.worst_index) for r in check_gradient_exactness(seed, probes)]
    assert got == oracles.gradcheck_per_probe(seed, probes)


@pytest.mark.parametrize("seed", [4, 11, 14, 15])
def test_gradcheck_skips_probes_across_relu_kinks(seed):
    # At these seeds a +-1e-6 probe crosses a relu kink, where central
    # differences are meaningless; such probes are redrawn.
    for result in check_gradient_exactness(seed=seed):
        assert result.passed, f"{result.subject}: rel error {result.max_error}"


def test_gradcheck_catches_corrupted_gradient(monkeypatch):
    backward = Mlp.backward

    def corrupted(self, cache, g):
        backward(self, cache, g)
        self.flat_grads *= 1.01

    monkeypatch.setattr(Mlp, "backward", corrupted)
    results = check_gradient_exactness(seed=0)
    assert not any(r.passed for r in results)


def test_adam_decreases_loss_on_linear_problem():
    # Convex least squares: a single affine layer fitting a random linear map.
    rng = Rng(5)
    true_w = rng.uniform(-1, 1, size=(4, 2))
    x = rng.uniform(-1, 1, size=(64, 4))
    y = x @ true_w
    net = Mlp.from_spec(MlpSpec(input_dim=4, output_dim=2, hidden_layers=(), seed=2))
    adam = Adam(net.flat_params, lr=1e-2)
    losses = []
    for _ in range(200):
        out, cache = net.forward_cached(x)
        diff = out - y
        losses.append(float(np.mean(diff * diff)))
        net.backward(cache, (2.0 / diff.size) * diff)
        adam.step(net.flat_params, net.flat_grads)
    assert losses[-1] < 0.05 * losses[0]


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_fused_adam_matches_per_parameter_loop(activation):
    spec = MlpSpec(input_dim=5, output_dim=3, hidden_layers=(16, 12),
                   activation=activation, seed=4)
    fused_net, loop_net = Mlp.from_spec(spec), Mlp.from_spec(spec)
    fused = Adam(fused_net.flat_params, lr=1e-2)
    loop = oracles.LoopAdam(_params(loop_net), lr=1e-2)
    rng = Rng(8)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=(32, 5))
        y = rng.uniform(-1, 1, size=(32, 3))
        for net in (fused_net, loop_net):
            out, cache = net.forward_cached(x)
            net.backward(cache, (2.0 / out.size) * (out - y))
            if net is fused_net:
                fused.step(net.flat_params, net.flat_grads)
            else:
                loop.step(_params(net), _grads(net))
        assert fused_net.flat_params.tobytes() == loop_net.flat_params.tobytes()
    assert not np.array_equal(fused_net.flat_params, Mlp.from_spec(spec).flat_params)


def test_backward_writes_flat_gradient_views():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=(4, 5)))
    _, cache = net.forward_cached(Rng(2).uniform(-1, 1, size=(6, 3)))
    flat_grads = net.flat_grads
    assert net.backward(cache, np.ones((6, 2))) is None
    assert net.flat_grads is flat_grads and flat_grads.size == net.param_count
    # Output layer: weight gradient a.T @ g, then the bias gradient g summed
    # over the batch, at the end of the flat layout.
    *_, grad_w, grad_b = _grads(net)
    assert np.array_equal(grad_w, cache[-1].T @ np.ones((6, 2)))
    assert np.array_equal(grad_b, np.full(2, 6.0))


def test_init_is_deterministic_per_seed():
    spec = MlpSpec(input_dim=6, output_dim=4, hidden_layers=(32,), seed=77)
    a, b = Mlp.from_spec(spec), Mlp.from_spec(spec)
    assert np.array_equal(a.flatten_params(), b.flatten_params())
    c = Mlp.from_spec(MlpSpec(input_dim=6, output_dim=4, hidden_layers=(32,), seed=78))
    assert not np.array_equal(a.flatten_params(), c.flatten_params())


def test_flatten_params_is_an_independent_copy():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=(5,)))
    flat = net.flatten_params()
    before = flat.copy()
    net.weights[0][...] = 7.0
    assert np.array_equal(flat, before)
    flat[:] = -1.0
    assert np.all(net.weights[0] == 7.0)
    assert not np.shares_memory(flat, net.flat_params)


def test_load_flat_params_keeps_layer_views():
    spec = MlpSpec(input_dim=3, output_dim=2, hidden_layers=(5, 4), activation="tanh")
    net = Mlp.from_spec(spec)
    x = Rng(3).uniform(-1, 1, size=(7, 3))
    before = net.forward(x)
    new = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=(5, 4),
                                activation="tanh", seed=11)).flatten_params()
    net.load_flat_params(new)
    assert not np.array_equal(net.forward(x), before)
    for p in _params(net):
        assert np.shares_memory(p, net.flat_params)
    assert np.array_equal(np.concatenate([p.ravel() for p in _params(net)]), new)
    net.flat_params[0] = 123.0
    assert net.weights[0][0, 0] == 123.0


def test_flatten_load_roundtrip():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=(5,)))
    flat = net.flatten_params().copy()
    other = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2, hidden_layers=(5,), seed=9))
    other.load_flat_params(flat)
    assert np.array_equal(other.flatten_params(), flat)
    with pytest.raises(ValueError, match="entries"):
        other.load_flat_params(flat[:-1])


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(input_dim=0, output_dim=1)
    with pytest.raises(ValueError):
        MlpSpec(input_dim=1, output_dim=1, hidden_layers=(0,))
    with pytest.raises(ValueError):
        MlpSpec(input_dim=1, output_dim=1, activation="sigmoid")


def test_input_validation():
    net = Mlp.from_spec(MlpSpec(input_dim=3, output_dim=2))
    with pytest.raises(ValueError, match="input length"):
        net.forward(np.zeros(4))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        net.forward(np.zeros((2, 2, 3)))
