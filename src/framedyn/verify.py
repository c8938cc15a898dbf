"""Seeded invariance and correctness suites.

Each suite draws a reproducible sample set, measures a worst-case error, and
compares it against a documented tolerance.  The CLI ``verify`` command runs
them as a release gate; the test suite reuses them at the same tolerances.

Suite ids are ``SUITES``; ``run_suites`` also takes ``all`` and the aliases
of ``SUITE_ALIASES`` (``lemma1``, ``theorem1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builtin import get_group
from .groups import TransformationGroup
from .mlp import Mlp, MlpSpec, _layer_views, _propagate
from .models import MODES, SymmetryReducedModel
from .rng import Rng, derive_seed, uniform_rows
from .sim import default_hidden, get_env
from .training import build_symmetry_model

TOL_ALGEBRA = 1e-9
TOL_ROUNDTRIP = 1e-12
TOL_MODEL_INVARIANCE = 1e-8
TOL_SIM = 1e-9
TOL_GRADCHECK = 1e-5

DEFAULT_GROUP_IDS = ("se2car", "const:6", "parking2", "reacher")
MODEL_GROUP_IDS = ("se2car", "parking2", "reacher")
LAYER_COUNTS = (1, 2, 3)  # hidden-layer counts the model and gradient suites cover
SUITES = ("axioms", "frame", "reduce-invariance", "frame-equivariance", "roundtrip",
          "model-invariance", "sim", "gradcheck")
SUITE_ALIASES = {"lemma1": "reduce-invariance", "theorem1": "model-invariance"}


@dataclass
class SuiteResult:
    suite: str
    subject: str
    samples: int
    max_error: float
    tolerance: float
    worst_index: int = -1
    seed: int = 0
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.max_error < self.tolerance)


def _max_abs(arr) -> tuple[float, int]:
    flat = np.abs(np.asarray(arr, dtype=np.float64)).reshape(arr.shape[0], -1) \
        if np.ndim(arr) > 1 else np.abs(np.atleast_1d(arr))[:, None]
    if flat.size == 0:  # zero-width rows: a transitive group reduces to no coordinates
        return 0.0, -1
    per_sample = flat.max(axis=1)
    idx = int(np.argmax(per_sample))
    return float(per_sample[idx]), idx


def check_group_axioms(group: TransformationGroup, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """identity action, compose/action compatibility, inverse round-trips."""
    rng = Rng(derive_seed(seed, "axioms", group.group_id))
    x = group.random_state(rng, size=samples)
    g1 = group.random_element(rng, size=samples)
    g2 = group.random_element(rng, size=samples)
    errs = [
        group.act_state(group.identity(), x) - x,
        group.act_state(group.compose(g1, g2), x)
        - group.act_state(g1, group.act_state(g2, x)),
        group.act_state(group.inverse(g1), group.act_state(g1, x)) - x,
        group.coord_difference(group.compose(g1, group.inverse(g1)), group.identity()),
    ]
    worst = max((_max_abs(e) for e in errs), key=lambda t: t[0])
    return SuiteResult("axioms", group.group_id, samples, worst[0], TOL_ALGEBRA,
                       worst[1], seed)


def check_frame(group: TransformationGroup, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """The a-projection of the framed state equals the cross-section constant."""
    rng = Rng(derive_seed(seed, "frame", group.group_id))
    x = group.random_state(rng, size=samples)
    framed = group.act_state(group.moving_frame(x), x)
    err, idx = _max_abs(framed[..., group.a_indices] - group.cross_section)
    return SuiteResult("frame", group.group_id, samples, err, TOL_ALGEBRA, idx, seed)


def check_reduce_invariance(group: TransformationGroup, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """reduce(act(g, x)) == reduce(x): canonical coordinates are constant on
    orbits."""
    rng = Rng(derive_seed(seed, "reduce-invariance", group.group_id))
    x = group.random_state(rng, size=samples)
    g = group.random_element(rng, size=samples)
    err, idx = _max_abs(group.reduce(group.act_state(g, x)) - group.reduce(x))
    return SuiteResult("reduce-invariance", group.group_id, samples, err,
                       TOL_ALGEBRA, idx, seed)


def check_frame_equivariance(group: TransformationGroup, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """moving_frame(act(g, x)) * g == moving_frame(x), angles modulo 2*pi."""
    rng = Rng(derive_seed(seed, "frame-equivariance", group.group_id))
    x = group.random_state(rng, size=samples)
    g = group.random_element(rng, size=samples)
    lhs = group.compose(group.moving_frame(group.act_state(g, x)), g)
    err, idx = _max_abs(group.coord_difference(lhs, group.moving_frame(x)))
    return SuiteResult("frame-equivariance", group.group_id, samples, err,
                       TOL_ALGEBRA, idx, seed)


def check_reconstruction_roundtrip(group: TransformationGroup, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """reduce(reconstruct_on_cross_section(xb)) == xb."""
    rng = Rng(derive_seed(seed, "roundtrip", group.group_id))
    xb = group.reduce(group.random_state(rng, size=samples))
    err, idx = _max_abs(group.reduce(group.reconstruct_on_cross_section(xb)) - xb)
    return SuiteResult("roundtrip", group.group_id, samples, err, TOL_ROUNDTRIP,
                       idx, seed)


def check_model_invariance(group: TransformationGroup, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """Transforming the inputs transforms the prediction: predict(act(g, x),
    act(g, u)) equals act(g, predict(x, u)).  One random regressor on canonical
    coordinates per depth runs once on each input batch, and every target mode
    decodes its two outputs."""
    rng = Rng(derive_seed(seed, "model-invariance", group.group_id))
    x = group.random_state(rng, size=samples)
    u = group.random_control(rng, size=samples)
    g = group.random_element(rng, size=samples)
    width = default_hidden(group.group_id)
    # The encode depends on neither the regressor nor the mode: every decoder
    # decodes from one encode of each input pair, as its predict would.
    decoders = [SymmetryReducedModel(group, None, mode=mode) for mode in MODES]
    encode = decoders[0]._encode
    (inputs, context, _), (g_inputs, g_context, _) = (
        encode(x, u), encode(group.act_state(g, x), group.act_control(g, u)))
    del x, u  # the encodes hold what the models need
    worst = (0.0, -1)
    for layers in LAYER_COUNTS:
        # The mode changes only the decode, so one network serves every mode.
        # Its seed is the absolute-mode one: that keeps the pinned seed-0 errors.
        regressor = build_symmetry_model(
            group, [width] * layers,
            seed=derive_seed(seed, group.group_id, layers, "absolute")).regressor
        out, g_out = regressor(inputs), regressor(g_inputs)
        for decoder in decoders:
            err = group.act_state(g, decoder._decode(context, out))
            np.subtract(decoder._decode(g_context, g_out), err, out=err)
            worst = max(worst, _max_abs(err), key=lambda t: t[0])
        del out, g_out, err  # free this depth's outputs before the next forward
    return SuiteResult("model-invariance", group.group_id, samples, worst[0],
                       TOL_MODEL_INVARIANCE, worst[1], seed)


def check_sim_invariance(env_id: str, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """step(act(g, x), act(g, u)) == act(g, step(x, u)) for the simulator."""
    env = get_env(env_id)
    group = get_group(env.group_id)
    rng = Rng(derive_seed(seed, "sim", env_id))
    x = env.initial_state(uniform_rows(
        [derive_seed(rng.seed, "init", i) for i in range(samples)], env.state_draws))
    u = group.random_control(rng, size=samples)
    g = group.random_element(rng, size=samples)
    err, idx = _max_abs(
        env.step(group.act_state(g, x), group.act_control(g, u))
        - group.act_state(g, env.step(x, u))
    )
    return SuiteResult("sim", env_id, samples, err, TOL_SIM, idx, seed)


def _probe_losses(net, x, y, coords, step, base_signs):
    """Loss at ``net``'s parameters moved by +``step`` and by -``step`` on each of
    ``coords``, as ``(len(coords), 2)``, and per coordinate whether either move
    flips the sign of a relu pre-activation.  Every probe network runs in one
    stacked forward pass."""
    stack = np.repeat(net.flat_params[None], 2 * len(coords), axis=0)  # +, - per coordinate
    stack[np.arange(len(stack)), np.repeat(coords, 2)] += np.tile([step, -step], len(coords))
    spec, inputs, kink = net.spec, [], np.zeros(len(stack), dtype=bool)
    h = _propagate(*_layer_views(spec, stack), spec.activation, net._zero_rows, x, inputs)
    if spec.activation == "relu":  # the hidden layers' inputs are their activations
        for a, signs in zip(inputs[1:], base_signs):
            kink |= ((a > 0.0) != signs).any(axis=(1, 2))
    d = h - y
    return np.mean(d * d, axis=(1, 2)).reshape(-1, 2), kink.reshape(-1, 2).any(axis=1)


def check_gradient_exactness(seed: int = 0, probes: int = 100) -> list[SuiteResult]:
    """Backpropagated gradients against central finite differences on the
    mean-squared-error loss; ``probes`` random parameter coordinates per
    architecture, alternating relu/tanh networks.

    The loss is not differentiable where a relu pre-activation is zero, so a
    probe whose +-``step`` perturbation flips the sign of any relu
    pre-activation is replaced by a fresh coordinate from the same generator.
    """
    results = []
    step = 1e-6
    for layers in LAYER_COUNTS:
        rng = Rng(derive_seed(seed, "gradcheck", layers))
        worst = (0.0, -1)
        nets = max(1, probes // 10)
        for k in range(nets):
            activation = "relu" if k % 2 == 0 else "tanh"
            spec = MlpSpec(
                input_dim=5, output_dim=3, hidden_layers=(8,) * layers,
                activation=activation, seed=derive_seed(seed, "net", layers, k),
            )
            net = Mlp.from_spec(spec)
            x = rng.uniform(-1.0, 1.0, size=(4, 5))
            y = rng.uniform(-1.0, 1.0, size=(4, 3))
            out, cache = net.forward_cached(x)
            diff = out - y
            net.backward(cache, (2.0 / diff.size) * diff)
            params = net.flat_params
            base_signs = [a > 0.0 for a in cache[1:]]
            coords = rng.integers(params.size, size=probes // nets)
            losses, kinks = _probe_losses(net, x, y, coords, step, base_signs)
            for j, coord in enumerate(coords):
                (f_plus, f_minus), kink = losses[j], kinks[j]
                while kink:  # replacements are drawn one at a time, in probe order
                    coord = rng.integers(params.size)
                    ((f_plus, f_minus),), (kink,) = _probe_losses(
                        net, x, y, np.atleast_1d(coord), step, base_signs)
                fd = (f_plus - f_minus) / (2.0 * step)
                bp = net.flat_grads[coord]
                rel = abs(bp - fd) / max(abs(bp) + abs(fd), 1e-8)
                worst = max(worst, (rel, k * (probes // nets) + j), key=lambda t: t[0])
        results.append(
            SuiteResult("gradcheck", f"{layers} hidden", probes, worst[0],
                        TOL_GRADCHECK, worst[1], seed)
        )
    return results


def run_suites(
    suite: str = "all",
    group_ids=DEFAULT_GROUP_IDS,
    seed: int = 0,
    samples: int = 1000,
) -> list[SuiteResult]:
    """Run one suite (or all) over the requested groups and environments."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    suite = SUITE_ALIASES.get(suite, suite)
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'")
    groups = [get_group(gid) for gid in group_ids]
    results: list[SuiteResult] = []

    def want(name):
        return suite in ("all", name)

    for group in groups:
        if want("axioms"):
            results.append(check_group_axioms(group, seed, samples))
        if want("frame"):
            results.append(check_frame(group, seed, samples))
        if want("reduce-invariance"):
            results.append(check_reduce_invariance(group, seed, samples))
        if want("frame-equivariance"):
            results.append(check_frame_equivariance(group, seed, samples))
        if want("roundtrip"):
            results.append(check_reconstruction_roundtrip(group, seed, samples))
        if want("model-invariance") and group.group_id in MODEL_GROUP_IDS:
            results.append(check_model_invariance(group, seed, samples))
    if want("sim"):
        for env_id in ("parking2", "reacher"):
            results.append(check_sim_invariance(env_id, seed, samples))
    if want("gradcheck"):
        results.extend(check_gradient_exactness(seed, probes=100))
    if not results:
        raise ValueError(f"suite '{suite}' covers none of the chosen groups "
                         f"({', '.join(group_ids)})")
    return results


def format_results(results: list[SuiteResult]) -> str:
    lines = [
        f"{'suite':<20} {'subject':<10} {'samples':>7} {'max_error':>12} "
        f"{'tolerance':>10} {'status':>7}"
    ]
    for r in results:
        lines.append(
            f"{r.suite:<20} {r.subject:<10} {r.samples:>7} {r.max_error:>12.3e} "
            f"{r.tolerance:>10.0e} {'PASS' if r.passed else 'FAIL':>7}"
        )
        if not r.passed:
            lines.append(
                f"  worst sample index {r.worst_index} (seed {r.seed}); "
                "rerun with the same seed to reproduce"
            )
    return "\n".join(lines)
