"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 7 trains the full 1-hidden-layer comparison at the
default desk-scale budgets and takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from framedyn.builtin import get_group
from framedyn.dataset import TransitionDataset
from framedyn.groups import wrap_angle
from framedyn.rng import Rng, derive_seed
from framedyn.sim import get_env
from framedyn.training import (
    TrainConfig,
    build_baseline_model,
    build_symmetry_model,
    train,
)
from framedyn.verify import (
    check_gradient_exactness,
    check_model_invariance,
    check_reduce_invariance,
    check_sim_invariance,
)
import oracles

GROUP_IDS = ("se2car", "parking2", "reacher")


def _report(number, detail):
    print(f"\n[criterion {number}] PASS: {detail}")


def test_criterion_1_reduction_invariance_suite():
    start = time.perf_counter()
    worst = 0.0
    for gid in GROUP_IDS:
        result = check_reduce_invariance(get_group(gid), seed=0, samples=1000)
        assert result.passed, f"{gid}: max error {result.max_error:.3e} >= 1e-9"
        worst = max(worst, result.max_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"suite took {elapsed:.1f}s, budget 5s"
    _report(1, f"3 groups x 1000 draws, max |reduce(g.x) - reduce(x)| = "
               f"{worst:.3e} < 1e-9, {elapsed:.2f}s")


def test_criterion_2_invariance_by_construction_suite():
    start = time.perf_counter()
    worst = 0.0
    for gid in GROUP_IDS:
        result = check_model_invariance(get_group(gid), seed=0, samples=1000)
        assert result.passed, f"{gid}: max error {result.max_error:.3e} >= 1e-8"
        worst = max(worst, result.max_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s, budget 30s"
    _report(2, f"3 groups x 3 architectures x 2 modes x 1000 draws, "
               f"max commutation error = {worst:.3e} < 1e-8, {elapsed:.1f}s")


def test_criterion_3_closed_form_frame_fixtures():
    car = get_group("se2car")
    reacher = get_group("reacher")
    worst = 0.0

    def angle_aware(group, got, expected):
        diff = np.abs(got - expected)
        for k in group.angular_coords:
            diff[k] = abs(wrap_angle(got[k] - expected[k]))
        return diff.max()

    for i in range(100):
        x = car.random_state(Rng(derive_seed(3000, i)))
        frame = car.moving_frame(x)
        worst = max(worst, angle_aware(car, frame.coords, oracles.car_frame(x)))
        worst = max(worst, angle_aware(car, car.inverse(frame).coords,
                                       oracles.car_frame_inverse(x)))
        worst = max(worst, float(np.max(np.abs(car.reduce(x) - oracles.car_reduce(x)))))
    for i in range(100):
        x = reacher.random_state(Rng(derive_seed(4000, i)))
        frame = reacher.moving_frame(x)
        worst = max(worst, angle_aware(reacher, frame.coords, oracles.reacher_frame(x)))
        worst = max(worst, angle_aware(reacher, reacher.inverse(frame).coords,
                                       oracles.reacher_frame_inverse(x)))
        worst = max(worst, float(np.max(np.abs(
            reacher.reduce(x) - oracles.reacher_reduce(x)
        ))))
    assert worst < 1e-12
    _report(3, f"car and reacher frame/inverse/reduction vs hand transcriptions, "
               f"100 states each, max error = {worst:.3e} < 1e-12")


def test_criterion_4_simulator_invariance():
    worst = 0.0
    for env_id in ("parking2", "reacher"):
        result = check_sim_invariance(env_id, seed=0, samples=1000)
        assert result.passed, f"{env_id}: max error {result.max_error:.3e} >= 1e-9"
        worst = max(worst, result.max_error)
    _report(4, f"both environments x 1000 draws, max commutation error = "
               f"{worst:.3e} < 1e-9")


def test_criterion_5_gradient_exactness():
    results = check_gradient_exactness(seed=0, probes=100)
    worst = max(r.max_error for r in results)
    for r in results:
        assert r.passed, f"{r.subject}: relative error {r.max_error:.3e} >= 1e-5"
    _report(5, f"100 finite-difference probes per architecture, max relative "
               f"error = {worst:.3e} < 1e-5")


def test_criterion_6_dimensional_claims():
    parking = get_group("parking2")
    sym = build_symmetry_model(parking, [8])
    base = build_baseline_model(24, 4, [8])
    assert sym.input_dim == 8 and sym.output_dim == 24
    assert base.input_dim == 28 and base.output_dim == 24
    x = parking.random_state(Rng(0))
    assert x.shape == (24,) and parking.reduce(x).shape == (4,)

    reacher = get_group("reacher")
    sym_r = build_symmetry_model(reacher, [8])
    base_r = build_baseline_model(11, 2, [8])
    assert sym_r.input_dim == 8 and sym_r.output_dim == 11
    assert base_r.input_dim == 13 and base_r.output_dim == 11
    _report(6, "parking 8/28 in, 24 out, reduction 24 -> 4; "
               "reacher 8/13 in, 11 out")


def _final_errors(dataset, group, width, updates, symmetry, runs=4, base_seed=0):
    finals = []
    for run_idx in range(runs):
        seed = base_seed + run_idx
        init_seed = derive_seed(seed, "init", 1, int(symmetry))
        if symmetry:
            model = build_symmetry_model(group, [width], seed=init_seed)
        else:
            model = build_baseline_model(dataset.n, dataset.n_u, [width], seed=init_seed)
        cfg = TrainConfig(updates=updates, eval_every=250, seed=seed)
        records = train(model, dataset, cfg)
        finals.append(records[-1].test_mse)
        print(f"    {'sym ' if symmetry else 'base'} seed {seed}: "
              f"final test mse {finals[-1]:.4e}")
    return np.asarray(finals)


@pytest.mark.slow
def test_criterion_7_symmetry_outperforms_at_small_capacity(
    default_parking_dataset, default_reacher_dataset
):
    start = time.perf_counter()
    details = []
    for dataset in (default_parking_dataset, default_reacher_dataset):
        env = get_env(dataset.env_id)
        group = get_group(env.group_id)
        print(f"\n  {dataset.env_id}: 1 hidden layer x {env.default_hidden}, "
              f"{env.default_updates} updates, 4 seeds per method")
        sym = _final_errors(dataset, group, env.default_hidden,
                            env.default_updates, symmetry=True)
        base = _final_errors(dataset, group, env.default_hidden,
                             env.default_updates, symmetry=False)
        pooled = np.sqrt((np.var(sym, ddof=1) + np.var(base, ddof=1)) / 2.0)
        gap = base.mean() - sym.mean()
        assert sym.mean() < base.mean(), (
            f"{dataset.env_id}: symmetry mean {sym.mean():.3e} not below "
            f"baseline mean {base.mean():.3e}"
        )
        assert gap > pooled, (
            f"{dataset.env_id}: gap {gap:.3e} does not exceed pooled std {pooled:.3e}"
        )
        details.append(
            f"{dataset.env_id}: sym {sym.mean():.3e} vs base {base.mean():.3e} "
            f"(gap {gap / pooled if pooled > 0 else float('inf'):.1f} pooled stds)"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    _report(7, "; ".join(details) + f"; {elapsed / 60:.1f} min")


@pytest.mark.slow
def test_criterion_8_orbit_collapse(default_parking_dataset):
    dataset = default_parking_dataset
    group = get_group("parking2")
    g = group.random_element(Rng(derive_seed(8, "orbit")), size=len(dataset))
    moved = TransitionDataset(
        env_id=dataset.env_id, n=dataset.n, n_u=dataset.n_u, seed=dataset.seed,
        x=group.act_state(g, dataset.x),
        u=group.act_control(g, dataset.u),
        x_next=group.act_state(g, dataset.x_next),
    )
    # The split must not reshuffle under the transformation, so it is pinned.
    cfg = TrainConfig(updates=2000, eval_every=250, seed=1, split_seed=8888)

    sym_sequences = []
    for data in (dataset, moved):
        model = build_symmetry_model(group, [128], seed=42)
        sym_sequences.append(train(model, data, cfg))
    sym_drift = max(
        max(abs(a.train_mse - b.train_mse), abs(a.test_mse - b.test_mse))
        for a, b in zip(*sym_sequences)
    )
    assert sym_drift < 1e-9, f"symmetry metrics moved by {sym_drift:.3e}"

    base_sequences = []
    for data in (dataset, moved):
        model = build_baseline_model(dataset.n, dataset.n_u, [128], seed=42)
        base_sequences.append(train(model, data, cfg))
    base_drift = max(abs(a.test_mse - b.test_mse) for a, b in zip(*base_sequences))
    assert base_drift > 1e-6, f"baseline metrics changed by only {base_drift:.3e}"
    _report(8, f"per-triple random transforms: symmetry metric drift "
               f"{sym_drift:.3e} < 1e-9, baseline drift {base_drift:.3e}")
