import re

import numpy as np
import pytest

from framedyn.builtin import get_group
from framedyn.mlp import Mlp, MlpSpec
from framedyn.models import MODES, BaselineModel, SymmetryReducedModel, _OneStepModel
from framedyn.rng import Rng, derive_seed
from framedyn.sim import parking_step, reacher_step
from framedyn.training import build_baseline_model, build_symmetry_model
from framedyn.verify import check_model_invariance
from conftest import HeadingRotationGroup, WrongFrameCar, WrongInverseCar


def _random_model(group, mode, layers=1, width=32, seed=0):
    return build_symmetry_model(group, [width] * layers, seed=seed, mode=mode)


@pytest.mark.parametrize("gid", ["se2car", "parking2", "reacher"])
@pytest.mark.parametrize("mode", ["delta", "absolute"])
def test_prediction_commutes_with_group_action(gid, mode):
    group = get_group(gid)
    model = _random_model(group, mode, seed=derive_seed(1, gid, mode))
    rng = Rng(10)
    x = group.random_state(rng, size=300)
    u = group.random_control(rng, size=300)
    g = group.random_element(rng, size=300)
    lhs = model.predict(group.act_state(g, x), group.act_control(g, u))
    rhs = group.act_state(g, model.predict(x, u))
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_prediction_commutes_for_rotation_only_group():
    group = HeadingRotationGroup()
    for mode in ("delta", "absolute"):
        model = _random_model(group, mode)
        rng = Rng(11)
        x = group.random_state(rng, size=200)
        u = group.random_control(rng, size=200)
        g = group.random_element(rng, size=200)
        lhs = model.predict(group.act_state(g, x), group.act_control(g, u))
        rhs = group.act_state(g, model.predict(x, u))
        assert np.max(np.abs(lhs - rhs)) < 1e-8



@pytest.mark.parametrize("group_cls", [WrongInverseCar, WrongFrameCar])
def test_model_invariance_fails_for_broken_raw_maps(group_cls):
    # The model path goes through the group's overridable raw maps, so a
    # wrong inverse or a wrong frame breaks invariance.
    result = check_model_invariance(group_cls(), seed=0, samples=200)
    assert not result.passed and result.max_error > 1.0


@pytest.mark.parametrize("gid", ["se2car", "parking2", "reacher"])
@pytest.mark.parametrize("broken", MODES)
def test_model_invariance_fails_for_a_fault_in_one_mode(monkeypatch, gid, broken):
    # The suite decodes one regressor output per depth in every mode, so a
    # decode that skips the carry back in one mode alone must still fail it.
    decode = _OneStepModel._decode

    def faulty(self, context, out):
        if self.mode == broken:
            return np.asarray(out, dtype=np.float64)  # no carry back
        return decode(self, context, out)

    monkeypatch.setattr(_OneStepModel, "_decode", faulty)
    result = check_model_invariance(get_group(gid), seed=0, samples=200)
    assert not result.passed and result.max_error > 1.0


@pytest.mark.parametrize("gid", ["se2car", "parking2", "reacher"])
def test_empty_batch_predicts_and_reduces_to_empty_rows(gid):
    group = get_group(gid)
    x, u = np.zeros((0, group.n)), np.zeros((0, group.n_u))
    assert group.reduce(x).shape == (0, group.b_dim)
    for mode in ("delta", "absolute"):
        assert _random_model(group, mode).predict(x, u).shape == (0, group.n)

@pytest.mark.parametrize("gid", ["se2car", "parking2", "reacher"])
def test_reconstruction_regressor_gives_identity_dynamics(gid):
    # With the regressor returning the cross-section state of its reduced
    # input, the assembled absolute-mode model is the identity map.
    group = get_group(gid)
    model = SymmetryReducedModel(
        group,
        lambda z: group.reconstruct_on_cross_section(z[..., : group.b_dim]),
        mode="absolute",
    )
    rng = Rng(12)
    x = group.random_state(rng, size=200)
    u = group.random_control(rng, size=200)
    assert np.max(np.abs(model.predict(x, u) - x)) < 1e-9


@pytest.mark.parametrize("gid", ["se2car", "parking2", "reacher"])
def test_zero_delta_regressor_predicts_no_change(gid):
    group = get_group(gid)
    model = SymmetryReducedModel(
        group, lambda z: np.zeros(z.shape[:-1] + (group.n,)), mode="delta"
    )
    rng = Rng(13)
    x = group.random_state(rng, size=100)
    u = group.random_control(rng, size=100)
    assert np.max(np.abs(model.predict(x, u) - x)) < 1e-9


@pytest.mark.parametrize(
    "env_step,gid",
    [(parking_step, "parking2"), (reacher_step, "reacher")],
)
def test_exact_regressor_reproduces_simulator(env_step, gid):
    # Feeding the true dynamics through the cross-section as the regressor
    # must reproduce the simulator everywhere the frame is defined.
    group = get_group(gid)

    def true_reduced_map(z):
        xb, u = z[..., : group.b_dim], z[..., group.b_dim :]
        return env_step(group.reconstruct_on_cross_section(xb), u)

    model = SymmetryReducedModel(group, true_reduced_map, mode="absolute")
    rng = Rng(14)
    x = group.random_state(rng, size=200)
    u = group.random_control(rng, size=200)
    assert np.max(np.abs(model.predict(x, u) - env_step(x, u))) < 1e-9


def test_training_target_on_cross_section_is_plain_pair(parking_group):
    group = get_group("se2car")
    x = np.array([0.0, 0.0, 0.8, -0.3, 1.0, 0.0])  # on the cross-section
    u = np.array([0.5, -0.1])
    x_next = np.array([0.08, -0.03, 0.85, -0.25, 0.995, 0.1])
    model = SymmetryReducedModel(group, lambda z: z, mode="absolute")
    inputs, targets = model.training_target(x, u, x_next)
    assert np.allclose(inputs, [0.8, -0.3, 0.5, -0.1], atol=1e-15)
    assert np.max(np.abs(targets - x_next)) < 1e-12


def test_training_target_shapes(parking_group, reacher_group,
                                small_parking_dataset, small_reacher_dataset):
    for group, ds, d_in, d_out in [
        (parking_group, small_parking_dataset, 8, 24),
        (reacher_group, small_reacher_dataset, 8, 11),
    ]:
        model = _random_model(group, "delta")
        inputs, targets = model.training_target(ds.x, ds.u, ds.x_next)
        assert inputs.shape == (len(ds), d_in)
        assert targets.shape == (len(ds), d_out)


def test_reduced_sample_is_frame_independent(parking_group, small_parking_dataset):
    ds = small_parking_dataset
    rng = Rng(15)
    g = parking_group.random_element(rng, size=len(ds))
    for mode in ("delta", "absolute"):
        model = _random_model(parking_group, mode)
        orig_inputs, orig_targets = model.training_target(ds.x, ds.u, ds.x_next)
        moved_inputs, moved_targets = model.training_target(
            parking_group.act_state(g, ds.x),
            parking_group.act_control(g, ds.u),
            parking_group.act_state(g, ds.x_next),
        )
        assert np.max(np.abs(orig_inputs - moved_inputs)) < 1e-9
        assert np.max(np.abs(orig_targets - moved_targets)) < 1e-9
        # so the regression loss of any regressor matches on both
        pred_o = model.regressor(orig_inputs)
        pred_m = model.regressor(moved_inputs)
        loss_o = np.mean((pred_o - orig_targets) ** 2)
        loss_m = np.mean((pred_m - moved_targets) ** 2)
        assert abs(loss_o - loss_m) < 1e-9


def test_baseline_dimensions():
    parking = build_baseline_model(24, 4, [16])
    assert parking.input_dim == 28 and parking.output_dim == 24
    reacher = build_baseline_model(11, 2, [16])
    assert reacher.input_dim == 13 and reacher.output_dim == 11


def test_baseline_zero_delta_predicts_no_change():
    model = BaselineModel(4, 2, lambda z: np.zeros(z.shape[:-1] + (4,)), mode="delta")
    x = Rng(16).uniform(-1, 1, size=(20, 4))
    u = Rng(17).uniform(-1, 1, size=(20, 2))
    assert np.array_equal(model.predict(x, u), x)


def test_symmetry_model_arity_validation():
    group = get_group("parking2")
    wrong = Mlp.from_spec(MlpSpec(input_dim=7, output_dim=24, hidden_layers=(8,)))
    with pytest.raises(ValueError, match="input arity"):
        SymmetryReducedModel(group, wrong)
    wrong_out = Mlp.from_spec(MlpSpec(input_dim=8, output_dim=23, hidden_layers=(8,)))
    with pytest.raises(ValueError, match="output arity"):
        SymmetryReducedModel(group, wrong_out)
    with pytest.raises(ValueError, match="mode"):
        SymmetryReducedModel(group, lambda z: z, mode="relative")


def test_baseline_arity_validation():
    with pytest.raises(ValueError, match="input arity"):
        BaselineModel(4, 2, Mlp.from_spec(MlpSpec(input_dim=5, output_dim=4)))
    model = build_baseline_model(4, 2, [8])
    with pytest.raises(ValueError, match="state"):
        model.predict(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="control"):
        model.predict(np.zeros(4), np.zeros(3))


@pytest.mark.parametrize("kind", ["sym", "base"])
def test_regressor_output_of_the_wrong_arity_is_named(kind, parking_group):
    def regressor(z):  # declares no arity, and returns 23 columns for 24
        return np.zeros(z.shape[:-1] + (23,))

    model = (SymmetryReducedModel(parking_group, regressor) if kind == "sym"
             else BaselineModel(24, 4, regressor))
    rng = Rng(5)
    x, u = parking_group.random_state(rng, size=3), parking_group.random_control(rng, size=3)
    with pytest.raises(ValueError, match="regressor returned arity 23, expected 24"):
        model.predict(x, u)


@pytest.mark.parametrize("n, n_u, regressor", [
    (24, -1, Mlp.from_spec(MlpSpec(input_dim=23, output_dim=24))),  # arities fit n + n_u
    (0, 3, lambda z: z),  # a regressor with no declared arity
])
def test_baseline_sizes_below_range_rejected(n, n_u, regressor):
    with pytest.raises(ValueError, match=f"sizes must be n >= 1 and n_u >= 0, "
                                         f"got n={n}, n_u={n_u}"):
        BaselineModel(n, n_u, regressor)


def _parking_model(kind, group):
    if kind == "sym":
        return _random_model(group, "delta")
    return build_baseline_model(group.n, group.n_u, [8])


@pytest.mark.parametrize("kind", ["sym", "base"])
def test_mismatched_next_state_is_rejected(kind, parking_group, small_parking_dataset):
    # One next state for five transitions used to broadcast into five targets.
    ds = small_parking_dataset
    model = _parking_model(kind, parking_group)
    with pytest.raises(ValueError, match="next state"):
        model.training_target(ds.x[:5], ds.u[:5], ds.x_next[0])
    _, targets = model.training_target(ds.x[:5], ds.u[:5], ds.x_next[:5])
    assert targets.shape == (5, 24)


@pytest.mark.parametrize("kind", ["sym", "base"])
def test_one_control_for_a_state_batch_is_rejected(kind, parking_group, small_parking_dataset):
    # Both models used to fail inside np.concatenate, with numpy's message.
    ds = small_parking_dataset
    model = _parking_model(kind, parking_group)
    names_both = re.escape("state of shape (3, 24) and control of shape (4,)")
    with pytest.raises(ValueError, match=names_both):
        model.predict(ds.x[:3], ds.u[0])
    with pytest.raises(ValueError, match=names_both):
        model.training_target(ds.x[:3], ds.u[0], ds.x_next[:3])


@pytest.mark.parametrize("kind", ["sym", "base"])
@pytest.mark.parametrize("field, value", [("x", np.nan), ("u", np.inf), ("x_next", -np.inf)])
def test_non_finite_input_is_rejected(kind, field, value, parking_group, small_parking_dataset):
    # The baseline used to take a NaN in and give a NaN out.
    ds = small_parking_dataset
    model = _parking_model(kind, parking_group)
    args = {"x": ds.x[:5].copy(), "u": ds.u[:5].copy(), "x_next": ds.x_next[:5].copy()}
    args[field][2, 1] = value
    with pytest.raises(ValueError, match="non-finite values in"):
        model.training_target(**args)
    if field != "x_next":
        with pytest.raises(ValueError, match="non-finite values in"):
            model.predict(args["x"], args["u"])
