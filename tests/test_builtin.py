import numpy as np
import pytest

from framedyn.builtin import (
    ConstantTranslationGroup,
    ProductGroup,
    SE2CarGroup,
    get_group,
    make_parking_group,
)
from framedyn.groups import FrameSingularityError, wrap_angle
from framedyn.rng import Rng
import oracles


def _angle_aware_error(group, coords, expected):
    diff = np.abs(coords - expected)
    for k in group.angular_coords:
        diff[..., k] = np.abs(wrap_angle(coords[..., k] - expected[..., k]))
    return diff.max()


class TestCarClosedForms:
    def test_frame_matches_transcription(self):
        group = get_group("se2car")
        for i in range(100):
            x = group.random_state(Rng(100 + i))
            err = _angle_aware_error(group, group.moving_frame(x).coords,
                                     oracles.car_frame(x))
            assert err < 1e-12

    def test_frame_inverse_matches_transcription(self):
        group = get_group("se2car")
        for i in range(100):
            x = group.random_state(Rng(200 + i))
            inv = group.inverse(group.moving_frame(x))
            err = _angle_aware_error(group, inv.coords, oracles.car_frame_inverse(x))
            assert err < 1e-12

    def test_reduce_matches_transcription(self):
        group = get_group("se2car")
        for i in range(100):
            x = group.random_state(Rng(300 + i))
            assert np.max(np.abs(group.reduce(x) - oracles.car_reduce(x))) < 1e-12

    def test_zero_heading_angle_frame_is_pure_translation(self):
        group = get_group("se2car")
        x = np.array([2.0, -3.0, 0.4, 0.1, 1.0, 0.0])
        assert np.allclose(group.moving_frame(x).coords, [-2.0, 3.0, 0.0], atol=1e-15)
        assert np.allclose(group.reduce(x), [0.4, 0.1], atol=1e-15)

    def test_reconstruct_closed_form(self):
        group = get_group("se2car")
        assert np.array_equal(
            group.reconstruct_on_cross_section([0.7, -0.2]),
            np.array([0.0, 0.0, 0.7, -0.2, 1.0, 0.0]),
        )
        # zero reduced state -> the cross-section base point
        assert np.array_equal(
            group.reconstruct_on_cross_section([0.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        )

    def test_action_preserves_heading_norm(self):
        group = get_group("se2car")
        rng = Rng(7)
        x = group.random_state(rng, size=500)
        gx = group.act_state(group.random_element(rng, size=500), x)
        assert np.max(np.abs(np.hypot(gx[:, 4], gx[:, 5]) - 1.0)) < 1e-12


class TestReacherClosedForms:
    def test_frame_matches_transcription(self):
        group = get_group("reacher")
        for i in range(100):
            x = group.random_state(Rng(400 + i))
            err = _angle_aware_error(group, group.moving_frame(x).coords,
                                     oracles.reacher_frame(x))
            assert err < 1e-12

    def test_frame_inverse_matches_transcription(self):
        group = get_group("reacher")
        for i in range(100):
            x = group.random_state(Rng(500 + i))
            inv = group.inverse(group.moving_frame(x))
            err = _angle_aware_error(group, inv.coords, oracles.reacher_frame_inverse(x))
            assert err < 1e-12

    def test_reduce_matches_transcription(self):
        group = get_group("reacher")
        for i in range(100):
            x = group.random_state(Rng(600 + i))
            assert np.max(np.abs(group.reduce(x) - oracles.reacher_reduce(x))) < 1e-12

    def test_reduce_on_cross_section_is_projection(self):
        group = get_group("reacher")
        x = np.array([1.0, 0.3, 0.0, np.sqrt(1 - 0.09), 0.0, 0.0,
                      0.7, -0.4, 0.11, -0.05, 0.0])
        assert np.max(np.abs(
            group.reduce(x) - x[[1, 3, 6, 7, 8, 9]]
        )) < 1e-15

    def test_reconstruct_fills_declared_slots(self):
        group = get_group("reacher")
        xb = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        x = group.reconstruct_on_cross_section(xb)
        assert x[0] == 1.0 and x[2] == 0.0
        assert x[4] == 0.0 and x[5] == 0.0 and x[10] == 0.0
        assert np.array_equal(x[[1, 3, 6, 7, 8, 9]], xb)

    def test_action_fixes_joint_velocities_and_second_joint(self):
        group = get_group("reacher")
        rng = Rng(8)
        x = group.random_state(rng, size=500)
        gx = group.act_state(group.random_element(rng, size=500), x)
        assert np.array_equal(gx[:, [1, 3, 6, 7]], x[:, [1, 3, 6, 7]])

    def test_dimensions(self):
        group = get_group("reacher")
        assert (group.n, group.n_u, group.r, group.b_dim) == (11, 2, 4, 6)

    def test_controls_untouched(self):
        group = get_group("reacher")
        rng = Rng(9)
        u = group.random_control(rng, size=100)
        g = group.random_element(rng, size=100)
        assert np.array_equal(group.act_control(g, u), u)


class TestParkingProduct:
    def test_dimensions(self):
        group = make_parking_group()
        assert (group.n, group.n_u, group.b_dim) == (24, 4, 4)
        assert group.r == 18  # 3 + 3 + 6 + 6
        assert group.cross_section.shape == (20,)

    def test_reduce_maps_24_to_4(self, parking_group):
        x = parking_group.random_state(Rng(1), size=10)
        assert parking_group.reduce(x).shape == (10, 4)

    def test_reduced_coordinates_are_per_car_body_velocities(self, parking_group):
        for i in range(50):
            x = parking_group.random_state(Rng(700 + i))
            expected = np.concatenate(
                [oracles.car_reduce(x[0:6]), oracles.car_reduce(x[6:12])]
            )
            assert np.max(np.abs(parking_group.reduce(x) - expected)) < 1e-12

    def test_goals_contribute_no_reduced_coordinates(self, parking_group):
        x = parking_group.random_state(Rng(2))
        y = x.copy()
        y[12:24] = Rng(3).uniform(-5, 5, size=12)  # move both goal blocks
        assert np.array_equal(parking_group.reduce(x), parking_group.reduce(y))

    def test_factorwise_independence(self, parking_group):
        car = get_group("se2car")
        g1 = car.random_element(Rng(4))
        coords = np.concatenate([g1.coords, np.zeros(3), np.zeros(12)])
        g = parking_group.element(coords)
        x = parking_group.random_state(Rng(5))
        gx = parking_group.act_state(g, x)
        assert np.array_equal(gx[6:24], x[6:24])
        assert np.max(np.abs(gx[0:6] - car.act_state(g1, x[0:6]))) < 1e-15

    def test_product_of_identities_acts_as_identity(self, parking_group):
        x = parking_group.random_state(Rng(6), size=20)
        assert np.array_equal(parking_group.act_state(parking_group.identity(), x), x)

    def test_controls_untouched(self, parking_group):
        # No factor acts on controls, so u comes back itself, not a copy.
        rng = Rng(7)
        u = parking_group.random_control(rng, size=100)
        g = parking_group.random_element(rng, size=100)
        assert parking_group.act_control(g, u) is u
        assert parking_group._act_control(g.coords, u) is u


class ControlRotatingCar(SE2CarGroup):
    """Car group that also rotates the control pair: a factor acting on controls."""

    def _act_control(self, c, u):
        cos, sin = np.cos(c[..., 2]), np.sin(c[..., 2])
        return np.stack([cos * u[..., 0] - sin * u[..., 1],
                         sin * u[..., 0] + cos * u[..., 1]], axis=-1)


def _mixed_product():
    return ProductGroup("mixed", [ControlRotatingCar("rc"), ControlRotatingCar("rc"),
                                  SE2CarGroup(), ConstantTranslationGroup(3)])


def _late_control_product():
    """A product whose control-acting factor sits in its second run."""
    return ProductGroup("late", [SE2CarGroup(), ControlRotatingCar("rc")])


def _factor_slices(group):
    """(factor, state, control, coordinate slices), consecutive in factor order."""
    out, n, n_u, r = [], 0, 0, 0
    for f in group.factors:
        out.append((f, slice(n, n + f.n), slice(n_u, n_u + f.n_u), slice(r, r + f.r)))
        n, n_u, r = n + f.n, n_u + f.n_u, r + f.r
    return out


# Derived structure, recorded from the explicit-slice constructor it replaced.
@pytest.mark.parametrize("make, r, n, n_u, a_indices, b_indices, cross, angular, runs", [
    (make_parking_group, 18, 24, 4,
     [0, 1, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23],
     [2, 3, 8, 9],
     [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     (2, 5), [2, 2]),
    (_mixed_product, 12, 21, 6,
     [0, 1, 4, 5, 6, 7, 10, 11, 12, 13, 16, 17, 18, 19, 20],
     [2, 3, 8, 9, 14, 15],
     [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
     (2, 5, 8), [2, 1, 1]),
], ids=["parking2", "mixed"])
def test_product_structure_is_derived_from_factor_order(
        make, r, n, n_u, a_indices, b_indices, cross, angular, runs):
    group = make()
    assert (group.r, group.n, group.n_u) == (r, n, n_u)
    assert group.a_indices.tolist() == a_indices
    assert group.b_indices.tolist() == b_indices
    assert group.cross_section.tolist() == cross
    assert group.angular_coords == angular
    assert [run[1] for run in group._runs] == runs


@pytest.mark.parametrize("size", [None, 50])
def test_stacked_runs_equal_factor_by_factor_maps(size):
    # Reference: each factor applied on its own slices, one call per factor.
    state, control, coords = 1, 2, 3  # slice fields of a _factor_slices entry
    for group in (make_parking_group(), _mixed_product(), _late_control_product()):
        rng = Rng(8)
        x = group.random_state(rng, size=size)
        u = group.random_control(rng, size=size)
        c1 = group.random_element(rng, size=size).coords
        c2 = group.random_element(rng, size=size).coords
        cases = [
            ("_act_state", state, ((c1, coords), (x, state))),
            ("_act_control", control, ((c1, coords), (u, control))),
            ("_moving_frame", coords, ((x, state),)),
            ("_inverse", coords, ((c1, coords),)),
            ("_compose", coords, ((c1, coords), (c2, coords))),
        ]
        for method, out_field, operands in cases:
            got = getattr(group, method)(*(v for v, _ in operands))
            expected = np.empty_like(got)
            for factor in _factor_slices(group):
                sl = factor[out_field]
                if sl.stop > sl.start:
                    expected[..., sl] = getattr(factor[0], method)(
                        *(v[..., factor[f]] for v, f in operands))
            assert got.tobytes() == expected.tobytes(), (group.group_id, method)
        # One pass over the runs equals the three maps it replaces.
        frame = group._moving_frame(x)
        composed = (frame, group._act_state(frame, x), group._inverse(frame))
        assert [a.tobytes() for a in group._canonical(x)] == [a.tobytes() for a in composed]


@pytest.mark.parametrize("make", [_mixed_product, _late_control_product])
def test_one_element_acts_on_a_control_batch_and_back(make):
    # Batch shapes broadcast whichever run holds the control-acting factor.
    group = make()
    rng = Rng(11)
    g = group.random_element(rng)
    u = group.random_control(rng, size=4)
    got = group.act_control(g, u)
    assert got.shape == (4, group.n_u)
    assert group.act_control(group.random_element(rng, size=4), u[0]).shape == (4, group.n_u)
    assert np.allclose(group.act_control(group.inverse(g), got), u, atol=1e-12)


def test_singular_factor_in_a_later_run_is_named_by_its_position():
    # Factor 2 (the plain car) opens the mixed product's second run.
    group = _mixed_product()
    x = group.random_state(Rng(9), size=6)
    x[4, 12 + 4 : 12 + 6] = 0.0
    for frame_of in (group.moving_frame, group.reduce, group._canonical):
        with pytest.raises(FrameSingularityError) as e:
            frame_of(x)
        assert (e.value.index, e.value.factor) == ((4,), "2 ('se2car')")

def test_registry_ids():
    assert get_group("se2car").group_id == "se2car"
    assert get_group("parking2").group_id == "parking2"
    assert get_group("reacher").group_id == "reacher"
    assert get_group("const:6").group_id == "const:6"
    assert get_group("const:3").n == 3
    with pytest.raises(ValueError, match="unknown group id"):
        get_group("so3")
    with pytest.raises(ValueError, match="const"):
        get_group("const:0")
    with pytest.raises(ValueError):
        get_group("const:x")


@pytest.mark.parametrize("size", [None, 50], ids=["single", "batch"])
@pytest.mark.parametrize("sampler", ["random_state", "random_element"])
@pytest.mark.parametrize("group_id", ["se2car", "reacher"])
def test_sampler_makes_one_rng_draw(monkeypatch, group_id, sampler, size):
    # Every public draw and every raw block request is counted, so a nested
    # call (angles through uniform, say) would count twice.
    calls = []
    for method in ("uniform", "integers", "angles", "permutation", "next_u64"):
        original = getattr(Rng, method)

        def counted(self, *args, _name=method, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Rng, method, counted)
    getattr(get_group(group_id), sampler)(Rng(4), size=size)
    assert calls == ["uniform", "next_u64"]
