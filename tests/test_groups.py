import re

import numpy as np
import pytest

from framedyn.builtin import HEADING_NORM_FLOOR, get_group
from framedyn.groups import FrameSingularityError, TransformationGroup, wrap_angle
from framedyn.rng import Rng
from framedyn.verify import (
    check_frame,
    check_frame_equivariance,
    check_group_axioms,
    check_reconstruction_roundtrip,
    check_reduce_invariance,
    run_suites,
)
from conftest import BUILTIN_GROUP_IDS, HeadingRotationGroup

ALL_GROUP_IDS = BUILTIN_GROUP_IDS


def test_wrap_angle_interval():
    t = np.linspace(-20, 20, 2001)
    w = wrap_angle(t)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert np.max(np.abs(np.sin(w) - np.sin(t))) < 1e-12
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi


def test_angle_difference_handles_branch_cut():
    # A difference across the branch cut wraps to the short way round.
    assert abs(wrap_angle((np.pi - 1e-12) - (-np.pi + 1e-12))) < 1e-11


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_identity_action(gid):
    group = get_group(gid)
    x = group.random_state(Rng(1), size=200)
    assert np.max(np.abs(group.act_state(group.identity(), x) - x)) == 0.0


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_compose_matches_sequential_action(gid):
    group = get_group(gid)
    rng = Rng(2)
    x = group.random_state(rng, size=1000)
    g1 = group.random_element(rng, size=1000)
    g2 = group.random_element(rng, size=1000)
    lhs = group.act_state(group.compose(g1, g2), x)
    rhs = group.act_state(g1, group.act_state(g2, x))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_compose_with_identity_is_noop(gid):
    group = get_group(gid)
    g = group.random_element(Rng(3), size=50)
    diff = group.coord_difference(group.compose(g, group.identity()), g)
    assert np.max(np.abs(diff)) == 0.0
    assert np.max(np.abs(group.coord_difference(group.inverse(group.identity()),
                                                group.identity()))) == 0.0


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_inverse_roundtrip(gid):
    group = get_group(gid)
    rng = Rng(4)
    x = group.random_state(rng, size=1000)
    g = group.random_element(rng, size=1000)
    assert np.max(np.abs(
        group.act_state(group.inverse(g), group.act_state(g, x)) - x
    )) < 1e-9
    diff = group.coord_difference(group.compose(g, group.inverse(g)), group.identity())
    assert np.max(np.abs(diff)) < 1e-9


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_axiom_suite(gid):
    result = check_group_axioms(get_group(gid), seed=0, samples=1000)
    assert result.passed, f"max error {result.max_error}"


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_frame_property(gid):
    result = check_frame(get_group(gid), seed=0, samples=1000)
    assert result.passed, f"max error {result.max_error}"


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_reduce_is_orbit_invariant(gid):
    result = check_reduce_invariance(get_group(gid), seed=0, samples=1000)
    assert result.passed, f"max error {result.max_error}"


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_frame_equivariance(gid):
    result = check_frame_equivariance(get_group(gid), seed=0, samples=1000)
    assert result.passed, f"max error {result.max_error}"


@pytest.mark.parametrize("gid", ALL_GROUP_IDS)
def test_reduce_reconstruct_roundtrip(gid):
    result = check_reconstruction_roundtrip(get_group(gid), seed=0, samples=1000)
    assert result.passed, f"max error {result.max_error}"


def test_heading_rotation_group_passes_all_suites():
    group = HeadingRotationGroup()
    for check in (check_group_axioms, check_frame, check_reduce_invariance,
                  check_frame_equivariance, check_reconstruction_roundtrip):
        assert check(group, seed=0, samples=500).passed


def test_group_id_mismatch_raises():
    car = get_group("se2car")
    reacher = get_group("reacher")
    g_car = car.random_element(Rng(0))
    g_re = reacher.random_element(Rng(0))
    with pytest.raises(ValueError, match="belongs to"):
        car.compose(g_car, g_re)
    with pytest.raises(ValueError, match="belongs to"):
        car.act_state(g_re, car.random_state(Rng(0)))


def test_non_element_raises_type_error():
    car = get_group("se2car")
    with pytest.raises(TypeError, match="expected GroupElement, got ndarray"):
        car.act_state(np.zeros(3), car.random_state(Rng(0)))


def test_cross_section_of_the_wrong_length_raises():
    class WideSection(HeadingRotationGroup):
        def __init__(self):
            TransformationGroup.__init__(self, group_id="rotcar", r=1, n=6, n_u=2,
                                         a_indices=(4, 5), cross_section=(1.0, 0.0, 0.0))

    with pytest.raises(ValueError, match=re.escape("cross-section constant must have "
                                                   "length 2, got (3,)")):
        WideSection()


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        run_suites(suite="nonsense")


def test_dimension_mismatch_raises():
    car = get_group("se2car")
    g = car.random_element(Rng(0))
    with pytest.raises(ValueError, match="last axis 6"):
        car.act_state(g, np.zeros(5))
    with pytest.raises(ValueError, match="last axis 2"):
        car.act_control(g, np.zeros(3))
    with pytest.raises(ValueError, match="element coordinates"):
        car.element(np.zeros(4))


def test_non_finite_values_rejected():
    car = get_group("se2car")
    bad = np.array([0.0, 0.0, np.nan, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        car.act_state(car.identity(), bad)
    with pytest.raises(ValueError, match="non-finite"):
        car.element(np.array([np.inf, 0.0, 0.0]))


def test_singular_frame_raises():
    car = get_group("se2car")
    x = np.array([1.0, 2.0, 0.5, 0.5, 0.0, 0.0])
    with pytest.raises(FrameSingularityError, match="heading"):
        car.moving_frame(x)
    with pytest.raises(FrameSingularityError):
        car.reduce(x)
    reacher = get_group("reacher")
    xr = reacher.random_state(Rng(1))
    xr[0] = xr[2] = 0.0
    with pytest.raises(FrameSingularityError, match="base joint"):
        reacher.moving_frame(xr)


def test_singular_factor_is_named_apart_from_the_batch_index():
    parking = get_group("parking2")
    x = parking.random_state(Rng(2), size=5)
    x[3, 6 + 4 : 6 + 6] = 0.0  # car 1 of row 3
    with pytest.raises(FrameSingularityError) as single:
        parking.moving_frame(x[3])
    assert str(single.value) == ("heading direction norm below 1e-08 in factor 1 ('se2car'); "
                                 "the frame is undefined there")
    for frame_of in (parking.moving_frame, parking.reduce, parking._canonical):
        with pytest.raises(FrameSingularityError) as batch:
            frame_of(x)
        assert "in factor 1 ('se2car') at batch index 3;" in str(batch.value)
        assert (batch.value.index, batch.value.factor) == ((3,), "1 ('se2car')")
    car = get_group("se2car")
    with pytest.raises(FrameSingularityError, match=r"^heading direction .* at batch index 3;"):
        car.moving_frame(x[:, 6:12])
    reacher = get_group("reacher")
    xr = reacher.random_state(Rng(1), size=4)
    xr[2, 0] = xr[2, 2] = 0.0
    with pytest.raises(FrameSingularityError, match=r"^base joint .* at batch index 2;"):
        reacher.moving_frame(xr)


def test_frame_just_above_the_floor_is_finite():
    above = np.nextafter(HEADING_NORM_FLOOR, 1.0)
    car = get_group("se2car")
    x = np.array([1.0, 2.0, 0.5, 0.5, above, 0.0])
    assert np.isfinite(car.moving_frame(x).coords).all()
    assert np.isfinite(car.reduce(x)).all()
    parking = get_group("parking2")
    xp = parking.random_state(Rng(3))
    xp[10:12] = (0.0, above)
    assert np.isfinite(parking.moving_frame(xp).coords).all()
    reacher = get_group("reacher")
    xr = reacher.random_state(Rng(1))
    xr[0], xr[2] = 0.0, -above
    assert np.isfinite(reacher.moving_frame(xr).coords).all()


def test_const_group_reduce_is_empty():
    const = get_group("const:6")
    x = const.random_state(Rng(0), size=10)
    red = const.reduce(x)
    assert red.shape == (10, 0)
    assert np.array_equal(const.reconstruct_on_cross_section(np.empty(0)), np.zeros(6))


def test_corrupted_frame_breaks_reduce_invariance():
    from conftest import WrongFrameCar

    result = check_reduce_invariance(WrongFrameCar(), seed=0, samples=200)
    assert not result.passed


def test_corrupted_inverse_breaks_axioms():
    from conftest import WrongInverseCar

    result = check_group_axioms(WrongInverseCar(), seed=0, samples=200)
    assert not result.passed
