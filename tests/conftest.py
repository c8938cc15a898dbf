import numpy as np
import pytest

from framedyn.builtin import SE2CarGroup, get_group
from framedyn.groups import GroupElement, TransformationGroup, wrap_angle
from framedyn.rng import Rng
from framedyn.sim import generate_dataset

BUILTIN_GROUP_IDS = ("se2car", "const:6", "parking2", "reacher")


class HeadingRotationGroup(TransformationGroup):
    """Rotation-only variant of the car group: the action is linear (no
    translation part)."""

    def __init__(self):
        super().__init__(
            group_id="rotcar", r=1, n=6, n_u=2,
            a_indices=(4, 5), cross_section=(1.0, 0.0),
            angular_coords=(0,),
        )

    def _compose(self, c1, c2):
        return wrap_angle(c1 + c2)

    def _inverse(self, c):
        return wrap_angle(-c)

    def _act_state(self, c, x):
        cos, sin = np.cos(c[..., 0]), np.sin(c[..., 0])
        shape = np.broadcast_shapes(c.shape[:-1], x.shape[:-1])
        out = np.empty(shape + (6,))
        for k in (0, 2, 4):
            out[..., k] = cos * x[..., k] - sin * x[..., k + 1]
            out[..., k + 1] = sin * x[..., k] + cos * x[..., k + 1]
        return out

    def _moving_frame(self, x):
        norm = np.hypot(x[..., 4], x[..., 5])
        if np.any(norm < 1e-8):
            from framedyn.groups import FrameSingularityError

            raise FrameSingularityError("heading direction norm too small")
        out = np.empty(x.shape[:-1] + (1,))
        out[..., 0] = np.arctan2(-x[..., 5], x[..., 4])
        return out

    def random_element(self, rng: Rng, size=None) -> GroupElement:
        shape = (1,) if size is None else (size, 1)
        return GroupElement(np.asarray(rng.angles(size=shape)), self.group_id)

    def random_state(self, rng: Rng, size=None) -> np.ndarray:
        return SE2CarGroup().random_state(rng, size=size)


class WrongInverseCar(SE2CarGroup):
    """Mutation fixture: the inverse drops the translation sign flip."""

    def _inverse(self, c):
        out = super()._inverse(c)
        out[..., 0] *= -1.0
        out[..., 1] *= -1.0
        return out


class WrongFrameCar(SE2CarGroup):
    """Mutation fixture: the frame rotates by the wrong sign."""

    def _moving_frame(self, x):
        out = super()._moving_frame(x)
        out[..., 2] *= -1.0
        return out


@pytest.fixture(scope="session")
def builtin_groups():
    return [get_group(gid) for gid in BUILTIN_GROUP_IDS]


@pytest.fixture(scope="session")
def parking_group():
    return get_group("parking2")


@pytest.fixture(scope="session")
def reacher_group():
    return get_group("reacher")


@pytest.fixture(scope="session")
def small_parking_dataset():
    return generate_dataset("parking2", episodes=20, horizon=25, seed=5)


@pytest.fixture(scope="session")
def small_reacher_dataset():
    return generate_dataset("reacher", episodes=20, horizon=25, seed=5)


@pytest.fixture(scope="session")
def default_parking_dataset():
    # CLI default desk-scale dataset: 400 episodes x 50 steps.
    return generate_dataset("parking2", episodes=400, horizon=50, seed=0)


@pytest.fixture(scope="session")
def default_reacher_dataset():
    # CLI default desk-scale dataset: 200 episodes x 50 steps.
    return generate_dataset("reacher", episodes=200, horizon=50, seed=0)
