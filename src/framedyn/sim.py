"""Desk-scale environment simulators and dataset generation.

Two environments:

* ``parking2``: two kinematic cars plus two constant goal blocks
  (state length 24, controls 4).  Each car is a kinematic bicycle stepped
  with explicit Euler; the update uses only body-frame quantities, so the
  dynamics commute with planar translations and rotations exactly.
* ``reacher``: a two-link planar arm with damped decoupled joints and a
  fixed target, observed through the 11-dimensional layout described in
  :class:`framedyn.builtin.ReacherGroup`.

Step functions are pure and accept leading batch axes.  Initial states and
control policies are batched: ``initial_state(draws) -> x`` maps uniforms in
[0, 1) of shape (E, m) to states of shape (E, n), and ``policy(x, draws) ->
u`` maps states of shape (E, n) and uniforms of shape (E, k) to controls of
shape (E, n_u).  ``EnvSpec.state_draws`` declares ``m`` (14 for parking2, 6
for reacher) and ``EnvSpec.policy_draws`` declares ``k`` (``n_u`` for
``uniform-random``, 0 for ``scripted-goal-seek``).

Dataset generation is deterministic given the seed and steps all episodes in
lockstep: one policy call and one step call per time step.  Episode ``e``
gets the first ``m + horizon * k`` values of
``Rng(derive_seed(seed, "episode", e))``: ``m`` for the initial state, then
``k`` per step in step order.  The values of all episodes are drawn in one
pass by :func:`framedyn.rng.uniform_rows`, bit-equal to one generator per
episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import TransitionDataset
from .rng import ANGLE_RANGE, derive_seed, scale, uniform_rows

CAR_DT = 0.1
CAR_WHEELBASE = 1.0
CAR_MAX_ACCEL = 1.0
CAR_MAX_STEER = np.pi / 4

REACHER_DT = 0.05
REACHER_INERTIA = 1.0
REACHER_DAMPING = 0.1
REACHER_LINK = 0.1  # both links
REACHER_MAX_TORQUE = 1.0

POLICIES = ("uniform-random", "scripted-goal-seek")


def car_step(x, u) -> np.ndarray:
    """Kinematic bicycle step for one car state (y, z, v_y, v_z, h_y, h_z).

    Controls are (acceleration, steering angle), clamped to +-1 and +-pi/4.
    Signed speed is the velocity component along the heading; the yaw rate is
    ``speed * tan(steer) / wheelbase``.  Position advances along the current
    heading, then the heading rotates and the velocity is rebuilt as
    ``new_speed * new_heading``, so the state stays on the no-slip manifold
    and the update commutes with planar rigid-body motions.
    """
    xv = np.asarray(x, dtype=np.float64)
    uv = np.asarray(u, dtype=np.float64)
    accel = np.clip(uv[..., 0], -CAR_MAX_ACCEL, CAR_MAX_ACCEL)
    steer = np.clip(uv[..., 1], -CAR_MAX_STEER, CAR_MAX_STEER)
    hy, hz = xv[..., 4], xv[..., 5]
    speed = xv[..., 2] * hy + xv[..., 3] * hz
    new_speed = speed + accel * CAR_DT
    yaw = speed * np.tan(steer) / CAR_WHEELBASE * CAR_DT
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    new_hy = cos_y * hy - sin_y * hz
    new_hz = sin_y * hy + cos_y * hz
    norm = np.hypot(new_hy, new_hz)
    new_hy, new_hz = new_hy / norm, new_hz / norm
    shape = np.broadcast_shapes(xv.shape[:-1], uv.shape[:-1])
    out = np.empty(shape + (6,))
    out[..., 0] = xv[..., 0] + speed * hy * CAR_DT
    out[..., 1] = xv[..., 1] + speed * hz * CAR_DT
    out[..., 2] = new_speed * new_hy
    out[..., 3] = new_speed * new_hz
    out[..., 4] = new_hy
    out[..., 5] = new_hz
    return out


def parking_step(x, u) -> np.ndarray:
    """Joint step for two cars (slices 0:6 and 6:12, controls 0:2 and 2:4);
    the goal blocks 12:24 are constant."""
    xv = np.asarray(x, dtype=np.float64)
    uv = np.asarray(u, dtype=np.float64)
    shape = np.broadcast_shapes(xv.shape[:-1], uv.shape[:-1])
    out = np.empty(shape + (24,))
    out[..., 0:6] = car_step(xv[..., 0:6], uv[..., 0:2])
    out[..., 6:12] = car_step(xv[..., 6:12], uv[..., 2:4])
    out[..., 12:24] = xv[..., 12:24]
    return out


def _reacher_fingertip(th1, th2):
    th12 = th1 + th2
    fy = REACHER_LINK * np.cos(th1) + REACHER_LINK * np.cos(th12)
    fz = REACHER_LINK * np.sin(th1) + REACHER_LINK * np.sin(th12)
    return fy, fz


def _reacher_observation(th1, th2, target, w, height) -> np.ndarray:
    """The 11-dimensional observation of joint angles ``th1`` and ``th2``, the
    ``target`` pair, joint velocities ``w`` and the fingertip height; the
    arrays broadcast against each other."""
    (ty, tz), (fy, fz) = target, _reacher_fingertip(th1, th2)
    return np.stack(np.broadcast_arrays(np.cos(th1), np.cos(th2), np.sin(th1), np.sin(th2),
                                        ty, tz, *w, fy - ty, fz - tz, height), axis=-1)


def reacher_step(x, u) -> np.ndarray:
    """Two-link reacher step on the 11-dimensional observation.

    Joints are decoupled and damped: angular acceleration is
    ``(torque - damping * velocity) / inertia`` with torques clamped to +-1,
    integrated with explicit Euler (angles advance with the old velocities).
    The observation is rebuilt from the integrated joint state; the target,
    read from the observation itself, is constant, and the fingertip height
    passes through unchanged.
    """
    xv = np.asarray(x, dtype=np.float64)
    uv = np.asarray(u, dtype=np.float64)
    tau = np.clip(uv, -REACHER_MAX_TORQUE, REACHER_MAX_TORQUE)
    th1 = np.arctan2(xv[..., 2], xv[..., 0])
    th2 = np.arctan2(xv[..., 3], xv[..., 1])
    w1, w2 = xv[..., 6], xv[..., 7]
    new_th1 = th1 + w1 * REACHER_DT
    new_th2 = th2 + w2 * REACHER_DT
    new_w1 = w1 + (tau[..., 0] - REACHER_DAMPING * w1) / REACHER_INERTIA * REACHER_DT
    new_w2 = w2 + (tau[..., 1] - REACHER_DAMPING * w2) / REACHER_INERTIA * REACHER_DT
    return _reacher_observation(new_th1, new_th2, (xv[..., 4], xv[..., 5]),
                                (new_w1, new_w2), xv[..., 10])


# -- initial states ----------------------------------------------------------
# Batched; row ``e`` of the draws is mapped field by field through ``scale``,
# the values ``Rng.uniform`` and ``Rng.angles`` give for the same draws.


def _random_car_block(d) -> np.ndarray:
    y, z = scale(d[0], -5.0, 5.0), scale(d[1], -5.0, 5.0)
    ang = scale(d[2], *ANGLE_RANGE)
    speed = scale(d[3], -1.0, 1.0)
    hy, hz = np.cos(ang), np.sin(ang)
    return np.stack([y, z, speed * hy, speed * hz, hy, hz], axis=-1)


def _random_goal_block(d) -> np.ndarray:
    ang = scale(d[2], *ANGLE_RANGE)
    zero = np.zeros_like(ang)
    return np.stack([scale(d[0], -5.0, 5.0), scale(d[1], -5.0, 5.0), zero, zero,
                     np.cos(ang), np.sin(ang)], axis=-1)


def parking_initial_state(draws) -> np.ndarray:
    d = draws.T
    return np.concatenate(
        [_random_car_block(d[0:4]), _random_car_block(d[4:8]),
         _random_goal_block(d[8:11]), _random_goal_block(d[11:14])], axis=-1
    )


def reacher_initial_state(draws) -> np.ndarray:
    d = draws.T
    th1, th2 = scale(d[0], *ANGLE_RANGE), scale(d[1], *ANGLE_RANGE)
    w1, w2 = scale(d[2], -1.0, 1.0), scale(d[3], -1.0, 1.0)
    # Target uniform over the reachable disk of radius 2 * link length.
    radius = 2.0 * REACHER_LINK * np.sqrt(d[4])
    t_ang = scale(d[5], *ANGLE_RANGE)
    return _reacher_observation(th1, th2, (radius * np.cos(t_ang), radius * np.sin(t_ang)),
                                (w1, w2), 0.0)


# -- control policies --------------------------------------------------------
# Batched; see the module docstring for the signature.

_PARKING_LIMITS = np.array([CAR_MAX_ACCEL, CAR_MAX_STEER, CAR_MAX_ACCEL, CAR_MAX_STEER])


def _parking_uniform(x, draws) -> np.ndarray:
    return scale(draws, -_PARKING_LIMITS, _PARKING_LIMITS)


def _car_goal_seek(car, goal) -> np.ndarray:
    dy, dz = goal[:, 0] - car[:, 0], goal[:, 1] - car[:, 1]
    hy, hz = car[:, 4], car[:, 5]
    body_y = hy * dy + hz * dz
    body_z = -hz * dy + hy * dz
    bearing = np.arctan2(body_z, body_y)
    steer = np.clip(1.5 * bearing, -CAR_MAX_STEER, CAR_MAX_STEER)
    speed = car[:, 2] * hy + car[:, 3] * hz
    desired = np.minimum(0.7 * np.hypot(dy, dz), 1.5)
    accel = np.clip(desired - speed, -1.0, 1.0)
    return np.stack([accel, steer], axis=-1)


def _parking_goal_seek(x, draws) -> np.ndarray:
    return np.concatenate(
        [_car_goal_seek(x[:, 0:6], x[:, 12:18]), _car_goal_seek(x[:, 6:12], x[:, 18:24])],
        axis=-1,
    )


def _reacher_uniform(x, draws) -> np.ndarray:
    return scale(draws, -REACHER_MAX_TORQUE, REACHER_MAX_TORQUE)


def _rowwise_dot(a, b) -> np.ndarray:
    # A stacked matmul rounds like the per-row ``a @ b``; a*b sums, einsum
    # and .sum(-1) differ from it in the last bit on some rows.
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _reacher_goal_seek(x, draws) -> np.ndarray:
    th1 = np.arctan2(x[:, 2], x[:, 0])
    th2 = np.arctan2(x[:, 3], x[:, 1])
    th12 = th1 + th2
    offset = x[:, 8:10]
    # Jacobian columns of the fingertip position w.r.t. the joint angles.
    j1 = np.stack(
        [-REACHER_LINK * np.sin(th1) - REACHER_LINK * np.sin(th12),
         REACHER_LINK * np.cos(th1) + REACHER_LINK * np.cos(th12)], axis=-1
    )
    j2 = np.stack([-REACHER_LINK * np.sin(th12), REACHER_LINK * np.cos(th12)], axis=-1)
    pull = np.stack([_rowwise_dot(j1, offset), _rowwise_dot(j2, offset)], axis=-1)
    tau = -4.0 * pull - 0.6 * x[:, 6:8]
    return np.clip(tau, -REACHER_MAX_TORQUE, REACHER_MAX_TORQUE)


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one environment."""

    env_id: str
    n: int
    n_u: int
    group_id: str
    step: Callable
    initial_state: Callable
    state_draws: int
    policies: dict
    policy_draws: dict
    default_episodes: int
    default_horizon: int
    default_updates: int
    default_hidden: int


ENVS = {
    "parking2": EnvSpec(
        env_id="parking2", n=24, n_u=4, group_id="parking2",
        step=parking_step, initial_state=parking_initial_state, state_draws=14,
        policies={"uniform-random": _parking_uniform,
                  "scripted-goal-seek": _parking_goal_seek},
        policy_draws={"uniform-random": 4, "scripted-goal-seek": 0},
        default_episodes=400, default_horizon=50,
        default_updates=20000, default_hidden=128,
    ),
    "reacher": EnvSpec(
        env_id="reacher", n=11, n_u=2, group_id="reacher",
        step=reacher_step, initial_state=reacher_initial_state, state_draws=6,
        policies={"uniform-random": _reacher_uniform,
                  "scripted-goal-seek": _reacher_goal_seek},
        policy_draws={"uniform-random": 2, "scripted-goal-seek": 0},
        default_episodes=200, default_horizon=50,
        default_updates=10000, default_hidden=64,
    ),
}


DEFAULT_HIDDEN = 64  # hidden width for a dataset or group with no EnvSpec


def default_hidden(env_id: str) -> int:
    """Default hidden width for an environment (or a built-in env's group)."""
    return ENVS[env_id].default_hidden if env_id in ENVS else DEFAULT_HIDDEN


def get_env(env_id: str) -> EnvSpec:
    try:
        return ENVS[env_id]
    except KeyError:
        raise ValueError(
            f"unknown environment '{env_id}' (expected one of {sorted(ENVS)})"
        ) from None


def generate_dataset(
    env_id: str,
    episodes: int,
    horizon: int,
    policy: str = "uniform-random",
    seed: int = 0,
) -> TransitionDataset:
    """Roll out ``episodes`` trajectories of length ``horizon`` in lockstep
    and collect every transition, episode-major.  Deterministic given
    ``seed``; the random-value contract is in the module docstring.
    """
    env = get_env(env_id)
    if episodes <= 0 or horizon <= 0:
        raise ValueError("episodes and horizon must be positive")
    if policy not in env.policies:
        raise ValueError(f"unknown policy '{policy}' (expected one of {POLICIES})")
    policy_fn, m, k = env.policies[policy], env.state_draws, env.policy_draws[policy]
    # Outputs first, so impossible sizes fail before any work.
    xs = np.empty((episodes, horizon, env.n))
    us = np.empty((episodes, horizon, env.n_u))
    xns = np.empty((episodes, horizon, env.n))
    draws = uniform_rows([derive_seed(seed, "episode", ep) for ep in range(episodes)],
                         m + horizon * k)
    x = env.initial_state(draws[:, :m])
    for t in range(horizon):
        u = policy_fn(x, draws[:, m + t * k : m + (t + 1) * k])
        x_next = env.step(x, u)
        xs[:, t], us[:, t], xns[:, t] = x, u, x_next
        x = x_next
    count = episodes * horizon
    return TransitionDataset(env_id=env_id, n=env.n, n_u=env.n_u, seed=seed,
                             x=xs.reshape(count, env.n), u=us.reshape(count, env.n_u),
                             x_next=xns.reshape(count, env.n))
