"""Built-in transformation groups.

* :class:`SE2CarGroup`: planar rigid-body motions (translation + rotation)
  acting on a car state ``(y, z, v_y, v_z, h_y, h_z)`` where ``(h_y, h_z)``
  is the unit heading direction.
* :class:`ConstantTranslationGroup`: pure translations of a constant block
  (used for goal coordinates, which the dynamics never change).
* :class:`ReacherGroup`: base-joint rotation plus target/height translation
  for the 11-dimensional two-link reacher observation.
* :class:`ProductGroup`: blockwise product of an ordered list of factor
  groups, each map one loop over the runs of identical factors.

Groups are selected by string id: ``se2car``, ``parking2``, ``reacher``,
``const:<d>``.
"""

from __future__ import annotations

import numpy as np

from .groups import (FrameSingularityError, GroupElement, TransformationGroup, singular_frame,
                     wrap_angle)
from .rng import ANGLE_RANGE, Rng, scale

HEADING_NORM_FLOOR = 1e-8

# Fields of a ProductGroup run's blocks and widths: state, control, coordinates.
_STATE, _CONTROL, _COORDS = 0, 1, 2


def _rotate(c, s, a, b):
    """Apply the rotation [[c, -s], [s, c]] to the pair (a, b)."""
    return c * a - s * b, s * a + c * b


def _direction_norm(a, b, what: str):
    """``hypot(a, b)``; the frame is singular where it is below ``HEADING_NORM_FLOOR``."""
    norm = np.hypot(a, b)
    bad = norm < HEADING_NORM_FLOOR
    if bad.any():
        raise singular_frame(f"{what} norm below {HEADING_NORM_FLOOR:g}", np.argwhere(bad)[0])
    return norm


def _draw_fields(rng: Rng, size, *ranges):
    """One field-major ``rng.uniform`` block, row ``i`` scaled to ``ranges[i]``:
    the values one draw per field, in field order, would give."""
    units = rng.uniform(size=(len(ranges),) if size is None else (len(ranges), size))
    return [scale(row, low, high) for row, (low, high) in zip(units, ranges)]


class SE2CarGroup(TransformationGroup):
    """Planar translations and rotations acting on a single car state.

    Element coordinates are ``(t_y, t_z, theta)`` with ``theta`` kept in
    (-pi, pi].  The action rotates the position, velocity and heading pairs
    and then translates the position pair only; controls are untouched.  The
    cross-section pins ``(y, z, h_y, h_z) = (0, 0, 1, 0)``: the frame moves
    the car to the origin facing along +y, and the reduced coordinates are
    the body-frame velocity pair.

    The frame is singular where the heading direction norm falls below
    ``HEADING_NORM_FLOOR``; heading pairs are renormalized before use.
    """

    def __init__(self, group_id: str = "se2car"):
        super().__init__(
            group_id=group_id,
            r=3,
            n=6,
            n_u=2,
            a_indices=(0, 1, 4, 5),
            cross_section=(0.0, 0.0, 1.0, 0.0),
            angular_coords=(2,),
        )

    def _compose(self, c1, c2):
        cos1, sin1 = np.cos(c1[..., 2]), np.sin(c1[..., 2])
        ty, tz = _rotate(cos1, sin1, c2[..., 0], c2[..., 1])
        out = np.empty(ty.shape + (3,))
        out[..., 0] = ty + c1[..., 0]
        out[..., 1] = tz + c1[..., 1]
        out[..., 2] = wrap_angle(c1[..., 2] + c2[..., 2])
        return out

    def _inverse(self, c):
        cos, sin = np.cos(c[..., 2]), np.sin(c[..., 2])
        # -R(-theta) t
        ty, tz = _rotate(cos, -sin, c[..., 0], c[..., 1])
        out = np.empty(c.shape)
        out[..., 0] = -ty
        out[..., 1] = -tz
        out[..., 2] = wrap_angle(-c[..., 2])
        return out

    def _act_state(self, c, x):
        # Pair by pair: a (..., 3) block rotation takes fewer calls, but its
        # (..., 1) cos broadcast runs 3-element inner loops on large batches.
        cos, sin = np.cos(c[..., 2]), np.sin(c[..., 2])
        py, pz = _rotate(cos, sin, x[..., 0], x[..., 1])
        out = np.empty(py.shape + (6,))
        out[..., 0] = py + c[..., 0]
        out[..., 1] = pz + c[..., 1]
        out[..., 2], out[..., 3] = _rotate(cos, sin, x[..., 2], x[..., 3])
        out[..., 4], out[..., 5] = _rotate(cos, sin, x[..., 4], x[..., 5])
        return out

    def _moving_frame(self, x):
        norm = _direction_norm(x[..., 4], x[..., 5], "heading direction")
        hy = x[..., 4] / norm
        hz = x[..., 5] / norm
        y, z = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (3,))
        out[..., 0] = -y * hy - z * hz
        out[..., 1] = y * hz - z * hy
        out[..., 2] = np.arctan2(-hz, hy)
        return out

    def random_element(self, rng: Rng, size=None) -> GroupElement:
        coords = _draw_fields(rng, size, (-5.0, 5.0), (-5.0, 5.0), ANGLE_RANGE)
        return GroupElement(np.stack(coords, axis=-1), self.group_id)

    def random_state(self, rng: Rng, size=None) -> np.ndarray:
        *pos_vel, ang = _draw_fields(rng, size, (-5.0, 5.0), (-5.0, 5.0), (-2.0, 2.0),
                                     (-2.0, 2.0), ANGLE_RANGE)
        return np.stack([*pos_vel, np.cos(ang), np.sin(ang)], axis=-1)


class ConstantTranslationGroup(TransformationGroup):
    """Additive group of translations of a d-dimensional constant block.

    Acts by ``x + delta``.  Every state coordinate belongs to the ``a`` part,
    so the reduced state is empty: constants carry no dynamical information
    once the symmetry is removed.  There are no controls.
    """

    def __init__(self, dim: int):
        super().__init__(
            group_id=f"const:{dim}",
            r=dim,
            n=dim,
            n_u=0,
            a_indices=tuple(range(dim)),
            cross_section=np.zeros(dim),
        )

    def _compose(self, c1, c2):
        return c1 + c2

    def _inverse(self, c):
        return -c

    def _act_state(self, c, x):
        return x + c

    def _moving_frame(self, x):
        return -x

    def random_element(self, rng: Rng, size=None) -> GroupElement:
        return GroupElement(self.random_state(rng, size), self.group_id)  # r == n

    def random_state(self, rng: Rng, size=None) -> np.ndarray:
        shape = (self.n,) if size is None else (size, self.n)
        return rng.uniform(-5.0, 5.0, size=shape)


class ReacherGroup(TransformationGroup):
    """Base-joint rotation with target/height translation for the reacher.

    Observation layout (zero-based indices in brackets):
    cos/sin of the two joint angles ``x1, x2, x3, x4`` [0..3], target
    position ``x5, x6`` [4, 5], joint velocities ``x7, x8`` [6, 7],
    fingertip-minus-target offset ``x9, x10`` [8, 9], and fingertip height
    ``x11`` [10].

    An element ``(theta, d1, d2, d3)`` rotates the first joint pair, maps the
    target through ``R(theta) ((x5, x6) + (d1, d2))``, the offset through
    ``R(theta) ((x9, x10) - (d1, d2))``, adds ``d3`` to the height, and fixes
    everything else.  The cross-section pins ``x1 = 1, x3 = 0`` (base joint
    at angle zero) and ``x5 = x6 = x11 = 0``; the frame is singular where
    ``hypot(x1, x3)`` falls below ``HEADING_NORM_FLOOR``.
    """

    def __init__(self, group_id: str = "reacher"):
        super().__init__(
            group_id=group_id,
            r=4,
            n=11,
            n_u=2,
            a_indices=(0, 2, 4, 5, 10),
            cross_section=(1.0, 0.0, 0.0, 0.0, 0.0),
            angular_coords=(0,),
        )

    def _compose(self, c1, c2):
        cos2, sin2 = np.cos(c2[..., 0]), np.sin(c2[..., 0])
        # Translations apply before the rotation, so g1's translation is
        # carried back through g2's rotation.
        d1, d2 = _rotate(cos2, -sin2, c1[..., 1], c1[..., 2])
        out = np.empty(d1.shape + (4,))
        out[..., 0] = wrap_angle(c1[..., 0] + c2[..., 0])
        out[..., 1] = c2[..., 1] + d1
        out[..., 2] = c2[..., 2] + d2
        out[..., 3] = c1[..., 3] + c2[..., 3]
        return out

    def _inverse(self, c):
        cos, sin = np.cos(c[..., 0]), np.sin(c[..., 0])
        d1, d2 = _rotate(cos, sin, c[..., 1], c[..., 2])
        out = np.empty(c.shape)
        out[..., 0] = wrap_angle(-c[..., 0])
        out[..., 1] = -d1
        out[..., 2] = -d2
        out[..., 3] = -c[..., 3]
        return out

    def _act_state(self, c, x):
        cos, sin = np.cos(c[..., 0]), np.sin(c[..., 0])
        d1, d2, d3 = c[..., 1], c[..., 2], c[..., 3]
        x0, x2 = _rotate(cos, sin, x[..., 0], x[..., 2])
        out = np.empty(x0.shape + (11,))
        out[..., 0], out[..., 2] = x0, x2
        out[..., 1] = x[..., 1]
        out[..., 3] = x[..., 3]
        out[..., 4], out[..., 5] = _rotate(cos, sin, x[..., 4] + d1, x[..., 5] + d2)
        out[..., 6] = x[..., 6]
        out[..., 7] = x[..., 7]
        out[..., 8], out[..., 9] = _rotate(cos, sin, x[..., 8] - d1, x[..., 9] - d2)
        out[..., 10] = x[..., 10] + d3
        return out

    def _moving_frame(self, x):
        _direction_norm(x[..., 0], x[..., 2], "base joint direction")
        out = np.empty(x.shape[:-1] + (4,))
        out[..., 0] = np.arctan2(-x[..., 2], x[..., 0])
        out[..., 1] = -x[..., 4]
        out[..., 2] = -x[..., 5]
        out[..., 3] = -x[..., 10]
        return out

    def random_element(self, rng: Rng, size=None) -> GroupElement:
        coords = _draw_fields(rng, size, ANGLE_RANGE, (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        return GroupElement(np.stack(coords, axis=-1), self.group_id)

    def random_state(self, rng: Rng, size=None) -> np.ndarray:
        a1, a2, *rest = _draw_fields(rng, size, ANGLE_RANGE, ANGLE_RANGE, (-1.0, 1.0), (-1.0, 1.0),
                                     (-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0), (-1.0, 1.0))
        return np.stack([np.cos(a1), np.cos(a2), np.sin(a1), np.sin(a2), *rest,
                         np.zeros_like(a1)], axis=-1)


class ProductGroup(TransformationGroup):
    """Blockwise product of an ordered list of factor groups.

    Each factor owns the next ``n`` state coordinates, the next ``n_u``
    controls and the next ``r`` element coordinates, in list order, so the
    joint state, control and element coordinates are the factors'
    concatenated.

    A run of k consecutive identical factors (same class and id) is applied
    as one factor call on ``(..., k, width)`` views; the maps are elementwise,
    so the bits equal those of one call per factor.  Every map, ``_canonical``
    included, is one walk over the runs in ``_each_run``.  A product whose
    factors all keep the default ``_act_control`` returns the controls as
    given.
    """

    def __init__(self, group_id: str, factors):
        self.factors = list(factors)
        runs = []  # [group, k, state start, control start, coordinate start]
        a_indices, angular = [], []
        n = n_u = r = 0
        for group in self.factors:
            if runs and type(runs[-1][0]) is type(group) and runs[-1][0].group_id == group.group_id:
                runs[-1][1] += 1
            else:
                runs.append([group, 1, n, n_u, r])
            a_indices.extend(n + group.a_indices)
            angular.extend(r + a for a in group.angular_coords)
            n, n_u, r = n + group.n, n_u + group.n_u, r + group.r
        # (group, k, blocks): the run's state, control and coordinate slices of
        # the joint axis, each with the (k, width) shape of its view.
        self._runs = [(g, k, [(slice(at, at + k * w), (k, w))
                              for at, w in ((s, g.n), (c, g.n_u), (o, g.r))])
                      for g, k, s, c, o in runs]
        self._widths = (n, n_u, r)
        super().__init__(
            group_id=group_id,
            r=r,
            n=n,
            n_u=n_u,
            a_indices=a_indices,
            cross_section=np.concatenate([g.cross_section for g in self.factors]),
            angular_coords=angular,
        )
        # Factors that keep the base-class default leave controls untouched.
        self._acts_on_controls = any(type(g)._act_control is not TransformationGroup._act_control
                                     for g in self.factors)

    def _each_run(self, name, outs, *operands):
        """The joint outputs of the factor map ``name``, one call per run.

        ``operands`` are ``(array, field)`` pairs and ``outs`` the fields of
        the outputs: each call gets the ``(..., k, width)`` views of its
        operands' blocks.  The joint outputs are allocated after the first
        call: allocated before it, they raised the peak RSS of a training run
        by ~0.8 MB.
        """
        joint, first = None, 0  # first: the position of the run's first factor
        try:
            for group, k, blocks in self._runs:
                views = []  # a loop, not a comprehension: cheaper per call
                for v, f in operands:
                    sl, shape = blocks[f]
                    views.append(v[..., sl].reshape(v.shape[:-1] + shape))
                parts = getattr(group, name)(*views)
                if len(outs) == 1:
                    parts = (parts,)
                if joint is None:
                    batch = parts[0].shape[:-2]
                    joint = [np.empty(batch + (self._widths[f],)) for f in outs]
                for out, part, f in zip(joint, parts, outs):
                    out[..., blocks[f][0]] = part.reshape(batch + (k * part.shape[-1],))
                del views, parts, part  # not held through the next run's call
                first += k
        except FrameSingularityError as e:
            if not getattr(e, "index", ()):
                raise
            # Placed at its factor: the run's factors sit on the call's last
            # batch axis.
            *batch, slot = e.index
            raise singular_frame(e.reason, batch, e.where,
                                 f"{first + slot} ('{group.group_id}')") from None
        return joint

    def _compose(self, c1, c2):
        return self._each_run("_compose", (_COORDS,), (c1, _COORDS), (c2, _COORDS))[0]

    def _inverse(self, c):
        return self._each_run("_inverse", (_COORDS,), (c, _COORDS))[0]

    def _act_state(self, c, x):
        return self._each_run("_act_state", (_STATE,), (c, _COORDS), (x, _STATE))[0]

    def _act_control(self, c, u):
        if not self._acts_on_controls:
            return u
        # A factor that leaves controls untouched returns its view of u, which
        # must already have the joint batch shape.
        u = np.broadcast_to(u, np.broadcast_shapes(c.shape[:-1], u.shape[:-1]) + (self.n_u,))
        return self._each_run("_act_control", (_CONTROL,), (c, _COORDS), (u, _CONTROL))[0]

    def _moving_frame(self, x):
        return self._each_run("_moving_frame", (_COORDS,), (x, _STATE))[0]

    def _canonical(self, x):
        return self._each_run("_canonical", (_COORDS, _STATE, _COORDS), (x, _STATE))

    def random_element(self, rng: Rng, size=None) -> GroupElement:
        coords = np.concatenate(
            [g.random_element(rng, size=size).coords for g in self.factors], axis=-1)
        return GroupElement(coords, self.group_id)

    def random_state(self, rng: Rng, size=None) -> np.ndarray:
        return np.concatenate([g.random_state(rng, size=size) for g in self.factors], axis=-1)


def make_parking_group() -> ProductGroup:
    """Joint group for the two-car parking state: one planar rigid-body group
    per car plus one constant-translation group per goal block.

    The 24-dimensional state reduces to 4 coordinates (each car's body-frame
    velocity pair); the 4 control inputs (2 per car) are untouched.
    """
    return ProductGroup("parking2", [SE2CarGroup(), SE2CarGroup(),
                                     ConstantTranslationGroup(6), ConstantTranslationGroup(6)])


def get_group(group_id: str) -> TransformationGroup:
    """Look up a built-in group by id: se2car, parking2, reacher, const:<d>."""
    if group_id == "se2car":
        return SE2CarGroup()
    if group_id == "parking2":
        return make_parking_group()
    if group_id == "reacher":
        return ReacherGroup()
    if group_id.startswith("const:"):
        try:
            dim = int(group_id.split(":", 1)[1])
        except ValueError:
            dim = 0
        if dim <= 0:
            raise ValueError(f"invalid constant-translation group id '{group_id}'")
        return ConstantTranslationGroup(dim)
    raise ValueError(
        f"unknown group id '{group_id}' (expected se2car, parking2, reacher, const:<d>)"
    )
