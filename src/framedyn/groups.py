"""Transformation groups acting on state and control spaces.

A group element ``g`` acts on states through ``act_state`` and on controls
through ``act_control``.  Each group declares a split of the state
coordinates into an ``a`` part and a ``b`` part together with a constant
``c``: the cross-section is the set of states whose ``a``-projection equals
``c``.  ``moving_frame(x)`` returns the unique element that carries ``x``
onto the cross-section, and ``reduce(x)``, the ``b``-projection of that
framed state, gives canonical coordinates that are constant along every
group orbit.

All operations are pure, work in float64, and accept arbitrary leading batch
axes; the last axis always carries coordinates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .rng import Rng


class FrameSingularityError(ValueError):
    """The moving frame is undefined at the given state."""


def singular_frame(reason: str, index=(), where: str = "batch index",
                   factor: str | None = None) -> FrameSingularityError:
    """The error for a frame that fails at ``index`` (empty for one state), with
    what ``index`` counts and any product ``factor``, all kept as attributes."""
    index = tuple(int(i) for i in index)
    place = "" if factor is None else f" in factor {factor}"
    if index:
        place += f" at {where} {index[0] if len(index) == 1 else list(index)}"
    err = FrameSingularityError(f"{reason}{place}; the frame is undefined there")
    err.reason, err.index, err.where, err.factor = reason, index, where, factor
    return err


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.remainder(np.pi - np.asarray(theta, dtype=np.float64), 2.0 * np.pi)


@dataclass(frozen=True)
class GroupElement:
    """Coordinates of one group element, tied to its group by id."""

    coords: np.ndarray
    group_id: str


class TransformationGroup(abc.ABC):
    """Contract shared by every concrete group.

    Subclasses implement the raw coordinate maps (``_compose``, ``_inverse``,
    ``_act_state``, ``_moving_frame`` and optionally ``_act_control``); this
    base class adds validation, element wrapping, and the generic reduction
    machinery derived from the a/b split.  ``_canonical`` (the frame, the
    framed state and the inverse frame of a state batch) is composed from
    those maps and may be overridden with one pass that gives the same bits.
    """

    def __init__(
        self,
        group_id: str,
        r: int,
        n: int,
        n_u: int,
        a_indices,
        cross_section,
        angular_coords: tuple[int, ...] = (),
    ):
        self.group_id = group_id
        self.r = int(r)
        self.n = int(n)
        self.n_u = int(n_u)
        self.a_indices = np.asarray(a_indices, dtype=np.intp)
        self.b_indices = np.asarray(
            [i for i in range(self.n) if i not in set(self.a_indices.tolist())], dtype=np.intp
        )
        self.b_dim = int(self.b_indices.size)
        self.cross_section = np.asarray(cross_section, dtype=np.float64)
        self.angular_coords = tuple(angular_coords)
        if self.cross_section.shape != (self.n - self.b_dim,):
            raise ValueError(
                f"cross-section constant must have length {self.n - self.b_dim}, "
                f"got {self.cross_section.shape}"
            )

    # -- raw coordinate maps -------------------------------------------------

    @abc.abstractmethod
    def _compose(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _inverse(self, c: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _act_state(self, c: np.ndarray, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _moving_frame(self, x: np.ndarray) -> np.ndarray: ...

    def _act_control(self, c: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Default: the group leaves controls untouched.
        return u

    def _canonical(self, x: np.ndarray):
        """``(frame, framed, inverse)``: the moving frame of ``x``, ``x`` carried
        by it, and the frame's inverse."""
        frame = self._moving_frame(x)
        return frame, self._act_state(frame, x), self._inverse(frame)

    # -- validation ----------------------------------------------------------

    def _require_vector(self, v, length: int, what: str) -> np.ndarray:
        arr = np.asarray(v, dtype=np.float64)
        if arr.ndim < 1 or arr.shape[-1] != length:
            raise ValueError(
                f"{what} for group '{self.group_id}' must have last axis {length}, "
                f"got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} for group '{self.group_id}' contains non-finite values")
        return arr

    def _require_element(self, g: GroupElement) -> np.ndarray:
        if not isinstance(g, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(g).__name__}")
        if g.group_id != self.group_id:
            raise ValueError(
                f"group element belongs to '{g.group_id}', not '{self.group_id}'"
            )
        return self._require_vector(g.coords, self.r, "element coordinates")

    # -- public surface ------------------------------------------------------

    def element(self, coords) -> GroupElement:
        """Validated element constructor."""
        arr = self._require_vector(coords, self.r, "element coordinates")
        return GroupElement(arr, self.group_id)

    def identity(self) -> GroupElement:
        return GroupElement(np.zeros(self.r), self.group_id)

    def compose(self, g1: GroupElement, g2: GroupElement) -> GroupElement:
        c1 = self._require_element(g1)
        c2 = self._require_element(g2)
        return GroupElement(self._compose(c1, c2), self.group_id)

    def inverse(self, g: GroupElement) -> GroupElement:
        return GroupElement(self._inverse(self._require_element(g)), self.group_id)

    def act_state(self, g: GroupElement, x) -> np.ndarray:
        c = self._require_element(g)
        xv = self._require_vector(x, self.n, "state")
        return self._act_state(c, xv)

    def act_control(self, g: GroupElement, u) -> np.ndarray:
        c = self._require_element(g)
        uv = self._require_vector(u, self.n_u, "control")
        return self._act_control(c, uv)

    def moving_frame(self, x) -> GroupElement:
        """Unique element carrying ``x`` onto the cross-section.

        Raises :class:`FrameSingularityError` where no such element exists
        (each group documents its singular set).
        """
        xv = self._require_vector(x, self.n, "state")
        return GroupElement(self._moving_frame(xv), self.group_id)

    def reduce(self, x) -> np.ndarray:
        """Canonical coordinates of ``x``: b-projection of the framed state."""
        xv = self._require_vector(x, self.n, "state")
        return self._act_state(self._moving_frame(xv), xv)[..., self.b_indices]

    def reconstruct_on_cross_section(self, x_bar) -> np.ndarray:
        """The unique cross-section state whose reduction equals ``x_bar``."""
        xb = self._require_vector(x_bar, self.b_dim, "reduced state")
        out = np.empty(xb.shape[:-1] + (self.n,))
        out[..., self.a_indices] = self.cross_section
        out[..., self.b_indices] = xb
        return out

    def coord_difference(self, g1: GroupElement, g2: GroupElement) -> np.ndarray:
        """Per-coordinate difference, wrapping angular coordinates mod 2*pi."""
        c1 = self._require_element(g1)
        c2 = self._require_element(g2)
        diff = c1 - c2
        if self.angular_coords:
            diff = diff.copy()
            idx = list(self.angular_coords)
            diff[..., idx] = wrap_angle(diff[..., idx])
        return diff

    # -- sampling (used by property suites and the verify command) -----------

    @abc.abstractmethod
    def random_element(self, rng: Rng, size=None) -> GroupElement: ...

    @abc.abstractmethod
    def random_state(self, rng: Rng, size=None) -> np.ndarray: ...

    def random_control(self, rng: Rng, size=None) -> np.ndarray:
        shape = (self.n_u,) if size is None else (size, self.n_u)
        return rng.uniform(-1.0, 1.0, size=shape)

    def __repr__(self):
        return (
            f"{type(self).__name__}(id={self.group_id!r}, r={self.r}, n={self.n}, "
            f"n_u={self.n_u}, b_dim={self.b_dim})"
        )
