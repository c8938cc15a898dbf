"""Dynamics models built around a regressor on canonical coordinates.

:class:`SymmetryReducedModel` wraps any regressor defined on the reduced
input space (canonical state coordinates plus frame-transformed controls)
into a full-state one-step model that is invariant under the group action by
construction: whatever the regressor computes, transforming state and control
by a group element transforms the prediction the same way.

:class:`BaselineModel` is the control condition: the same regressor surface
applied directly to raw ``(state, control)`` inputs.

Both models support two regression targets: ``absolute`` (predict the next
state directly) and ``delta`` (predict next state minus current state, the
usual choice).

``predict`` and ``training_target`` share one private encode path per model
that validates the inputs once (next states must have the states' shape).
The symmetry model's path then works on the group's raw coordinate maps:
one ``_canonical`` pass per call gives the moving frame, the framed state
and the inverse frame.  For both models the decode context is a tuple of
per-row arrays, so a caller can decode any block of rows by slicing each of
them.

Predictions are returned exactly as the regressor produces them; unit-norm
pairs (headings, joint directions) are not renormalized, so repeated rollout
of a learned model can drift off the state manifold.
"""

from __future__ import annotations

import numpy as np

from .groups import TransformationGroup

MODES = ("delta", "absolute")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _check_arity(regressor, input_dim: int, output_dim: int, input_size: str) -> None:
    """Reject a regressor whose declared arities do not fit the model."""
    in_dim = getattr(regressor, "input_dim", None)
    out_dim = getattr(regressor, "output_dim", None)
    if in_dim is not None and in_dim != input_dim:
        raise ValueError(f"regressor input arity {in_dim} does not match {input_size}")
    if out_dim is not None and out_dim != output_dim:
        raise ValueError(
            f"regressor output arity {out_dim} does not match state size {output_dim}"
        )


class SymmetryReducedModel:
    """Group-invariant one-step dynamics model.

    ``regressor`` must map vectors of length ``group.b_dim + group.n_u`` to
    vectors of length ``group.n`` (batches allowed).  Predictions are
    assembled by framing the state, evaluating the regressor in canonical
    coordinates, and carrying the result back with the inverse frame.
    """

    def __init__(self, group: TransformationGroup, regressor, mode: str = "delta"):
        self.group = group
        self.n, self.n_u = group.n, group.n_u
        self.regressor = regressor
        self.mode = _check_mode(mode)
        self.input_dim = group.b_dim + group.n_u
        self.output_dim = group.n
        _check_arity(regressor, self.input_dim, self.output_dim,
                     f"reduced input size {self.input_dim} "
                     f"(= b_dim {group.b_dim} + n_u {group.n_u})")

    def _encode(self, x, u, x_next=None):
        """Regressor inputs (reduced state, then framed control), the decode
        context (inverse frame, framed state) and the targets for ``x_next``."""
        group = self.group
        xv = group._require_vector(x, group.n, "state")
        uv = group._require_vector(u, group.n_u, "control")
        frame, framed, inverse = group._canonical(xv)
        targets = None
        if x_next is not None:
            xn = group._require_vector(x_next, group.n, "next state")
            if xn.shape != xv.shape:
                raise ValueError(f"next state shape {xn.shape} differs from state {xv.shape}")
            targets = group._act_state(frame, xn)
            if self.mode == "delta":
                targets = targets - framed
        # Built after the targets, so that it is not held with their temporaries.
        inputs = np.concatenate(
            [framed[..., group.b_indices], group._act_control(frame, uv)], axis=-1
        )
        return inputs, (inverse, framed), targets

    def _decode(self, context, out) -> np.ndarray:
        """Carry the regressor output back to original coordinates."""
        group = self.group
        inverse, framed = context
        out = np.asarray(out, dtype=np.float64)
        if out.shape[-1] != group.n:
            raise ValueError(
                f"regressor returned arity {out.shape[-1]}, expected {group.n}"
            )
        if self.mode == "delta":
            out = out + framed
        return group._act_state(inverse, out)

    def predict(self, x, u) -> np.ndarray:
        """One-step prediction; invariant under the group action for any
        regressor.
        """
        inputs, context, _ = self._encode(x, u)
        return self._decode(context, self.regressor(inputs))

    def training_target(self, x, u, x_next) -> tuple[np.ndarray, np.ndarray]:
        """Map transitions to canonical regression pairs ``(inputs, targets)``:
        the reduced state and framed control, then the framed next state
        (absolute mode) or framed state difference (delta mode).

        The pair is frame-independent: transitions that differ only by a
        group element map to the same (inputs, targets).
        """
        inputs, _, targets = self._encode(x, u, x_next)
        return inputs, targets


class BaselineModel:
    """Unreduced one-step model: the regressor sees raw (state, control)."""

    def __init__(self, n: int, n_u: int, regressor, mode: str = "delta"):
        self.n = int(n)
        self.n_u = int(n_u)
        self.regressor = regressor
        self.mode = _check_mode(mode)
        self.input_dim = self.n + self.n_u
        self.output_dim = self.n
        _check_arity(regressor, self.input_dim, self.output_dim,
                     f"n + n_u = {self.input_dim}")
        if self.n < 1 or self.n_u < 0:
            raise ValueError(f"sizes must be n >= 1 and n_u >= 0, got n={n}, n_u={n_u}")

    def _encode(self, x, u, x_next=None):
        """Regressor inputs, the decode context (a tuple of the inputs, whose
        first ``n`` columns are the state) and the targets."""
        xv = np.asarray(x, dtype=np.float64)
        uv = np.asarray(u, dtype=np.float64)
        if xv.shape[-1] != self.n:
            raise ValueError(f"state must have last axis {self.n}, got {xv.shape}")
        if uv.shape[-1] != self.n_u:
            raise ValueError(f"control must have last axis {self.n_u}, got {uv.shape}")
        targets = None
        if x_next is not None:
            xn = np.asarray(x_next, dtype=np.float64)
            if xn.shape != xv.shape:
                raise ValueError(f"next state shape {xn.shape} differs from state {xv.shape}")
            targets = xn if self.mode == "absolute" else xn - xv
        inputs = np.concatenate([xv, uv], axis=-1)
        return inputs, (inputs,), targets

    def _decode(self, context, out) -> np.ndarray:
        xv = context[0][..., :self.n]
        out = np.asarray(out, dtype=np.float64)
        if out.shape[-1] != self.n:
            raise ValueError(f"regressor returned arity {out.shape[-1]}, expected {self.n}")
        if self.mode == "absolute":
            return out
        return xv + out

    def predict(self, x, u) -> np.ndarray:
        inputs, context, _ = self._encode(x, u)
        return self._decode(context, self.regressor(inputs))

    def training_target(self, x, u, x_next) -> tuple[np.ndarray, np.ndarray]:
        inputs, _, targets = self._encode(x, u, x_next)
        return inputs, targets
