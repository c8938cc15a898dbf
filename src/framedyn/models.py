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

Both models share one contract, ``_OneStepModel``: the construction checks,
the input check, the target rule, and ``predict`` and ``training_target`` on
the private ``_encode``/``_decode`` path.  ``x`` must have last axis
``n``, ``u`` last axis ``n_u`` with one control row per state row, ``x_next``
the shape of ``x``, and every value must be finite, or a ``ValueError`` names
the shapes.  Each model supplies only its canonicalization: the symmetry
model's is one ``_canonical`` pass per call, the baseline's the identity.
The decode context is a tuple of per-row arrays, so a caller can decode any
block of rows by slicing each of them.

Predictions are returned exactly as the regressor produces them; unit-norm
pairs (headings, joint directions) are not renormalized, so repeated rollout
of a learned model can drift off the state manifold.
"""

from __future__ import annotations

import numpy as np

from .groups import TransformationGroup

MODES = ("delta", "absolute")


class _OneStepModel:
    """What both models share.  A subclass supplies ``_frame(x, u)``: it
    checks the finiteness of what it reads and returns the frame, the
    regressor inputs and the decode context.  The context's first array
    begins with the framed state; its last is what ``_carry`` takes to carry
    a prediction back (``_carry`` is the identity unless overridden)."""

    def __init__(self, n: int, n_u: int, regressor, mode: str, input_dim: int,
                 input_size: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.n, self.n_u, self.regressor, self.mode = n, n_u, regressor, mode
        self.input_dim, self.output_dim = input_dim, n
        in_dim = getattr(regressor, "input_dim", None)
        out_dim = getattr(regressor, "output_dim", None)
        if in_dim is not None and in_dim != input_dim:
            raise ValueError(f"regressor input arity {in_dim} does not match {input_size}")
        if out_dim is not None and out_dim != n:
            raise ValueError(f"regressor output arity {out_dim} does not match state size {n}")

    def _encode(self, x, u, x_next=None):
        """Check the inputs, then give the regressor inputs, the decode context
        and the targets for ``x_next``: the framed next state (absolute mode)
        or its difference from the framed state (delta mode)."""
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        if x.shape[-1:] != (self.n,) or u.shape != x.shape[:-1] + (self.n_u,):
            raise ValueError(f"state of shape {x.shape} and control of shape {u.shape} do not fit "
                             f"n={self.n}, n_u={self.n_u} with one control row per state row")
        frame, inputs, context = self._frame(x, u)
        targets = None
        if x_next is not None:
            x_next = np.asarray(x_next, dtype=np.float64)
            if x_next.shape != x.shape:
                raise ValueError(f"next state shape {x_next.shape} differs from state {x.shape}")
            self._require_finite(x_next, "next state")
            targets = self._carry(frame, x_next)
            if self.mode == "delta":
                targets = targets - context[0][..., :self.n]
        return inputs, context, targets

    @staticmethod
    def _require_finite(a, what):
        # count_nonzero, not all(): the same answer without all()'s Python layer
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise ValueError(f"non-finite values in {what} of shape {a.shape}")

    def _decode(self, context, out) -> np.ndarray:
        """Carry the regressor output back to original coordinates."""
        out = np.asarray(out, dtype=np.float64)
        if out.shape[-1] != self.n:
            raise ValueError(f"regressor returned arity {out.shape[-1]}, expected {self.n}")
        if self.mode == "delta":
            out = out + context[0][..., :self.n]
        return self._carry(context[-1], out)

    def _carry(self, element, states):
        return states

    def predict(self, x, u) -> np.ndarray:
        """One-step prediction; the symmetry model's is group-invariant for any regressor."""
        inputs, context, _ = self._encode(x, u)
        return self._decode(context, self.regressor(inputs))

    def training_target(self, x, u, x_next) -> tuple[np.ndarray, np.ndarray]:
        """Map transitions to regression pairs ``(inputs, targets)``.  The symmetry
        model's pairs are canonical, so transitions that differ only by a group
        element map to the same pair."""
        inputs, _, targets = self._encode(x, u, x_next)
        return inputs, targets


class SymmetryReducedModel(_OneStepModel):
    """Group-invariant one-step dynamics model.

    ``regressor`` must map vectors of length ``group.b_dim + group.n_u`` to
    vectors of length ``group.n`` (batches allowed).  Predictions are
    assembled by framing the state, evaluating the regressor in canonical
    coordinates, and carrying the result back with the inverse frame.
    """

    def __init__(self, group: TransformationGroup, regressor, mode: str = "delta"):
        self.group = group
        input_dim = group.b_dim + group.n_u
        super().__init__(group.n, group.n_u, regressor, mode, input_dim,
                         f"reduced input size {input_dim} "
                         f"(= b_dim {group.b_dim} + n_u {group.n_u})")

    def _frame(self, x, u):
        """The moving frame, the regressor inputs (reduced state, then framed
        control) and the decode context (framed state, inverse frame)."""
        self._require_finite(x, "state")
        self._require_finite(u, "control")
        group = self.group
        frame, framed, inverse = group._canonical(x)
        inputs = np.concatenate(
            [framed[..., group.b_indices], group._act_control(frame, u)], axis=-1)
        return frame, inputs, (framed, inverse)

    def _carry(self, element, states):
        return self.group._act_state(element, states)

    # Bound per class: perfbench reads both from each class's __dict__ and its
    # selftest replaces SymmetryReducedModel.predict alone.
    predict, training_target = _OneStepModel.predict, _OneStepModel.training_target


class BaselineModel(_OneStepModel):
    """Unreduced one-step model: the regressor sees raw (state, control)."""

    def __init__(self, n: int, n_u: int, regressor, mode: str = "delta"):
        n, n_u = int(n), int(n_u)
        super().__init__(n, n_u, regressor, mode, n + n_u, f"n + n_u = {n + n_u}")
        if n < 1 or n_u < 0:
            raise ValueError(f"sizes must be n >= 1 and n_u >= 0, got n={n}, n_u={n_u}")

    def _frame(self, x, u):
        """The identity frame: the inputs are ``[x, u]``, and so is the context,
        whose first ``n`` columns are the state."""
        inputs = np.concatenate((x, u), axis=-1)
        self._require_finite(inputs, "[state, control]")
        return None, inputs, (inputs,)

    predict, training_target = _OneStepModel.predict, _OneStepModel.training_target
