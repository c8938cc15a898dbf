"""Span tracing of framedyn's public functions, applied from outside the package.

``install(tracer)`` replaces each traced attribute (a module function, a class
method, or a step/policy entry of a frozen ``sim.ENVS`` spec) with a wrapper
that records one span per call, and returns a handle whose ``restore()`` puts
every original object back.  Nothing under ``src/`` is edited.

Per span name the tracer keeps ``calls``, ``rows`` (batch rows the call saw),
``bytes`` (file size, for JSONL I/O) and self time: the span's duration minus
the time covered by the spans it caused.

Worker processes forked by ``framedyn compare`` inherit the wrappers but not
the parent's memory, so there the wrappers add calls, rows and bytes to a
shared array instead; their self time is out of reach and is not reported.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

RNG_METHODS = ("uniform", "integers", "angles", "permutation")
GROUP_METHODS = ("moving_frame", "act_state", "act_control", "inverse")
VERIFY_SUITES = {
    "check_group_axioms": "axioms",
    "check_frame": "frame",
    "check_reduce_invariance": "reduce-invariance",
    "check_frame_equivariance": "frame-equivariance",
    "check_reconstruction_roundtrip": "roundtrip",
    "check_model_invariance": "model-invariance",
    "check_sim_invariance": "sim",
    "check_gradient_exactness": "gradcheck",
}
_FIELDS = ("calls", "rows", "bytes")


@dataclass
class SpanStats:
    calls: int = 0
    rows: int = 0
    bytes: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


_SIZE_POSITION = {"uniform": 2, "integers": 1, "angles": 0}


def _draw_count(method, args, kwargs) -> int:
    """Values one Rng call draws; ``args`` excludes ``self``."""
    if method == "permutation":
        return int(args[0] if args else kwargs["n"])
    pos = _SIZE_POSITION[method]
    size = args[pos] if len(args) > pos else kwargs.get("size")
    return 1 if size is None else int(np.prod(size))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Aggregates spans by name; ``active`` switches recording on and off."""

    def __init__(self, names):
        self.names = list(names)
        self.stats = {name: SpanStats() for name in self.names}
        self.active = False
        self.pid = os.getpid()
        self._open = []  # per open span: time covered by its child spans
        self._slot = {name: i for i, name in enumerate(self.names)}
        self._shared = multiprocessing.Array("q", len(self.names) * len(_FIELDS))
        self._fingerprints = []
        self._weights = None

    def reset(self):
        for name in self.names:
            self.stats[name] = SpanStats()
        with self._shared.get_lock():
            self._shared[:] = [0] * len(self._shared)
        self._fingerprints = []

    def call(self, name, fn, args, kwargs, rows=None, nbytes=None):
        if not self.active:
            return fn(*args, **kwargs)
        if os.getpid() != self.pid:
            out = fn(*args, **kwargs)
            base = self._slot[name] * len(_FIELDS)
            counts = (1, rows(args, kwargs, out) if rows else 0,
                      nbytes(args, kwargs) if nbytes else 0)
            with self._shared.get_lock():
                for k, v in enumerate(counts):
                    self._shared[base + k] += v
            return out
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            if self._open:
                self._open[-1] += dt
            st = self.stats[name]
            st.calls += 1
            st.self_s += dt - child
            st.total_s += dt
        if rows:
            st.rows += rows(args, kwargs, out)
        if nbytes:
            st.bytes += nbytes(args, kwargs)
        return out

    def note_states(self, x):
        """Fingerprint the state rows a moving frame was computed for."""
        xv = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        flat = xv.reshape(-1, xv.shape[-1]).view(np.uint64)
        if self._weights is None or self._weights.size != flat.shape[1]:
            gen = np.random.default_rng(12345)
            self._weights = gen.integers(1, 2**63, size=flat.shape[1], dtype=np.uint64) | 1
        with np.errstate(over="ignore"):
            self._fingerprints.append((flat * self._weights).sum(axis=1, dtype=np.uint64))

    def distinct_states(self) -> int:
        if not self._fingerprints:
            return 0
        return int(np.unique(np.concatenate(self._fingerprints)).size)

    def totals(self) -> dict:
        """Per-name stats, with counts made in forked workers added in."""
        shared = list(self._shared)
        out = {}
        for name in self.names:
            st = self.stats[name]
            base = self._slot[name] * len(_FIELDS)
            out[name] = SpanStats(
                calls=st.calls + shared[base], rows=st.rows + shared[base + 1],
                bytes=st.bytes + shared[base + 2], self_s=st.self_s, total_s=st.total_s,
            )
        return out


class Installed:
    """Handle on installed wrappers; ``restore()`` undoes every replacement."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new, setter=setattr):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr), setter))
        setter(owner, attr, new)

    def replace_item(self, mapping, key, new):
        self._undo.append((mapping, key, mapping[key], None))
        mapping[key] = new

    def targets(self) -> list:
        """(owner, attribute) of every replacement, in install order."""
        return [(owner, attr) for owner, attr, _, _ in self._undo]

    def restore(self):
        while self._undo:
            owner, attr, old, setter = self._undo.pop()
            if setter is None:
                owner[attr] = old
            else:
                setter(owner, attr, old)


def _wrap(tracer, name, fn, rows=None, nbytes=None, before=None):
    def wrapper(*args, **kwargs):
        if before is not None and tracer.active and os.getpid() == tracer.pid:
            before(args, kwargs)
        return tracer.call(name, fn, args, kwargs, rows, nbytes)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# The fields of each span reported as per-layer metrics; "values" is the
# rows count of the rng spans, the number of values drawn.
REPORTED = {
    "rng": ("calls", "values", "self_s"),
    "sim.step": ("calls", "rows", "self_s"),
    "sim.policy": ("calls", "self_s"),
    "dataset.write": ("self_s", "bytes"),
    "dataset.read": ("calls", "self_s", "bytes"),
    "dataset.hash": ("self_s",),
    **{f"groups.{m}": ("calls", "rows", "self_s") for m in GROUP_METHODS},
    "models.predict": ("calls", "rows", "self_s"),
    "models.training_target": ("calls", "self_s"),
    "mlp.forward": ("calls", "rows", "self_s"),
    "mlp.forward_cached": ("self_s",),
    "mlp.backward": ("self_s",),
    "mlp.adam": ("self_s",),
    "training.train": ("self_s",),
    "training.eval": ("calls", "self_s"),
    **{f"verify.{suite}": ("self_s",) for suite in VERIFY_SUITES.values()},
}
FIELD_UNITS = {"calls": "count", "rows": "count", "values": "count", "bytes": "B",
               "self_s": "s"}


def install(tracer: Tracer) -> Installed:
    """Wrap every traced attribute; the caller must call ``restore()``."""
    import framedyn
    from framedyn import cli, dataset, groups, mlp, models, rng, sim, training, verify

    h = Installed()
    w = lambda *a, **k: _wrap(tracer, *a, **k)  # noqa: E731

    for method in RNG_METHODS:
        fn = rng.Rng.__dict__[method]
        h.replace(rng.Rng, method, w(
            "rng", fn, rows=lambda a, k, o, m=method: _draw_count(m, a[1:], k)))

    # Step and policy functions are reached through the frozen ENVS specs.
    for spec in sim.ENVS.values():
        h.replace(spec, "step", w("sim.step", spec.step,
                                  rows=lambda a, k, o: _rows(a[0])),
                  setter=object.__setattr__)
        for key, fn in list(spec.policies.items()):
            h.replace_item(spec.policies, key, w("sim.policy", fn))

    read = w("dataset.read", dataset.read_jsonl,
             rows=lambda a, k, o: len(o), nbytes=lambda a, k: _file_size(a[0]))
    write = _wrap_write(tracer, dataset.write_jsonl)
    for module in (dataset, cli, framedyn):
        h.replace(module, "write_jsonl", write)
        h.replace(module, "read_jsonl", read)
    h.replace(dataset.TransitionDataset, "content_hash",
              w("dataset.hash", dataset.TransitionDataset.content_hash))

    # Public group methods live on the base class; product-group factors are
    # reached through the private maps, so rows are counted once, here.
    tg = groups.TransformationGroup
    group_rows = {
        "moving_frame": lambda a, k, o: _rows(a[1]),
        "act_state": lambda a, k, o: _rows(a[2]),
        "act_control": lambda a, k, o: _rows(a[2]),
        "inverse": lambda a, k, o: _rows(a[1].coords),
    }
    for method in GROUP_METHODS:
        before = (lambda a, k: tracer.note_states(a[1])) if method == "moving_frame" else None
        h.replace(tg, method, w(f"groups.{method}", tg.__dict__[method],
                                rows=group_rows[method], before=before))

    for cls in (models.SymmetryReducedModel, models.BaselineModel):
        h.replace(cls, "predict", w("models.predict", cls.__dict__["predict"],
                                    rows=lambda a, k, o: _rows(a[1])))
        h.replace(cls, "training_target",
                  w("models.training_target", cls.__dict__["training_target"]))

    # Mlp.__call__ is an alias bound at class creation: wrap it on its own.
    for attr in ("forward", "__call__"):
        h.replace(mlp.Mlp, attr, w("mlp.forward", mlp.Mlp.__dict__[attr],
                                   rows=lambda a, k, o: _rows(np.atleast_2d(a[1]))))
    h.replace(mlp.Mlp, "forward_cached", w("mlp.forward_cached", mlp.Mlp.forward_cached))
    h.replace(mlp.Mlp, "backward", w("mlp.backward", mlp.Mlp.backward))
    h.replace(mlp.Adam, "step", w("mlp.adam", mlp.Adam.step))

    train = w("training.train", training.train)
    for module in (training, cli, framedyn):
        h.replace(module, "train", train)
    h.replace(training, "observation_mse", w("training.eval", training.observation_mse))

    for fn_name, suite in VERIFY_SUITES.items():
        h.replace(verify, fn_name, w(f"verify.{suite}", getattr(verify, fn_name)))
    return h


def _wrap_write(tracer, fn):
    # The byte count of a written file is known only after the call returns.
    def write_jsonl(path, ds):
        out = tracer.call("dataset.write", fn, (path, ds), {},
                          rows=lambda a, k, o: len(a[1]))
        if tracer.active and os.getpid() == tracer.pid:
            tracer.stats["dataset.write"].bytes += _file_size(path)
        return out

    write_jsonl.__wrapped__ = fn
    return write_jsonl


def snapshot(pairs) -> list:
    """Identity of each traced attribute's current value."""
    out = []
    for owner, attr in pairs:
        if isinstance(owner, dict):
            out.append(id(owner[attr]))
        elif isinstance(owner, type):
            out.append(id(owner.__dict__[attr]))
        else:
            out.append(id(getattr(owner, attr)))
    return out
