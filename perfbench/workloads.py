"""The four benchmark workloads: datagen, train, infer and compare.

Each workload builds its inputs from the workload seed in ``setup()``, does
one unit of timed work per ``cycle()`` and checks the outputs of every cycle
in ``check()``.  Calls into framedyn go through module attributes
(``sim.generate_dataset``, ``training.train``, ...), so that the wrappers of
:mod:`spans` see them.  Each workload reports its own named end-to-end
metrics (``named()``) and the per-layer figures only it can measure
(``layer()``).
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framedyn import builtin, cli, dataset, rng, sim, training, verify

DEFAULT_SEED = 0
CLI_TRAIN_SEED = 0  # `framedyn train` default --seed
CLI_INIT_SEED = rng.derive_seed(CLI_TRAIN_SEED, "init")


@dataclass(frozen=True)
class Sizes:
    # Datasets for train and compare are the gen-data defaults (400x50
    # parking2, 20k transitions).  A datagen cycle makes a quarter of the
    # defaults and a train cycle 1000 updates per model, so that a run holds
    # a dozen cycles or more to take the median of.
    parking_episodes: int = 400
    datagen_parking_episodes: int = 100
    datagen_reacher_episodes: int = 50
    horizon: int = 50
    train_updates: int = 1000
    eval_every: int = 250
    width: int = 128
    infer_episodes: int = 40  # 2,000 states for the batch-1 sweep
    verify_samples: int = 1000
    compare_updates: int = 1000
    setup_repeats: int = 3


DEFAULT_SIZES = Sizes()
TINY_SIZES = Sizes(parking_episodes=6, datagen_parking_episodes=6, datagen_reacher_episodes=4,
                   horizon=10, train_updates=20, eval_every=10, width=16, infer_episodes=2,
                   verify_samples=20, compare_updates=10, setup_repeats=2)


# Per-layer metrics that only some workloads measure (Workload.layer); the
# others report 0.
LAYER_UNITS = {
    "cli.compare.child_cpu_s": "s",
    "cli.compare.cpu_per_core_wall": "ratio",
    "cli.compare.child_nivcsw": "count",
    "cli.compare.blas_threads": "count",
    "mlp.flops_per_update.sym": "flop",
    "mlp.flops_per_eval_record.sym": "flop",
    "mlp.flops_per_update.base": "flop",
    "mlp.flops_per_eval_record.base": "flop",
    "mlp.gflops_per_s": "GFLOP/s",
}


class Ledger:
    """Operations attempted and failed in one run, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def ops(self, count: int):
        self.attempted += count


def blas_threads() -> int:
    """Threads of the loaded OpenBLAS, asked from the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(count: int) -> float:
    """Highest of 99.9/99/95/90/50 with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if round(count * (100.0 - p) / 100.0, 6) >= 10:
            return p
    return 50.0


def _same_arrays(a: dataset.TransitionDataset, b: dataset.TransitionDataset) -> bool:
    return (
        (a.env_id, a.n, a.n_u, a.seed) == (b.env_id, b.n, b.n_u, b.seed)
        and all(np.asarray(p).tobytes() == np.asarray(q).tobytes()
                for p, q in ((a.x, b.x), (a.u, b.u), (a.x_next, b.x_next)))
    )


def _gemm_flops(layer_dims, rows: int, backward: bool) -> int:
    """2*m*k*n per matrix product: forward, plus weight and input gradients."""
    fwd = sum(2 * rows * i * o for i, o in layer_dims)
    if not backward:
        return fwd
    return 2 * fwd + sum(2 * rows * i * o for i, o in layer_dims[1:])


class Workload:
    name = ""
    min_cycles = 1

    def __init__(self, root: Path, tmp: Path, seed: int, sizes: Sizes, ledger: Ledger):
        self.root, self.tmp, self.seed, self.sizes, self.ledger = root, tmp, seed, sizes, ledger
        self.golden_applies = seed == DEFAULT_SEED and sizes == DEFAULT_SIZES
        self.hashes: dict[str, str] = {}

    def golden(self) -> dict:
        with open(Path(__file__).with_name("golden.json")) as f:
            return json.load(f)[self.name]

    def setup(self):
        raise NotImplementedError

    def cycle(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict):
        raise NotImplementedError

    def named(self, outs: list[dict]) -> dict:
        """Named end-to-end metrics: name -> (value, unit, note)."""
        raise NotImplementedError

    def layer(self, outs: list[dict]) -> dict:
        """Per-layer figures measured by the workload itself: name -> value."""
        return {}


class Datagen(Workload):
    """gen-data for both environments, JSONL write, read back, hash."""

    name = "datagen"

    def setup(self):
        # Nothing to build from the seed; set-up is the package import a
        # `framedyn gen-data` user pays, in a fresh interpreter.
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, "-c", "import framedyn"], env=env, check=True,
                       cwd=self.root)

    def _jobs(self):
        s = self.sizes
        return (("parking2", s.datagen_parking_episodes, "uniform-random"),
                ("reacher", s.datagen_reacher_episodes, "scripted-goal-seek"))

    def cycle(self):
        out = {"gen_s": 0.0, "write_s": 0.0, "read_s": 0.0, "rows": 0, "pairs": []}
        for env_id, episodes, policy in self._jobs():
            t0 = time.perf_counter()
            ds = sim.generate_dataset(env_id, episodes, self.sizes.horizon, policy=policy,
                                      seed=self.seed)
            t1 = time.perf_counter()
            path = self.tmp / f"{env_id}.jsonl"
            dataset.write_jsonl(path, ds)
            t2 = time.perf_counter()
            back = dataset.read_jsonl(path)
            t3 = time.perf_counter()
            back_hash = back.content_hash()
            out["gen_s"] += t1 - t0
            out["write_s"] += t2 - t1
            out["read_s"] += t3 - t2
            out["rows"] += len(ds)
            out["pairs"].append((env_id, ds, back, back_hash))
        self.ledger.ops(4 * len(self._jobs()))
        return out

    def check(self, out):
        golden = self.golden() if self.golden_applies else {}
        for env_id, ds, back, back_hash in out.pop("pairs"):
            h = f"{ds.content_hash():016x}"
            self.hashes[env_id] = h
            self.ledger.check(_same_arrays(ds, back) and f"{back_hash:016x}" == h,
                              f"{env_id}: JSONL round trip is not bit-exact")
            step = sim.get_env(env_id).step
            self.ledger.check(np.array_equal(step(ds.x, ds.u), ds.x_next),
                              f"{env_id}: x_next differs from the vectorized step")
            if golden:
                self.ledger.check(h == golden[env_id],
                                  f"{env_id}: content hash {h} != golden {golden[env_id]}")

    def named(self, outs):
        rows = outs[0]["rows"]
        return {
            "gen_transitions_per_s": (_median([rows / o["gen_s"] for o in outs]), "1/s", ""),
            "jsonl_write_records_per_s": (_median([rows / o["write_s"] for o in outs]),
                                          "1/s", ""),
            "jsonl_read_records_per_s": (_median([rows / o["read_s"] for o in outs]),
                                         "1/s", ""),
        }


class Train(Workload):
    """train() in-process on a symmetry and a baseline parking2 model."""

    name = "train"

    def setup(self):
        s = self.sizes
        self.data = sim.generate_dataset("parking2", s.parking_episodes, s.horizon,
                                         seed=self.seed)
        self.config = training.TrainConfig(updates=s.train_updates, eval_every=s.eval_every,
                                           seed=CLI_TRAIN_SEED)

    def _model(self, symmetry: bool):
        hidden = [self.sizes.width]
        if symmetry:
            return training.build_symmetry_model(builtin.get_group("parking2"), hidden,
                                                 seed=CLI_INIT_SEED)
        return training.build_baseline_model(self.data.n, self.data.n_u, hidden,
                                             seed=CLI_INIT_SEED)

    def cycle(self):
        out = {}
        for label in ("sym", "base"):
            model = self._model(label == "sym")
            t0 = time.perf_counter()
            records = training.train(model, self.data, self.config)
            out[f"{label}_s"] = time.perf_counter() - t0
            out[f"{label}_records"] = records
            out[f"{label}_model"] = model
        self.ledger.ops(2)
        return out

    def check(self, out):
        self.hashes["parking2"] = f"{self.data.content_hash():016x}"
        for label in ("sym", "base"):
            records = out[f"{label}_records"]
            final = records[-1].test_mse
            self.ledger.check(math.isfinite(final) and final < records[0].test_mse,
                              f"{label}: final test MSE {final!r} did not improve")
            seq = [(r.update_index, r.train_mse, r.test_mse) for r in records]
            first = getattr(self, f"_{label}_seq", None)
            if first is None:
                setattr(self, f"_{label}_seq", seq)
            else:
                self.ledger.check(seq == first, f"{label}: metric sequence changed between cycles")
        model = out.pop("sym_model")
        out.pop("base_model")
        group = model.group
        r = rng.Rng(rng.derive_seed(self.seed, "bench-invariance"))
        idx = r.integers(len(self.data), size=min(1000, len(self.data)))
        x, u = self.data.x[idx], self.data.u[idx]
        g = group.random_element(r, size=len(idx))
        err = model.predict(group.act_state(g, x), group.act_control(g, u)) \
            - group.act_state(g, model.predict(x, u))
        worst = float(np.max(np.abs(err)))
        self.ledger.check(worst < verify.TOL_MODEL_INVARIANCE,
                          f"sym: invariance error {worst:.3e} after training")
        if self.golden_applies:
            golden = self.golden()
            self.ledger.check(self.hashes["parking2"] == golden["parking2"],
                              "parking2: content hash differs from golden")
            for label in ("sym", "base"):
                got = out[f"{label}_records"][-1].test_mse.hex()
                self.ledger.check(got == golden[f"test_mse_{label}"],
                                  f"{label}: final test MSE {got} != golden")

    def _flops(self, label, records_per_run):
        dims = (self._model(label == "sym")).regressor.spec.layer_dims
        per_update = _gemm_flops(dims, self.config.batch_size, backward=True)
        per_record = _gemm_flops(dims, len(self.data), backward=False)
        return per_update, per_record, per_update * self.config.updates \
            + per_record * records_per_run

    def named(self, outs):
        updates = self.config.updates
        return {
            "train_sym_updates_per_s": (_median([updates / o["sym_s"] for o in outs]),
                                        "1/s", "eval records included"),
            "train_base_updates_per_s": (_median([updates / o["base_s"] for o in outs]),
                                         "1/s", "eval records included"),
            "test_mse_sym": (outs[0]["sym_records"][-1].test_mse, "mse",
                             f"after {updates} updates"),
            "test_mse_base": (outs[0]["base_records"][-1].test_mse, "mse",
                              f"after {updates} updates"),
        }

    def layer(self, outs):
        out = {}
        total_flops = 0
        for label in ("sym", "base"):
            per_update, per_record, total = self._flops(label, len(outs[0][f"{label}_records"]))
            out[f"mlp.flops_per_update.{label}"] = per_update
            out[f"mlp.flops_per_eval_record.{label}"] = per_record
            total_flops += total
        wall = _median([o["sym_s"] + o["base_s"] for o in outs])
        out["mlp.gflops_per_s"] = total_flops / wall / 1e9
        return out


class Infer(Workload):
    """Closed loop, one caller: batch-1 predict on dataset states, then verify."""

    name = "infer"
    min_cycles = 5  # 10,000 batch-1 samples per model, so the tail is p99.9

    def setup(self):
        s = self.sizes
        self.data = sim.generate_dataset("parking2", s.infer_episodes, s.horizon,
                                         seed=self.seed)
        hidden = [s.width]
        self.models = {
            "sym": training.build_symmetry_model(builtin.get_group("parking2"), hidden,
                                                 seed=CLI_INIT_SEED),
            "base": training.build_baseline_model(self.data.n, self.data.n_u, hidden,
                                                  seed=CLI_INIT_SEED),
        }
        for model in self.models.values():
            model.predict(self.data.x[0], self.data.u[0])

    def cycle(self):
        out = {}
        x, u = self.data.x, self.data.u
        clock = time.perf_counter
        for label, model in self.models.items():
            lat = np.empty(len(x))
            preds = np.empty_like(x)
            for i in range(len(x)):
                t0 = clock()
                preds[i] = model.predict(x[i], u[i])
                lat[i] = clock() - t0
            out[f"{label}_lat"] = lat
            out[f"{label}_pred"] = preds
        t0 = clock()
        # `framedyn verify --all` as users run it: the suites' own default
        # seed; only the predicted states come from the workload seed.
        out["suites"] = verify.run_suites("all", samples=self.sizes.verify_samples)
        out["verify_s"] = clock() - t0
        self.ledger.ops(2 * len(x) + 1)
        return out

    def check(self, out):
        self.hashes["parking2"] = f"{self.data.content_hash():016x}"
        for label, model in self.models.items():
            batched = model.predict(self.data.x, self.data.u)
            single = out.pop(f"{label}_pred")
            # One row through a GEMV against all rows through a GEMM: the
            # BLAS may sum in another order, so allow rounding, not more.
            err = float(np.max(np.abs(single - batched) / (1.0 + np.abs(batched))))
            self.ledger.check(err < 1e-12,
                              f"{label}: batch-1 predictions differ from batched ({err:.3e})")
        for res in out["suites"]:
            self.ledger.check(res.passed, f"verify {res.suite} {res.subject}: "
                                          f"{res.max_error:.3e} >= {res.tolerance:.0e}")
        self.ledger.check(len(out["suites"]) == 28,
                          f"verify ran {len(out['suites'])} suite results, expected 28")

    def named(self, outs):
        out = {}
        for label in ("sym", "base"):
            lat = np.concatenate([o[f"{label}_lat"] for o in outs]) * 1e6
            p = tail_percentile(lat.size)
            note = f"{lat.size} samples"
            out[f"predict_{label}_p50_us"] = (float(np.percentile(lat, 50)), "us", note)
            out[f"predict_{label}_tail_us"] = (float(np.percentile(lat, p)), "us",
                                               f"p{p:g} of {lat.size} samples")
        out["verify_all_s"] = (_median([o["verify_s"] for o in outs]), "s",
                               f"{len(outs[0]['suites'])} suite results")
        return out


class Compare(Workload):
    """`framedyn compare` through the CLI entry point, on a JSONL file."""

    name = "compare"
    archs = "1,2"

    def setup(self):
        s = self.sizes
        data = sim.generate_dataset("parking2", s.parking_episodes, s.horizon, seed=self.seed)
        self.path = self.tmp / "compare.jsonl"
        dataset.write_jsonl(self.path, data)
        self.hashes["parking2"] = f"{data.content_hash():016x}"
        self.cells = 2 * len(self.archs.split(","))
        self.workers = os.cpu_count() or 1
        self._n = 0

    def cycle(self):
        self._n += 1
        out_dir = self.tmp / f"compare-{self._n}"
        argv = ["compare", "--data", str(self.path), "--out-dir", str(out_dir),
                "--archs", self.archs, "--runs", "1", "--workers", str(self.workers),
                "--updates", str(self.sizes.compare_updates),
                "--hidden-size", str(self.sizes.width), "--seed", str(CLI_TRAIN_SEED)]
        stdout, stderr = io.StringIO(), io.StringIO()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        self_cpu = time.process_time() - cpu0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.ledger.ops(self.cells)
        child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {"wall_s": wall, "code": code, "stderr": stderr.getvalue(), "out_dir": out_dir,
                "child_cpu_s": child_cpu, "self_cpu_s": self_cpu,
                "child_nivcsw": after.ru_nivcsw - before.ru_nivcsw}

    def check(self, out):
        self.ledger.check(out["code"] == 0, f"compare exited {out['code']}: {out['stderr']}")
        self.ledger.check("diverged" not in out["stderr"], "a compare cell diverged")
        out_dir = out["out_dir"]
        runs = [p for p in out_dir.glob("parking2_h*.csv")]
        self.ledger.check(len(runs) == self.cells,
                          f"compare wrote {len(runs)} run files, expected {self.cells}")
        try:
            lines = (out_dir / "summary.csv").read_text().splitlines()[1:]
            means = [float(line.split(",")[2]) for line in lines]
        except (OSError, IndexError, ValueError) as e:
            means = []
            self.ledger.check(False, f"summary.csv unreadable: {e}")
        self.ledger.check(len(means) == self.cells and all(map(math.isfinite, means)),
                          f"summary.csv holds {means}")

    def named(self, outs):
        return {"compare_cells_per_s": (_median([self.cells / o["wall_s"] for o in outs]),
                                        "1/s", f"{self.cells} cells, {self.workers} workers")}

    def layer(self, outs):
        wall = _median([o["wall_s"] for o in outs])
        cpu = _median([o["child_cpu_s"] + o["self_cpu_s"] for o in outs])
        return {
            "cli.compare.child_cpu_s": _median([o["child_cpu_s"] for o in outs]),
            "cli.compare.cpu_per_core_wall": cpu / (wall * self.workers),
            "cli.compare.child_nivcsw": _median([o["child_nivcsw"] for o in outs]),
            "cli.compare.blas_threads": blas_threads(),
        }


WORKLOADS = {cls.name: cls for cls in (Datagen, Train, Infer, Compare)}
