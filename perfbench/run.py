"""framedyn benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {datagen,train,infer,compare} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ``src/``.  It
sets up the workload ``setup_repeats`` times (``setup_s`` is the median),
then repeats the workload's cycle until ``--seconds`` have passed, checking
the outputs of every cycle.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones listed in BENCHMARK.json;
the workload's named metrics and the run manifest are printed above it.
With ``--trace 1`` untraced and traced cycles alternate, and the metrics are
the per-layer ones.  Exits 1 when a check failed and 2 when the package
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    src = ROOT / "src"
    if not (src / "framedyn" / "__init__.py").is_file():
        print(f"error: no framedyn package under {src}; run from a framedyn checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(workload, seed) -> dict:
    import framedyn
    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name, "seed": seed, "sizes": vars(workload.sizes),
        "python": platform.python_version(), "numpy": np.__version__,
        "framedyn": framedyn.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": workloads.blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "dataset_hashes": workload.hashes,
        "dropped_workloads": json.loads(
            (HERE / "metric_map.json").read_text())["dropped_workloads"],
    }


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def reference_s() -> float:
    """Seconds for a fixed loop of small numpy operations that never touches
    framedyn.  The speed of a shared machine drifts by tens of percent over
    tens of seconds, alike for this loop and for the workloads, so cycle time
    over the time of this loop, run between cycles, holds steady."""
    a = np.ones(6)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(20000):
        acc += float((a * 1.0001 + 0.5)[0])
    return time.perf_counter() - t0


def timed_cycle(workload, ledger, tracer=None):
    """One cycle: (output or None, wall seconds).

    With a tracer, spans are recorded during the cycle but not the checks.
    """
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        out = workload.cycle()
    except Exception:  # a failed operation is counted and ends the run
        traceback.print_exc()
        ledger.check(False, f"{workload.name} cycle raised")
        return None, 0.0
    finally:
        if tracer is not None:
            tracer.active = False
    wall = time.perf_counter() - t0
    workload.check(out)
    return out, wall


def run(name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result, named metrics, manifest, failures)."""
    import workloads

    sizes = sizes or workloads.DEFAULT_SIZES
    ledger = workloads.Ledger()
    base_tmp = ROOT / ".perfbench_tmp"
    base_tmp.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base_tmp))
    try:
        wl = workloads.WORKLOADS[name](ROOT, tmp, seed, sizes, ledger)
        setups = []
        for _ in range(sizes.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        # A warm-up cycle, checked but not measured, lets lazy set-up finish.
        timed_cycle(wl, ledger)
        if trace:
            metrics = _traced(wl, ledger, seconds)
            named = {}
        else:
            outs, walls, refs = [], [], [reference_s()]
            start = time.perf_counter()
            while True:
                out, wall = timed_cycle(wl, ledger)
                refs.append(reference_s())
                if out is None:
                    break
                outs.append(out)
                walls.append(wall)
                if (time.perf_counter() - start >= seconds
                        and len(outs) >= wl.min_cycles):
                    break
            named = wl.named(outs) if outs else {}
            # Each cycle against the mean of the reference runs around it.
            norms = [w / (0.5 * (refs[i] + refs[i + 1])) for i, w in enumerate(walls)]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb(name == "compare"), "MB"),
                "cycle_norm": (statistics.median(norms) if norms else 0.0, "ratio"),
            }
            named["cycle_s"] = (statistics.median(walls) if walls else 0.0, "s",
                                "median wall time of a cycle")
            named["reference_s"] = (statistics.median(refs), "s",
                                    f"median of {len(refs)} reference loops")
            named["cycles"] = (len(outs), "count", "")
        man = manifest(wl, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base_tmp.rmdir()
        except OSError:
            pass
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    named["failed_ops_ratio"] = (ledger.failed / max(ledger.attempted, 1), "ratio",
                                 f"{ledger.failed} of {ledger.attempted} operations")
    return result, named, man, ledger.failures


def _traced(wl, ledger, seconds):
    """Alternate untraced and traced cycles; per-layer metrics of the pairs."""
    import spans as tracing

    tracer = tracing.Tracer(tracing.REPORTED)
    plain_outs, plain_walls, traced_walls, per_cycle = [], [], [], []
    start = time.perf_counter()
    while True:
        out, wall = timed_cycle(wl, ledger)
        if out is None:
            break
        plain_outs.append(out)
        plain_walls.append(wall)
        tracer.reset()
        handle = tracing.install(tracer)
        try:
            out, wall = timed_cycle(wl, ledger, tracer)
        finally:
            handle.restore()
        if out is None:
            break
        traced_walls.append(wall)
        per_cycle.append((tracer.totals(), tracer.distinct_states()))
        if time.perf_counter() - start >= seconds:
            break
    if not per_cycle:
        return {}
    return layer_metrics(wl, per_cycle, plain_outs, plain_walls, traced_walls)


def layer_metrics(wl, per_cycle, plain_outs, plain_walls, traced_walls):
    import spans as tracing
    import workloads

    totals, distinct = per_cycle[0]
    for other, other_distinct in per_cycle[1:]:
        if any((other[k].calls, other[k].rows) != (totals[k].calls, totals[k].rows)
               for k in totals) or other_distinct != distinct:
            wl.ledger.check(False, "traced counts differ between identical cycles")
            break

    def self_s(name):
        return statistics.median(t[name].self_s for t, _ in per_cycle)

    def total_s(name):
        return statistics.median(t[name].total_s for t, _ in per_cycle)

    m = {}
    for span, fields in tracing.REPORTED.items():
        for field in fields:
            if field == "self_s":
                value = self_s(span)
            else:
                value = getattr(totals[span], "rows" if field == "values" else field)
            m[f"{span}.{field}"] = (value, tracing.FIELD_UNITS[field])
    frames = totals["groups.moving_frame"].rows
    m["groups.frames_per_state"] = (frames / distinct if distinct else 0.0, "ratio")
    train_total = total_s("training.train")
    m["training.eval_share"] = (total_s("training.eval") / train_total if train_total
                                else 0.0, "ratio")
    measured = wl.layer(plain_outs)
    for key, unit in workloads.LAYER_UNITS.items():
        m[key] = (measured.get(key, 0), unit)
    m["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                 / statistics.median(plain_walls), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("datagen", "train", "infer", "compare"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()

    result, named, man, failures = run(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    print("manifest " + json.dumps(man, sort_keys=True))
    for what in failures:
        print(f"FAILED {what}")
    for key, (value, unit, note) in named.items():
        print(f"{args.workload:8s} {key:28s} {value:>16.6g} {unit:6s} {note}")
    for key, metric in result["metrics"].items():
        print(f"{args.workload:8s} {key:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
