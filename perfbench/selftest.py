"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json lists, with
its unit, and every named metric of perfbench/metric_map.json; that a
corrupted output is counted as a failed operation; and that a traced run
leaves every wrapped attribute restored.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import sys

import run

run._import_package()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from framedyn import dataset, models  # noqa: E402

TINY = workloads.TINY_SIZES


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def emits(metrics, declared, what):
    units = {k: v["unit"] for k, v in metrics.items()}
    expect(units == declared, f"{what}: emits exactly the declared metrics and units")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in metrics.values()), f"{what}: every value is a finite number")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = json.loads((run.HERE / "metric_map.json").read_text())["workloads"]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    handle = spans.install(spans.Tracer(spans.REPORTED))
    pairs = handle.targets()
    handle.restore()

    for name in workloads.WORKLOADS:
        result, got, _, failures = run.run(name, 1, 0, False, sizes=TINY)
        expect(result["correct"] and not failures, f"{name}: correct at tiny sizes {failures}")
        emits(result["metrics"], e2e, name)
        expect(all(result["metrics"][k]["value"] > 0 for k in e2e),
               f"{name}: end-to-end metrics are positive")
        missing = set(named[name]["named"]) - set(got)
        expect(not missing, f"{name}: prints every named metric (missing {sorted(missing)})")

        before = spans.snapshot(pairs)
        result, _, _, failures = run.run(name, 1, 0, True, sizes=TINY)
        expect(spans.snapshot(pairs) == before, f"{name}: traced run restored every wrapper")
        expect(result["correct"], f"{name}: traced run correct {failures}")
        emits(result["metrics"], layer, f"{name} traced")

    read = dataset.read_jsonl

    def corrupted_read(path):
        ds = read(path)
        ds.x_next[0, 0] = np.nextafter(ds.x_next[0, 0], np.inf)
        return ds

    dataset.read_jsonl = corrupted_read
    try:
        result, _, _, failures = run.run("datagen", 1, 0, False, sizes=TINY)
    finally:
        dataset.read_jsonl = read
    expect(not result["correct"] and result["failed"] > 0,
           f"datagen: a one-ulp change in a read-back value is counted ({failures})")

    predict = models.SymmetryReducedModel.predict

    def corrupted_predict(self, x, u):
        out = predict(self, x, u)
        return out + 1e-9 if np.ndim(x) == 1 else out

    models.SymmetryReducedModel.predict = corrupted_predict
    try:
        result, _, _, failures = run.run("infer", 1, 0, False, sizes=TINY)
    finally:
        models.SymmetryReducedModel.predict = predict
    expect(not result["correct"] and result["failed"] > 0,
           f"infer: a perturbed batch-1 prediction is counted ({failures})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
