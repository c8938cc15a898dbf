"""Command-line interface.

Subcommands: ``gen-data`` (simulate and store transitions), ``train`` (fit
one model with or without symmetry reduction), ``compare`` (architecture grid
x {symmetry on, off} x seeds with aggregated reports), ``verify`` (run the
invariance suites as a release gate).

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every command is
deterministic given ``--seed``; rerunning reproduces output files except for
wall-time columns.  A ``--config`` file with flat ``key = value`` lines can
supply defaults for any flag (flags win).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import statistics
import sys
from pathlib import Path

from .builtin import get_group
from .dataset import DatasetFormatError, read_jsonl, write_jsonl
from .rng import derive_seed
from .sim import ENVS, POLICIES, generate_dataset, get_env
from .training import (
    ADAM_BETAS,
    ADAM_EPS,
    ModelFormatError,
    TrainConfig,
    TrainingDivergedError,
    build_baseline_model,
    build_symmetry_model,
    check_model_dataset,
    save_model,
    train,
    write_metrics_csv,
)
from .verify import DEFAULT_GROUP_IDS, SUITE_ALIASES, format_results, run_suites


def load_config(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    config = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


class _Resolver:
    """Merge precedence: explicit flag > config file > built-in default."""

    def __init__(self, args):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key, default=None, cast=str):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.config:
            return cast(self.config[key])
        return default


def _parse_hidden(text) -> tuple[int, ...]:
    widths = tuple(int(w) for w in str(text).split(",") if w.strip())
    if not widths:
        raise ValueError(f"cannot parse hidden layer widths from {text!r}")
    return widths


def _parse_int_list(text) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(",") if v.strip())


# -- gen-data ------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    r = _Resolver(args)
    env_id = r.get("env")
    if env_id is None:
        raise ValueError("--env is required (parking2 or reacher)")
    env = get_env(env_id)
    episodes = r.get("episodes", env.default_episodes, int)
    horizon = r.get("horizon", env.default_horizon, int)
    policy = r.get("policy", "uniform-random")
    seed = r.get("seed", 0, int)
    out = r.get("out")
    if out is None:
        raise ValueError("--out is required")
    dataset = generate_dataset(env_id, episodes, horizon, policy=policy, seed=seed)
    write_jsonl(out, dataset)
    print(
        f"wrote {len(dataset)} transitions to {out} "
        f"(env={env_id}, n={dataset.n}, n_u={dataset.n_u}, seed={seed}, policy={policy})"
    )
    return 0


# -- train ---------------------------------------------------------------------


def _env_defaults(dataset) -> tuple[int, int]:
    """Default update count and hidden width for the dataset's environment."""
    env = ENVS.get(dataset.env_id)
    return (env.default_updates, env.default_hidden) if env else (10000, 64)


def _effective_train_settings(r, dataset):
    """Resolved settings (echoed in metrics notes) and their TrainConfig."""
    default_updates, default_hidden = _env_defaults(dataset)
    symmetry = r.get("symmetry", "on")
    if symmetry not in ("on", "off"):
        raise ValueError(f"--symmetry must be 'on' or 'off', got {symmetry!r}")
    s = {
        "symmetry": symmetry == "on",
        "group_id": r.get("group", dataset.env_id),
        "mode": r.get("mode", "delta"),
        "hidden": r.get("hidden", (default_hidden,), _parse_hidden),
        "activation": r.get("activation", "relu"),
        "lr": r.get("lr", 1e-3, float),
        "batch_size": r.get("batch_size", 256, int),
        "updates": r.get("updates", default_updates, int),
        "eval_every": r.get("eval_every", 250, int),
        "test_fraction": r.get("test_fraction", 0.1, float),
        "seed": r.get("seed", 0, int),
        "split_seed": r.get("split_seed", None, int),
    }
    return s, TrainConfig(
        learning_rate=s["lr"], batch_size=s["batch_size"], updates=s["updates"],
        eval_every=s["eval_every"], test_fraction=s["test_fraction"],
        seed=s["seed"], split_seed=s["split_seed"],
    )


def _build_model(dataset, settings, init_seed):
    if settings["symmetry"]:
        group = get_group(settings["group_id"])
        return build_symmetry_model(
            group, settings["hidden"], activation=settings["activation"],
            seed=init_seed, mode=settings["mode"],
        )
    return build_baseline_model(
        dataset.n, dataset.n_u, settings["hidden"],
        activation=settings["activation"], seed=init_seed, mode=settings["mode"],
    )


def cmd_train(args) -> int:
    r = _Resolver(args)
    data_path = r.get("data")
    if data_path is None:
        raise ValueError("--data is required")
    dataset = read_jsonl(data_path)
    s, config = _effective_train_settings(r, dataset)
    init_seed = derive_seed(s["seed"], "init")
    model = _build_model(dataset, s, init_seed)
    check_model_dataset(model, dataset)
    label = "sym" if s["symmetry"] else "base"
    stem = str(Path(data_path).with_suffix(""))
    out_model = r.get("out_model", f"{stem}_{label}.fdm")
    out_metrics = r.get("out_metrics", f"{stem}_{label}_metrics.csv")

    print(f"training {'symmetry' if s['symmetry'] else 'baseline'} model on {data_path}")
    print(f"model input dim: {model.input_dim}")
    print(f"model output dim: {model.output_dim}")
    print(f"hidden layers: {list(s['hidden'])} ({s['activation']}), "
          f"parameters: {model.regressor.param_count}")
    records = train(model, dataset, config)
    save_model(out_model, model, train_seed=s["seed"])
    write_metrics_csv(out_metrics, records, _metrics_note(s, dataset))
    final = records[-1]
    print(f"final train mse: {final.train_mse:.6e}")
    print(f"final test mse: {final.test_mse:.6e}")
    print(f"wrote {out_model} and {out_metrics}")
    return 0


def _metrics_note(settings, dataset) -> dict:
    note = dict(settings)
    note["hidden"] = list(note["hidden"])
    note["env_id"] = dataset.env_id
    note["adam_betas"] = list(ADAM_BETAS)
    note["adam_eps"] = ADAM_EPS
    note["loss"] = "mse"
    return note


# -- compare -------------------------------------------------------------------


def _compare_cell(dataset, settings, config):
    layers = len(settings["hidden"])
    init_seed = derive_seed(config.seed, "init", layers, int(settings["symmetry"]))
    model = _build_model(dataset, settings, init_seed)
    try:
        records = train(model, dataset, config)
        return records, False
    except TrainingDivergedError as e:
        return e.metrics, True


def cmd_compare(args) -> int:
    r = _Resolver(args)
    data_path = r.get("data")
    out_dir = r.get("out_dir")
    if data_path is None or out_dir is None:
        raise ValueError("--data and --out-dir are required")
    dataset = read_jsonl(data_path)
    s, config = _effective_train_settings(r, dataset)
    archs = r.get("archs", (1, 2, 3), _parse_int_list)
    width = r.get("hidden_size", _env_defaults(dataset)[1], int)
    runs = r.get("runs", 4, int)
    workers = r.get("workers", 1, int)
    if runs < 1:
        raise ValueError("--runs must be at least 1")
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    if not archs or min(archs) < 1 or len(set(archs)) != len(archs):
        raise ValueError(f"--archs must list distinct hidden layer counts >= 1, "
                         f"got {list(archs)}")
    # Reject a group, width or mode that does not fit before any output.
    check_model_dataset(_build_model(dataset, {**s, "symmetry": True, "hidden": (width,)}, 0),
                        dataset)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = {}  # (layers, symmetry, seed) -> (settings, config)
    for layers in archs:
        for symmetry in (True, False):
            for run in range(runs):
                seed = s["seed"] + run
                cells[(layers, symmetry, seed)] = (
                    {**s, "symmetry": symmetry, "hidden": (width,) * layers, "seed": seed},
                    dataclasses.replace(config, seed=seed),
                )

    print(
        f"comparison grid: archs={list(archs)} x methods=[symmetry, baseline] "
        f"x runs={runs} -> {len(cells)} training runs "
        f"(width={width}, updates={s['updates']}, seed base={s['seed']})"
    )
    results = {}
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_compare_cell, dataset, *cell): key
                       for key, cell in cells.items()}
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for key, cell in cells.items():
            results[key] = _compare_cell(dataset, *cell)

    diverged = []
    for (layers, symmetry, seed), (settings, _) in cells.items():
        records, bad = results[(layers, symmetry, seed)]
        label = "sym" if symmetry else "base"
        name = f"{dataset.env_id}_h{layers}_{label}_s{seed}.csv"
        write_metrics_csv(out / name, records, _metrics_note(settings, dataset))
        if bad:
            diverged.append((layers, label, seed))
            print(f"warning: run arch={layers} {label} seed={seed} diverged",
                  file=sys.stderr)

    _write_compare_reports(out, dataset, s, archs, width, runs, results, diverged)
    print(f"wrote per-run metrics, curves.csv, summary.csv and report.md to {out}")
    return 0


def _write_compare_reports(out, dataset, s, archs, width, runs, results, diverged):
    def finished(layers, symmetry):
        rec = []
        for run in range(runs):
            records, bad = results[(layers, symmetry, s["seed"] + run)]
            if not bad and records:
                rec.append(records)
        return rec

    with open(out / "curves.csv", "w") as f:
        f.write("arch,symmetry,update,test_mse_mean,test_mse_std\n")
        for layers in archs:
            for symmetry in (True, False):
                runs_records = finished(layers, symmetry)
                if not runs_records:
                    continue
                length = min(len(rr) for rr in runs_records)
                for i in range(length):
                    vals = [rr[i].test_mse for rr in runs_records]
                    mean = statistics.fmean(vals)
                    std = statistics.stdev(vals) if len(vals) > 1 else 0.0
                    f.write(
                        f"{layers},{'on' if symmetry else 'off'},"
                        f"{runs_records[0][i].update_index},{mean:.17g},{std:.17g}\n"
                    )

    summary_rows = []
    for layers in archs:
        for symmetry in (True, False):
            runs_records = finished(layers, symmetry)
            finals = [rr[-1].test_mse for rr in runs_records]
            mean = statistics.fmean(finals) if finals else float("nan")
            std = statistics.stdev(finals) if len(finals) > 1 else 0.0
            summary_rows.append(
                (layers, "on" if symmetry else "off", mean, std, len(finals))
            )
    with open(out / "summary.csv", "w") as f:
        f.write("arch,symmetry,final_test_mse_mean,final_test_mse_std\n")
        for layers, sym, mean, std, _ in summary_rows:
            f.write(f"{layers},{sym},{mean:.17g},{std:.17g}\n")

    with open(out / "report.md", "w") as f:
        f.write(f"# Dynamics learning comparison: {dataset.env_id}\n\n")
        f.write(
            f"Config: width {width}, updates {s['updates']}, eval every "
            f"{s['eval_every']}, lr {s['lr']}, batch {s['batch_size']}, "
            f"test fraction {s['test_fraction']}, mode {s['mode']}, "
            f"activation {s['activation']}, runs {runs} "
            f"(seeds {s['seed']}..{s['seed'] + runs - 1}), "
            f"dataset {len(dataset)} transitions (seed {dataset.seed}).\n\n"
        )
        f.write("| arch | symmetry | final test mse (mean) | std | runs ok |\n")
        f.write("|------|----------|----------------------|-----|--------|\n")
        for layers, sym, mean, std, ok in summary_rows:
            f.write(f"| {layers} | {sym} | {mean:.6e} | {std:.6e} | {ok}/{runs} |\n")
        if diverged:
            f.write("\nDiverged runs: ")
            f.write(", ".join(f"arch={a} {lbl} seed={sd}" for a, lbl, sd in diverged))
            f.write("\n")


# -- verify --------------------------------------------------------------------


def cmd_verify(args) -> int:
    r = _Resolver(args)
    suite = "all" if args.all else r.get("suite", "all")
    seed = r.get("seed", 0, int)
    samples = r.get("samples", 1000, int)
    group_arg = r.get("group")
    group_ids = tuple(group_arg.split(",")) if group_arg else DEFAULT_GROUP_IDS
    results = run_suites(suite=suite, group_ids=group_ids, seed=seed, samples=samples)
    print(format_results(results))
    ok = all(res.passed for res in results)
    print("verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framedyn",
        description="Learn group-invariant dynamics models on canonical coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="simulate an environment and store transitions")
    p.add_argument("--env", choices=sorted(ENVS))
    p.add_argument("--episodes", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one dynamics model")
    p.add_argument("--data")
    p.add_argument("--symmetry", choices=("on", "off"))
    p.add_argument("--group")
    p.add_argument("--mode", choices=("delta", "absolute"))
    p.add_argument("--hidden", type=_parse_hidden,
                   help="comma-separated hidden widths, e.g. 128 or 128,128")
    p.add_argument("--activation", choices=("relu", "tanh"))
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--updates", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--out-model")
    p.add_argument("--out-metrics")
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="architecture grid with and without symmetry")
    p.add_argument("--data")
    p.add_argument("--group")
    p.add_argument("--mode", choices=("delta", "absolute"))
    p.add_argument("--archs", type=_parse_int_list,
                   help="comma-separated hidden layer counts, default 1,2,3")
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--activation", choices=("relu", "tanh"))
    p.add_argument("--runs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--updates", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--config")
    p.set_defaults(func=cmd_compare)

    suite_names = sorted(
        {"all", "axioms", "frame", "reduce-invariance", "frame-equivariance",
         "roundtrip", "model-invariance", "sim", "gradcheck", *SUITE_ALIASES}
    )
    p = sub.add_parser("verify", help="run the invariance suites")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every suite (default; overrides a config-file suite)")
    which.add_argument("--suite", choices=suite_names)
    p.add_argument("--group", help="comma-separated group ids to check")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, DatasetFormatError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
