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
from .mlp import ACTIVATIONS
from .models import MODES
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
from .verify import DEFAULT_GROUP_IDS, SUITE_ALIASES, SUITES, format_results, run_suites


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


def _parse_list(text, item=int) -> tuple:
    """Comma-separated items; spaces around an item and empty items are ignored."""
    return tuple(item(v.strip()) for v in text.split(",") if v.strip())


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
    return (env.default_updates, env.default_hidden) if env else (TrainConfig.updates, 64)


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
        "hidden": r.get("hidden", (default_hidden,), _parse_list),
        "activation": r.get("activation", "relu"),
        "lr": r.get("lr", TrainConfig.learning_rate, float),
        "batch_size": r.get("batch_size", TrainConfig.batch_size, int),
        "updates": r.get("updates", default_updates, int),
        "eval_every": r.get("eval_every", TrainConfig.eval_every, int),
        "test_fraction": r.get("test_fraction", TrainConfig.test_fraction, float),
        "seed": r.get("seed", TrainConfig.seed, int),
        "split_seed": r.get("split_seed", None, int),
    }
    if not s["hidden"]:
        raise ValueError("--hidden must list at least one layer width")
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
    archs = r.get("archs", (1, 2, 3), _parse_list)
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


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation; (nan, 0) for no values, std 0 for one."""
    if not values:
        return float("nan"), 0.0
    return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0


def _write_compare_reports(out, dataset, s, archs, width, runs, results, diverged):
    curves, summary_rows = [], []
    for layers in archs:
        for symmetry in (True, False):
            sym = "on" if symmetry else "off"
            cell = [results[(layers, symmetry, s["seed"] + run)] for run in range(runs)]
            finished = [records for records, bad in cell if not bad and records]
            for i in range(min((len(rr) for rr in finished), default=0)):
                mean, std = _mean_std([rr[i].test_mse for rr in finished])
                curves.append(f"{layers},{sym},{finished[0][i].update_index},"
                              f"{mean:.17g},{std:.17g}\n")
            summary_rows.append(
                (layers, sym, *_mean_std([rr[-1].test_mse for rr in finished]), len(finished))
            )
    with open(out / "curves.csv", "w") as f:
        f.write("arch,symmetry,update,test_mse_mean,test_mse_std\n")
        f.writelines(curves)
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
    group_ids = _parse_list(group_arg, str) if group_arg else DEFAULT_GROUP_IDS
    if not group_ids:
        raise ValueError("--group must list at least one group id")
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
    # Flags shared by subcommands, each declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--config")
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--data")
    fitting.add_argument("--group")
    fitting.add_argument("--mode", choices=MODES)
    fitting.add_argument("--activation", choices=ACTIVATIONS)
    fitting.add_argument("--lr", type=float)
    fitting.add_argument("--batch-size", type=int)
    fitting.add_argument("--updates", type=int)
    fitting.add_argument("--eval-every", type=int)
    fitting.add_argument("--test-fraction", type=float)

    p = sub.add_parser("gen-data", parents=[common],
                       help="simulate an environment and store transitions")
    p.add_argument("--env", choices=sorted(ENVS))
    p.add_argument("--episodes", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[common, fitting], help="train one dynamics model")
    p.add_argument("--symmetry", choices=("on", "off"))
    p.add_argument("--hidden", type=_parse_list,
                   help="comma-separated hidden widths, e.g. 128 or 128,128")
    p.add_argument("--split-seed", type=int)
    p.add_argument("--out-model")
    p.add_argument("--out-metrics")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", parents=[common, fitting],
                       help="architecture grid with and without symmetry")
    p.add_argument("--archs", type=_parse_list,
                   help="comma-separated hidden layer counts, default 1,2,3")
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", parents=[common], help="run the invariance suites")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every suite (default; overrides a config-file suite)")
    which.add_argument("--suite", choices=sorted({"all", *SUITES, *SUITE_ALIASES}))
    p.add_argument("--group", help="comma-separated group ids to check")
    p.add_argument("--samples", type=int)
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
