"""Command-line interface.

Subcommands: ``gen-data`` (simulate and store transitions), ``train`` (fit
one model with or without symmetry reduction), ``compare`` (architecture grid
x {symmetry on, off} x seeds with aggregated reports), ``verify`` (run the
invariance suites as a release gate).

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every command is
deterministic given ``--seed``; rerunning reproduces output files except for
wall-time columns.  A ``--config`` file of flat ``key = value`` lines sets
the defaults of the subcommand's options (flags win).  Each value goes through
its option's own type and choices, as a flag's does, so a bad value is a usage
error (exit 2); keys that name no option of the subcommand are ignored.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import statistics
import sys
from pathlib import Path

from .builtin import get_group
from .dataset import DatasetFormatError, read_jsonl, write_jsonl
from .mlp import ACTIVATIONS
from .models import MODES
from .rng import derive_seed
from .sim import ENVS, POLICIES, default_hidden, generate_dataset, get_env
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


def _parse_list(text, item=int) -> tuple:
    """Comma-separated items; spaces around an item and empty items are ignored."""
    return tuple(item(v.strip()) for v in text.split(",") if v.strip())


def _or(value, default):
    """``value`` unless the option was left unset (None)."""
    return default if value is None else value


def _check_output(path):
    """Reject an output path that cannot be written, before any work is done."""
    if not Path(path).parent.is_dir():
        raise ValueError(f"cannot write {path}: {Path(path).parent} is not a directory")
    if Path(path).is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")


# -- gen-data ------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.env is None:
        raise ValueError("--env is required (parking2 or reacher)")
    env = get_env(args.env)
    if args.out is None:
        raise ValueError("--out is required")
    _check_output(args.out)
    dataset = generate_dataset(args.env, _or(args.episodes, env.default_episodes),
                               _or(args.horizon, env.default_horizon),
                               policy=args.policy, seed=args.seed)
    write_jsonl(args.out, dataset)
    print(
        f"wrote {len(dataset)} transitions to {args.out} (env={args.env}, n={dataset.n}, "
        f"n_u={dataset.n_u}, seed={args.seed}, policy={args.policy})"
    )
    return 0


# -- train ---------------------------------------------------------------------


# Fitting settings that TrainConfig takes under the same name.
_TRAIN_CONFIG_KEYS = ("batch_size", "updates", "eval_every", "test_fraction", "seed",
                      "split_seed")


def _train_config(settings) -> TrainConfig:
    return TrainConfig(learning_rate=settings["lr"],
                       **{key: settings[key] for key in _TRAIN_CONFIG_KEYS})


def _fitting_settings(args, dataset) -> dict:
    """The shared fitting settings (echoed in metrics notes), checked through their
    TrainConfig; the group and update count default to the dataset's env."""
    env = ENVS.get(dataset.env_id)
    s = {key: getattr(args, key) for key in ("mode", "activation", "lr", *_TRAIN_CONFIG_KEYS)}
    s["group_id"] = _or(args.group, dataset.env_id)
    s["updates"] = _or(args.updates, env.default_updates if env else TrainConfig.updates)
    _train_config(s)
    return s


def _build_model(dataset, s):
    """A run's untrained model.  Its init seed derives from the run's seed, layer
    count and method alone, so ``train`` with a cell's flags rebuilds that cell."""
    init_seed = derive_seed(s["seed"], "init", len(s["hidden"]), int(s["symmetry"]))
    kwargs = {"activation": s["activation"], "seed": init_seed, "mode": s["mode"]}
    if s["symmetry"]:
        return build_symmetry_model(get_group(s["group_id"]), s["hidden"], **kwargs)
    return build_baseline_model(dataset.n, dataset.n_u, s["hidden"], **kwargs)


def cmd_train(args) -> int:
    if args.data is None:
        raise ValueError("--data is required")
    dataset = read_jsonl(args.data)
    s = _fitting_settings(args, dataset)
    s["symmetry"] = args.symmetry == "on"
    s["hidden"] = _or(args.hidden, (default_hidden(dataset.env_id),))
    if not s["hidden"]:
        raise ValueError("--hidden must list at least one layer width")
    model = _build_model(dataset, s)
    check_model_dataset(model, dataset)
    label = "sym" if s["symmetry"] else "base"
    stem = str(Path(args.data).with_suffix(""))
    out_model = _or(args.out_model, f"{stem}_{label}.fdm")
    out_metrics = _or(args.out_metrics, f"{stem}_{label}_metrics.csv")
    for path in (out_model, out_metrics):  # checked first: no run is lost to a bad path
        _check_output(path)

    print(f"training {'symmetry' if s['symmetry'] else 'baseline'} model on {args.data}")
    print(f"model input dim: {model.input_dim}")
    print(f"model output dim: {model.output_dim}")
    print(f"hidden layers: {list(s['hidden'])} ({s['activation']}), "
          f"parameters: {model.regressor.param_count}")
    records = train(model, dataset, _train_config(s))
    save_model(out_model, model, train_seed=s["seed"])
    write_metrics_csv(out_metrics, records, _metrics_note(s, dataset))
    final = records[-1]
    print(f"final train mse: {final.train_mse:.6e}")
    print(f"final test mse: {final.test_mse:.6e}")
    print(f"wrote {out_model} and {out_metrics}")
    return 0


def _metrics_note(settings, dataset) -> dict:
    return {**settings, "hidden": list(settings["hidden"]), "env_id": dataset.env_id,
            "adam_betas": list(ADAM_BETAS), "adam_eps": ADAM_EPS, "loss": "mse"}


# -- compare -------------------------------------------------------------------


# A compare worker's dataset, set once per process by the pool initializer
# so that each cell's task carries only its settings.
_worker_dataset = None
# Set to 1 while compare workers are spawned, so each loads numpy with one BLAS
# thread: the training GEMMs are too small to split across the CPUs.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _init_compare_worker(dataset):
    global _worker_dataset
    _worker_dataset = dataset


def _compare_cell(settings, dataset=None):
    """The run's records and whether it diverged."""
    dataset = _worker_dataset if dataset is None else dataset
    model = _build_model(dataset, settings)
    try:
        return train(model, dataset, _train_config(settings)), False
    except TrainingDivergedError as e:
        return e.metrics, True


def cmd_compare(args) -> int:
    if args.data is None or args.out_dir is None:
        raise ValueError("--data and --out-dir are required")
    dataset = read_jsonl(args.data)
    s = _fitting_settings(args, dataset)
    archs, runs, workers = args.archs, args.runs, args.workers
    width = _or(args.hidden_size, default_hidden(dataset.env_id))
    if runs < 1:
        raise ValueError("--runs must be at least 1")
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    if not archs or min(archs) < 1 or len(set(archs)) != len(archs):
        raise ValueError(f"--archs must list distinct hidden layer counts >= 1, "
                         f"got {list(archs)}")
    # The grid in report order: archs, then symmetry before baseline, then runs.
    cells = [{**s, "symmetry": symmetry, "hidden": (width,) * layers, "seed": s["seed"] + run}
             for layers in archs for symmetry in (True, False) for run in range(runs)]
    # Reject a too-small dataset, or a group, width or mode that does not fit, before output.
    check_model_dataset(_build_model(dataset, cells[0]), dataset)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print(
        f"comparison grid: archs={list(archs)} x methods=[symmetry, baseline] "
        f"x runs={runs} -> {len(cells)} training runs "
        f"(width={width}, updates={s['updates']}, seed base={s['seed']})"
    )
    if workers > 1:
        import multiprocessing  # here, as no other command pays for importing it
        saved = {name: os.environ[name] for name in _BLAS_THREAD_VARS if name in os.environ}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
                    initializer=_init_compare_worker, initargs=(dataset,)) as pool:
                results = list(pool.map(_compare_cell, cells))
        finally:  # restore the caller's environment
            for name in _BLAS_THREAD_VARS:
                del os.environ[name]
            os.environ.update(saved)
    else:
        results = [_compare_cell(cell, dataset) for cell in cells]

    _write_compare_reports(out, dataset, s, width, runs, cells, results)
    print(f"wrote per-run metrics, curves.csv, summary.csv and report.md to {out}")
    return 0


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation; (nan, 0) for no values, std 0 for one."""
    if not values:
        return float("nan"), 0.0
    return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0


def _write_compare_reports(out, dataset, s, width, runs, cells, results):
    """One metrics CSV per cell, then curves, summary and report, which take
    each ``runs`` consecutive cells as the runs of one (arch, method)."""
    curves, summary, table, diverged = [], [], [], []
    for settings, (records, bad) in zip(cells, results):
        layers, seed = len(settings["hidden"]), settings["seed"]
        label = "sym" if settings["symmetry"] else "base"
        write_metrics_csv(out / f"{dataset.env_id}_h{layers}_{label}_s{seed}.csv", records,
                          _metrics_note(settings, dataset))
        if bad:
            diverged.append(f"arch={layers} {label} seed={seed}")
            print(f"warning: run {diverged[-1]} diverged", file=sys.stderr)
    for first in range(0, len(cells), runs):
        settings = cells[first]
        layers, sym = len(settings["hidden"]), "on" if settings["symmetry"] else "off"
        finished = [records for records, bad in results[first:first + runs] if not bad]
        for i in range(min((len(rr) for rr in finished), default=0)):
            mean, std = _mean_std([rr[i].test_mse for rr in finished])
            curves.append(f"{layers},{sym},{finished[0][i].update_index},"
                          f"{mean:.17g},{std:.17g}\n")
        mean, std = _mean_std([rr[-1].test_mse for rr in finished])
        summary.append(f"{layers},{sym},{mean:.17g},{std:.17g}\n")
        table.append(f"| {layers} | {sym} | {mean:.6e} | {std:.6e} | {len(finished)}/{runs} |\n")
    with open(out / "curves.csv", "w") as f:
        f.write("arch,symmetry,update,test_mse_mean,test_mse_std\n")
        f.writelines(curves)
    with open(out / "summary.csv", "w") as f:
        f.write("arch,symmetry,final_test_mse_mean,final_test_mse_std\n")
        f.writelines(summary)

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
        f.writelines(table)
        if diverged:
            f.write(f"\nDiverged runs: {', '.join(diverged)}\n")


# -- verify --------------------------------------------------------------------


def cmd_verify(args) -> int:
    if not args.group:
        raise ValueError("--group must list at least one group id")
    results = run_suites(suite="all" if args.all else args.suite, group_ids=args.group,
                         seed=args.seed, samples=args.samples)
    print(format_results(results))
    ok = all(res.passed for res in results)
    print("verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse runs a string default (a config-file value) through its
    option's type, but checks choices only on flags; check them here too."""

    def _get_value(self, action, text):
        value = super()._get_value(action, text)
        if text is action.default:
            self._check_value(action, value)
        return value


def build_parser(config=None) -> argparse.ArgumentParser:
    """The CLI parser; ``config`` (from :func:`load_config`) sets defaults."""
    parser = _Parser(
        prog="framedyn",
        description="Learn group-invariant dynamics models on canonical coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by subcommands, each declared once.  Defaults that depend
    # on the environment are left unset (None) and resolved by the command.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config")
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--data")
    fitting.add_argument("--group")
    fitting.add_argument("--mode", choices=MODES, default="delta")
    fitting.add_argument("--activation", choices=ACTIVATIONS, default="relu")
    fitting.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    fitting.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    fitting.add_argument("--updates", type=int)
    fitting.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    fitting.add_argument("--test-fraction", type=float, default=TrainConfig.test_fraction)
    fitting.add_argument("--split-seed", type=int)

    p = sub.add_parser("gen-data", parents=[common],
                       help="simulate an environment and store transitions")
    p.add_argument("--env", choices=sorted(ENVS))
    p.add_argument("--episodes", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--policy", choices=POLICIES, default="uniform-random")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[common, fitting], help="train one dynamics model")
    p.add_argument("--symmetry", choices=("on", "off"), default="on")
    p.add_argument("--hidden", type=_parse_list,
                   help="comma-separated hidden widths, e.g. 128 or 128,128")
    p.add_argument("--out-model")
    p.add_argument("--out-metrics")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", parents=[common, fitting],
                       help="architecture grid with and without symmetry")
    p.add_argument("--archs", type=_parse_list, default=(1, 2, 3),
                   help="comma-separated hidden layer counts, default 1,2,3")
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--runs", type=int, default=4)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", parents=[common], help="run the invariance suites")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every suite (default; overrides a config-file suite)")
    which.add_argument("--suite", choices=sorted({"all", *SUITES, *SUITE_ALIASES}),
                       default="all")
    p.add_argument("--group", type=lambda text: _parse_list(text, str),
                   default=DEFAULT_GROUP_IDS, help="comma-separated group ids to check")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():  # value-taking options only: never --all or --help
        declared = {a.dest for a in p._actions if a.nargs != 0}
        p.set_defaults(**{k: v for k, v in (config or {}).items() if k in declared})
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:  # again, with the file's lines as defaults
            args = build_parser(load_config(args.config)).parse_args(argv)
        return args.func(args)
    except TrainingDivergedError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, DatasetFormatError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
