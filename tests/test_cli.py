import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framedyn import cli
from framedyn.cli import build_parser, load_config, main
from framedyn.dataset import TransitionDataset, read_jsonl, write_jsonl
from framedyn.training import MetricRecord, TrainingDivergedError, read_metrics_csv


def run(argv):
    return main(argv)


def run_process(argv):
    """``python -m framedyn`` in a fresh interpreter, so that stderr is
    exactly what a user sees (numpy warnings included)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "framedyn", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _worker_blas():
    """A worker's OPENBLAS_NUM_THREADS and the thread count of its loaded
    OpenBLAS, asked from the library itself (None for another BLAS)."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:  # no /proc: the variable alone is checked
        libs = []
    threads = None
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                threads = fn()
    return os.environ.get("OPENBLAS_NUM_THREADS"), threads


def _without_wall_time(path):
    """A metrics file's lines with the wall-time column dropped."""
    return [line if line.startswith("#") else line.rsplit(",", 1)[0]
            for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "parking.jsonl"
    assert run(["gen-data", "--env", "parking2", "--episodes", "10",
                "--horizon", "20", "--seed", "7", "-o", str(path)]) == 0
    return path


class TestGenData:
    def test_counting_and_summary(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run(["gen-data", "--env", "parking2", "--episodes", "4",
                    "--horizon", "5", "--seed", "1", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "wrote 20 transitions" in text
        assert len(read_jsonl(out)) == 20

    def test_reacher_header_dims(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert run(["gen-data", "--env", "reacher", "--episodes", "2",
                    "--horizon", "5", "--seed", "1", "-o", str(out)]) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["n"] == 11 and header["n_u"] == 2

    def test_unknown_env_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["gen-data", "--env", "lander", "-o", str(tmp_path / "x.jsonl")])
        assert info.value.code == 2

    def test_missing_out_is_runtime_error(self, capsys):
        assert run(["gen-data", "--env", "reacher"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_env_is_runtime_error(self, tmp_path, capsys):
        assert run(["gen-data", "-o", str(tmp_path / "d.jsonl")]) == 1
        assert capsys.readouterr().err == "error: --env is required (parking2 or reacher)\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out, message", [
        ("outdir", "it is a directory"),
        ("missing/x.jsonl", "{tmp}/missing is not a directory"),
    ])
    def test_unwritable_out_fails_before_generating(self, tmp_path, capsys, monkeypatch,
                                                    out, message):
        def no_generation(*args, **kwargs):
            raise AssertionError("generate_dataset was called")

        monkeypatch.setattr(cli, "generate_dataset", no_generation)
        (tmp_path / "outdir").mkdir()
        path = tmp_path / out
        assert run(["gen-data", "--env", "parking2", "-o", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {message.format(tmp=tmp_path)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["outdir"]
        assert list((tmp_path / "outdir").iterdir()) == []

    def test_impossible_size_is_one_line_error(self, tmp_path, capsys):
        # 873 TiB of outputs: beyond the address space, so allocation fails
        # at once without touching memory.
        out = tmp_path / "huge.jsonl"
        assert run(["gen-data", "--env", "parking2", "--episodes", "100000000000",
                    "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["gen-data", "--env", "reacher", "--episodes", "3",
                        "--horizon", "4", "--seed", "5", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_symmetry_run_logs_input_dim_8(self, dataset_path, tmp_path, capsys):
        model = tmp_path / "m.fdm"
        metrics = tmp_path / "m.csv"
        assert run(["train", "--data", str(dataset_path), "--symmetry", "on",
                    "--hidden", "16", "--updates", "60", "--eval-every", "30",
                    "--seed", "1", "--out-model", str(model),
                    "--out-metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "model input dim: 8" in out
        assert "model output dim: 24" in out
        assert model.exists() and metrics.exists()
        lines = metrics.read_text().splitlines()
        assert lines[1] == "update,train_mse,test_mse,wall_time_s"
        records, note = read_metrics_csv(metrics)
        assert [r.update_index for r in records] == [0, 30, 60]
        assert note["symmetry"] is True and note["env_id"] == "parking2"

    def test_baseline_run_logs_input_dim_28(self, dataset_path, tmp_path, capsys):
        assert run(["train", "--data", str(dataset_path), "--symmetry", "off",
                    "--hidden", "16", "--updates", "40", "--eval-every", "20",
                    "--out-model", str(tmp_path / "b.fdm"),
                    "--out-metrics", str(tmp_path / "b.csv")]) == 0
        assert "model input dim: 28" in capsys.readouterr().out

    def test_group_dataset_mismatch_fails(self, dataset_path, tmp_path, capsys):
        assert run(["train", "--data", str(dataset_path), "--group", "reacher",
                    "--updates", "10", "--eval-every", "10",
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_impossible_batch_size_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "tiny.jsonl"
        assert run(["gen-data", "--env", "reacher", "--episodes", "2",
                    "--horizon", "3", "-o", str(data)]) == 0
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--batch-size", "100000000000000",
                    "--updates", "1", "--eval-every", "1",
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_invalid_utf8_dataset_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "tiny.jsonl"
        assert run(["gen-data", "--env", "reacher", "--episodes", "1",
                    "--horizon", "3", "-o", str(data)]) == 0
        lines = data.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:10] + b"\xff" + lines[2][10:]
        data.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--updates", "1", "--eval-every", "1",
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: line 3: not valid UTF-8 (byte 0xff)\n"

    def test_singular_frame_names_the_dataset_row(self, tmp_path, capsys):
        data = tmp_path / "tiny.jsonl"
        assert run(["gen-data", "--env", "parking2", "--episodes", "4",
                    "--horizon", "5", "-o", str(data)]) == 0
        ds = read_jsonl(data)
        ds.x[7, 4:6] = 0.0  # car 0 has no heading in row 7
        write_jsonl(data, ds)
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--updates", "10",
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: heading direction norm below 1e-08 in factor 0 ('se2car') "
            "at dataset row 7; the frame is undefined there\n")

    def test_singular_frame_past_the_first_block_names_the_dataset_row(self, tmp_path,
                                                                       capsys):
        from framedyn.training import _EVAL_ROWS, train_test_split

        data = tmp_path / "blocks.jsonl"
        assert run(["gen-data", "--env", "parking2", "--episodes", "50",
                    "--horizon", "50", "-o", str(data)]) == 0
        ds = read_jsonl(data)
        train_idx, _ = train_test_split(len(ds), 0.1, 3)
        row = int(train_idx[_EVAL_ROWS + 50])  # in the train split's second block
        ds.x[row, 10:12] = 0.0  # car 1 has no heading
        write_jsonl(data, ds)
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--updates", "10", "--split-seed", "3",
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: heading direction norm below 1e-08 in factor 1 ('se2car') "
            f"at dataset row {row}; the frame is undefined there\n")

    @pytest.mark.parametrize("hidden", ["", ","])
    def test_empty_hidden_list_fails_before_any_output(self, dataset_path, tmp_path,
                                                       capsys, hidden):
        assert run(["train", "--data", str(dataset_path), "--hidden", hidden,
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --hidden must list at least one layer width\n"

    def test_missing_data_flag(self, capsys):
        assert run(["train"]) == 1
        assert "--data is required" in capsys.readouterr().err

    def test_invalid_config_fails_before_any_output(self, dataset_path, tmp_path, capsys):
        assert run(["train", "--data", str(dataset_path), "--lr", "-1",
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "x.fdm").exists()

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "inf"],
                                       ["--group", "se2car"]])
    def test_nonfinite_lr_or_group_arity_fails_before_any_output(
        self, dataset_path, tmp_path, capsys, flags
    ):
        assert run(["train", "--data", str(dataset_path), *flags,
                    "--out-model", str(tmp_path / "x.fdm"),
                    "--out-metrics", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "x.fdm").exists()

    def test_divergence_prints_only_the_error(self, dataset_path, tmp_path):
        # numpy overflow warnings would otherwise reach stderr.
        proc = run_process(
            ["train", "--data", str(dataset_path),
             "--lr", "1e308", "--hidden", "8", "--updates", "20", "--eval-every", "10",
             "--out-model", str(tmp_path / "x.fdm"), "--out-metrics", str(tmp_path / "x.csv")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: training diverged")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_runaway_run_fails_and_writes_nothing(self, tmp_path):
        # At lr 1e60 the run stays finite but its test MSE ends ~2e240 times
        # its update-0 value: the runaway rule compare applies, as an error.
        data = tmp_path / "d.jsonl"
        assert run(["gen-data", "--env", "parking2", "--episodes", "6", "--horizon", "10",
                    "--seed", "1", "-o", str(data)]) == 0
        proc = run_process(["train", "--data", str(data), "--lr", "1e60", "--hidden", "8",
                            "--updates", "40", "--eval-every", "20"])
        assert proc.returncode == 1
        assert re.fullmatch(r"error: training diverged: test mse ran away from "
                            r"\d\.\d{6}e-02 at update 0 to \d\.\d{6}e\+239 at update 40\n",
                            proc.stderr), proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]

    @pytest.mark.parametrize("flag", ["--out-model", "--out-metrics"])
    def test_output_in_a_missing_directory_fails_before_training(self, dataset_path,
                                                                 tmp_path, capsys, flag):
        paths = {"--out-model": tmp_path / "x.fdm", "--out-metrics": tmp_path / "x.csv"}
        paths[flag] = tmp_path / "missing" / "x.out"
        assert run(["train", "--data", str(dataset_path), "--hidden", "8",
                    *(str(v) for item in paths.items() for v in item)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {paths[flag]}: "
                                f"{tmp_path / 'missing'} is not a directory\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out-model", "--out-metrics"])
    def test_output_that_is_a_directory_fails_before_training(self, dataset_path, tmp_path,
                                                              capsys, flag):
        paths = {"--out-model": tmp_path / "x.fdm", "--out-metrics": tmp_path / "x.csv"}
        paths[flag] = tmp_path / "outdir"
        paths[flag].mkdir()
        assert run(["train", "--data", str(dataset_path), "--hidden", "8",
                    *(str(v) for item in paths.items() for v in item)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {paths[flag]}: it is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["outdir"]
        assert list(paths[flag].iterdir()) == []


class TestCompare:
    def test_grid_counting_and_schema(self, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--data", str(dataset_path), "--archs", "1,2",
                    "--hidden-size", "8", "--runs", "2", "--updates", "40",
                    "--eval-every", "20", "--seed", "3",
                    "--out-dir", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "8 training runs" in text  # 2 archs x 2 methods x 2 runs
        metric_files = sorted(p.name for p in out_dir.glob("parking2_h*_s*.csv"))
        assert len(metric_files) == 8
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "arch,symmetry,final_test_mse_mean,final_test_mse_std"
        assert len(summary) == 5
        assert (out_dir / "report.md").exists()
        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "arch,symmetry,update,test_mse_mean,test_mse_std"
        # 2 archs x 2 methods x 3 records (updates 0, 20, 40)
        assert len(curves) == 1 + 12

    @pytest.mark.parametrize("archs", ["", "0,-1", "1,0", "1,1"])
    def test_invalid_archs_fail_before_any_file(self, dataset_path, tmp_path, capsys, archs):
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--data", str(dataset_path), "--archs", archs,
                    "--updates", "10", "--eval-every", "10",
                    "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --archs") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "-1"],
                                       ["--lr", "inf"], ["--group", "se2car"]])
    def test_invalid_config_fails_before_any_output(self, dataset_path, tmp_path, capsys,
                                                    flags):
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--data", str(dataset_path), *flags, "--archs", "1",
                    "--runs", "1", "--updates", "10", "--eval-every", "10",
                    "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not out_dir.exists()

    def test_workers_give_same_summary(self, dataset_path, tmp_path, capsys):
        # At lr 3 some runs run away (arch 2 mixes a finished and a diverged
        # symmetry run), so every output depends on the cell order.
        kwargs = ["--archs", "1,2", "--hidden-size", "8", "--runs", "2", "--lr", "3",
                  "--updates", "20", "--eval-every", "10", "--seed", "3"]
        outputs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            assert run(["compare", "--data", str(dataset_path), *kwargs,
                        "--workers", workers, "--out-dir", str(out_dir)]) == 0
            files = {p.name: _without_wall_time(p) if p.name.startswith("parking2_h")
                     else p.read_text().splitlines() for p in out_dir.iterdir()}
            outputs.append((files, capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        files, err = outputs[0]
        assert len(files) == 11 and err.count("diverged") == 3
        assert "Diverged runs: arch=2 sym seed=4, " in "\n".join(files["report.md"])

    def test_runaway_runs_count_as_diverged(self, dataset_path, tmp_path, capsys,
                                            monkeypatch):
        # Run 0 ends slightly above its update-0 test MSE, run 1 runs away and
        # run 2 stops on a non-finite loss, each raised as train() raises it:
        # only run 0 enters the mean.
        def fake_train(model, dataset, config):
            first = MetricRecord(0, 1.0, 0.04, 0.0)
            if config.seed == 2:
                raise TrainingDivergedError("non-finite batch loss at update 5", [first])
            last = MetricRecord(10, 1.0, 0.04 * {0: 1.006, 1: 1e3}[config.seed], 0.0)
            if config.seed == 1:
                raise TrainingDivergedError("test mse ran away", [first, last])
            return [first, last]

        monkeypatch.setattr(cli, "train", fake_train)
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--data", str(dataset_path), "--archs", "1", "--runs", "3",
                    "--updates", "10", "--eval-every", "10", "--seed", "0",
                    "--out-dir", str(out_dir)]) == 0
        err = capsys.readouterr().err
        for label in ("sym", "base"):
            for seed in (1, 2):
                assert f"warning: run arch=1 {label} seed={seed} diverged" in err
            assert f"arch=1 {label} seed=0" not in err
        summary = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert summary == [f"1,{sym},{0.04 * 1.006:.17g},0" for sym in ("on", "off")]
        assert (out_dir / "report.md").read_text().count("| 1/3 |") == 2

    def test_workers_run_one_blas_thread(self, dataset_path, tmp_path, monkeypatch):
        # Two BLAS threads per worker oversubscribe the CPUs, so workers load
        # numpy with one; the caller's environment is left as it was.
        import concurrent.futures

        probes = []

        class Probing(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probes.append(self.submit(_worker_blas).result())

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Probing)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        assert run(["compare", "--data", str(dataset_path), "--archs", "1",
                    "--hidden-size", "8", "--runs", "1", "--updates", "10",
                    "--eval-every", "10", "--workers", "2",
                    "--out-dir", str(tmp_path / "cmp")]) == 0
        (variable, threads), = probes
        assert variable == "1" and threads in (1, None)
        assert dict(os.environ) == environ

    def test_worker_tasks_carry_no_dataset(self, dataset_path, tmp_path, monkeypatch):
        # Each worker gets the dataset once, through its pool initializer.
        import concurrent.futures

        submitted = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))
                submitted.extend(tasks)
                return super().map(fn, *zip(*tasks), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        assert run(["compare", "--data", str(dataset_path), "--archs", "1",
                    "--hidden-size", "8", "--runs", "2", "--updates", "10",
                    "--eval-every", "10", "--workers", "2",
                    "--out-dir", str(tmp_path / "cmp")]) == 0
        assert len(submitted) == 4
        assert not any(isinstance(a, TransitionDataset) for args in submitted for a in args)

    def test_dataset_is_read_once(self, dataset_path, tmp_path, monkeypatch):
        from framedyn import cli

        paths = []

        def counted(path):
            paths.append(path)
            return read_jsonl(path)

        monkeypatch.setattr(cli, "read_jsonl", counted)
        assert run(["compare", "--data", str(dataset_path), "--archs", "1,2",
                    "--hidden-size", "8", "--runs", "2", "--updates", "10",
                    "--eval-every", "10", "--workers", "1",
                    "--out-dir", str(tmp_path / "cmp")]) == 0
        assert paths == [str(dataset_path)]

    def test_split_seed_from_config_is_used(self, dataset_path, tmp_path):
        finals = []
        for split_seed in (5, 6):
            cfg = tmp_path / f"split{split_seed}.cfg"
            cfg.write_text(f"split_seed = {split_seed}\n")
            out_dir = tmp_path / f"cmp{split_seed}"
            assert run(["compare", "--data", str(dataset_path), "--config", str(cfg),
                        "--archs", "1", "--hidden-size", "8", "--runs", "1",
                        "--updates", "10", "--eval-every", "10",
                        "--out-dir", str(out_dir)]) == 0
            records, note = read_metrics_csv(out_dir / "parking2_h1_sym_s0.csv")
            assert note["split_seed"] == split_seed
            finals.append(records[-1].test_mse)
        assert finals[0] != finals[1]

    def test_split_seed_flag_matches_config_line(self, dataset_path, tmp_path):
        cfg = tmp_path / "split.cfg"
        cfg.write_text("split_seed = 5\n")
        runs = []
        for name, extra in (("flag", ["--split-seed", "5"]), ("config", ["--config", str(cfg)])):
            assert run(["compare", "--data", str(dataset_path), *extra, "--archs", "1",
                        "--hidden-size", "8", "--runs", "1", "--updates", "10",
                        "--eval-every", "10", "--out-dir", str(tmp_path / name)]) == 0
            records, note = read_metrics_csv(tmp_path / name / "parking2_h1_base_s0.csv")
            runs.append(([(r.train_mse, r.test_mse) for r in records], note))
        assert runs[0] == runs[1] and runs[0][1]["split_seed"] == 5

    def test_train_reruns_every_cell(self, tmp_path):
        # train with a cell's widths, method and seed builds the cell's model,
        # so it writes the cell's metrics file, config line included.
        data = tmp_path / "d.jsonl"
        assert run(["gen-data", "--env", "parking2", "--episodes", "6", "--horizon", "10",
                    "--seed", "1", "-o", str(data)]) == 0
        fitting = ["--data", str(data), "--updates", "40", "--eval-every", "20"]
        assert run(["compare", *fitting, "--archs", "1,2", "--hidden-size", "8", "--runs", "2",
                    "--seed", "3", "--out-dir", str(tmp_path / "cmp")]) == 0
        cells = [(layers, label, seed) for layers in (1, 2) for label in ("sym", "base")
                 for seed in (3, 4)]
        for layers, label, seed in cells:
            metrics = tmp_path / f"h{layers}_{label}_s{seed}.csv"
            assert run(["train", *fitting, "--hidden", ",".join(["8"] * layers),
                        "--symmetry", "on" if label == "sym" else "off", "--seed", str(seed),
                        "--out-model", str(tmp_path / "m.fdm"),
                        "--out-metrics", str(metrics)]) == 0
            cell = tmp_path / "cmp" / f"parking2_h{layers}_{label}_s{seed}.csv"
            assert _without_wall_time(metrics) == _without_wall_time(cell), (layers, label, seed)

    @pytest.mark.parametrize("flags", [["--out-dir", "cmp"], ["--data", "d.jsonl"]])
    def test_missing_data_or_out_dir_is_runtime_error(self, tmp_path, capsys, flags):
        assert run(["compare", *flags]) == 1
        assert capsys.readouterr().err == "error: --data and --out-dir are required\n"

    def test_zero_runs_fail_before_any_file(self, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--data", str(dataset_path), "--runs", "0",
                    "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --runs must be at least 1\n"
        assert not out_dir.exists()

    def test_negative_workers_fail_before_any_file(self, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--data", str(dataset_path), "--workers", "-3",
                    "--archs", "1", "--runs", "1", "--updates", "10",
                    "--eval-every", "10", "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --workers") and captured.err.count("\n") == 1
        assert not out_dir.exists()


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_too_few_transitions_fail_before_any_output(dataset_path, tmp_path, capsys,
                                                    command, rows):
    ds = read_jsonl(dataset_path)
    data = tmp_path / "small.jsonl"
    write_jsonl(data, TransitionDataset(ds.env_id, ds.n, ds.n_u, ds.seed,
                                        ds.x[:rows], ds.u[:rows], ds.x_next[:rows]))
    outputs = {"train": ["--out-model", str(tmp_path / "m.fdm"),
                         "--out-metrics", str(tmp_path / "m.csv")],
               "compare": ["--archs", "1", "--runs", "1", "--out-dir", str(tmp_path / "cmp")]}
    assert run([command, "--data", str(data), "--updates", "10", "--eval-every", "10",
                *outputs[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["small.jsonl"]


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run(["verify", "--all", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "verification: PASS" in out

    def test_single_suite_with_group(self, capsys):
        assert run(["verify", "--suite", "lemma1", "--group", "parking2",
                    "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "reduce-invariance" in out and "parking2" in out

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["verify", "--suite", "nonsense"])
        assert info.value.code == 2

    def test_all_and_suite_together_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["verify", "--all", "--suite", "axioms"])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_all_overrides_config_suite(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("suite = axioms\ngroup = se2car\nsamples = 50\n")
        assert run(["verify", "--config", str(cfg)]) == 0
        suites = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert set(suites) == {"axioms"}
        assert run(["verify", "--all", "--config", str(cfg)]) == 0
        suites = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert {"axioms", "frame", "model-invariance", "sim", "gradcheck"} <= set(suites)

    def test_suite_covering_no_chosen_group_names_the_groups(self, capsys):
        assert run(["verify", "--suite", "model-invariance", "--group", "const:6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: suite 'model-invariance' covers none of the "
                                "chosen groups (const:6)\n")

    def test_group_list_accepts_spaces(self, capsys):
        assert run(["verify", "--suite", "axioms", "--group", "se2car, reacher",
                    "--samples", "20"]) == 0
        subjects = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert subjects == ["se2car", "reacher"]

    def test_empty_group_list_is_one_line_error(self, capsys):
        assert run(["verify", "--group", " , "]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --group must list at least one group id\n"

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_is_one_line_error(self, capsys, samples):
        assert run(["verify", "--suite", "axioms", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: samples must be at least 1, got {samples}\n"


# Every option string of every subcommand, sorted.
OPTION_SURFACE = {
    "gen-data": ["--config", "--env", "--episodes", "--help", "--horizon", "--out",
                 "--policy", "--seed", "-h", "-o"],
    "train": ["--activation", "--batch-size", "--config", "--data", "--eval-every",
              "--group", "--help", "--hidden", "--lr", "--mode", "--out-metrics",
              "--out-model", "--seed", "--split-seed", "--symmetry", "--test-fraction",
              "--updates", "-h"],
    "compare": ["--activation", "--archs", "--batch-size", "--config", "--data",
                "--eval-every", "--group", "--help", "--hidden-size", "--lr", "--mode",
                "--out-dir", "--runs", "--seed", "--split-seed", "--test-fraction",
                "--updates", "--workers", "-h"],
    "verify": ["--all", "--config", "--group", "--help", "--samples", "--seed", "--suite",
               "-h"],
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_option_surface_is_pinned():
    got = {name: sorted(p._option_string_actions)
           for name, p in _subparsers(build_parser()).items()}
    assert got == OPTION_SURFACE


def test_suite_choices_are_pinned():
    (suite,) = [a for a in _subparsers(build_parser())["verify"]._actions
                if "--suite" in a.option_strings]
    assert suite.choices == [
        "all", "axioms", "frame", "frame-equivariance", "gradcheck", "lemma1",
        "model-invariance", "reduce-invariance", "roundtrip", "sim", "theorem1"]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment defaults\n"
            "env = reacher\n"
            "episodes = 3\n"
            "horizon = 4\n"
            "seed = 9\n"
        )
        out = tmp_path / "ds.jsonl"
        assert run(["gen-data", "--config", str(cfg), "--episodes", "2",
                    "-o", str(out)]) == 0
        ds = read_jsonl(out)
        assert ds.env_id == "reacher" and len(ds) == 8 and ds.seed == 9

    def test_invalid_config_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("episodes 3\n")
        assert run(["gen-data", "--config", str(cfg), "--env", "reacher",
                    "-o", str(tmp_path / "x.jsonl")]) == 1
        assert "key = value" in capsys.readouterr().err

    def test_load_config_parses_values(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a = 1\nb-dash = two\n\n# comment\n")
        assert load_config(cfg) == {"a": "1", "b_dash": "two"}


def parsed(monkeypatch, argv) -> dict:
    """The namespace ``main`` hands to the command (less ``func``), without
    running the command."""
    seen = []
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"),
                        lambda args: seen.append(vars(args)) or 0)
    assert main(argv) == 0
    del seen[0]["func"]
    return seen[0]


# One valid, non-default value for every value-taking option, by dest.
OPTION_VALUES = {
    "seed": "5", "env": "reacher", "episodes": "3", "horizon": "4",
    "policy": "scripted-goal-seek", "out": "x.jsonl", "data": "d.jsonl", "group": "reacher",
    "mode": "absolute", "activation": "tanh", "lr": "0.5", "batch_size": "7",
    "updates": "9", "eval_every": "3", "test_fraction": "0.25", "split_seed": "11",
    "symmetry": "off", "hidden": "4, 5", "out_model": "m.fdm", "out_metrics": "m.csv",
    "archs": "2, 3", "hidden_size": "6", "runs": "2", "workers": "3", "out_dir": "o",
    "suite": "axioms", "samples": "12",
}
VALUE_OPTIONS = [(name, action.option_strings[-1], action.dest)
                 for name, p in _subparsers(build_parser()).items()
                 for action in p._actions if action.nargs != 0 and action.dest != "config"]


class TestConfigValues:
    @pytest.mark.parametrize("command, flag, dest", VALUE_OPTIONS,
                             ids=[f"{c}{f}" for c, f, _ in VALUE_OPTIONS])
    def test_config_value_parses_like_its_flag(self, tmp_path, monkeypatch, command,
                                               flag, dest):
        value = OPTION_VALUES[dest]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        from_flag = parsed(monkeypatch, [command, flag, value])
        from_config = parsed(monkeypatch, [command, "--config", str(cfg)])
        assert from_config.pop("config") == str(cfg) and from_flag.pop("config") is None
        assert from_config == from_flag
        assert from_flag[dest] != parsed(monkeypatch, [command])[dest]

    @pytest.mark.parametrize("command, key, value", [
        ("gen-data", "episodes", "abc"), ("gen-data", "env", "lander"),
        ("train", "lr", "fast"), ("train", "hidden", "8, x"), ("train", "mode", "weird"),
        ("train", "symmetry", "maybe"), ("compare", "runs", "1.5"),
        ("verify", "suite", "nonsense"), ("verify", "samples", "many"),
    ])
    def test_bad_config_value_is_the_flags_usage_error(self, tmp_path, capsys, command,
                                                        key, value):
        errors = []
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        for argv in ([command, f"--{key}", value], [command, "--config", str(cfg)]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[1].count("error:") == 1
        assert errors[1].splitlines()[-1].startswith(
            f"framedyn {command}: error: argument --{key}: invalid ")

    def test_config_all_line_is_ignored(self, tmp_path, monkeypatch):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("all = true\nsuite = axioms\n")
        args = parsed(monkeypatch, ["verify", "--config", str(cfg)])
        assert (args["all"], args["suite"]) == (False, "axioms")

    def test_keys_naming_no_option_of_the_subcommand_are_ignored(self, tmp_path,
                                                                 monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("symmetry = maybe\nhidden = ,\nepisodes = abc\nfunc = x\n"
                       "command = train\nnonsense = 1\n")
        args = parsed(monkeypatch, ["compare", "--config", str(cfg)])  # runs args.func
        assert args["command"] == "compare"
        assert not {"symmetry", "hidden", "episodes", "nonsense"} & set(args)
