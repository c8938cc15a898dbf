import json
import re

import numpy as np
import pytest

from framedyn import training
from framedyn.builtin import get_group
from framedyn.dataset import TransitionDataset
from framedyn.models import BaselineModel
from framedyn.rng import Rng, derive_seed
from framedyn.sim import generate_dataset
from framedyn.training import (
    METRICS_HEADER,
    ModelFormatError,
    TrainConfig,
    TrainingDivergedError,
    build_baseline_model,
    build_symmetry_model,
    load_model,
    observation_mse,
    read_metrics_csv,
    save_model,
    train,
    train_test_split,
    write_metrics_csv,
)

import oracles

# Traced bytes that the default parking2 run at width 128 may hold beyond its
# encoded splits: one scoring call, and a whole train() run.
SCORING_ALLOWANCE = 2**20
TRAIN_ALLOWANCE = 2 * 2**20


def _constant_target_dataset(n=3, n_u=2, count=800, shift=0.3, seed=0):
    rng = Rng(seed)
    x = rng.uniform(-1, 1, size=(count, n))
    u = rng.uniform(-1, 1, size=(count, n_u))
    return TransitionDataset(env_id="toy", n=n, n_u=n_u, seed=seed,
                             x=x, u=u, x_next=x + shift)


def test_constant_target_converges_to_zero_error():
    # The optimum is the constant mean target, so the delta-mode model can
    # drive the error to (numerically) zero within the update budget.
    ds = _constant_target_dataset()
    affine = build_baseline_model(3, 2, (), seed=1)
    cfg = TrainConfig(learning_rate=1e-2, updates=2000, eval_every=500, seed=1)
    records = train(affine, ds, cfg)
    assert records[-1].test_mse < 1e-12
    hidden = build_baseline_model(3, 2, [16], seed=1)
    records = train(hidden, ds, cfg)
    assert records[-1].test_mse < 1e-4


def test_metric_sequence_is_deterministic():
    ds = _constant_target_dataset(count=400)
    cfg = TrainConfig(updates=300, eval_every=100, seed=7)
    runs = []
    for _ in range(2):
        model = build_baseline_model(3, 2, [8], seed=3)
        runs.append(train(model, ds, cfg))
    a, b = runs
    assert [r.update_index for r in a] == [r.update_index for r in b]
    assert all(x.train_mse == y.train_mse for x, y in zip(a, b))
    assert all(x.test_mse == y.test_mse for x, y in zip(a, b))


def test_records_cover_expected_updates():
    ds = _constant_target_dataset(count=300)
    model = build_baseline_model(3, 2, [8], seed=3)
    records = train(model, ds, TrainConfig(updates=250, eval_every=100, seed=1))
    assert [r.update_index for r in records] == [0, 100, 200, 250]


class TestSplit:
    def test_split_pure_function_of_hash_and_seed(self):
        a = train_test_split(100, 0.1, 1234)
        b = train_test_split(100, 0.1, 1234)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = train_test_split(100, 0.1, 1235)
        assert not np.array_equal(a[1], c[1])

    def test_split_disjoint_and_complete(self):
        train_idx, test_idx = train_test_split(1000, 0.1, 9)
        assert len(test_idx) == 100
        assert len(np.intersect1d(train_idx, test_idx)) == 0
        assert len(np.union1d(train_idx, test_idx)) == 1000

    def test_default_split_depends_on_dataset_content(self):
        ds1 = _constant_target_dataset(count=300, seed=1)
        ds2 = _constant_target_dataset(count=300, seed=2)
        cfg = TrainConfig(updates=10, eval_every=5, seed=4)
        m1 = build_baseline_model(3, 2, [4], seed=1)
        m2 = build_baseline_model(3, 2, [4], seed=1)
        r1 = train(m1, ds1, cfg)
        r2 = train(m2, ds2, cfg)
        assert r1[0].test_mse != r2[0].test_mse  # different data, different split

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_rows_cannot_split(self, count):
        with pytest.raises(ValueError, match="need at least 2 samples to split"):
            train_test_split(count, 0.5, 0)

    def test_explicit_split_seed_is_honored(self):
        ds = _constant_target_dataset(count=300)
        cfg = TrainConfig(updates=10, eval_every=5, seed=4, split_seed=42)
        m1 = build_baseline_model(3, 2, [4], seed=1)
        m2 = build_baseline_model(3, 2, [4], seed=1)
        assert train(m1, ds, cfg)[0].test_mse == train(m2, ds, cfg)[0].test_mse


def test_orbit_transformed_data_leaves_symmetry_metrics_unchanged(
    parking_group, small_parking_dataset
):
    ds = small_parking_dataset
    g = parking_group.random_element(Rng(50), size=len(ds))
    moved = TransitionDataset(
        env_id=ds.env_id, n=ds.n, n_u=ds.n_u, seed=ds.seed,
        x=parking_group.act_state(g, ds.x),
        u=parking_group.act_control(g, ds.u),
        x_next=parking_group.act_state(g, ds.x_next),
    )
    cfg = TrainConfig(updates=300, eval_every=100, seed=3, split_seed=777)

    sym_runs = []
    for data in (ds, moved):
        model = build_symmetry_model(parking_group, [32], seed=5)
        sym_runs.append(train(model, data, cfg))
    sym_drift = max(
        max(abs(a.train_mse - b.train_mse), abs(a.test_mse - b.test_mse))
        for a, b in zip(*sym_runs)
    )
    assert sym_drift < 1e-9

    base_runs = []
    for data in (ds, moved):
        model = build_baseline_model(24, 4, [32], seed=5)
        base_runs.append(train(model, data, cfg))
    base_drift = max(abs(a.test_mse - b.test_mse) for a, b in zip(*base_runs))
    assert base_drift > 1e-6


@pytest.mark.parametrize("mode", ["delta", "absolute"])
@pytest.mark.parametrize("method", ["sym", "base"])
@pytest.mark.parametrize("env", ["parking2", "reacher"])
def test_every_record_equals_plain_observation_mse(
    monkeypatch, env, method, mode, small_parking_dataset, small_reacher_dataset
):
    # train() scores splits it encoded once per run; each recorded value must
    # equal the plain (model, dataset, indices) form and the MSE of predict.
    ds = small_parking_dataset if env == "parking2" else small_reacher_dataset
    if method == "sym":
        model = build_symmetry_model(get_group(env), [16], seed=2, mode=mode)
    else:
        model = build_baseline_model(ds.n, ds.n_u, [16], seed=2, mode=mode)
    evaluated = []

    def checked(model, dataset, indices, *args):
        got = observation_mse(model, dataset, indices, *args)
        pred = model.predict(dataset.x[indices], dataset.u[indices])
        via_predict = float(np.mean((pred - dataset.x_next[indices]) ** 2))
        assert got.hex() == observation_mse(model, dataset, indices).hex() == via_predict.hex()
        evaluated.append(got)
        return got

    monkeypatch.setattr(training, "observation_mse", checked)
    records = train(model, ds, TrainConfig(updates=90, eval_every=30, batch_size=32, seed=1))
    assert [r.update_index for r in records] == [0, 30, 60, 90]
    assert evaluated == [v for r in records for v in (r.train_mse, r.test_mse)]


@pytest.mark.parametrize("mode", ["delta", "absolute"])
@pytest.mark.parametrize("method", ["sym", "base"])
@pytest.mark.parametrize("env", ["parking2", "reacher"])
def test_row_blocks_score_like_the_whole_split(
    monkeypatch, env, method, mode, small_parking_dataset, small_reacher_dataset
):
    # Blocks of 7 rows make leaves of at most 168 (parking2, n = 24) and 128
    # (reacher, n = 11) elements.  Splits of one row, of whole blocks, of a
    # block plus one row, and either side of numpy's 128-element pairwise
    # block (parking2 at 5 and 6 rows, reacher at 11 and 12) score bit for
    # bit like one pass over the whole split.
    b = 7  # rows per block
    monkeypatch.setattr(training, "_EVAL_ROWS", b)
    ds = small_parking_dataset if env == "parking2" else small_reacher_dataset
    if method == "sym":
        model = build_symmetry_model(get_group(env), [32, 32], seed=2, mode=mode)
    else:
        model = build_baseline_model(ds.n, ds.n_u, [32, 32], seed=2, mode=mode)
    for rows in (1, 2, 5, 6, b, b + 1, 11, 12, 2 * b, 2 * b + 1):
        indices = Rng(rows).permutation(len(ds))[:rows]
        expected = oracles.observation_mse_whole_split(model, ds, indices).hex()
        encoded = training._encode_split(model, ds, indices)
        assert observation_mse(model, ds, indices).hex() == expected, rows
        assert observation_mse(model, ds, indices, encoded).hex() == expected, rows


@pytest.mark.parametrize("method", ["sym", "base"])
def test_a_one_row_leaf_is_scored_with_a_neighbour(monkeypatch, method):
    # Twenty cars, n = 120: at one row per block a leaf holds at most 128
    # elements, so at 2 and 3 rows some leaves lie inside one row, first and
    # last.  Each must be predicted with a neighbouring row, as numpy rounds
    # a one-row product differently; next states 1e-6 off the predictions
    # keep that rounding visible in the mean.
    from framedyn.builtin import ProductGroup, SE2CarGroup

    monkeypatch.setattr(training, "_EVAL_ROWS", 1)
    group = ProductGroup("cars", [SE2CarGroup() for _ in range(20)])
    if method == "sym":
        model = build_symmetry_model(group, [32, 32], seed=2)
    else:
        model = build_baseline_model(group.n, group.n_u, [32, 32], seed=2)
    rng = Rng(4)
    x, u = group.random_state(rng, size=8), group.random_control(rng, size=8)
    x_next = model.predict(x, u) + 1e-6 * rng.uniform(-1, 1, size=x.shape)
    ds = TransitionDataset("custom", group.n, group.n_u, 0, x, u, x_next)
    for rows in (1, 2, 3, 5):
        indices = Rng(rows).permutation(len(ds))[:rows]
        assert (observation_mse(model, ds, indices).hex()
                == oracles.observation_mse_whole_split(model, ds, indices).hex()), rows


def test_pairwise_sum_follows_numpys_summation_order():
    # observation_mse reproduces np.mean by summing the nodes of numpy's
    # pairwise tree; values over 16 decades make any other order round
    # differently.  Every length to 1,100 at the smallest leaf, and the
    # default parking2 train and test splits and the reacher test split.
    rng = Rng(0)
    values = rng.uniform(-1, 1, size=18_000 * 24) * 10.0 ** rng.uniform(-8, 8, size=18_000 * 24)
    cases = [(m, 128) for m in range(1, 1101)]
    for rows, n in ((18_000, 24), (2_000, 24), (2_000, 11)):
        cases += [(rows * n, 128), (rows * n, training._EVAL_ROWS * n)]
    for m, leaf in cases:
        x = values[:m]
        got = training._pairwise_sum(lambda a, b: np.add.reduce(x[a:b]), 0, m, leaf)
        assert got.hex() == np.add.reduce(x).hex(), (
            f"numpy {np.__version__} no longer sums {m} float64 values along the "
            f"pairwise tree (leaves of {leaf}) that observation_mse reproduces")


def test_scoring_and_training_leave_the_splits_to_reference_counting(
    monkeypatch, small_parking_dataset
):
    # With the cyclic collector off, the encoded splits must die as soon as
    # their callers drop them: no reference cycle may hold them.
    import gc
    import weakref

    ds = small_parking_dataset
    model = build_symmetry_model(get_group("parking2"), [16], seed=2)
    refs = []
    encode = training._encode_split

    def tracked(*args):
        inputs, context, targets = split = encode(*args)
        refs.extend(weakref.ref(a) for a in (inputs, *context, targets))
        return split

    monkeypatch.setattr(training, "_encode_split", tracked)
    indices = np.arange(len(ds) // 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        observation_mse(model, ds, indices)
        encoded = training._encode_split(model, ds, indices)
        observation_mse(model, ds, indices, encoded)
        del encoded
        train(model, ds, TrainConfig(updates=20, eval_every=10, batch_size=32))
        assert len(refs) == 4 * 4 and all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("method", ["sym", "base"])
def test_row_blocks_at_the_module_constant(method, default_parking_dataset):
    # 4,097 rows at the real block size: four nodes, two of them cut inside a row.
    ds = default_parking_dataset
    rows = 2 * training._EVAL_ROWS + 1
    if method == "sym":
        model = build_symmetry_model(get_group("parking2"), [128, 128], seed=4)
    else:
        model = build_baseline_model(ds.n, ds.n_u, [128, 128], seed=4)
    indices = Rng(9).permutation(len(ds))[:rows]
    assert (observation_mse(model, ds, indices).hex()
            == oracles.observation_mse_whole_split(model, ds, indices).hex())


def test_scoring_memory_is_bounded_by_a_block(default_parking_dataset):
    # The default 18,000-row parking2 train split at width 128: one scoring
    # call holds a block's worth of regressor work, nothing of the split's
    # size, neither its hidden activation nor its error array.  A 512-row
    # block holds 0.36 MB; a 2,048-row one would hold 1.37 MB, over the bound.
    import tracemalloc

    ds = default_parking_dataset
    train_idx, _ = train_test_split(len(ds), 0.1, 0)
    assert len(train_idx) == 18_000
    model = build_symmetry_model(get_group("parking2"), [128], seed=4)
    encoded = training._encode_split(model, ds, train_idx)
    observation_mse(model, ds, train_idx, encoded)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        observation_mse(model, ds, train_idx, encoded)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < SCORING_ALLOWANCE


def test_train_frames_each_transition_once(monkeypatch, small_parking_dataset):
    # The train and test splits are encoded once each; nothing else frames.
    ds = small_parking_dataset
    model = build_symmetry_model(get_group("parking2"), [16], seed=2)
    group = model.group
    rows = []
    canonical = group._canonical

    def counted(x):
        rows.append(len(x))
        return canonical(x)

    monkeypatch.setattr(group, "_canonical", counted)
    train(model, ds, TrainConfig(updates=20, eval_every=10, batch_size=32, seed=1))
    assert sum(rows) == len(ds)


@pytest.mark.parametrize("mode", ["delta", "absolute"])
@pytest.mark.parametrize("method", ["sym", "base"])
@pytest.mark.parametrize("env", ["parking2", "reacher"])
def test_blocked_encode_matches_one_pass(env, method, mode, default_parking_dataset,
                                         default_reacher_dataset):
    # One row, a block less one, one block, a block plus one, and the default
    # parking2 train split's size; rows repeat where the dataset is smaller.
    ds = default_parking_dataset if env == "parking2" else default_reacher_dataset
    if method == "sym":
        model = build_symmetry_model(get_group(env), [8], seed=2, mode=mode)
    else:
        model = build_baseline_model(ds.n, ds.n_u, [8], seed=2, mode=mode)
    b = training._EVAL_ROWS
    for rows in (1, b - 1, b, b + 1, 18_000):
        indices = Rng(rows).integers(len(ds), size=rows)
        inputs, context, targets = training._encode_split(model, ds, indices)
        one_inputs, one_context, one_targets = model._encode(
            ds.x[indices], ds.u[indices], ds.x_next[indices])
        assert len(context) == len(one_context)
        for got, want in zip((inputs, *context, targets),
                             (one_inputs, *one_context, one_targets)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), rows
        if method == "base":
            assert context[0] is inputs  # the decode context is held once


def test_blocked_encode_names_the_first_failing_block_row():
    # The first block holds a singular car 2 (factor 2) and a later block a
    # singular car 1 (factor 0); the encode stops at the first block, so it
    # names car 2's row, although one pass over the split would walk the
    # factors first and name car 1's.
    from framedyn.builtin import ConstantTranslationGroup, ProductGroup, SE2CarGroup
    from framedyn.groups import FrameSingularityError

    group = ProductGroup("car-goal-car", [SE2CarGroup(), ConstantTranslationGroup(6),
                                         SE2CarGroup()])
    rng = Rng(3)
    rows = training._EVAL_ROWS + 100
    x = group.random_state(rng, size=rows)
    x[5, 16:18] = 0.0
    x[rows - 50, 4:6] = 0.0
    ds = TransitionDataset("custom", group.n, group.n_u, 0, x,
                           group.random_control(rng, size=rows), x)
    model = build_symmetry_model(group, [8], seed=0)
    with pytest.raises(FrameSingularityError) as e:
        training._encode_split(model, ds, np.arange(rows))
    assert str(e.value) == (
        "heading direction norm below 1e-08 in factor 2 ('se2car') at dataset row 5; "
        "the frame is undefined there")


@pytest.mark.parametrize("method", ["sym", "base"])
def test_train_memory_is_the_splits_plus_a_block(method, default_parking_dataset):
    # The default parking2 dataset at width 128: training holds the encoded
    # splits and a fixed allowance for one block of encode or scoring work,
    # one index draw, the batch buffers and Adam's moments; no split-sized
    # temporaries, no error array and no gathered copy of the next states.
    # With 512-row blocks and 64-update draws that is ~1.3 MB; 2,048-row
    # blocks and 256-update draws would hold ~3.1 MB, over the allowance.
    import tracemalloc

    ds = default_parking_dataset
    if method == "sym":
        model = build_symmetry_model(get_group("parking2"), [128], seed=0)
    else:
        model = build_baseline_model(ds.n, ds.n_u, [128], seed=0)
    # The train and test splits together hold the arrays of all the rows.
    inputs, context, targets = training._encode_split(model, ds, np.arange(len(ds)))
    splits_nbytes = sum({id(a): a.nbytes for a in (inputs, *context, targets)}.values())
    del inputs, context, targets
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train(model, ds, TrainConfig(updates=20, eval_every=10))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < splits_nbytes + TRAIN_ALLOWANCE


def _run_both(make_model, ds, cfg):
    """(train's outcome, the oracle's outcome): each the records, or the
    divergence message and its records, and the final parameter bytes."""
    outcomes = []
    for fit in (train, oracles.train_per_update):
        model = make_model()
        try:
            result = fit(model, ds, cfg)
        except TrainingDivergedError as e:
            result = (str(e), e.metrics)
        outcomes.append((result, model.regressor.flat_params.tobytes()))
    return outcomes


def _record_bits(records):
    return [(r.update_index, r.train_mse.hex(), r.test_mse.hex()) for r in records]


@pytest.mark.parametrize(
    "env, method, activation, hidden, mode, updates, eval_every, batch_size", [
        ("parking2", "sym", "relu", (16,), "delta", 250, 100, 32),
        ("parking2", "base", "tanh", (8, 8, 8), "absolute", 1300, 600, 7),
        ("reacher", "sym", "tanh", (16,), "absolute", 50, 100, 1),
        # eval_every at the draw block and one past it
        ("parking2", "base", "relu", (8,), "delta", 300, training._DRAW_UPDATES, 1),
        ("reacher", "sym", "relu", (8, 8, 8), "delta", 513, training._DRAW_UPDATES + 1, 7),
        ("reacher", "base", "tanh", (8, 8, 8), "delta", 600, 300, 256),
    ])
def test_train_matches_per_update_loop(env, method, activation, hidden, mode, updates,
                                       eval_every, batch_size, small_parking_dataset,
                                       small_reacher_dataset):
    ds = small_parking_dataset if env == "parking2" else small_reacher_dataset

    def make_model():
        if method == "sym":
            return build_symmetry_model(get_group(env), hidden, activation, seed=4, mode=mode)
        return build_baseline_model(ds.n, ds.n_u, hidden, activation, seed=4, mode=mode)

    cfg = TrainConfig(updates=updates, eval_every=eval_every, batch_size=batch_size, seed=2)
    (records, params), (expected, expected_params) = _run_both(make_model, ds, cfg)
    assert _record_bits(records) == _record_bits(expected)
    assert [r.update_index for r in records][-1] == updates
    assert params == expected_params


def test_divergence_matches_per_update_loop():
    ds = _constant_target_dataset(count=300, shift=5.0)
    cfg = TrainConfig(learning_rate=1e200, updates=700, eval_every=300, batch_size=7, seed=1)
    (got, params), (expected, expected_params) = _run_both(
        lambda: build_baseline_model(3, 2, [8], seed=1), ds, cfg)
    assert got[0] == expected[0]
    assert got[0].startswith("non-finite batch loss at update")
    assert _record_bits(got[1]) == _record_bits(expected[1])
    assert params == expected_params


def test_dimension_mismatch_between_model_and_dataset():
    ds = _constant_target_dataset(n=3, n_u=2)
    with pytest.raises(ValueError, match="baseline model expects"):
        train(build_baseline_model(4, 2, [4]), ds, TrainConfig(updates=5, eval_every=5))
    group = get_group("se2car")
    with pytest.raises(ValueError, match="group 'se2car'"):
        train(build_symmetry_model(group, [4]), ds, TrainConfig(updates=5, eval_every=5))


def test_empty_dataset_rejected():
    ds = TransitionDataset(env_id="toy", n=3, n_u=2, seed=0)
    with pytest.raises(ValueError, match="empty"):
        train(build_baseline_model(3, 2, [4]), ds, TrainConfig(updates=5, eval_every=5))


def test_divergence_raises_with_metrics():
    ds = _constant_target_dataset(count=300, shift=5.0)
    model = build_baseline_model(3, 2, [8], seed=1)
    # Adam steps scale with lr; this drives the weights past float64 range.
    cfg = TrainConfig(learning_rate=1e200, updates=200, eval_every=50, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as info:
            train(model, ds, cfg)
    assert isinstance(info.value.metrics, list)
    assert info.value.metrics[0].update_index == 0


def test_runaway_run_raises_with_every_record():
    # This model on a parking2 6x10 file at lr 1e60 stays finite but ends at
    # ~7e124 times its update-0 test MSE.
    ds = generate_dataset("parking2", 6, 10, seed=1)
    model = build_symmetry_model(get_group("parking2"), [8], seed=derive_seed(0, "init"))
    cfg = TrainConfig(learning_rate=1e60, updates=40, eval_every=20)
    with pytest.raises(TrainingDivergedError, match="test mse ran away") as info:
        train(model, ds, cfg)
    records = info.value.metrics
    assert [r.update_index for r in records] == [0, 20, 40]
    assert all(np.isfinite(r.test_mse) for r in records)
    first, final = records[0].test_mse, records[-1].test_mse
    assert f"from {first:.6e} at update 0 to {final:.6e} at update 40" in str(info.value)


@pytest.mark.parametrize("growth, runaway", [(1.006, False), (1e3, True)])
def test_runaway_rule_reads_the_final_test_mse(growth, runaway, monkeypatch):
    # Records at updates 0, 5 and 10; the test MSE spikes to 1e3 times its
    # start at update 5, so only the final value decides.
    test_mse = iter([0.04, 0.04 * 1e3, 0.04 * growth])

    def stub(model, dataset, indices, encoded=None):
        return next(test_mse) if len(indices) == len(test_idx) else 1.0

    ds = _constant_target_dataset(count=100)
    test_idx = train_test_split(len(ds), 0.1, 3)[1]
    monkeypatch.setattr(training, "observation_mse", stub)
    cfg = TrainConfig(updates=10, eval_every=5, split_seed=3)
    model = build_baseline_model(3, 2, [4], seed=1)
    if not runaway:
        records = train(model, ds, cfg)
    else:
        with pytest.raises(TrainingDivergedError, match="ran away") as info:
            train(model, ds, cfg)
        records = info.value.metrics
    assert [(r.update_index, r.test_mse) for r in records] == [
        (0, 0.04), (5, 0.04 * 1e3), (10, 0.04 * growth)]


def test_config_validation():
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(test_fraction=1.0)


class TestModelPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, parking_group, small_parking_dataset):
        model = build_symmetry_model(parking_group, [16], seed=9)
        cfg = TrainConfig(updates=100, eval_every=50, seed=2)
        records = train(model, small_parking_dataset, cfg)
        path = tmp_path / "m.fdm"
        save_model(path, model, train_seed=2)
        loaded = load_model(path)
        assert np.array_equal(
            loaded.regressor.flatten_params(), model.regressor.flatten_params()
        )
        assert loaded.mode == model.mode
        assert loaded.group.group_id == "parking2"
        # recomputing the stored split reproduces the recorded test error
        split_seed = None
        x = small_parking_dataset
        from framedyn.rng import derive_seed

        split_seed = derive_seed(x.content_hash(), cfg.seed)
        _, test_idx = train_test_split(len(x), cfg.test_fraction, split_seed)
        assert observation_mse(loaded, x, test_idx) == records[-1].test_mse

    def test_baseline_roundtrip(self, tmp_path):
        model = build_baseline_model(3, 2, [8], seed=4)
        path = tmp_path / "b.fdm"
        save_model(path, model)
        loaded = load_model(path)
        x = Rng(1).uniform(-1, 1, size=(5, 3))
        u = Rng(2).uniform(-1, 1, size=(5, 2))
        assert np.array_equal(loaded.predict(x, u), model.predict(x, u))

    def test_wrong_group_id_rejected(self, tmp_path, parking_group):
        model = build_symmetry_model(parking_group, [8], seed=1)
        path = tmp_path / "m.fdm"
        save_model(path, model)
        with pytest.raises(ModelFormatError, match="trained for group"):
            load_model(path, group="reacher")
        loaded = load_model(path, group="parking2")
        assert loaded.group.group_id == "parking2"

    def test_corrupt_file_rejected(self, tmp_path, parking_group):
        model = build_symmetry_model(parking_group, [8], seed=1)
        path = tmp_path / "m.fdm"
        save_model(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ModelFormatError, match="parameter block"):
            load_model(path)

    @pytest.mark.parametrize("baseline", [False, True], ids=["symmetry", "baseline"])
    @pytest.mark.parametrize("which", ["first", "last"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, parking_group, value, which,
                                           baseline):
        path = tmp_path / "m.fdm"
        save_model(path, build_baseline_model(parking_group.n, parking_group.n_u, [8], seed=1)
                   if baseline else build_symmetry_model(parking_group, [8], seed=1))
        header, _, block = path.read_bytes().partition(b"\n")
        params = np.frombuffer(block, dtype="<f8").copy()
        index = 0 if which == "first" else len(params) - 1
        params[index] = value
        path.write_bytes(header + b"\n" + params.tobytes())
        with pytest.raises(ModelFormatError,
                           match=f"{re.escape(str(path))}: parameter {index} of {len(params)} "
                                 f"is {re.escape(str(value))}, not a finite value"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path, parking_group):
        import json

        model = build_symmetry_model(parking_group, [8], seed=1)
        path = tmp_path / "m.fdm"
        save_model(path, model)
        header, _, rest = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["format_version"] = 99
        path.write_bytes(json.dumps(doc).encode() + b"\n" + rest)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @staticmethod
    def _saved_with_header_edit(tmp_path, group, field, edit, baseline=False):
        """A saved model file (a symmetry model unless ``baseline``) whose
        header ``field`` (dotted) went through ``edit(parent_dict, key)``."""
        path = tmp_path / "m.fdm"
        save_model(path, build_baseline_model(group.n, group.n_u, [8], seed=1)
                   if baseline else build_symmetry_model(group, [8], seed=1))
        header, _, rest = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        *parents, key = field.split(".")
        obj = doc
        for name in parents:
            obj = obj[name]
        edit(obj, key)
        path.write_bytes(json.dumps(doc).encode() + b"\n" + rest)
        return path

    @pytest.mark.parametrize("field", ["param_count", "kind", "mlp.activation"])
    def test_missing_header_field_rejected(self, tmp_path, parking_group, field):
        path = self._saved_with_header_edit(tmp_path, parking_group, field, dict.pop)
        with pytest.raises(ModelFormatError,
                           match=f"{re.escape(str(path))}.*missing field '{field}'"):
            load_model(path)

    @pytest.mark.parametrize("field, value, named, message", [
        ("mlp.hidden_layers", 5, "mlp.hidden_layers", "must be a list of integers"),
        ("mlp.hidden_layers", [8, "x"], "mlp.hidden_layers", "must be a list of integers"),
        ("mlp.input_dim", "x", "mlp.input_dim", "must be an integer"),
        ("mlp.seed", True, "mlp.seed", "must be an integer"),
        ("param_count", "many", "param_count", "must be an integer"),
        ("kind", "teapot", "kind", "must be 'symmetry' or 'baseline'"),
        ("kind", 3, "kind", "must be a string"),
        ("group_id", None, "group_id", "must be a string"),
        ("mode", 1, "mode", "must be a string"),
        ("mlp.activation", "sigmoid", "mlp", "activation must be one of"),
        ("mlp.hidden_layers", [0], "mlp", "widths must be positive"),
        ("mlp.input_dim", 7, "mlp", "parameter vector has"),
        ("mode", "weird", "mode", "must be one of ('delta', 'absolute'), got 'weird'"),
        ("group_id", "nope", "group_id", "unknown group id 'nope'"),
        ("group_id", "reacher", "group_id",
         "regressor output arity 24 does not match state size 11"),
        ("n", 5, "n'/'n_u", "(n=5, n_u=4): regressor input arity 28 does not match n + n_u = 9"),
        ("n_u", 7, "n'/'n_u", "(n=24, n_u=7): regressor input arity 28 does not match"),
        ("n", -1, "n'/'n_u", "(n=-1, n_u=4): regressor input arity 28 does not match"),
        ("n", 0, "n'/'n_u", "(n=0, n_u=4): regressor input arity 28 does not match"),
        # A symmetry header names the one size that differs from its group's.
        ("n", 5, "n", "is 5, but group 'parking2' has n = 24"),
        ("n_u", 99, "n_u", "is 99, but group 'parking2' has n_u = 4"),
        ("n", True, "n", "must be an integer"),
    ])
    def test_wrong_header_field_rejected(self, tmp_path, parking_group, field, value,
                                         named, message):
        # Only a baseline model's sizes are checked against its MLP, as a pair.
        path = self._saved_with_header_edit(
            tmp_path, parking_group, field, lambda obj, key: obj.__setitem__(key, value),
            baseline=named == "n'/'n_u")
        with pytest.raises(ModelFormatError,
                           match=f"{re.escape(str(path))}: model header field "
                                 f"'{re.escape(named)}'.*{re.escape(message)}"):
            load_model(path)

    def test_non_json_header_rejected(self, tmp_path):
        path = tmp_path / "m.fdm"
        path.write_bytes(b'{"format_version": \n')
        with pytest.raises(ModelFormatError,
                           match=f"^{re.escape(str(path))}: invalid model header"):
            load_model(path)

    def test_baseline_loaded_with_a_group_rejected(self, tmp_path, parking_group):
        path = tmp_path / "m.fdm"
        save_model(path, build_baseline_model(parking_group.n, parking_group.n_u, [8], seed=1))
        with pytest.raises(ModelFormatError,
                           match=f"^{re.escape(str(path))}: baseline model carries no group, "
                                 f"but 'parking2' was requested$"):
            load_model(path, group=parking_group)

    def test_only_an_mlp_regressor_is_saved(self, tmp_path):
        model = BaselineModel(4, 2, lambda z: z[..., :4])
        with pytest.raises(ModelFormatError, match="only Mlp-backed models can be serialized"):
            save_model(tmp_path / "m.fdm", model)
        assert list(tmp_path.iterdir()) == []

    def test_list_header_rejected(self, tmp_path):
        path = tmp_path / "m.fdm"
        path.write_bytes(b'[1, 2, 3]\n')
        with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}.*not a JSON object"):
            load_model(path)


def test_metrics_csv_roundtrip(tmp_path):
    from framedyn.training import MetricRecord

    records = [MetricRecord(0, 1.5, 2.5, 0.1), MetricRecord(250, 0.25, 0.5, 1.0)]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, records, {"lr": 1e-3})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == METRICS_HEADER
    back, config = read_metrics_csv(path)
    assert config == {"lr": 1e-3}
    assert [r.update_index for r in back] == [0, 250]
    assert back[0].train_mse == 1.5 and back[1].test_mse == 0.5
