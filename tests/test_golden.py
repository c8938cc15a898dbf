"""Golden digests: exact outputs pinned across versions.

A refactor of the simulators, policies, groups, models, training loop, dataset
writer or random-number consumption that changes any generated bit fails here,
even if it stays self-consistent.  Values were recorded with numpy 2.4 and
OpenBLAS; another BLAS build may round the regressor's matrix products
differently.
"""

import hashlib

import numpy as np
import pytest

from framedyn.builtin import get_group
from framedyn.cli import main
from framedyn.dataset import read_jsonl, write_jsonl
from framedyn.rng import Rng, derive_seed, uniform_rows
from framedyn.sim import ENVS, generate_dataset
from framedyn.training import (
    TrainConfig,
    build_baseline_model,
    build_symmetry_model,
    save_model,
    train,
)
from framedyn.verify import check_sim_invariance, run_suites

# (env, policy, episodes, horizon, seed) -> content_hash() as 16 hex digits.
GOLDEN_DATASET_HASHES = {
    ("parking2", "uniform-random", 7, 13, 0): "567cce59d2794a0a",
    ("parking2", "uniform-random", 7, 13, 3): "a941e972a7c3eb82",
    ("parking2", "uniform-random", 1, 1, 0): "e31ab952c3a5d4cc",
    ("parking2", "scripted-goal-seek", 7, 13, 0): "70a8517f1f32a83b",
    ("parking2", "scripted-goal-seek", 7, 13, 3): "76d29a26cf91cde9",
    ("parking2", "scripted-goal-seek", 1, 1, 0): "6747c8bdb43c62ad",
    ("reacher", "uniform-random", 7, 13, 0): "bac9fbaf7f79a538",
    ("reacher", "uniform-random", 7, 13, 3): "6794055caebd899f",
    ("reacher", "uniform-random", 1, 1, 0): "4684e4e832fc1dcc",
    ("reacher", "scripted-goal-seek", 7, 13, 0): "7642097c03c0a35d",
    ("reacher", "scripted-goal-seek", 7, 13, 3): "04841ac8cf9717ba",
    ("reacher", "scripted-goal-seek", 1, 1, 0): "84ff0427641156dc",
}

# (env, policy, episodes, horizon, seed) -> sha256 prefix of the file write_jsonl
# writes: every GOLDEN_DATASET_HASHES key plus the gen-data default files.
GOLDEN_JSONL_DIGESTS = {
    ("parking2", "uniform-random", 7, 13, 0): "fe5858d2136dfbd9",
    ("parking2", "uniform-random", 7, 13, 3): "9722414c5d4265a3",
    ("parking2", "uniform-random", 1, 1, 0): "c3183f5180fabe48",
    ("parking2", "scripted-goal-seek", 7, 13, 0): "3f049ab5565ce4e8",
    ("parking2", "scripted-goal-seek", 7, 13, 3): "6415b29dc36c4908",
    ("parking2", "scripted-goal-seek", 1, 1, 0): "5e0040647877a0e6",
    ("reacher", "uniform-random", 7, 13, 0): "3ebd73b050d75a49",
    ("reacher", "uniform-random", 7, 13, 3): "b777e7c270ececef",
    ("reacher", "uniform-random", 1, 1, 0): "8a1552242b7637e1",
    ("reacher", "scripted-goal-seek", 7, 13, 0): "5e391a4d65bb29a1",
    ("reacher", "scripted-goal-seek", 7, 13, 3): "b6d31bfd0f623ba3",
    ("reacher", "scripted-goal-seek", 1, 1, 0): "f056db30a50b0bd3",
    ("parking2", "uniform-random", 400, 50, 0): "81cb65787f80372a",
    ("reacher", "uniform-random", 200, 50, 0): "4e08e3996d3fb740",
}

# (env, method) -> (train_mse, test_mse) as float hex at updates 0, 50, ..., 200.
GOLDEN_TRAIN_SEQUENCES = {
    ("parking2", "sym"): [
        ("0x1.468e7d26f866cp-5", "0x1.9d9e7198d4b38p-5"),
        ("0x1.39fe0d27f7eabp-7", "0x1.896a5b03c676fp-7"),
        ("0x1.2387b7878c2ecp-8", "0x1.72dcc2caf09b0p-8"),
        ("0x1.649741e3e6ba0p-9", "0x1.c8e14a89f5edep-9"),
        ("0x1.ea211f028b1adp-10", "0x1.3431f33b2ab5fp-9"),
    ],
    ("parking2", "base"): [
        ("0x1.84e982927679ap+0", "0x1.39e675ee6749ap+0"),
        ("0x1.46d05fc94fe02p-2", "0x1.2579c63030a2cp-2"),
        ("0x1.dbbe9abf19029p-4", "0x1.bbede8595fe3dp-4"),
        ("0x1.d5d83eeb8f7cfp-5", "0x1.c9e57b29e8987p-5"),
        ("0x1.0c945f2ad088fp-5", "0x1.0e2ec8d2852b7p-5"),
    ],
    ("reacher", "sym"): [
        ("0x1.1b64566934fcap-4", "0x1.0d36d184071e3p-4"),
        ("0x1.a4e1b1d51ff8ep-7", "0x1.d30d675b18897p-7"),
        ("0x1.6fcd42e2adbcbp-8", "0x1.91a33fd0674aep-8"),
        ("0x1.b84dc5355db7bp-9", "0x1.d7c2ff826f91ep-9"),
        ("0x1.25fbfd5abe1d3p-9", "0x1.3f84a4015e47dp-9"),
    ],
    ("reacher", "base"): [
        ("0x1.693b152ad95f2p-4", "0x1.783489b36b7d9p-4"),
        ("0x1.578bf503781e4p-6", "0x1.59402471bdfa8p-6"),
        ("0x1.2eb25c9ef1342p-7", "0x1.272e77cc2cae5p-7"),
        ("0x1.60550059373ccp-8", "0x1.5a27ce5a0ae16p-8"),
        ("0x1.cf4264306b3f8p-9", "0x1.cb1c03c5e1f7dp-9"),
    ],
}

# (env, method) -> sha256 prefix of the model file save_model writes after
# the run above (train_seed=0).
GOLDEN_MODEL_DIGESTS = {
    ("parking2", "base"): "b1a48132dbc1f80b",
    ("parking2", "sym"): "12db37708047b311",
    ("reacher", "base"): "4a74cb6f2b72cee2",
    ("reacher", "sym"): "201cbfaa905592c7",
}

# As GOLDEN_TRAIN_SEQUENCES, for [32, 32] tanh networks in absolute mode.
GOLDEN_TANH_SEQUENCES = {
    ("parking2", "base"): [
        ("0x1.aa90e80e680ddp+1", "0x1.94aa0bccd21d9p+1"),
        ("0x1.ac5e855412ffdp+0", "0x1.99e69e1263361p+0"),
        ("0x1.012873f4b14bdp+0", "0x1.f04b62c11c466p-1"),
        ("0x1.4225048b5f23cp-1", "0x1.3cdd89aee93cfp-1"),
        ("0x1.9161fcab0f2b8p-2", "0x1.8e9dadbdc03d7p-2"),
    ],
    ("parking2", "sym"): [
        ("0x1.8b3222c180c11p-3", "0x1.78e601b6a7a9fp-3"),
        ("0x1.0f56ca2f72a6dp-5", "0x1.07d7366c0b40bp-5"),
        ("0x1.6b10c1e2a140fp-10", "0x1.ab25db64bb47ap-10"),
        ("0x1.36ca41e81023dp-11", "0x1.79e7f42c1f662p-11"),
        ("0x1.0d5943d6fe54fp-11", "0x1.497302f498677p-11"),
    ],
    ("reacher", "base"): [
        ("0x1.9f3919332b7fdp-2", "0x1.a2d919e5007b8p-2"),
        ("0x1.d4bbe7147484dp-5", "0x1.c6c67a99856c0p-5"),
        ("0x1.76f27190836e3p-7", "0x1.8d97fb8178465p-7"),
        ("0x1.0b3dc4d3f46b1p-8", "0x1.299b1dd74c04ap-8"),
        ("0x1.478aa7461b156p-9", "0x1.7218042643e00p-9"),
    ],
    ("reacher", "sym"): [
        ("0x1.6b27e72356416p-2", "0x1.5af6143ee4acbp-2"),
        ("0x1.2314fe6fe4a38p-5", "0x1.59fb857d54683p-5"),
        ("0x1.4025f496d0b83p-8", "0x1.a4dc459e259e6p-8"),
        ("0x1.c47d6fc2d2867p-10", "0x1.0d5f8d2f008a8p-9"),
        ("0x1.2b64c9df09811p-10", "0x1.6a61b59cf82aap-10"),
    ],
}

# (group, mode) -> sha256 prefix of predict() outputs, (batched, row by row).
GOLDEN_PREDICT_DIGESTS = {
    ("se2car", "delta"): ("4427517226110687", "69cb67e9544172c2"),
    ("se2car", "absolute"): ("dab3ae40f40a50a7", "10e27b1277f0ce95"),
    ("parking2", "delta"): ("d979cef730d2df63", "c3ccc9351455ac0e"),
    ("parking2", "absolute"): ("5c6ad204cc11c024", "3be51f070fc98f5a"),
    ("reacher", "delta"): ("3a01af79cc348625", "b528cd1bd0d79fe3"),
    ("reacher", "absolute"): ("12ec27682f00db57", "9b9df2339443dfd1"),
}

# Input sizes of the canonicalization goldens: one state, a batch of one, a
# batch, and a (3, 5) grid of states.
CANONICAL_SIZES = {"single": None, "one": 1, "batch": 64, "grid": (3, 5)}

# (group, CANONICAL_SIZES key) -> sha256 prefixes of the moving frame, the
# framed state, the inverse frame and reduce(x) of the group's random states.
GOLDEN_CANONICAL_DIGESTS = {
    ("se2car", "single"): ("f5c9a8a46e003e01", "b2d864c76779af54", "79df82d85b3873f8", "f93f9b087caad927"),
    ("se2car", "one"): ("1d1dc7cfb9c63d9e", "7eff1020af88a540", "97a5b3cf82f13389", "b183f48063ae8c22"),
    ("se2car", "batch"): ("98079a5fc0ec9aa9", "ae1ee4103f60f52f", "4e698592c3dd46a4", "592f4802bd3b7178"),
    ("se2car", "grid"): ("78bc89fdb9c23ae2", "c02fc70b80977c5d", "c9380f6b369a7019", "5b30c738ad220488"),
    ("const:6", "single"): ("cf52c98cf83810bd", "17b0761f87b081d5", "560ec45ae28ca422", "e3b0c44298fc1c14"),
    ("const:6", "one"): ("c5162f9f52a5420b", "17b0761f87b081d5", "78f030727b5a621f", "e3b0c44298fc1c14"),
    ("const:6", "batch"): ("fbc2f01d64c4c64d", "e80232b4d18d0bb7", "9cb344046959638e", "e3b0c44298fc1c14"),
    ("const:6", "grid"): ("b026aa35d62c0733", "fe2f74a1e0b16a66", "b4db1735b8606f57", "e3b0c44298fc1c14"),
    ("parking2", "single"): ("31c3ca966486d1d0", "c42db56c27d26b71", "780dbb536b692245", "7206451119b770b5"),
    ("parking2", "one"): ("785f574ff89aec98", "90191b4035ff550e", "09ca2ae501ceb2a4", "c2f734503412cfd6"),
    ("parking2", "batch"): ("6968a704473bd202", "8bd560a9b055beac", "93ea089cecf65408", "c51442676eafce91"),
    ("parking2", "grid"): ("39829aa659681e4e", "0f46189564fec077", "04ff3abe757b432d", "9c63ca1e283434e0"),
    ("reacher", "single"): ("843269a5aecfc57d", "b96c2b50895e9dcc", "ef4c860cb485f282", "02655444457694f5"),
    ("reacher", "one"): ("2938363ce69a327f", "d5f841a14c4e8324", "880755087c1486f3", "9dc0709fa3a76604"),
    ("reacher", "batch"): ("9bbeeba771e6df94", "0f9b62b86ec73dd6", "fb0b3116a099a2c1", "2f3bef3fa5371ac8"),
    ("reacher", "grid"): ("a95d9386100f7d66", "f542af055d5ca1e9", "b1f2faff2ab061bd", "d15af57e444244f0"),
}

# run_suites("all") at seed 0: (suite, subject, max_error as float hex).
GOLDEN_VERIFY_MAX_ERRORS = [
    ("axioms", "se2car", "0x1.b000000000000p-48"),
    ("frame", "se2car", "0x1.0000000000000p-49"),
    ("reduce-invariance", "se2car", "0x1.0000000000000p-50"),
    ("frame-equivariance", "se2car", "0x1.0000000000000p-48"),
    ("roundtrip", "se2car", "0x0.0p+0"),
    ("model-invariance", "se2car", "0x1.8000000000000p-48"),
    ("axioms", "const:6", "0x1.0000000000000p-48"),
    ("frame", "const:6", "0x0.0p+0"),
    ("reduce-invariance", "const:6", "0x0.0p+0"),
    ("frame-equivariance", "const:6", "0x1.0000000000000p-50"),
    ("roundtrip", "const:6", "0x0.0p+0"),
    ("axioms", "parking2", "0x1.d000000000000p-48"),
    ("frame", "parking2", "0x1.0000000000000p-49"),
    ("reduce-invariance", "parking2", "0x1.0000000000000p-50"),
    ("frame-equivariance", "parking2", "0x1.0000000000000p-48"),
    ("roundtrip", "parking2", "0x0.0p+0"),
    ("model-invariance", "parking2", "0x1.8000000000000p-48"),
    ("axioms", "reacher", "0x1.5000000000000p-49"),
    ("frame", "reacher", "0x1.0000000000000p-52"),
    ("reduce-invariance", "reacher", "0x1.0000000000000p-50"),
    ("frame-equivariance", "reacher", "0x1.8000000000000p-50"),
    ("roundtrip", "reacher", "0x0.0p+0"),
    ("model-invariance", "reacher", "0x1.c000000000000p-50"),
    ("sim", "parking2", "0x1.0000000000000p-49"),
    ("sim", "reacher", "0x1.4000000000000p-51"),
    ("gradcheck", "1 hidden", "0x1.ed0c0fc0d8be0p-28"),
    ("gradcheck", "2 hidden", "0x1.e1b5229d856d8p-26"),
    ("gradcheck", "3 hidden", "0x1.bef6f4628f0d4p-23"),
]

# As GOLDEN_DATASET_HASHES, for episodes whose draws (initial state plus
# horizon * k policy values) cross the 1024-lane bank of one Rng, or end
# just short of it (14 + 252 * 4 = 1022).
GOLDEN_BANK_CROSSING_HASHES = {
    ("parking2", "uniform-random", 3, 255, 0): "ea97064ead2ed85a",
    ("parking2", "uniform-random", 3, 252, 0): "915d2d81b06e169e",
    ("reacher", "uniform-random", 2, 510, 0): "b70a4743ab1281b7",
    ("parking2", "scripted-goal-seek", 3, 255, 0): "d02381893890f086",
}

# check_sim_invariance(env, seed=3, samples=257): (max_error as float hex, worst_index).
GOLDEN_SIM_INVARIANCE = {
    "parking2": ("0x1.0000000000000p-49", 10),
    "reacher": ("0x1.0000000000000p-51", 118),
}

# Chunk sizes for successive Rng.next_u64 calls that cross the bank.
RNG_CHUNKS = {
    "3-5-1300": (3, 5, 1300),
    "1x40-2000": (1,) * 40 + (2000,),
    "1024-1025": (1024, 1025),
}

# (seed, RNG_CHUNKS key) -> sha256 prefix of the concatenated next_u64 chunks.
GOLDEN_RNG_CHUNK_DIGESTS = {
    (0, "3-5-1300"): "97277b413613ab94",
    (0, "1x40-2000"): "59519e2adc2197a9",
    (0, "1024-1025"): "4e8a9bc8dccb0240",
    (7, "3-5-1300"): "f246da8a7a0a22ff",
    (7, "1x40-2000"): "b5f1bf1db2610623",
    (7, "1024-1025"): "a290d2cc93dbec0c",
    (2**64 - 1, "3-5-1300"): "77d17031b954a284",
    (2**64 - 1, "1x40-2000"): "16454741154feb29",
    (2**64 - 1, "1024-1025"): "0e7df9d4f636f54b",
}


# compare on a parking2 6x10 file (seed 1), archs 1,2 at width 8, 40 updates
# evaluated every 20: case -> (extra flags, sha256 prefixes of summary.csv,
# curves.csv and report.md).  A run that ends above 100 times its update-0
# test MSE counts as diverged.  At lr 7 both runs of the 2-layer symmetry cell
# run away (118 and 334 times), giving a NaN summary row and the "Diverged
# runs" line; at lr 10 the 1-layer symmetry cell keeps one run (23 times) and
# loses the other (253 times), so it aggregates a single finished run.
GOLDEN_COMPARE_DIGESTS = {
    "converging": (["--runs", "3"],
                   ("65c501142a94f31c", "3e9a2f55e5fc349a", "2efac89900d8781e")),
    "one-cell-diverges": (["--runs", "2", "--lr", "7"],
                          ("31b6509e02f179f0", "d441b0a6ea2dae43", "efbdc8ba22b61aca")),
    "partly-diverges": (["--runs", "2", "--lr", "10"],
                        ("a8e3cec0aa917b33", "42ac3bece92fb151", "e75edcf2b69820ab")),
}


# (group, sampler) -> sha256 prefixes at size None and size 50 of the sample's
# float64 bytes followed by the generator's next uniform, so the number of
# values a sampler consumes is pinned as well as the values.
GOLDEN_SAMPLER_DIGESTS = {
    ("se2car", "random_state"): ("f7d5be27c4f26cd8", "842f38a0de438708"),
    ("se2car", "random_element"): ("6857fff083fcfb8a", "baab8d476ab1d1aa"),
    ("se2car", "random_control"): ("c61cd92a21b9f0b1", "02ec2e4800820a86"),
    ("const:6", "random_state"): ("329e2a91c7666ac5", "93662d5c343ed0fe"),
    ("const:6", "random_element"): ("ecd2bee8230ec261", "8372f7d13bdfebac"),
    ("const:6", "random_control"): ("98e843ab787d17db", "98e843ab787d17db"),
    ("parking2", "random_state"): ("fec37fde077412c4", "375691942c0099e7"),
    ("parking2", "random_element"): ("1913f629bf80df6f", "506f9f7c7b8d5670"),
    ("parking2", "random_control"): ("b3efde8d6979c0f8", "35333ba802226717"),
    ("reacher", "random_state"): ("1aba450c5b6e3707", "3f3a18f7ddb2f391"),
    ("reacher", "random_element"): ("4130c9816d3d600f", "6f0bcae9b4115540"),
    ("reacher", "random_control"): ("efe58661be69cf46", "3347b057df123080"),
}

# env -> sha256 prefixes of ENVS[env].initial_state and its uniform-random
# policy on one uniform_rows block of 50 episodes.
GOLDEN_ENV_DRAW_DIGESTS = {
    "parking2": ("125d13f5673ffee8", "5b032c16deed87a9"),
    "reacher": ("83c1deaa480324a3", "fab1ecc0390da90f"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DATASET_HASHES), ids=lambda k: "-".join(map(str, k)))
def test_dataset_content_hash_is_golden(key):
    env_id, policy, episodes, horizon, seed = key
    ds = generate_dataset(env_id, episodes, horizon, policy=policy, seed=seed)
    assert f"{ds.content_hash():016x}" == GOLDEN_DATASET_HASHES[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_JSONL_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_jsonl_bytes_are_golden(key, tmp_path):
    env_id, policy, episodes, horizon, seed = key
    path = tmp_path / "d.jsonl"
    ds = generate_dataset(env_id, episodes, horizon, policy=policy, seed=seed)
    write_jsonl(path, ds)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_JSONL_DIGESTS[key]
    # The gen-data default files have no GOLDEN_DATASET_HASHES entry.
    want = GOLDEN_DATASET_HASHES.get(key, f"{ds.content_hash():016x}")
    assert f"{read_jsonl(path).content_hash():016x}" == want


def _golden_run(env_id, method, hidden=(32,), activation="relu", mode="delta"):
    ds = generate_dataset(env_id, 20, 25, seed=5)
    init_seed = derive_seed(0, "init")
    if method == "sym":
        model = build_symmetry_model(get_group(env_id), hidden, activation=activation,
                                     seed=init_seed, mode=mode)
    else:
        model = build_baseline_model(ds.n, ds.n_u, hidden, activation=activation,
                                     seed=init_seed, mode=mode)
    records = train(model, ds, TrainConfig(updates=200, eval_every=50, batch_size=64, seed=0))
    return model, [(r.train_mse.hex(), r.test_mse.hex()) for r in records]


@pytest.mark.parametrize("key", sorted(GOLDEN_TRAIN_SEQUENCES), ids=lambda k: "-".join(k))
def test_train_metric_sequence_is_golden(key, tmp_path):
    model, got = _golden_run(*key)
    assert got == GOLDEN_TRAIN_SEQUENCES[key]
    path = tmp_path / "m.fdm"
    save_model(path, model, train_seed=0)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_MODEL_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_TANH_SEQUENCES), ids=lambda k: "-".join(k))
def test_two_layer_tanh_absolute_sequence_is_golden(key):
    _, got = _golden_run(*key, hidden=(32, 32), activation="tanh", mode="absolute")
    assert got == GOLDEN_TANH_SEQUENCES[key]


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN_PREDICT_DIGESTS), ids=lambda k: "-".join(k))
def test_untrained_predict_is_golden(key):
    group_id, mode = key
    group = get_group(group_id)
    model = build_symmetry_model(group, [32, 32], seed=derive_seed(0, "golden", group_id, mode),
                                 mode=mode)
    rng = Rng(derive_seed(0, "golden-states", group_id))
    x = group.random_state(rng, size=64)
    u = group.random_control(rng, size=64)
    batched = model.predict(x, u)
    rows = np.stack([model.predict(x[i], u[i]) for i in range(64)])
    assert (_digest(batched), _digest(rows)) == GOLDEN_PREDICT_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_CANONICAL_DIGESTS), ids=lambda k: "-".join(k))
def test_canonicalization_is_golden(key):
    group_id, size_key = key
    group = get_group(group_id)
    size = CANONICAL_SIZES[size_key]
    rng = Rng(derive_seed(0, "golden-canonical", group_id, size_key))
    if isinstance(size, tuple):
        x = group.random_state(rng, size=int(np.prod(size))).reshape(size + (group.n,))
    else:
        x = group.random_state(rng, size=size)
    frame = group.moving_frame(x)
    parts = (frame.coords, group.act_state(frame, x), group.inverse(frame).coords,
             group.reduce(x))
    batch = x.shape[:-1]
    assert [p.shape for p in parts] == [batch + (group.r,), batch + (group.n,),
                                        batch + (group.r,), batch + (group.b_dim,)]
    assert tuple(_digest(p) for p in parts) == GOLDEN_CANONICAL_DIGESTS[key]
    # The one-pass map the models use gives the same bits.
    assert tuple(map(_digest, group._canonical(x))) == GOLDEN_CANONICAL_DIGESTS[key][:3]


def test_verify_max_errors_are_golden():
    got = [(r.suite, r.subject, r.max_error.hex()) for r in run_suites("all")]
    assert got == GOLDEN_VERIFY_MAX_ERRORS


@pytest.mark.parametrize("key", sorted(GOLDEN_BANK_CROSSING_HASHES),
                         ids=lambda k: "-".join(map(str, k)))
def test_bank_crossing_dataset_hash_is_golden(key):
    env_id, policy, episodes, horizon, seed = key
    ds = generate_dataset(env_id, episodes, horizon, policy=policy, seed=seed)
    assert f"{ds.content_hash():016x}" == GOLDEN_BANK_CROSSING_HASHES[key]


@pytest.mark.parametrize("env_id", sorted(GOLDEN_SIM_INVARIANCE))
def test_sim_invariance_is_golden(env_id):
    r = check_sim_invariance(env_id, seed=3, samples=257)
    assert (r.max_error.hex(), r.worst_index) == GOLDEN_SIM_INVARIANCE[env_id]


@pytest.mark.parametrize("key", sorted(GOLDEN_RNG_CHUNK_DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_rng_chunk_sequence_is_golden(key):
    seed, chunks = key
    rng = Rng(seed)
    got = np.concatenate([rng.next_u64(c) for c in RNG_CHUNKS[chunks]])
    assert _digest(got) == GOLDEN_RNG_CHUNK_DIGESTS[key]


@pytest.mark.parametrize("case", sorted(GOLDEN_COMPARE_DIGESTS))
def test_compare_reports_are_golden(case, tmp_path):
    flags, want = GOLDEN_COMPARE_DIGESTS[case]
    data = tmp_path / "d.jsonl"
    assert main(["gen-data", "--env", "parking2", "--episodes", "6", "--horizon", "10",
                 "--seed", "1", "-o", str(data)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(data), "--archs", "1,2", "--hidden-size", "8",
                 "--updates", "40", "--eval-every", "20", *flags,
                 "--out-dir", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                for name in ("summary.csv", "curves.csv", "report.md"))
    assert got == want


@pytest.mark.parametrize("key", sorted(GOLDEN_SAMPLER_DIGESTS), ids=lambda k: "-".join(k))
@pytest.mark.parametrize("size", [None, 50], ids=["single", "batch"])
def test_group_sampler_draws_are_golden(key, size):
    group_id, sampler = key
    group = get_group(group_id)
    rng = Rng(derive_seed(13, "golden-sampler", group_id, sampler))
    out = getattr(group, sampler)(rng, size=size)
    if sampler == "random_element":
        out = out.coords
    width = {"random_state": group.n, "random_element": group.r,
             "random_control": group.n_u}[sampler]
    assert out.shape == ((width,) if size is None else (size, width))
    got = _digest(np.concatenate([np.ravel(out).astype(np.float64), rng.uniform(size=1)]))
    assert got == GOLDEN_SAMPLER_DIGESTS[key][size is not None]


@pytest.mark.parametrize("env_id", sorted(GOLDEN_ENV_DRAW_DIGESTS))
def test_initial_state_and_uniform_policy_are_golden(env_id):
    env = ENVS[env_id]
    m, k = env.state_draws, env.policy_draws["uniform-random"]
    draws = uniform_rows([derive_seed(13, "golden-env", env_id, e) for e in range(50)], m + k)
    kept = draws.copy()
    x = env.initial_state(draws[:, :m])
    u = env.policies["uniform-random"](x, draws[:, m:])
    assert (x.shape, u.shape) == ((50, env.n), (50, env.n_u))
    assert (_digest(x), _digest(u)) == GOLDEN_ENV_DRAW_DIGESTS[env_id]
    assert np.array_equal(draws, kept)  # the draws are read, never scaled in place


# Every setting of one train run and one compare grid, each given three ways:
# all as flags, all in a --config file, and mixed (the first half in the file,
# the rest as flags, with a file value for "seed" that the flag overrides).
# command -> (settings, metrics file read, sha256 prefix of its "# config:" line)
GOLDEN_CONFIG_LINES = {
    "train": ([("symmetry", "on"), ("group", "parking2"), ("mode", "absolute"),
               ("hidden", "16, 8"), ("activation", "tanh"), ("lr", "0.002"),
               ("batch-size", "32"), ("updates", "20"), ("eval-every", "10"),
               ("seed", "3"), ("test-fraction", "0.2"), ("split-seed", "5")],
              "m.csv", "ed0760700f2311d6"),
    "compare": ([("archs", "1, 2"), ("hidden-size", "8"), ("runs", "2"),
                 ("mode", "absolute"), ("activation", "tanh"), ("lr", "0.002"),
                 ("batch-size", "32"), ("group", "parking2"), ("updates", "20"),
                 ("eval-every", "10"), ("seed", "3"), ("test-fraction", "0.2"),
                 ("workers", "1")],
                "cmp/parking2_h2_sym_s4.csv", "90bd264fe97c90c4"),
}


def _as_flags(pairs):
    return [token for key, value in pairs for token in (f"--{key}", value)]


@pytest.mark.parametrize("form", ["flags", "config", "mixed"])
@pytest.mark.parametrize("command", sorted(GOLDEN_CONFIG_LINES))
def test_config_line_is_golden_for_every_input_form(command, form, tmp_path):
    settings, metrics, want = GOLDEN_CONFIG_LINES[command]
    data = tmp_path / "d.jsonl"
    assert main(["gen-data", "--env", "parking2", "--episodes", "6", "--horizon", "10",
                 "--seed", "1", "-o", str(data)]) == 0
    outputs = ([("out-dir", str(tmp_path / "cmp"))] if command == "compare" else
               [("out-model", str(tmp_path / "m.fdm")), ("out-metrics", str(tmp_path / "m.csv"))])
    pairs = [("data", str(data)), *settings, *outputs]
    in_file, as_flags = {"flags": ([], pairs), "config": (pairs, []),
                         "mixed": (pairs[:len(pairs) // 2] + [("seed", "99")],
                                   pairs[len(pairs) // 2:])}[form]
    argv = [command, *_as_flags(as_flags)]
    if in_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in in_file))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    line = (tmp_path / metrics).read_text().splitlines()[0]
    assert line.startswith("# config: ")
    assert hashlib.sha256(line.encode()).hexdigest()[:16] == want
