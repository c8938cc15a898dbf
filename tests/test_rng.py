import numpy as np
import pytest

from framedyn.rng import Rng, derive_seed, mix64, uniform_rows


def test_same_seed_same_stream():
    a = Rng(123).next_u64(500)
    b = Rng(123).next_u64(500)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).next_u64(100), Rng(2).next_u64(100))


def test_buffering_does_not_change_the_stream():
    r = Rng(7)
    chunks = np.concatenate([r.next_u64(3), r.next_u64(5), r.next_u64(1300)])
    assert np.array_equal(chunks, Rng(7).next_u64(1308))


def test_uniform_range_and_mean():
    vals = Rng(0).uniform(size=20000)
    assert vals.min() >= 0.0 and vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.01


def test_integers_in_range():
    vals = Rng(3).integers(7, size=5000)
    assert vals.min() >= 0 and vals.max() <= 6
    assert len(np.unique(vals)) == 7


def test_angles_interval():
    vals = Rng(4).angles(size=5000)
    assert vals.min() > -np.pi and vals.max() <= np.pi


def test_permutation_is_a_permutation():
    perm = Rng(9).permutation(1000)
    assert np.array_equal(np.sort(perm), np.arange(1000))


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(5, "episode", 3) == derive_seed(5, "episode", 3)
    assert derive_seed(5, "episode", 3) != derive_seed(5, "episode", 4)
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert mix64(0) != mix64(1)


@pytest.mark.parametrize("args, expected", [
    ((0,), 16294208416658607535),
    ((2**64 - 1,), 16490336266968443936),
    ((-1, 2**64 + 5), 3846658174030194800),
    ((123, 7, 11), 9200448532466508526),
    ((0, "batches"), 829049078934905054),
    ((7, "init"), 12592841084991538041),
    ((2**64 - 1, ""), 3284869054820535315),
    ((1, "s\u00e9"), 18094325066861315759),
    ((5, "episode", 3), 3773893950871877954),
    ((2**64 - 1, "gradcheck", 2), 5544424372369119292),
    ((0, "net", "net", 1), 8113850162150202692),
    ((3, "parking2", 1, "delta"), 4429042367311669924),
])
def test_derive_seed_pinned_values(args, expected):
    # Every seed in the package descends from these; a second call checks
    # that whatever derive_seed remembers between calls changes nothing.
    assert derive_seed(*args) == expected
    assert derive_seed(*args) == expected


@pytest.mark.parametrize("count", [1, 6, 14, 1023, 1024, 1025, 2048, 3000])
def test_uniform_rows_equal_fresh_generators(count):
    seeds = [0, 1, 7, 2**63, 2**64 - 1]
    rows = uniform_rows(seeds, count)
    assert rows.shape == (len(seeds), count)
    for row, seed in zip(rows, seeds):
        assert row.tobytes() == Rng(seed).uniform(size=count).tobytes()
