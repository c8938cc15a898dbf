"""Golden digests: exact dataset content hashes pinned across versions.

A refactor of the simulators, policies or random-number consumption that
changes any generated bit fails here, even if it stays self-consistent.
"""

import pytest

from framedyn.sim import generate_dataset

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


@pytest.mark.parametrize("key", sorted(GOLDEN_DATASET_HASHES), ids=lambda k: "-".join(map(str, k)))
def test_dataset_content_hash_is_golden(key):
    env_id, policy, episodes, horizon, seed = key
    ds = generate_dataset(env_id, episodes, horizon, policy=policy, seed=seed)
    assert f"{ds.content_hash():016x}" == GOLDEN_DATASET_HASHES[key]
