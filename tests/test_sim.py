import itertools
import json
import re

import numpy as np
import oracles
import pytest

from framedyn import dataset
from framedyn.dataset import DatasetFormatError, TransitionDataset, read_jsonl, write_jsonl
from framedyn.rng import Rng, uniform_rows
from framedyn.sim import (
    car_step,
    generate_dataset,
    get_env,
    parking_step,
    reacher_step,
    _reacher_fingertip,
)
from framedyn.verify import check_sim_invariance


class TestCarStep:
    def test_straight_line_advances_position(self):
        x = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])  # unit speed along +y
        nxt = car_step(x, np.array([0.0, 0.0]))
        assert abs(nxt[0] - 0.1) < 1e-15
        assert abs(nxt[1]) < 1e-15
        assert np.allclose(nxt[2:], [1.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_rest_with_zero_control_is_fixed_point(self):
        x = np.array([2.0, -1.0, 0.0, 0.0, 0.6, 0.8])
        assert np.allclose(car_step(x, np.zeros(2)), x, atol=1e-15)

    def test_controls_are_clamped(self):
        x = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        a = car_step(x, np.array([5.0, 0.0]))
        b = car_step(x, np.array([1.0, 0.0]))
        assert np.array_equal(a, b)

    def test_heading_stays_unit_norm(self):
        rng = Rng(1)
        x = np.array([0.0, 0.0, 0.5, 0.0, 1.0, 0.0])
        for _ in range(500):
            u = np.array([rng.uniform(-1, 1), rng.uniform(-0.8, 0.8)])
            x = car_step(x, u)
            assert abs(np.hypot(x[4], x[5]) - 1.0) < 1e-9


def _scalar_parking_state(rng):
    # Reference: one scalar draw per field, in field order.
    blocks = []
    for is_car in (True, True, False, False):
        y, z, ang = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.angles()
        hy, hz = np.cos(ang), np.sin(ang)
        if is_car:
            speed = rng.uniform(-1.0, 1.0)
            blocks.append([y, z, speed * hy, speed * hz, hy, hz])
        else:
            blocks.append([y, z, 0.0, 0.0, hy, hz])
    return np.array(blocks).ravel()


def _scalar_reacher_state(rng):
    th1, th2 = rng.angles(), rng.angles()
    w1, w2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    radius = 2.0 * 0.1 * np.sqrt(rng.uniform())
    t_ang = rng.angles()
    ty, tz = radius * np.cos(t_ang), radius * np.sin(t_ang)
    fy, fz = _reacher_fingertip(th1, th2)
    return np.array([np.cos(th1), np.cos(th2), np.sin(th1), np.sin(th2),
                     ty, tz, w1, w2, fy - ty, fz - tz, 0.0])


@pytest.mark.parametrize("env_id,reference", [("parking2", _scalar_parking_state),
                                              ("reacher", _scalar_reacher_state)])
def test_initial_state_block_draw_equals_scalar_draws(env_id, reference):
    env = get_env(env_id)
    x = env.initial_state(uniform_rows(range(200), env.state_draws))
    assert x.shape == (200, env.n)
    for seed in range(200):
        ref_rng = Rng(seed)
        assert x[seed].tobytes() == reference(ref_rng).tobytes()
        # Same number of values drawn: the reference's next value is the
        # stream's value right after the state's draws.
        assert ref_rng.uniform() == Rng(seed).uniform(size=env.state_draws + 1)[-1]


class TestReacherStep:
    def test_zero_torque_at_rest_keeps_angles(self):
        env = get_env("reacher")
        x = env.initial_state(uniform_rows([3], env.state_draws))[0]
        x[6] = x[7] = 0.0
        x = reacher_step(x, np.zeros(2) + 0.0)  # damping acts on zero velocity
        nxt = reacher_step(x, np.zeros(2))
        assert np.max(np.abs(nxt[:4] - x[:4])) < 1e-15

    def test_unit_torque_from_rest_gives_expected_velocity(self):
        env = get_env("reacher")
        x = env.initial_state(uniform_rows([4], env.state_draws))[0]
        x[6] = x[7] = 0.0
        nxt = reacher_step(x, np.array([1.0, 0.0]))
        assert abs(nxt[6] - 0.05) < 1e-15
        assert nxt[7] == 0.0

    def test_observation_unit_circle_invariants(self):
        ds = generate_dataset("reacher", episodes=5, horizon=30, seed=2)
        for obs in (ds.x, ds.x_next):
            assert np.max(np.abs(np.hypot(obs[:, 0], obs[:, 2]) - 1.0)) < 1e-12
            assert np.max(np.abs(np.hypot(obs[:, 1], obs[:, 3]) - 1.0)) < 1e-12
            assert np.all(obs[:, 10] == 0.0)

    def test_offset_consistent_with_forward_kinematics(self):
        ds = generate_dataset("reacher", episodes=5, horizon=20, seed=6)
        for obs in (ds.x, ds.x_next):
            th1 = np.arctan2(obs[:, 2], obs[:, 0])
            th2 = np.arctan2(obs[:, 3], obs[:, 1])
            fy, fz = _reacher_fingertip(th1, th2)
            assert np.max(np.abs(fy - obs[:, 4] - obs[:, 8])) < 1e-12
            assert np.max(np.abs(fz - obs[:, 5] - obs[:, 9])) < 1e-12


@pytest.mark.parametrize("env_id", ["parking2", "reacher"])
def test_simulator_commutes_with_group_action(env_id):
    result = check_sim_invariance(env_id, seed=0, samples=1000)
    assert result.passed, f"max error {result.max_error}"


def test_goal_blocks_constant_within_episode():
    ds = generate_dataset("parking2", episodes=10, horizon=20, seed=9)
    assert np.array_equal(ds.x[:, 12:24], ds.x_next[:, 12:24])
    # and constant across each episode's transitions
    goals = ds.x[:, 12:24].reshape(10, 20, 12)
    assert np.all(goals == goals[:, :1, :])


class TestGenerateDataset:
    def test_counts(self):
        ds = generate_dataset("parking2", episodes=10, horizon=50, seed=1)
        assert len(ds) == 500
        assert ds.x.shape == (500, 24) and ds.u.shape == (500, 4)

    def test_deterministic_given_seed(self, tmp_path):
        a = generate_dataset("reacher", episodes=4, horizon=10, seed=3)
        b = generate_dataset("reacher", episodes=4, horizon=10, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)
        write_jsonl(tmp_path / "a.jsonl", a)
        write_jsonl(tmp_path / "b.jsonl", b)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("env_id", ["parking2", "reacher"])
    @pytest.mark.parametrize("policy", ["uniform-random", "scripted-goal-seek"])
    def test_replay_reproduces_stored_next_states(self, env_id, policy):
        ds = generate_dataset(env_id, episodes=5, horizon=20, policy=policy, seed=4)
        step = parking_step if env_id == "parking2" else reacher_step
        assert np.array_equal(step(ds.x, ds.u), ds.x_next)

    @pytest.mark.parametrize("env_id, step", [("parking2", parking_step),
                                              ("reacher", reacher_step)])
    def test_step_broadcasts_one_state_or_one_control(self, env_id, step):
        ds = generate_dataset(env_id, episodes=3, horizon=1, seed=5)
        x, u = ds.x, ds.u
        one_state = step(x[0], u)
        one_control = step(x, u[0])
        assert one_state.shape == one_control.shape == (3, ds.n)
        assert one_state.tobytes() == np.stack([step(x[0], row) for row in u]).tobytes()
        assert one_control.tobytes() == np.stack([step(row, u[0]) for row in x]).tobytes()

    def test_goal_seek_reduces_distance(self):
        uniform = generate_dataset("parking2", episodes=10, horizon=50, seed=7)
        seek = generate_dataset("parking2", episodes=10, horizon=50,
                                policy="scripted-goal-seek", seed=7)

        def final_distance(ds):
            last = ds.x_next.reshape(10, 50, 24)[:, -1, :]
            return np.mean(np.hypot(last[:, 0] - last[:, 12], last[:, 1] - last[:, 13]))

        assert final_distance(seek) < final_distance(uniform)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown environment"):
            generate_dataset("lander", 1, 1)
        with pytest.raises(ValueError, match="positive"):
            generate_dataset("reacher", 0, 10)
        with pytest.raises(ValueError, match="unknown policy"):
            generate_dataset("reacher", 1, 1, policy="ppo")


EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, 1e17, 0.1, 1 / 3]


def _chained(states, u):
    """Dataset stepping through ``states``: x[i + 1] is bit-equal to x_next[i]."""
    states = np.asarray(states, dtype=float)
    return TransitionDataset(env_id="toy", n=states.shape[1], n_u=np.shape(u)[1], seed=0,
                             x=states[:-1], u=u, x_next=states[1:])


def _unchained():
    ds = generate_dataset("parking2", episodes=5, horizon=20, seed=8)
    order = np.random.default_rng(0).permutation(len(ds))
    return TransitionDataset(env_id=ds.env_id, n=ds.n, n_u=ds.n_u, seed=ds.seed,
                             x=ds.x[order], u=ds.u[order], x_next=ds.x_next[order])


def _signed_zero():
    # x[1] == x_next[0] numerically, but a zero's sign differs, so its text must too.
    ds = TransitionDataset(env_id="toy", n=3, n_u=1, seed=0,
                           x=[[1.0, 2.0, 3.0], [4.0, -0.0, 6.0], [-0.0, 0.0, 7.0]],
                           u=[[0.0], [-0.0], [1.0]],
                           x_next=[[4.0, 0.0, 6.0], [-0.0, 0.0, 7.0], [8.0, 9.0, -0.0]])
    assert np.array_equal(ds.x[1], ds.x_next[0])
    return ds


def _relaid(layout):
    ds = generate_dataset("reacher", episodes=3, horizon=10, seed=5)
    x, u, xn = (layout(a) for a in (ds.x, ds.u, ds.x_next))
    assert not (x.flags.c_contiguous or u.flags.c_contiguous or xn.flags.c_contiguous)
    out = TransitionDataset(env_id=ds.env_id, n=ds.n, n_u=ds.n_u, seed=ds.seed,
                            x=x, u=u, x_next=xn)
    assert not out.x.flags.c_contiguous
    return out


WRITER_CASES = {
    "unchained": _unchained,
    "signed-zero": _signed_zero,
    "edge-floats": lambda: _chained([EDGE_FLOATS, np.negative(EDGE_FLOATS), EDGE_FLOATS[::-1]],
                                    [EDGE_FLOATS[:3], EDGE_FLOATS[5:]]),
    "fortran-order": lambda: _relaid(np.asfortranarray),
    "strided": lambda: _relaid(lambda a: np.repeat(a, 2, axis=1)[:, ::2]),
    "0-rows": lambda: TransitionDataset(env_id="reacher", n=11, n_u=2, seed=0),
    "1-row": lambda: generate_dataset("reacher", episodes=1, horizon=1, seed=0),
    "257-row-chain": lambda: generate_dataset("reacher", episodes=1, horizon=257, seed=2),
}


def _record(token):
    zeros = ", ".join(["0.0"] * 10)
    return f'{{"x": [{token}, {zeros}], "u": [0.0, 0.0], "xn": [0.0, {zeros}]}}'


def _reordered_record(token):
    zeros = ", ".join(["0.0"] * 10)
    return f'{{"u": [0.0, 0.0], "xn": [0.0, {zeros}], "x": [{token}, {zeros}]}}'


def _edit_records(text, edit):
    """``text`` with ``edit(i, line)`` applied to each record line."""
    header, *records = text.splitlines(keepends=True)
    return header + "".join(edit(i, line) for i, line in enumerate(records))


def _edit_row_1(pattern, repl):
    """An edit of record 1, whose x is record 0's x_next text."""
    return lambda t: _edit_records(
        t, lambda i, line: re.sub(pattern, repl, line, count=1) if i == 1 else line)


def _reorder_keys(line):
    x, rest = line[len('{"x": '):].split(', "u": ', 1)
    u, xn = rest.split(', "xn": ', 1)
    return f'{{"u": {u}, "xn": {xn[:-2]}, "x": {x}}}\n'


def _fallback_between(text):
    # Row 1 is in another layout, and row 2's x repeats row 0's x_next text.
    header, r0, r1, r2, *rest = text.splitlines(keepends=True)
    r2 = r0[r0.index('"xn": ') + len('"xn": '):-2].join(
        ('{"x": ', r2[r2.index(', "u": '):]))
    return "".join([header, r0, _reorder_keys(r1), r2, *rest])


def _after_key(text, tail):
    # Row 1 ends in ``tail`` after its x_next list; row 2 starts with the text
    # that follows row 1's last '], "xn": ['.
    header, r0, r1, r2, *rest = text.splitlines(keepends=True)
    r1 = r1[:-2] + tail + "}\n"
    follows = r1[r1.rindex('], "xn": [') + len('], "xn": ['):-3]
    r2 = '{"x": [' + follows + r2[r2.index('], "u": ['):]
    return "".join([header, r0, r1, r2, *rest])


def _trailing_space(text):
    # Row 0 ends in a space, and row 1's x is row 0's x_next text and one more
    # "]", which is not JSON.
    header, r0, r1, *rest = text.splitlines(keepends=True)
    return "".join([header, r0[:-1] + " \n", r1.replace("], ", "]], ", 1), *rest])


# Edits of a written file that the reader must read as the per-line reader does.
READER_CASES = {
    "compact-separators": lambda t: t.replace(", ", ",").replace(": ", ":"),
    "reordered-keys": lambda t: _edit_records(t, lambda i, line: _reorder_keys(line)),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "no-final-newline": lambda t: t[:-1],
    "duplicate-u": _edit_row_1(r"\}\n", ', "u": [9.0, 9.0]}\n'),
    "splice-x": _edit_row_1(r", ", "], ["),
    "splice-xn": _edit_row_1(r'("xn": \[[^,]*), ', r"\1], ["),
    "splice-after-u": _edit_row_1(r'("u": \[[^\]]*)', r"\1], [0.5"),
    "fallback-between": _fallback_between,
    "trailing-space": _trailing_space,
    # Row 1 keeps row 0's x_next text as its x, and holds a bad u or x_next.
    "true-in-chained-row": _edit_row_1(r'"u": \[[^,]*', '"u": [true'),
    "one-number-u": _edit_row_1(r'"u": \[[^\]]*', '"u": [0.5'),
    "one-number-xn": _edit_row_1(r'"xn": \[[^\]]*', '"xn": [0.5'),
    "truncated": _edit_row_1(r"\]\}\n", "25\n"),
    # Row 1's last x_next wins over the list after its last '], "xn": [', and
    # row 2's x is the list before "k".
    "key-after-xn": lambda t: _after_key(t, ', "k": 5, "xn": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, '
                                            '7.0, 8.0, 9.0, 10.0, 11.0]'),
    # Row 1's last '], "xn": [' is inside another member, so row 2 is not JSON.
    "nested-xn": lambda t: _after_key(t, ', "v": [{"a": [1.0], "xn": [2.0]}]'),
    # Row 1's x is row 0's x_next text, and the row departs from the writer's
    # layout right after its x, u or x_next list, or in its first key.
    "other-key-after-chained-x": _edit_row_1(r'"u"', '"U"'),
    "member-after-u": _edit_row_1(r', "xn"', ', "k": 0, "xn"'),
    "other-key-after-u": _edit_row_1(r'"xn"', '"xN"'),
    "text-after-xn": _edit_row_1(r"\}\n", ", 0}\n"),
    "other-first-key": _edit_row_1(r'"x"', '"X"'),
    # Row 1's u list starts one space later, so no value starts where the
    # writer's would.
    "space-before-u": _edit_row_1(r'"u": \[', '"u":  ['),
    # Row 0, which has no previous row, holds a one-number x.
    "one-number-x": lambda t: _edit_records(
        t, lambda i, line: re.sub(r'"x": \[[^\]]*', '"x": [0.5', line) if i == 0 else line),
    # Row 1 is in another layout, so row 2 in the writer's layout decodes its
    # x, which is row 1's x_next text, and row 3 chains onto row 2 again.
    "restart-after-whole-line": lambda t: _edit_records(
        t, lambda i, line: _reorder_keys(line) if i == 1 else line),
    # Row 1's x has the values of row 0's x_next in other text: 1 against 1.0,
    # and 0.0 against -0.0, which differ in sign.
    "same-values-other-text": lambda t: (
        '{"count": 3, "env_id": "toy", "n": 2, "n_u": 1, "seed": 0}\n'
        '{"x": [0.5, 0.25], "u": [1.0], "xn": [1.0, -0.0]}\n'
        '{"x": [1, 0.0], "u": [2.0], "xn": [3.0, 4.0]}\n'
        '{"x": [3.0, 4.0], "u": [2.0], "xn": [5.0, 6.0]}\n'),
}


def _read_both(path):
    """Each reader's result on ``path``: its arrays as bits, or its error message."""
    results = []
    for read in (read_jsonl, oracles.read_jsonl_per_line):
        try:
            ds = read(path)
        except DatasetFormatError as e:
            results.append(str(e))
        else:
            results.append([ds.env_id, ds.n, ds.n_u, ds.seed]
                           + [a.view(np.uint64).tolist() for a in (ds.x, ds.u, ds.x_next)])
    return results


class TestJsonl:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_writer_matches_per_float_oracle(self, tmp_path, case):
        ds = WRITER_CASES[case]()
        write_jsonl(tmp_path / "new.jsonl", ds)
        oracles.write_jsonl_per_float(tmp_path / "ref.jsonl", ds)
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        back = read_jsonl(tmp_path / "new.jsonl")
        assert back.content_hash() == ds.content_hash()

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_reader_matches_per_line_oracle_on_written_files(self, tmp_path, case):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, WRITER_CASES[case]())
        new, ref = _read_both(path)
        assert new == ref and not isinstance(new, str)

    def test_reader_matches_per_line_oracle_without_chained_rows(self, tmp_path):
        ds = generate_dataset("parking2", episodes=5, horizon=20, seed=8)
        reverse = TransitionDataset(env_id=ds.env_id, n=ds.n, n_u=ds.n_u, seed=ds.seed,
                                    x=ds.x[::-1], u=ds.u[::-1], x_next=ds.x_next[::-1])
        assert not (reverse.x[1:] == reverse.x_next[:-1]).all(axis=1).any()
        path = tmp_path / "d.jsonl"
        write_jsonl(path, reverse)
        new, ref = _read_both(path)
        assert new == ref and not isinstance(new, str)

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_reader_matches_per_line_oracle_on_edited_files(self, tmp_path, case):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, generate_dataset("reacher", episodes=2, horizon=3, seed=1))
        path.write_bytes(READER_CASES[case](path.read_text()).encode())
        new, ref = _read_both(path)
        assert new == ref

    def test_chained_states_are_decoded_once(self, tmp_path, monkeypatch):
        ds = generate_dataset("reacher", episodes=3, horizon=4, seed=1)
        path = tmp_path / "d.jsonl"
        write_jsonl(path, ds)
        parsed = []

        def number(text):
            parsed.append(text)
            return float(text)

        monkeypatch.setattr(dataset, "_RECORD_DECODER",
                            json.JSONDecoder(parse_float=number, parse_int=number))
        assert read_jsonl(path).content_hash() == ds.content_hash()
        # Each episode holds 5 states of 11 numbers and 4 controls of 2.
        assert len(parsed) == 3 * (5 * 11 + 4 * 2)

    def test_chain_restarts_after_whole_line_row(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, generate_dataset("reacher", episodes=1, horizon=5, seed=1))
        path.write_text(READER_CASES["restart-after-whole-line"](path.read_text()))
        parsed = []

        def number(text):
            parsed.append(text)
            return float(text)

        monkeypatch.setattr(dataset, "_RECORD_DECODER",
                            json.JSONDecoder(parse_float=number, parse_int=number))
        read_jsonl(path)
        # Rows 0-2 decode all 24 numbers; rows 3-4 decode only u and x_next.
        assert len(parsed) == 3 * 24 + 2 * 13

    @pytest.mark.parametrize("count", [600, 400])
    def test_first_bad_row_is_reported_across_row_blocks(self, tmp_path, count):
        # Scanned rows are stored a block at a time; a row whose lists do not
        # convert (row 300, in the second block) is still the error reported,
        # ahead of a later bad row, a later whole-line row and extra lines.
        path = tmp_path / "d.jsonl"
        write_jsonl(path, generate_dataset("reacher", episodes=3, horizon=200, seed=1))
        header, *records = path.read_text().splitlines(keepends=True)
        records[300] = re.sub(r'"u": \[[^,]*', '"u": [[0.5]', records[300], count=1)
        records[301] = _reorder_keys(records[301])
        records[500] = re.sub(r'"u": \[[^,]*', '"u": [true', records[500], count=1)
        path.write_text(header.replace('"count": 600', f'"count": {count}') + "".join(records))
        with pytest.raises(DatasetFormatError) as e:
            read_jsonl(path)
        assert str(e.value) == f"{path}: line 302: malformed record: 'u' must be a list of numbers"

    @pytest.mark.parametrize("case, fields, named", [
        pytest.param(case, fields, named, id=case) for case, fields, named in (
            ("scanned-then-true", ("u",), "u"),
            ("scanned-then-surplus", ("u",), "u"),
            ("chained-then-true", ("xn", "u"), "u"),
            ("whole-line-then-true", ("u", "x"), "x"))])
    def test_first_bad_line_in_file_order_is_named(self, tmp_path, case, fields, named):
        # Line 3, whose x is line 2's x_next text, holds numbers beyond the
        # float64 range; a later line is malformed (line 5) or surplus (line
        # 6).  Line 3 is named, and in it the first bad field of x, u, xn.
        path = tmp_path / "d.jsonl"
        write_jsonl(path, generate_dataset("reacher", episodes=1, horizon=4, seed=1))
        header, *records = path.read_text().splitlines(keepends=True)
        for field in fields:
            records[1] = re.sub(rf'"{field}": \[[^,]*', f'"{field}": [1e400', records[1], count=1)
        if case.startswith("whole-line"):
            records[1] = _reorder_keys(records[1])
        if case.endswith("surplus"):
            records.append(records[-1])
        else:
            records[3] = re.sub(r'"u": \[[^,]*', '"u": [true', records[3], count=1)
        path.write_text(header + "".join(records))
        with pytest.raises(DatasetFormatError) as e:
            read_jsonl(path)
        assert str(e.value) == (f"{path}: line 3: malformed record: '{named}' holds a "
                                "non-finite value; numbers must lie within the float64 range")

    @pytest.mark.parametrize("field, shape", [("x", (4, 22)), ("u", (8, 1)), ("xn", (8, 12))])
    def test_wrong_row_width_rejected(self, field, shape):
        arrays = {"x": np.zeros((8, 11)), "u": np.zeros((8, 2)), "xn": np.zeros((8, 11))}
        arrays[field] = np.zeros(shape)
        with pytest.raises(DatasetFormatError,
                           match=f"'{field}' has shape {re.escape(str(shape))}"):
            TransitionDataset(env_id="reacher", n=11, n_u=2, seed=0,
                              x=arrays["x"], u=arrays["u"], x_next=arrays["xn"])

    def test_empty_dataset_is_header_only(self, tmp_path):
        ds = TransitionDataset(env_id="reacher", n=11, n_u=2, seed=0)
        path = tmp_path / "empty.jsonl"
        write_jsonl(path, ds)
        assert len(path.read_text().strip().splitlines()) == 1
        back = read_jsonl(path)
        assert len(back) == 0 and back.n == 11

    def test_roundtrip_is_exact(self, tmp_path):
        ds = generate_dataset("parking2", episodes=5, horizon=20, seed=8)
        path = tmp_path / "d.jsonl"
        write_jsonl(path, ds)
        back = read_jsonl(path)
        assert back.env_id == ds.env_id and back.seed == ds.seed
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.u, ds.u)
        assert np.array_equal(back.x_next, ds.x_next)
        # re-serializing produces identical bytes
        path2 = tmp_path / "d2.jsonl"
        write_jsonl(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_roundtrip_is_exact_on_drawn_datasets(self, tmp_path):
        # Small datasets of finite float64, with edge values drawn often and
        # rows chained (x[i] bit-equal to x_next[i - 1]), equal to it with
        # each zero's sign flipped, or not linked to it: the reader
        # returns the written bits, as the per-line oracle does, and writing
        # them again gives the same bytes.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                 1e-310, 1.7976931348623157e308, -1.7976931348623157e308])
        values = st.one_of(edges, st.integers(-2**63, 2**63).map(float),
                           st.floats(allow_nan=False, allow_infinity=False))
        # A fresh pair of files per example: truncating a just-written file
        # can wait on the disk far longer than writing a new one.
        names = itertools.count()

        def bits(ds):
            return [ds.env_id, ds.n, ds.n_u, ds.seed,
                    *(a.view(np.uint64).tolist() for a in (ds.x, ds.u, ds.x_next))]

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.data())
        def check(data):
            n, n_u, rows = (data.draw(st.integers(1, high)) for high in (4, 3, 6))
            x, u, xn = (np.array(data.draw(st.lists(st.lists(values, min_size=w, max_size=w),
                                                    min_size=rows, max_size=rows)))
                        for w in (n, n_u, n))
            for i in range(1, rows):
                link = data.draw(st.sampled_from(["none", "bits", "value"]))
                if link != "none":
                    x[i] = xn[i - 1]
                if link == "value":  # equal as numbers, not as bits
                    x[i][x[i] == 0] *= -1
            ds = TransitionDataset("toy", n, n_u, 0, x, u, xn)
            path, again = (tmp_path / f"{next(names)}.jsonl" for _ in range(2))
            write_jsonl(path, ds)
            new, ref = _read_both(path)
            assert new == ref == bits(ds)
            write_jsonl(again, read_jsonl(path))
            assert again.read_bytes() == path.read_bytes()

        check()

    def test_header_fields(self, tmp_path):
        ds = generate_dataset("reacher", episodes=2, horizon=5, seed=12)
        path = tmp_path / "r.jsonl"
        write_jsonl(path, ds)
        import json

        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"count": 10, "env_id": "reacher", "n": 11, "n_u": 2, "seed": 12}

    def test_count_mismatch_rejected(self, tmp_path):
        ds = generate_dataset("reacher", episodes=1, horizon=5, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(DatasetFormatError, match="count"):
            read_jsonl(path)

    @pytest.mark.parametrize("record", [
        "{not json",
        '{"x": 5, "u": [0.0, 0.0], "xn": 5}',
        '{"x": ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"], '
        '"u": [0.0, 0.0], "xn": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}',
        '{"x": [[1.0], [1.0], [1.0], [1.0], [1.0], [1.0], [1.0], [1.0], [1.0], [1.0], [1.0]], '
        '"u": [0.0, 0.0], "xn": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}',
        *(_record(token) for token in ("true", "false", "null", "NaN", "Infinity", "-Infinity")),
        *(make(token) for make in (_record, _reordered_record)
          for token in ("1e400", "-1e400", "1" * 400, '"1.5"', '" 2 "')),
        _record("0.0").replace('"u": [0.0, 0.0]', '"u": "12"'),
        _record("0.0").replace('"u": [0.0', '"u": ["1.5"'),
        _record("0.0").replace('"xn": [0.0', '"xn": ["1.5"'),
        _record("[" * 100_000 + "0.0" + "]" * 100_000),
    ], ids=["not-json", "int-field", "string-values", "nested-values",
            "true", "false", "null", "NaN", "Infinity", "-Infinity",
            "1e400", "-1e400", "400-digits", "numeric-string", "spaced-numeric-string",
            "reordered-1e400", "reordered--1e400", "reordered-400-digits",
            "reordered-numeric-string", "reordered-spaced-numeric-string", "string-field",
            "string-in-u", "string-in-xn", "deep-nesting"])
    def test_malformed_line_reports_line_number(self, tmp_path, record):
        ds = generate_dataset("reacher", episodes=1, horizon=3, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_text().splitlines()
        lines[2] = record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"{re.escape(str(path))}: line 3: malformed record"):
            read_jsonl(path)

    def test_out_of_range_line_counts_blank_lines(self, tmp_path):
        ds = generate_dataset("reacher", episodes=1, horizon=3, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_text().splitlines()
        lines[2:3] = ["", "  ", _record("-1e400")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(path))}: line 5: malformed record: 'x'"):
            read_jsonl(path)

    @pytest.mark.parametrize("lineno, at", [(1, 2), (3, 2), (3, 10)])
    def test_invalid_utf8_names_path_and_line(self, tmp_path, lineno, at):
        ds = generate_dataset("reacher", episodes=1, horizon=3, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1][:at] + b"\xff" + lines[lineno - 1][at:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(path))}: line {lineno}: not valid UTF-8 "
                                 r"\(byte 0xff\)$"):
            read_jsonl(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        ds = generate_dataset("reacher", episodes=1, horizon=2, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_text().splitlines()
        lines[1] = '{"x": [1.0], "u": [0.0, 0.0], "xn": [1.0]}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(path))}: line 2: dimensions"):
            read_jsonl(path)

    @pytest.mark.parametrize("field, value", [("count", -3), ("n", "abc"), ("env_id", 5)])
    def test_bad_header_value_names_path_line_and_field(self, tmp_path, field, value):
        ds = generate_dataset("reacher", episodes=1, horizon=2, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"{re.escape(str(path))}: line 1: header field '{field}'"):
            read_jsonl(path)

    @pytest.mark.parametrize("make_header, message", [
        (lambda header: "", "missing header line"),
        (lambda header: "{not json", "line 1: invalid header"),
        (lambda header: "[1, 2]", "line 1: header is not a JSON object"),
        (lambda header: json.dumps({k: v for k, v in header.items() if k != "seed"}),
         "line 1: header missing field 'seed'"),
    ], ids=["blank", "not-json", "not-object", "missing-field"])
    def test_bad_header_line_names_path_and_fault(self, tmp_path, make_header, message):
        ds = generate_dataset("reacher", episodes=1, horizon=2, seed=1)
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, ds)
        lines = path.read_text().splitlines()
        lines[0] = make_header(json.loads(lines[0]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            read_jsonl(path)

    @pytest.mark.parametrize("fields, message", [
        ({"x": [[0.0, np.nan]]}, "dataset field 'x' contains non-finite values"),
        ({"x_next": [[np.inf, 0.0]]}, "dataset field 'xn' contains non-finite values"),
        ({"u": [[0.5], [1.5]]}, "x, u, x_next must have equal lengths"),
    ])
    def test_non_finite_or_unequal_fields_rejected(self, fields, message):
        arrays = {"x": [[0.0, 1.0]], "u": [[0.5]], "x_next": [[1.0, 2.0]], **fields}
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            TransitionDataset(env_id="toy", n=2, n_u=1, seed=0, **arrays)

    def test_content_hash_sensitive_to_data(self):
        a = generate_dataset("reacher", episodes=2, horizon=5, seed=1)
        b = generate_dataset("reacher", episodes=2, horizon=5, seed=2)
        assert a.content_hash() == generate_dataset("reacher", 2, 5, seed=1).content_hash()
        assert a.content_hash() != b.content_hash()

    def test_content_hash_ignores_memory_layout(self):
        # Strided and Fortran-ordered arrays hash like their contiguous copies.
        base = np.arange(60.0).reshape(10, 6)
        x, u, xn = base[:, ::2], base[::-1, 1:3], np.asfortranarray(base[:, 3:])
        views = TransitionDataset(env_id="toy", n=3, n_u=2, seed=0, x=x, u=u, x_next=xn)
        copies = TransitionDataset(env_id="toy", n=3, n_u=2, seed=0, x=x.copy(),
                                   u=u.copy(), x_next=np.ascontiguousarray(xn))
        assert views.content_hash() == copies.content_hash()
