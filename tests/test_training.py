"""Reward shaping, Adam updates, and the paired self-play loop."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celab.cli import main
from celab.env import rollout
from celab.errors import NumericError, PreconditionError
from celab.games import load_game
from celab.policy import (
    RolloutRecord,
    init_policy,
    policy_fn,
    save_checkpoint,
)
from celab.training import (
    AdamState,
    RewardTensor,
    TrainingConfig,
    _round_draws,
    adam_step,
    require_seed,
    shape_rewards,
    train_pair,
    update_policy,
    write_history_csv,
)


def states_with_raw_column(values, steps=1, h=2):
    """(len(values), steps, 2) tensor whose dot with [4, 0] gives `values`."""
    out = np.zeros((len(values), steps, h))
    for m, v in enumerate(values):
        out[m, :, 0] = v / 4.0
        out[m, :, 1] = 1.0 - v / 4.0
    return out


class TestShapeRewards:
    def test_two_round_column_standardizes_to_unit(self):
        avg = states_with_raw_column([1.0, 3.0])
        rt = shape_rewards(avg, np.array([4.0, 0.0]), discount=1.0)
        np.testing.assert_allclose(rt.raw[:, 0], [1.0, 3.0])
        np.testing.assert_allclose(rt.standardized[:, 0], [-1.0, 1.0])

    def test_discount_one_is_identity(self):
        rng = np.random.default_rng(0)
        avg = rng.random((3, 5, 4))
        rt = shape_rewards(avg, rng.random(4), discount=1.0)
        np.testing.assert_array_equal(rt.raw, rt.discounted)

    def test_discount_exponent_counts_back_from_terminal(self):
        avg = np.ones((2, 3, 1))
        avg[1] *= 2.0
        rt = shape_rewards(avg, np.array([1.0]), discount=0.5)
        # terminal column untouched, first column scaled by gamma^(N-1)
        np.testing.assert_allclose(rt.discounted[:, 2], rt.raw[:, 2])
        np.testing.assert_allclose(rt.discounted[:, 0], 0.25 * rt.raw[:, 0])
        np.testing.assert_allclose(rt.discounted[:, 1], 0.5 * rt.raw[:, 1])

    def test_zero_sigma_column_maps_to_zeros(self):
        avg = states_with_raw_column([2.0, 2.0, 2.0])
        rt = shape_rewards(avg, np.array([4.0, 0.0]), discount=0.9)
        assert not rt.standardized.any()

    def test_single_round_rejected(self):
        with pytest.raises(PreconditionError, match="two rounds"):
            shape_rewards(np.ones((1, 4, 2)), np.array([1.0, 0.0]), 0.99)

    def test_payoff_width_checked(self):
        with pytest.raises(PreconditionError, match="H=2"):
            shape_rewards(np.ones((2, 4, 2)), np.array([1.0, 0.0, 0.0]), 0.99)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_standardized_columns_have_zero_mean_unit_sigma(self, seed):
        rng = np.random.default_rng(seed)
        m, n, h = rng.integers(2, 8), rng.integers(1, 6), rng.integers(2, 5)
        raw = rng.random((m, n, h))
        avg = raw / raw.sum(axis=2, keepdims=True)
        rt = shape_rewards(avg, rng.random(h), discount=0.99)
        for c in range(n):
            col = rt.standardized[:, c]
            if col.any():
                assert abs(col.mean()) < 1e-10
                assert abs(col.std() - 1.0) < 1e-10
            sigma = rt.discounted[:, c].std()
            if sigma > 1e-8:
                assert col.any() or rt.discounted[:, c].std() <= 1e-8


class TestAdam:
    def test_first_step_moves_by_signed_learning_rate(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(0))
        state = AdamState.zeros_like(params)
        grads = replace(params, flat=np.empty_like(params.flat))
        for w, b in zip(grads.weights, grads.biases):
            w[...], b[...] = 0.5, -2.0

        new_params, new_state = adam_step(params, grads, state, lr=0.01)
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_allclose(new, old - 0.01, rtol=1e-6)
        for old, new in zip(params.biases, new_params.biases):
            np.testing.assert_allclose(new, old + 0.01, rtol=1e-6)
        assert new_state.step == 1

    def test_zero_gradient_is_a_fixed_point(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(1))
        state = AdamState.zeros_like(params)
        zeros = replace(params, flat=np.zeros_like(params.flat))
        new_params, _ = adam_step(params, zeros, state, lr=0.1)
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_array_equal(new, old)


class TestRoundStreams:
    # the golden digests see only the one-word seeds 0 and 3 and small
    # epochs; these cover seeds of one to five 32-bit words (2**128 - 1 fills
    # the pool with no padding, 2**128 is the first to overflow it), numpy
    # integer seeds, and epochs that take one or two words in the spawn-key form
    @pytest.mark.parametrize(
        "seed",
        [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 - 1, 2**128, 2**130 + 7,
         np.int64(5), np.uint64(2**63)],
        ids=repr,
    )
    @pytest.mark.parametrize("epoch", [1, 2**31, 2**32 + 1])
    @pytest.mark.parametrize("player", [0, 1])
    def test_round_draws_are_the_spawn_key_streams(self, seed, epoch, player):
        rounds, steps = 3, 9
        got = _round_draws(seed, epoch, 2, rounds, steps)[:, player * rounds:(player + 1) * rounds]
        assert got.shape == (steps - 1, rounds)
        for m in range(rounds):
            want = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(1, epoch, player, m))
            ).random(steps - 1)
            assert got[:, m].tobytes() == want.tobytes()

    def test_epochs_a_word_apart_draw_different_streams(self):
        # an epoch never wraps to 32 bits: 2**32 + 1 is not epoch 1
        low, high = (_round_draws(0, epoch, 1, 1, 5) for epoch in (1, 2**32 + 1))
        assert low.tobytes() != high.tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="^seed must be >= 0, got -1$"):
            _round_draws(-1, 1, 1, 2, 5)

    @pytest.mark.parametrize("seed", [True, False, np.True_, -1, 1.0, "1"], ids=repr)
    def test_require_seed_takes_non_negative_integers_only(self, seed, chicken):
        with pytest.raises(PreconditionError, match="^seed must be (an integer|>= 0), got "):
            require_seed(seed)
        with pytest.raises(PreconditionError, match="^seed must be (an integer|>= 0), got "):
            train_pair(chicken, ("p1", "p2"), tiny_config(), seed)


def tiny_batch(params, seed=0, rounds=2, steps=4, step_size=0.25):
    """A rollout of `params` and its record, which the update reads."""
    uniforms = _round_draws(seed, 1, 1, rounds, steps)
    record = RolloutRecord(params, nets=1, rounds=rounds, steps=steps - 1)
    batch = rollout(
        policy_fn(params, record=record),
        step_size=step_size,
        uniforms=uniforms,
        start=np.full(params.h, 1.0 / params.h),
    )
    return batch, record


def lone_probs(params, cur, prev):
    """One net's probabilities over (B, H) rows, from `policy_fn` over a
    one-step record of B rounds."""
    record = RolloutRecord(params, nets=1, rounds=len(cur), steps=1)
    return policy_fn(params, record=record)(0, cur, prev)


def tiny_config(**kw):
    base = dict(rounds=2, steps=4, step_size=0.25, epochs=2, width_in=4, width_mid=6)
    base.update(kw)
    return TrainingConfig(**base)


class TestUpdatePolicy:
    def test_zero_weights_leave_params_unchanged(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(2))
        batch, record = tiny_batch(params)
        n = batch.states.shape[1]
        rt = RewardTensor(
            raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=np.zeros((2, n))
        )
        new_params, _, stats = update_policy(
            params, batch, rt, AdamState.zeros_like(params), tiny_config(),
            record, 0,
        )
        assert stats.grad_max == 0.0
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_array_equal(new, old)

    def test_positive_weight_raises_chosen_probability(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(3))
        batch, record = tiny_batch(params, seed=3)
        n = batch.states.shape[1]
        std = np.zeros((2, n))
        std[0, 1] = 1.0  # reward the state produced by round 0's first action
        rt = RewardTensor(raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std)
        cur = batch.states[0, :1]
        prev = batch.states[0, :1]
        chosen = batch.action_indices[0, 0]
        before = lone_probs(params, cur, prev)
        new_params, _, _ = update_policy(
            params, batch, rt, AdamState.zeros_like(params), tiny_config(learning_rate=1e-3),
            record, 0,
        )
        after = lone_probs(new_params, cur, prev)
        assert after[0, chosen] > before[0, chosen]

    def test_negative_weight_lowers_chosen_probability(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(4))
        batch, record = tiny_batch(params, seed=4)
        n = batch.states.shape[1]
        std = np.zeros((2, n))
        std[1, 2] = -1.0
        rt = RewardTensor(raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std)
        cur = batch.states[1, 1:2]
        prev = batch.states[1, :1]
        chosen = batch.action_indices[1, 1]
        before = lone_probs(params, cur, prev)
        new_params, _, _ = update_policy(
            params, batch, rt, AdamState.zeros_like(params), tiny_config(learning_rate=1e-3),
            record, 0,
        )
        after = lone_probs(new_params, cur, prev)
        assert after[0, chosen] < before[0, chosen]

    def test_start_column_reward_is_ignored(self):
        # the weight for an action is the reward of the state it produced, so
        # column 0 (the fixed start state) must never influence the update
        params = init_policy(2, 3, 4, 6, np.random.default_rng(5))
        batch, record = tiny_batch(params, seed=5)
        n = batch.states.shape[1]
        base = np.zeros((2, n))
        base[:, 1:] = np.random.default_rng(6).normal(size=(2, n - 1))
        hi = base.copy()
        hi[:, 0] = 50.0
        lo = base.copy()
        lo[:, 0] = -50.0
        results = []
        for std in (hi, lo):
            rt = RewardTensor(
                raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std
            )
            new_params, _, _ = update_policy(
                params, batch, rt, AdamState.zeros_like(params), tiny_config(),
                record, 0,
            )
            results.append(new_params)
        for a, b in zip(results[0].weights, results[1].weights):
            np.testing.assert_array_equal(a, b)


    def test_update_with_a_warm_workspace_allocates_little(self, coordination):
        # default-config shapes: 944 rows, read from the rollout's record as
        # train_pair does. Without a reused workspace one update allocates
        # about 4 MB of row-sized intermediates.
        cfg = TrainingConfig()
        params = init_policy(4, 27, cfg.width_in, cfg.width_mid, np.random.default_rng(12))
        record = RolloutRecord(params, nets=1, rounds=cfg.rounds, steps=cfg.steps - 1)
        uniforms = np.stack(
            [np.random.default_rng(m).random(cfg.steps - 1) for m in range(cfg.rounds)], axis=1
        )
        batch = rollout(
            policy_fn(params, record=record), cfg.step_size, uniforms, start=np.full(4, 0.25)
        )
        rt = shape_rewards(batch.states, coordination.payoff("p1"), cfg.discount)
        # the record holds these params' pass, so both updates start from them
        state = AdamState.zeros_like(params)
        update_policy(params, batch, rt, state, cfg, record, 0)
        tracemalloc.start()
        try:
            update_policy(params, batch, rt, state, cfg, record, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConfig:
    def test_default_tolerance_is_twice_step_size(self):
        cfg = tiny_config(step_size=0.25)
        assert cfg.tolerance == 0.5
        assert tiny_config(stability_tol=0.01).tolerance == 0.01

    def test_rejects_bad_values(self):
        with pytest.raises(PreconditionError, match="discount"):
            tiny_config(discount=1.5)
        with pytest.raises(PreconditionError, match="ceil"):
            tiny_config(steps=2, step_size=0.25)
        # ceil(1/1) is 1, but a round of one state takes no action
        with pytest.raises(PreconditionError, match="steps must be >= 2"):
            tiny_config(steps=1, step_size=1.0)
        with pytest.raises(PreconditionError, match="learning rate"):
            tiny_config(learning_rate=0.0)
        with pytest.raises(PreconditionError, match="step size"):
            tiny_config(step_size=0.0)
        with pytest.raises(PreconditionError, match="width"):
            tiny_config(width_mid=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", float("nan"), "learning rate"),
            ("learning_rate", float("inf"), "learning rate"),
            ("stability_tol", float("nan"), "stability tolerance"),
            ("stability_tol", -1.0, "stability tolerance"),
            ("rounds", 1, "rounds must be >= 2"),
        ],
    )
    def test_rejects_inputs_that_would_fail_mid_run(self, field, value, message):
        with pytest.raises(PreconditionError, match=message):
            tiny_config(**{field: value})

    def test_subnormal_step_size_gets_the_steps_rule(self):
        # 1/5e-324 overflows a float; min_steps once raised OverflowError on it
        with pytest.raises(PreconditionError, match=r"^steps must satisfy .* need >= 2\d{323}$"):
            tiny_config(step_size=5e-324)

    def test_accepts_a_zero_or_infinite_tolerance(self):
        assert tiny_config(stability_tol=0.0).tolerance == 0.0
        assert tiny_config(stability_tol=float("inf")).tolerance == float("inf")

    @pytest.mark.parametrize(
        "field", ["rounds", "steps", "epochs", "stability_window", "width_in", "width_mid"]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=repr)
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(PreconditionError, match=f"{field} must be an integer"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize(
        "field", ["step_size", "discount", "learning_rate", "stability_tol"]
    )
    @pytest.mark.parametrize("value", [True, False, "0.5"], ids=repr)
    def test_float_fields_reject_bools_and_non_numbers(self, field, value):
        with pytest.raises(PreconditionError, match=f"{field} must be a number"):
            tiny_config(**{field: value})

    def test_float_fields_store_numpy_scalars_as_float(self, chicken, tmp_path):
        cfg = tiny_config(
            step_size=np.float64(0.25), discount=np.float32(0.5),
            learning_rate=np.float32(0.001), stability_tol=np.int64(1),
        )
        for field in ("step_size", "discount", "learning_rate", "stability_tol"):
            assert type(getattr(cfg, field)) is float
        assert cfg.learning_rate == float(np.float32(0.001))
        # the run's history header serializes the config
        write_history_csv(train_pair(chicken, ("p1", "p2"), cfg, 0), tmp_path / "h.csv")

    def test_float_fields_store_python_ints_as_float(self, chicken, fixtures_dir, tmp_path):
        cfg = tiny_config(step_size=1, discount=1, stability_tol=0)
        for field in ("step_size", "discount", "stability_tol"):
            assert type(cfg.to_dict()[field]) is float
        # the CLI's flags parse as floats: its header and a library run's agree
        write_history_csv(train_pair(chicken, ("p1", "p2"), cfg, 0), tmp_path / "lib.csv")
        argv = ["train", str(fixtures_dir / "chicken.json"), "--seed", "0", "--rounds", "2",
                "--steps", "4", "--step-size", "1", "--discount", "1", "--stability-tol", "0",
                "--epochs", "2", "--width-in", "4", "--width-mid", "6",
                "--out-dir", str(tmp_path / "cli")]
        assert main(argv) == 3  # the epoch cap, at tolerance 0; the files are written
        (lib,) = (tmp_path / "lib.csv").read_text().splitlines()[:1]
        (cli,) = (tmp_path / "cli/train_history.csv").read_text().splitlines()[:1]
        assert lib == cli

    def test_integer_fields_store_numpy_integers_as_int(self):
        cfg = tiny_config(epochs=np.int64(3), stability_window=np.uint8(3), width_in=np.int32(4))
        for field in ("epochs", "stability_window", "width_in"):
            assert type(getattr(cfg, field)) is int
        json.dumps(cfg.to_dict())  # JSON-ready


class TestTrainPair:
    def test_a_player_cannot_train_against_itself(self, chicken):
        with pytest.raises(PreconditionError, match="against itself"):
            train_pair(chicken, ("p1", "p1"), tiny_config(), seed=0)

    def test_numpy_integer_fields_train(self, chicken):
        cfg = tiny_config(epochs=np.int64(2), stability_window=np.int64(3))
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=0)
        assert result.epochs_run == 2

    def test_smoke_and_shapes(self, chicken):
        cfg = tiny_config(epochs=3)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=0)
        assert result.epochs_run == 3
        assert len(result.history) == 3
        assert result.p_tilde.shape == (4,)
        assert result.p_tilde.min() >= -1e-12
        assert abs(result.p_tilde.sum() - 1.0) < 1e-9
        assert set(result.params) == {"p1", "p2"}
        assert set(result.history[0].mean_terminal_reward) == {"p1", "p2"}

    def test_seed_reproducibility(self, chicken):
        cfg = tiny_config(epochs=2)
        a = train_pair(chicken, ("p1", "p2"), cfg, seed=42)
        b = train_pair(chicken, ("p1", "p2"), cfg, seed=42)
        np.testing.assert_array_equal(a.p_tilde, b.p_tilde)
        assert a.history[-1].mean_terminal_reward == b.history[-1].mean_terminal_reward
        c = train_pair(chicken, ("p1", "p2"), cfg, seed=43)
        assert np.abs(a.p_tilde - c.p_tilde).max() > 0

    def test_loose_tolerance_stops_early(self, chicken):
        cfg = tiny_config(epochs=50, stability_window=2, stability_tol=10.0)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=1)
        assert result.stable
        assert result.epochs_run == 2

    def test_impossible_tolerance_runs_to_cap(self, chicken):
        cfg = tiny_config(epochs=3, stability_window=2, stability_tol=0.0)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=1)
        assert not result.stable
        assert result.epochs_run == 3
        np.testing.assert_array_equal(result.p_tilde, result.history[-1].terminal_state)

    def test_missing_payoff_rejected(self, chicken):
        from celab.games import make_game

        game = make_game(
            ["p1", "p2"], {"p1": ["C", "D"], "p2": ["C", "D"]},
            {"p1": chicken.payoff("p1"), "p2": None},
        )
        with pytest.raises(PreconditionError, match="p2"):
            train_pair(game, ("p1", "p2"), tiny_config(), seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_numeric_error_and_no_warning(self, coordination):
        # the overflow is caught by a finite check, not reported by numpy
        cfg = tiny_config(epochs=3, learning_rate=1e300)
        with pytest.raises(NumericError, match="non-finite"):
            train_pair(coordination, ("p1", "p2"), cfg, seed=0)

    def test_an_epoch_after_the_first_allocates_little(self, coordination, monkeypatch):
        # a default-config run keeps about 4 MB of rollout record and update
        # buffers; made once per run, they leave later epochs only small
        # per-epoch arrays to allocate
        import celab.training

        marks = []
        real_rollout = celab.training.rollout

        def marking_rollout(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            if len(marks) == 2:
                tracemalloc.reset_peak()
            return real_rollout(*args, **kwargs)

        monkeypatch.setattr(celab.training, "rollout", marking_rollout)
        config = TrainingConfig(epochs=3, stability_window=4)
        tracemalloc.start()
        try:
            train_pair(coordination, ("p1", "p2"), config, seed=0)
        finally:
            tracemalloc.stop()
        (start, _), (_, peak) = marks[1], marks[2]
        assert peak - start < 1_000_000

    def test_a_second_run_of_the_same_shapes_allocates_little_before_its_update(
        self, coordination, monkeypatch
    ):
        # the first run's rollout record and workspace, about 4 MB, serve the
        # second, which allocates only its nets, its RNGs and its states
        import celab.training

        peaks = []
        real_update = celab.training.update_policy

        def marking_update(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return real_update(*args, **kwargs)

        config = TrainingConfig(epochs=1, stability_window=2)
        train_pair(coordination, ("p1", "p2"), config, seed=0)
        monkeypatch.setattr(celab.training, "update_policy", marking_update)
        tracemalloc.start()
        try:
            train_pair(coordination, ("p1", "p2"), config, seed=1)
        finally:
            tracemalloc.stop()
        assert peaks[0] < 1_000_000


class TestArenaReuse:
    # (game, config fields, seed, whether the run allocates an arena): runs
    # of other shapes in turn, so that some take the arena the run before
    # them gave back, one of them after a run that raised
    RUNS = [
        ("coordination_2x2", {}, 0, True),
        ("coordination_2x2", {}, 1, False),
        ("coordination_2x2", {"rounds": 3}, 0, True),
        ("chicken", {}, 2, True),
        ("chicken", {}, 3, False),
        ("chicken", {"steps": 55}, 0, True),
        ("coordination_2x2", {"steps": 55, "learning_rate": 1e300}, 0, False),
        ("chicken", {"steps": 55}, 1, False),
        ("coordination_2x2", {"rounds": 3}, 4, True),
    ]

    @staticmethod
    def _outcome(game, fields, seed, path):
        """The history CSV's bytes and both nets' parameter bytes of a run,
        or the message of the NumericError it raised."""
        config = TrainingConfig(epochs=3, stability_window=4, **fields)
        try:
            result = train_pair(game, ("p1", "p2"), config, seed)
        except NumericError as exc:
            return str(exc)
        write_history_csv(result, path)
        return path.read_bytes(), [result.params[p].flat.tobytes() for p in ("p1", "p2")]

    def test_a_reused_arena_gives_the_bytes_of_a_fresh_one(
        self, fixtures_dir, tmp_path, monkeypatch
    ):
        import celab.training

        games = {
            name: load_game(fixtures_dir / f"{name}.json")
            for name in ("coordination_2x2", "chicken")
        }
        fresh = []
        for name, fields, seed, _ in self.RUNS:
            celab.training._spare.clear()
            fresh.append(self._outcome(games[name], fields, seed, tmp_path / "fresh.csv"))
        assert isinstance(fresh[6], str) and "non-finite" in fresh[6]

        allocated = []
        real_record = celab.training.RolloutRecord

        def counting_record(*args, **kwargs):
            allocated[-1] = True
            return real_record(*args, **kwargs)

        monkeypatch.setattr(celab.training, "RolloutRecord", counting_record)
        celab.training._spare.clear()
        for (name, fields, seed, _), want in zip(self.RUNS, fresh):
            allocated.append(False)
            assert self._outcome(games[name], fields, seed, tmp_path / "reused.csv") == want
        assert allocated == [allocates for *_, allocates in self.RUNS]
        assert len(celab.training._spare) == 1

    def test_a_nested_run_allocates_its_own_arena(self, coordination, tmp_path, monkeypatch):
        import celab.training

        fresh = {}
        for seed in (0, 1):
            celab.training._spare.clear()
            fresh[seed] = self._outcome(coordination, {}, seed, tmp_path / "fresh.csv")

        nested = []
        real_rollout = celab.training.rollout

        def rollout_with_a_nested_run(*args, **kwargs):
            if not nested:  # the outer run's first epoch holds the arena
                nested.append(None)
                nested[0] = self._outcome(coordination, {}, 1, tmp_path / "inner.csv")
            return real_rollout(*args, **kwargs)

        allocations = []
        real_record = celab.training.RolloutRecord

        def counting_record(*args, **kwargs):
            allocations.append(args)
            return real_record(*args, **kwargs)

        self._outcome(coordination, {}, 2, tmp_path / "warm.csv")  # leaves a spare
        monkeypatch.setattr(celab.training, "rollout", rollout_with_a_nested_run)
        monkeypatch.setattr(celab.training, "RolloutRecord", counting_record)
        assert self._outcome(coordination, {}, 0, tmp_path / "outer.csv") == fresh[0]
        assert nested == [fresh[1]]
        assert len(allocations) == 1  # the nested run's; the outer took the spare

    def test_concurrent_runs_never_share_an_arena(self, chicken):
        # more threads than cores, switching often: a run whose arena another
        # run wrote into mid-epoch would end with other parameters
        import sys
        import threading

        config = tiny_config(epochs=4)

        def run(seed):
            result = train_pair(chicken, ("p1", "p2"), config, seed)
            return [result.params[p].flat.tobytes() for p in ("p1", "p2")]

        seeds = range(6)
        want = {seed: [run(seed)] * 3 for seed in seeds}
        got = {seed: [] for seed in seeds}

        def worker(seed):
            for _ in range(3):
                got[seed].append(run(seed))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


class TestHistoryCsv:
    def test_layout_and_header(self, chicken, tmp_path):
        cfg = tiny_config(epochs=2)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=9)
        path = tmp_path / "history.csv"
        write_history_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        meta = json.loads(lines[0][2:])
        assert meta["seed"] == 9
        assert meta["config"]["rounds"] == 2
        assert meta["config"]["stability_tol"] == 0.5
        assert lines[1] == "epoch,player,mean_terminal_reward,rho_1,rho_2,rho_3,rho_4"
        assert len(lines) == 2 + 2 * 2  # header rows + epochs * players
        first = lines[2].split(",")
        assert first[0] == "1" and first[1] == "p1"
        # float fields survive a repr round trip
        assert float(first[2]) == result.history[0].mean_terminal_reward["p1"]

    def test_rewrite_is_byte_identical(self, chicken, tmp_path):
        cfg = tiny_config(epochs=2)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(result, p1)
        write_history_csv(train_pair(chicken, ("p1", "p2"), cfg, seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_encode_failure_leaves_no_file(self, chicken, tmp_path):
        # train_pair takes a numpy integer seed, which json cannot encode
        result = train_pair(chicken, ("p1", "p2"), tiny_config(epochs=1), seed=np.int64(5))
        history, checkpoint = tmp_path / "history.csv", tmp_path / "checkpoint.json"
        with pytest.raises(TypeError):
            write_history_csv(result, history)
        with pytest.raises(TypeError):
            save_checkpoint(result.params["p1"], checkpoint, seed=result.seed)
        assert not history.exists()
        assert not checkpoint.exists()

    # sha256 of the 20-epoch history, recorded with numpy 2.4 on OpenBLAS; any
    # drift in the numbers (rollout, update or CSV formatting) changes these
    # bytes. The default config has 16 rounds. With 3, OpenBLAS gives some
    # rows of the output layer other last bits in a rollout step than in a
    # pass over the whole batch (see `celab.policy`), which the 16-round
    # cases do not reach.
    @pytest.mark.parametrize(
        "fixture, seed, rounds, digest",
        [
            pytest.param(fixture, seed, rounds, digest, id=f"{fixture}-{seed}-{digest}"
                         + ("" if rounds == 16 else f"-rounds{rounds}"))
            for fixture, seed, rounds, digest in [
                ("coordination_2x2", 0, 16,
                 "4beb7e43688746f80c133728563e6c8bd1baf42c37c9ca1c63cc3fc4028ed869"),
                ("coordination_2x2", 3, 16,
                 "104f8334df7a8cc4b96cf3b918584ea9494d01355a7b5d5268953f8610bad460"),
                ("chicken", 0, 16,
                 "06aef657dd008322e2aa1c58f7296931c29844229ea5b40f6e517e546986d484"),
                ("chicken", 3, 16,
                 "0bd8b926dd678072481d3166865c9e18712250c4e0dad9f858926cd18c3eff78"),
                ("coordination_2x2", 0, 3,
                 "4493958437b1888be80a7025fe1170d024ac5cdcd6a79e17e7049a260f2de711"),
            ]
        ],
    )
    def test_golden_digest(self, fixtures_dir, tmp_path, fixture, seed, rounds, digest):
        game = load_game(fixtures_dir / f"{fixture}.json")
        config = TrainingConfig(epochs=20, rounds=rounds)
        result = train_pair(game, ("p1", "p2"), config, seed)
        path = tmp_path / "history.csv"
        write_history_csv(result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
