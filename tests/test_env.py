import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    is_simplex_point,
    reference_apply_action,
    reference_forward,
    reference_rollout,
    reference_sample_index,
)

from celab.env import (
    EpisodeBatch,
    apply_action,
    average_states,
    default_state,
    enumerate_actions,
    min_steps,
    rollout,
    sample_index,
)
from celab.errors import PreconditionError
from celab.games import load_game
from celab.policy import RolloutRecord, policy_fn, stack
from celab.training import TrainingConfig, train_pair

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestEnumerateActions:
    @pytest.mark.parametrize("h,count", [(2, 3), (3, 9), (4, 27)])
    def test_counts(self, h, count):
        assert enumerate_actions(h, 0.005).shape == (count, h - 1)

    def test_rows_unique_and_in_range(self):
        acts = enumerate_actions(4, 0.02)
        assert np.unique(acts, axis=0).shape[0] == 27
        assert set(np.unique(acts)) == {-0.02, 0.0, 0.02}

    def test_canonical_order(self):
        acts = enumerate_actions(3, 0.1)
        # first component most significant; -theta < 0 < +theta
        np.testing.assert_allclose(acts[0], [-0.1, -0.1])
        np.testing.assert_allclose(acts[1], [-0.1, 0.0])
        np.testing.assert_allclose(acts[4], [0.0, 0.0])
        np.testing.assert_allclose(acts[8], [0.1, 0.1])

    def test_h4_identity_index(self):
        acts = enumerate_actions(4, 0.005)
        assert np.all(acts[13] == 0.0)

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5])
    def test_bad_theta(self, theta):
        with pytest.raises(PreconditionError):
            enumerate_actions(4, theta)


class TestApplyAction:
    def test_plain_step(self):
        out = apply_action(np.full(4, 0.25), np.array([0.005, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.255, 0.25, 0.25, 0.245], atol=1e-15)

    def test_boundary_clamp(self):
        out = apply_action(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.005, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_full_rollback(self):
        out = apply_action(
            np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.01, 0.01, 0.0])
        )
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_partial_rollback_proportional(self):
        # head sums to 0.99; +0.02 on two components leaves a 0.03 deficit
        # against the 0.04 applied increase, so each keeps a quarter of it
        state = np.array([0.5, 0.49, 0.01])
        out = apply_action(state, np.array([0.02, 0.02]))
        np.testing.assert_allclose(out, [0.505, 0.495, 0.0], atol=1e-15)
        assert abs(out.sum() - 1.0) <= 1e-15

    def test_zero_delta_is_identity(self):
        state = np.array([0.3, 0.2, 0.1, 0.4])
        out = apply_action(state, np.zeros(3))
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_batched(self):
        states = np.tile(np.full(4, 0.25), (5, 1))
        deltas = np.tile(np.array([0.01, 0.0, -0.01]), (5, 1))
        out = apply_action(states, deltas)
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out[0], [0.26, 0.25, 0.24, 0.25], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            apply_action(np.full(4, 0.25), np.zeros(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_component_moves_bounded_by_theta(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(2, 6))
        theta = float(rng.uniform(0.001, 0.5))
        state = rng.random(h)
        state /= state.sum()
        state[-1] = 1.0 - state[:-1].sum()
        delta = (rng.integers(0, 3, size=h - 1) - 1) * theta
        out = apply_action(state, delta)
        assert is_simplex_point(out)
        assert np.all(np.abs(out[:-1] - state[:-1]) <= theta + 1e-12)


def _apply_action_case(seed: int, h: int, form: str):
    """A state (H,) or (B, H) and delta rows for `apply_action`: "single" is
    one state and one row, "batch" is B of each, "broadcast" one state
    against B rows. A state is interior, on a face (components exactly 0,
    of either sign), a vertex (one component exactly 1) or has its last
    component at 0, so that any increase rolls back; deltas are
    -theta/0/+theta steps, their zeros of either sign, or arbitrary values
    in [-1, 1]."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 7))

    def point():
        kind = int(rng.integers(4))
        raw = rng.random(h)
        if kind == 1:
            raw[rng.random(h) < 0.5] = rng.choice([0.0, -0.0])
            raw[int(rng.integers(h))] += 0.5
        elif kind == 2:
            raw = np.zeros(h)
            raw[int(rng.integers(h))] = 1.0
        elif kind == 3:
            raw[-1] = 0.0
        return raw / raw.sum()

    state = point() if form != "batch" else np.stack([point() for _ in range(b)])
    rows = () if form == "single" else (b,)
    if rng.random() < 0.8:
        theta = float(rng.choice([1e-9, 1e-4, 0.005, 0.02, 0.1, 0.25, 1 / 3, 0.5, 1.0]))
        deltas = (rng.integers(0, 3, size=rows + (h - 1,)) - 1) * theta
        deltas[(deltas == 0.0) & (rng.random(deltas.shape) < 0.5)] = -0.0
    else:
        deltas = rng.uniform(-1.0, 1.0, size=rows + (h - 1,))
    return state, deltas


_FORMS = ("single", "batch", "broadcast")


class TestApplyActionMatchesReference:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_reference(self, seed, h, form):
        state, deltas = _apply_action_case(seed, h, form)
        got = apply_action(state, deltas)
        want = reference_apply_action(state, deltas)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(_FORMS))
    @settings(max_examples=300, deadline=None)
    def test_out_gets_the_bits_of_the_allocating_call(self, seed, h, form):
        # a rollout step writes its states into its row of the step-major
        # buffer; every entry of `out` is written, and a batch may be
        # updated in place
        state, deltas = _apply_action_case(seed, h, form)
        want = apply_action(state, deltas)
        out = np.full(want.shape, np.nan)
        assert apply_action(state, deltas, out=out) is out
        assert out.tobytes() == want.tobytes()
        if state.shape == want.shape:
            assert apply_action(state, deltas, out=state) is state
            assert state.tobytes() == want.tobytes()

    def test_out_of_another_shape_or_dtype_rejected(self):
        state, deltas = np.full((2, 3), 1 / 3), np.zeros((2, 2))
        for out in (np.empty((3, 3)), np.empty(3), np.empty((2, 3), np.float32)):
            with pytest.raises(PreconditionError, match="out"):
                apply_action(state, deltas, out=out)

    def test_cases_reach_the_edges(self):
        # the properties above see exact 0 and 1 components and rollbacks,
        # and so both of apply_action's paths: some row's clamped head sums
        # above 1 (the rollback arithmetic runs) or none does (it is skipped)
        zeros = ones = rollbacks = skips = 0
        for seed in range(60):
            for form in _FORMS:
                state, deltas = _apply_action_case(seed, 4, form)
                zeros += int((state == 0.0).any())
                ones += int((state == 1.0).any())
                head = np.broadcast_to(state[..., :-1], np.shape(deltas))
                tentative = np.clip(head + deltas, 0.0, 1.0)
                over = tentative.sum(axis=-1) > 1.0
                rollbacks += int((over & (tentative > head).any(axis=-1)).any())
                skips += int(not over.any())
        assert min(zeros, ones, rollbacks, skips) >= 10


def _sample_index_case(seed: int, j: int, form: str):
    """A distribution (J,) with a scalar u, or (B, J) with (B,) draws; some
    entries are exactly 0, some rows point masses, and some draws equal a
    prefix sum (the last one among them), or are exactly 0 or 1."""
    rng = np.random.default_rng(seed)
    b = 1 if form == "single" else int(rng.integers(1, 7))
    p = rng.random((b, j))
    p[rng.random((b, j)) < 0.3] = 0.0
    masses = rng.random(b) < 0.2
    p[masses] = 0.0
    p[masses, rng.integers(0, j, size=int(masses.sum()))] = 1.0
    p[p.sum(axis=1) == 0.0, 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random(b)
    on_edge = rng.random(b) < 0.3
    cum = np.cumsum(p, axis=1)
    u[on_edge] = cum[on_edge, rng.integers(0, j, size=int(on_edge.sum()))]
    at_last = rng.random(b) < 0.1
    u[at_last] = cum[at_last, -1]
    u[rng.random(b) < 0.1] = 0.0
    u[rng.random(b) < 0.1] = 1.0
    return (p[0], float(u[0])) if form == "single" else (p, u)


class TestSampleIndexMatchesReference:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(_FORMS[:2]))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_reference(self, seed, h, form):
        p, u = _sample_index_case(seed, 3 ** (h - 1), form)
        got = sample_index(p, u)
        want = reference_sample_index(p, u)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        out = np.empty(want.shape, np.int64)
        assert sample_index(p, u, out=out) is out and out.tobytes() == want.tobytes()

    def test_cases_reach_the_last_index(self):
        # draws at or above the last prefix sum, where the reference clips
        # its count of all J prefix sums and sample_index counts J - 1
        beyond = 0
        for seed in range(60):
            for form in _FORMS[:2]:
                p, u = _sample_index_case(seed, 27, form)
                beyond += int(np.count_nonzero(np.cumsum(p, axis=-1)[..., -1] <= u))
        assert beyond >= 10


def test_fuzz_simplex_preserved():
    # 200 random walks x 50 steps = 10,000 applications
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        h = int(rng.integers(2, 7))
        theta = float(rng.uniform(0.001, 0.4))
        state = rng.random(h)
        state /= state.sum()
        state[-1] = 1.0 - state[:-1].sum()
        for _ in range(50):
            delta = (rng.integers(0, 3, size=h - 1) - 1) * theta
            state = apply_action(state, delta)
            assert np.all(state >= -1e-12) and np.all(state <= 1 + 1e-12)
            assert abs(state.sum() - 1.0) <= 1e-12
            checked += 1
    assert checked == 10_000


class TestReachability:
    @pytest.mark.parametrize("h,theta", [(2, 0.25), (3, 1 / 3)])
    def test_grid_reachable_within_bound(self, h, theta):
        """BFS from the uniform start covers every on-grid simplex point."""
        actions = enumerate_actions(h, theta)
        bound = min_steps(theta)
        start = default_state(h)
        seen = {tuple(np.round(start, 9))}
        frontier = [start]
        depth_found = {tuple(np.round(start, 9)): 0}
        for depth in range(1, bound + 1):
            nxt = []
            for s in frontier:
                for a in actions:
                    t = apply_action(s, a)
                    key = tuple(np.round(t, 9))
                    if key not in seen:
                        seen.add(key)
                        depth_found[key] = depth
                        nxt.append(t)
            frontier = nxt

        r = round(1 / theta)
        grid = []
        for combo in np.ndindex(*([r + 1] * (h - 1))):
            if sum(combo) <= r:
                point = [c * theta for c in combo]
                point.append(1.0 - sum(point))
                grid.append(tuple(np.round(point, 9)))
        for point in grid:
            assert point in seen, f"grid point {point} not reached within {bound} steps"


class TestRollout:
    @staticmethod
    def uniform_policy(n, cur, prev):
        j = 3 ** (cur.shape[1] - 1)
        return np.full((cur.shape[0], j), 1.0 / j)

    @staticmethod
    def constant_policy(index, j):
        def policy(n, cur, prev):
            p = np.zeros((cur.shape[0], j))
            p[:, index] = 1.0
            return p

        return policy

    @staticmethod
    def make_uniforms(m, steps, seed=0):
        """The (N-1, M) draws: column m_i from its own seeded stream."""
        return np.stack(
            [np.random.default_rng([seed, m_i]).random(steps - 1) for m_i in range(m)], axis=1
        )

    def test_shapes(self):
        batch = rollout(
            self.uniform_policy, step_size=0.1,
            uniforms=self.make_uniforms(3, 12), start=default_state(3),
        )
        assert batch.states.shape == (3, 12, 3)
        assert batch.action_indices.shape == (3, 11)

    def test_starts_at_default_state(self):
        batch = rollout(
            self.uniform_policy, step_size=0.1,
            uniforms=self.make_uniforms(2, 11), start=default_state(4),
        )
        np.testing.assert_array_equal(batch.states[:, 0], np.full((2, 4), 0.25))

    def test_degenerate_policy_follows_clamp_arithmetic(self):
        # action 0 always decrements the first component of an H=2 state
        batch = rollout(
            self.constant_policy(0, 3), step_size=0.25,
            uniforms=self.make_uniforms(1, 4), start=default_state(2),
        )
        np.testing.assert_allclose(
            batch.states[0, :, 0], [0.5, 0.25, 0.0, 0.0], atol=1e-15
        )

    def test_all_states_on_simplex(self):
        batch = rollout(
            self.uniform_policy, step_size=0.05,
            uniforms=self.make_uniforms(4, 30, seed=9), start=default_state(4),
        )
        flat = batch.states.reshape(-1, 4)
        assert all(is_simplex_point(s) for s in flat)

    def test_step_bound_enforced(self):
        with pytest.raises(PreconditionError, match="ceil"):
            rollout(
                self.uniform_policy, step_size=0.05,
                uniforms=self.make_uniforms(1, 10), start=default_state(2),
            )

    def test_reproducible_per_round_streams(self):
        a = rollout(
            self.uniform_policy, step_size=0.1,
            uniforms=self.make_uniforms(3, 15, seed=5), start=default_state(3),
        )
        b = rollout(
            self.uniform_policy, step_size=0.1,
            uniforms=self.make_uniforms(3, 15, seed=5), start=default_state(3),
        )
        assert a.states.tobytes() == b.states.tobytes()
        assert a.action_indices.tobytes() == b.action_indices.tobytes()

    def test_a_round_follows_its_own_column_only(self):
        # round m's states and choices depend on column m of the draws alone
        uniforms = self.make_uniforms(3, 15, seed=5)
        whole = rollout(self.uniform_policy, 0.1, uniforms, default_state(3))
        for m in range(3):
            alone = rollout(self.uniform_policy, 0.1, uniforms[:, m:m + 1], default_state(3))
            assert alone.states[0].tobytes() == whole.states[m].tobytes()
            assert alone.action_indices[0].tobytes() == whole.action_indices[m].tobytes()

    def test_policy_gets_each_step_index_in_order(self):
        seen = []

        def policy(n, cur, prev):
            seen.append(n)
            return self.uniform_policy(n, cur, prev)

        rollout(policy, 0.1, self.make_uniforms(2, 12), default_state(3))
        assert seen == list(range(11))

    @pytest.mark.parametrize(
        "uniforms",
        [np.full(11, 0.5), np.full((11, 2, 1), 0.5), np.zeros((11, 0))],
        ids=["1-d", "3-d", "no-column"],
    )
    def test_uniforms_that_are_not_a_block_of_rounds_rejected(self, uniforms):
        with pytest.raises(PreconditionError, match=r"\(N-1, M\) block"):
            rollout(self.uniform_policy, 0.1, uniforms, default_state(3))

    @pytest.mark.parametrize("value", [1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_draws_outside_the_unit_interval_rejected(self, value):
        uniforms = self.make_uniforms(2, 12)
        uniforms[4, 1] = value
        with pytest.raises(PreconditionError, match=r"finite draws in \[0, 1\)"):
            rollout(self.uniform_policy, 0.1, uniforms, default_state(3))


def _trained_nets(fixture: str, widths: tuple[int, int]):
    config = TrainingConfig(epochs=3, stability_window=4, width_in=widths[0], width_mid=widths[1])
    result = train_pair(load_game(FIXTURES / f"{fixture}.json"), ("p1", "p2"), config, seed=7)
    return result.params["p1"], result.params["p2"]


class TestRolloutMatchesReference:
    @pytest.mark.parametrize("widths", [(8, 16), (1, 6), (4, 1)])
    @pytest.mark.parametrize("fixture", ["coordination_2x2", "chicken"])
    def test_bytes_equal_the_reference_step_loop(self, fixture, widths):
        # a recording rollout of two trained nets: its states, indices and
        # recorded probabilities are those of the reference step loop, and
        # each slot's layer inputs are the reference pass's over that step
        nets = _trained_nets(fixture, widths)
        stacked = stack(nets)
        steps, step_size, start = 60, 0.02, default_state(4)
        overshoots = skips = 0
        for rounds in (2, 3, 5, 16):
            record = RolloutRecord(nets[0], 2, rounds, steps - 1)
            uniforms = np.stack(
                [np.random.default_rng([rounds, m]).random(steps - 1) for m in range(2 * rounds)],
                axis=1,
            )
            batch = rollout(policy_fn(*nets, record=record), step_size, uniforms, start)
            states, indices, probs = reference_rollout(stacked, step_size, uniforms, start)
            assert batch.states.tobytes() == states.tobytes()
            assert batch.action_indices.dtype == indices.dtype
            assert batch.action_indices.tobytes() == indices.tobytes()
            assert record.arrays[-1].tobytes() == probs.tobytes()
            for n, slot in enumerate(record.slots):
                cur, prev = states[:, n], states[:, max(n - 1, 0)]
                _, inputs = reference_forward(stacked, cur, prev)
                for recorded, fresh in zip(slot, inputs):
                    assert recorded.tobytes() == fresh.tobytes()
            # which of apply_action's paths each step took
            actions = enumerate_actions(4, step_size)
            head = states[:, :-1, :-1]
            tentative = np.clip(head + actions[indices], 0.0, 1.0)
            over = (tentative.sum(axis=-1) > 1.0).any(axis=0)
            overshoots += int(over.sum())
            skips += int((~over).sum())
        assert min(overshoots, skips) >= 10


class TestSampleIndex:
    def test_point_mass(self):
        p = np.array([0.0, 1.0, 0.0])
        for u in (0.0, 0.5, 0.999999):
            assert sample_index(p, u) == 1

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(77)
        p = np.full(3, 1 / 3)
        draws = sample_index(np.tile(p, (10_000, 1)), rng.random(10_000))
        freqs = np.bincount(draws, minlength=3) / 10_000
        sigma = math.sqrt((1 / 3) * (2 / 3) / 10_000)
        assert np.all(np.abs(freqs - 1 / 3) < 3 * sigma + 1e-12)

    def test_u_at_one_stays_in_range(self):
        assert sample_index(np.array([0.5, 0.5]), 1.0) == 1


class TestAverageStates:
    def test_idempotent(self):
        states = np.random.default_rng(1).dirichlet(np.ones(4), size=(2, 5))
        batch = EpisodeBatch(states=states, action_indices=np.zeros((2, 4), int))
        np.testing.assert_array_equal(average_states(batch, batch), states)

    def test_point_mass_average(self):
        a = np.zeros((1, 1, 4))
        a[0, 0, 0] = 1.0
        b = np.zeros((1, 1, 4))
        b[0, 0, 1] = 1.0
        ba = EpisodeBatch(states=a, action_indices=np.zeros((1, 0), int))
        bb = EpisodeBatch(states=b, action_indices=np.zeros((1, 0), int))
        np.testing.assert_allclose(average_states(ba, bb)[0, 0], [0.5, 0.5, 0.0, 0.0])

    def test_shape_mismatch(self):
        a = EpisodeBatch(np.zeros((1, 2, 3)), np.zeros((1, 1), int))
        b = EpisodeBatch(np.zeros((1, 3, 3)), np.zeros((1, 2), int))
        with pytest.raises(PreconditionError, match="state shapes differ"):
            average_states(a, b)

    def test_averages_stay_on_simplex(self):
        rng = np.random.default_rng(3)
        sa = rng.dirichlet(np.ones(5), size=(3, 7))
        sb = rng.dirichlet(np.ones(5), size=(3, 7))
        ba = EpisodeBatch(sa, np.zeros((3, 6), int))
        bb = EpisodeBatch(sb, np.zeros((3, 6), int))
        avg = average_states(ba, bb)
        assert np.allclose(avg.sum(axis=2), 1.0, atol=1e-12)
