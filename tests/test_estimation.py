"""Inverse payoff estimation: reordering, pressure rows, and the LP."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from oracles import random_valid_2x2

from celab.equilibrium import max_welfare_correlated_equilibrium
from celab.errors import PreconditionError
from celab.estimation import (
    build_pressure_constraints,
    constraint_slacks,
    estimate_payoff,
    estimation_report,
    reorder,
)
from celab.games import make_game

THIRDS = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])


def coordination_game():
    return make_game(
        ["p1", "p2"],
        {"p1": ["A", "B"], "p2": ["A", "B"]},
        {"p1": np.array([0.5, 0.0, 0.1, 0.4]), "p2": np.array([0.5, 0.1, 0.0, 0.4])},
    )


class TestReorder:
    def test_ascending_stable_sort(self, mirror):
        view = reorder(mirror.payoff("p1"), THIRDS)
        assert view.permutation == (3, 2, 0, 1)
        np.testing.assert_allclose(view.v_bar_main, [0.0, 0.2143, 0.3571, 0.4286])
        np.testing.assert_allclose(view.p_bar, [0.0, 1 / 3, 1 / 3, 1 / 3])

    def test_sorted_input_is_identity(self):
        view = reorder([0.1, 0.2, 0.3, 0.4], [0.25] * 4)
        assert view.permutation == (0, 1, 2, 3)

    def test_ties_break_by_original_index(self):
        view = reorder([0.25, 0.25, 0.3, 0.2], [0.25] * 4)
        assert view.permutation == (3, 0, 1, 2)

    def test_restore_inverts_the_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.random(4)
            p = rng.random(4)
            p /= p.sum()
            view = reorder(v, p)
            np.testing.assert_array_equal(view.restore(view.v_bar_main), v)
            np.testing.assert_array_equal(view.restore(view.p_bar), p)

    def test_rotated_mapping_shifts_one_slot(self, mirror):
        view = reorder(mirror.payoff("p1"), THIRDS)
        for k in range(4):
            assert view._slots(True)[k] == view.permutation[(k + 1) % 4]

    def test_rejects_malformed_inputs(self):
        message = r"^distribution has shape \(3,\), expected \(2,\)"
        with pytest.raises(PreconditionError, match=message):
            reorder([0.1, 0.2], [0.5, 0.25, 0.25])
        with pytest.raises(PreconditionError, match="simplex"):
            reorder([0.1, 0.2, 0.3, 0.4], [0.9, 0.9, 0.0, 0.0])
        # numpy's own "setting an array element with a sequence" error once escaped
        with pytest.raises(PreconditionError, match="^known payoffs is not an array of numbers$"):
            reorder([[0.1, 0.2], [0.3]], [0.25] * 4)


class TestPressureConstraints:
    def test_mirror_sense_table(self, mirror):
        # frozen mechanical evaluation at p_bar = (0, 1/3, 1/3, 1/3)
        view = reorder(mirror.payoff("p1"), THIRDS)
        rows, skipped = build_pressure_constraints(view)
        table = {(r.kind, r.position, r.window): r.sense for r in rows}
        assert len(rows) == 12
        assert table[("outgoing", 2, 1)] == ">="
        for key, sense in table.items():
            if key != ("outgoing", 2, 1):
                assert sense == "==", key
        assert {(s.kind, s.position, s.window) for s in skipped} == {
            ("outgoing", 1, 1),
            ("incoming", 1, 1),
            ("outgoing", 1, 2),
            ("incoming", 1, 2),
        }

    def test_sixteen_candidates_at_h4(self, mirror):
        view = reorder(mirror.payoff("p1"), THIRDS)
        rows, skipped = build_pressure_constraints(view)
        assert len(rows) + len(skipped) == 16

    def test_chicken_sense_table(self, chicken):
        view = reorder(chicken.payoff("p1"), np.array([0.5, 0.25, 0.25, 0.0]))
        rows, _ = build_pressure_constraints(view)
        table = {(r.kind, r.position, r.window): r.sense for r in rows}
        assert table[("outgoing", 2, 1)] == ">="
        assert table[("incoming", 2, 1)] == "<="
        assert table[("outgoing", 4, 1)] == "<="
        assert table[("incoming", 4, 1)] == ">="
        assert table[("outgoing", 3, 1)] == "=="

    def test_top_slot_single_step_partner_is_bottom_slot(self, chicken):
        # the incoming row at the top-ranked slot compares against slot 1,
        # not its ranked predecessor; wider windows keep plain cyclic indices
        view = reorder(chicken.payoff("p1"), np.array([0.5, 0.25, 0.25, 0.0]))
        rows, _ = build_pressure_constraints(view)
        at_top = {(r.window): r for r in rows if r.kind == "incoming" and r.position == 4}
        np.testing.assert_allclose(at_top[1].coefficients, [0.25, 0.0, 0.0, -0.25])
        np.testing.assert_allclose(at_top[2].coefficients, [0.0, 0.25, 0.0, -0.25])

    def test_bottom_slot_wraps_cyclically(self, chicken):
        # position 1 windows reach the top slot through the wrap; here the
        # mass triple is a strict valley, so both directions are skipped
        view = reorder(chicken.payoff("p1"), np.array([0.5, 0.25, 0.25, 0.0]))
        _, skipped = build_pressure_constraints(view)
        reasons = {(s.kind, s.position, s.window) for s in skipped}
        assert ("outgoing", 1, 1) in reasons
        assert ("incoming", 1, 1) in reasons

    def test_wide_tolerance_reads_everything_as_plateau(self):
        view = reorder([0.1, 0.2, 0.3, 0.4], [0.2499, 0.2501, 0.25, 0.25])
        rows, skipped = build_pressure_constraints(view, comparison_tol=1e-3)
        assert not skipped
        assert len(rows) == 16
        assert all(r.sense == "==" for r in rows)

    def test_row_values_fold_known_payoffs(self, mirror):
        # outgoing h=3 L=1 on the mirror view:
        # rhs = -p_bar[4] * (v_bar[4] - v_bar[3]), coefficients +-p_bar[2]
        view = reorder(mirror.payoff("p1"), THIRDS)
        rows, _ = build_pressure_constraints(view)
        row = next(r for r in rows if r.kind == "outgoing" and r.position == 3 and r.window == 1)
        np.testing.assert_allclose(row.coefficients, [0.0, -1 / 3, 1 / 3, 0.0])
        assert row.rhs == pytest.approx(-(1 / 3) * (0.4286 - 0.3571))


class TestEstimatePayoff:
    def test_mirror_game_is_diagnosed_not_gated(self, mirror):
        # The known-side mixing weight sits outside [0, 1] for this game,
        # but that is a diagnostic only: the solve must still run and name
        # the row families that cannot hold together.
        res = estimate_payoff(mirror.payoff("p1"), THIRDS)
        assert res.status == "infeasible"
        assert res.estimate is None
        assert res.main_mix_probability == pytest.approx(1.4996, abs=1e-3)
        assert res.violated
        assert all("h=" in v and "L=" in v for v in res.violated)
        # the report still carries the full constraint ledger
        report = estimation_report(res)
        assert len(report["constraints"]) == 12
        assert report["status"] == "infeasible"
        json.dumps(report)

    def test_chicken_ce_system_is_diagnosed(self, chicken):
        ce = max_welfare_correlated_equilibrium(chicken)
        res = estimate_payoff(chicken.payoff("p1"), ce.distribution)
        assert res.status == "infeasible"
        assert res.main_mix_probability == pytest.approx(2 / 3)
        assert res.violated  # named pressure families, not a bare failure
        assert all(("h=" in v and "L=" in v) or "sign branches" in v for v in res.violated)

    def test_coordination_game_round_trips_exactly(self):
        game = coordination_game()
        ce = max_welfare_correlated_equilibrium(game)
        np.testing.assert_allclose(ce.distribution, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
        res = estimate_payoff(game.payoff("p1"), ce.distribution)
        assert res.status == "ok"
        assert res.estimate.min() >= 0.0
        assert res.estimate.sum() == pytest.approx(1.0, abs=1e-9)
        assert constraint_slacks(res).min() >= -1e-9
        assert res.round_trip.l_inf < 1e-6

    def test_objective_is_expected_reward_under_input(self):
        game = coordination_game()
        p = np.array([1.0, 0.0, 0.0, 0.0])
        res = estimate_payoff(game.payoff("p1"), p)
        assert res.objective == pytest.approx(float(p @ res.estimate))
        assert res.objective <= 1.0 + 1e-9

    def test_menu_and_width_validation(self):
        with pytest.raises(PreconditionError, match="4 outcomes"):
            estimate_payoff([0.2] * 5, [0.2] * 5)
        with pytest.raises(PreconditionError, match="^known payoffs is not an array of numbers$"):
            estimate_payoff([[0.1, 0.2], [0.3]], [0.25] * 4)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -0.5])
    def test_comparison_tol_must_be_nonnegative(self, mirror, tol):
        # either would skip every window and leave no pressure rows
        with pytest.raises(PreconditionError, match="comparison tolerance"):
            estimate_payoff(mirror.payoff("p1"), THIRDS, comparison_tol=tol)

    def test_degenerate_known_side_is_diagnostic_only(self):
        # equal decision gaps make the known-side indifference undefined;
        # the weight is reported as None and the solve still proceeds
        res = estimate_payoff([0.3, 0.2, 0.3, 0.2], [0.25] * 4)
        assert res.main_mix_probability is None
        assert res.status in ("ok", "infeasible")
        if res.status == "infeasible":
            assert res.violated

    def test_rotated_variant_still_produces_simplex_vector(self):
        game = coordination_game()
        res = estimate_payoff(
            game.payoff("p1"), np.array([1.0, 0.0, 0.0, 0.0]), rotate_opponent=True
        )
        if res.status == "ok":
            assert res.rotated
            assert res.estimate.min() >= -1e-12
            assert res.estimate.sum() == pytest.approx(1.0, abs=1e-9)
            assert constraint_slacks(res).min() >= -1e-9
        else:
            assert res.violated

    def test_returned_vectors_always_feasible_on_random_games(self):
        rng = np.random.default_rng(2024)
        feasible = 0
        matches = 0
        for _ in range(8):
            u1, u2 = random_valid_2x2(rng, require_two_ne=True)
            game = make_game(
                ["p1", "p2"],
                {"p1": ["a1", "a2"], "p2": ["b1", "b2"]},
                {"p1": u1.reshape(-1), "p2": u2.reshape(-1)},
            )
            ce = max_welfare_correlated_equilibrium(game)
            res = estimate_payoff(game.payoff("p1"), ce.distribution)
            if res.status != "ok":
                assert res.violated
                continue
            feasible += 1
            assert res.estimate.min() >= 0.0
            assert res.estimate.sum() == pytest.approx(1.0, abs=1e-9)
            assert constraint_slacks(res).min() >= -1e-9
            if res.round_trip.l_inf < 1e-6:
                matches += 1
        assert matches <= feasible  # rates are measured, not asserted

    def test_report_is_json_ready(self):
        game = coordination_game()
        res = estimate_payoff(game.payoff("p1"), np.array([1.0, 0.0, 0.0, 0.0]))
        report = estimation_report(res)
        text = json.dumps(report)
        parsed = json.loads(text)
        assert parsed["permutation"] == list(res.view.permutation)
        assert parsed["branch"] == res.branch
        assert parsed["round_trip"]["l_inf"] == res.round_trip.l_inf


def _golden_inputs():
    """Seeded 2x2 inputs: exact and sigma=0.002-noised max-welfare CE
    distributions, with and without two pure equilibria."""
    rng = np.random.default_rng(31)
    inputs = []
    for i in range(24):
        u1, u2 = random_valid_2x2(rng, require_two_ne=i % 3 != 2)
        game = make_game(
            ["p1", "p2"],
            {"p1": ["a1", "a2"], "p2": ["b1", "b2"]},
            {"p1": u1.reshape(-1), "p2": u2.reshape(-1)},
        )
        p = max_welfare_correlated_equilibrium(game).distribution
        noisy = np.maximum(p + rng.normal(0.0, 0.002, 4), 0.0)
        inputs.append((game.payoff("p1"), p))
        inputs.append((game.payoff("p1"), noisy / noisy.sum()))
    return inputs


def test_golden_report_digest():
    # sha256 over the sorted-key JSON reports of a seeded batch, recorded with
    # numpy 2.4 on OpenBLAS. Infeasible inputs pin the diagnosis path and the
    # order of violated_families; any drift in rows, LP assembly or the
    # round trip changes these bytes.
    digest = hashlib.sha256()
    statuses = []
    for v_main, p in _golden_inputs():
        for rotated in (False, True):
            res = estimate_payoff(v_main, p, rotate_opponent=rotated)
            statuses.append(res.status)
            digest.update(json.dumps(estimation_report(res), sort_keys=True).encode())
    assert statuses.count("ok") >= 5 and statuses.count("infeasible") >= 5
    assert digest.hexdigest() == (
        "42c5b835cbbcfaf03d372ba388f6b1141d982b0f5f152a092e4241c7f8146e9b"
    )


def test_audit_on_exact_ces_of_random_2x2_games():
    # What the inverse step gets from perfect input today: the exact
    # max-welfare CE of 1,000 random games, p1 known. The pressure rows
    # exclude the true p2 vector in every game, and the error quantiles are
    # those of the estimates that come back `ok`. A change that moves these
    # numbers changes what the estimate means; re-measure before re-pinning.
    ok = truth_feasible = 0
    errors = []
    for s in range(1000):
        rng = np.random.default_rng(s)
        v1, v2 = (v / v.sum() for v in (rng.random(4), rng.random(4)))
        game = make_game(["p1", "p2"], {"p1": ["a", "b"], "p2": ["a", "b"]}, {"p1": v1, "p2": v2})
        result = estimate_payoff(v1, max_welfare_correlated_equilibrium(game).distribution)
        # the rows' margins at the true vector, as if it were the estimate
        truth = dataclasses.replace(result, estimate=v2)
        truth_feasible += bool((constraint_slacks(truth) >= -1e-9).all())
        if result.status == "ok":
            ok += 1
            errors.append(np.abs(result.estimate - v2).max())
    assert ok == 874
    assert truth_feasible == 0
    assert np.percentile(errors, 50) == pytest.approx(0.239, abs=5e-4)
    assert np.percentile(errors, 90) == pytest.approx(0.409, abs=5e-4)
