"""Task scheduling, pair views, and the pairwise estimation pipeline."""

import copy
import hashlib
import json
import re

import numpy as np
import pytest
from oracles import reference_slice_indices

from celab.equilibrium import (
    correlated_equilibrium_program,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
)
from celab.errors import PreconditionError
from celab.games import game_from_dict, make_game
from celab.pipeline import (
    InteractionTask,
    against_set,
    build_task_set,
    pair_view,
    run_pipeline,
    slice_indices,
    validate_manifest,
)
from celab.training import TrainingConfig

# Calibrated for the bundled three-player fixture: slow enough learning to
# avoid frozen standoffs, window tolerance wide enough for terminal jitter.
PIPELINE_CFG = TrainingConfig(epochs=600, stability_tol=0.004)


def uniform_payoffs(players, n):
    return {p: [1.0 / n] * n for p in players}


class TestBuildTaskSet:
    def test_two_player_game_is_a_single_task(self, chicken):
        tasks = build_task_set(chicken)
        assert len(tasks) == 1
        assert tasks[0].pair == ("p1", "p2")
        assert tasks[0].fixed_decisions == ()
        assert tasks[0].describe() == "p1-p2"

    def test_three_player_order_is_pair_major(self, three_player):
        described = [t.describe() for t in build_task_set(three_player)]
        assert described == [
            "p1-p2 [p3=A]",
            "p1-p2 [p3=B]",
            "p1-p3 [p2=A]",
            "p1-p3 [p2=B]",
            "p2-p3 [p1=A]",
            "p2-p3 [p1=B]",
        ]

    def test_fixed_combinations_fan_out_per_menu(self):
        game = make_game(
            ["p1", "p2", "p3"],
            {"p1": ["A", "B"], "p2": ["A", "B"], "p3": ["X", "Y", "Z"]},
            {},
        )
        tasks = build_task_set(game)
        # (p1,p2) fans over p3's three decisions; the other pairs over two.
        assert len(tasks) == 3 + 2 + 2
        assert [t.describe() for t in tasks[:3]] == [
            "p1-p2 [p3=X]",
            "p1-p2 [p3=Y]",
            "p1-p2 [p3=Z]",
        ]

    def test_enumeration_is_deterministic(self, three_player):
        assert build_task_set(three_player) == build_task_set(three_player)


class TestPairView:
    def test_outcome_indices_are_view_major(self, three_player):
        tasks = build_task_set(three_player)
        assert slice_indices(three_player, tasks[0]) == (0, 2, 4, 6)
        assert slice_indices(three_player, tasks[1]) == (1, 3, 5, 7)
        # (p2, p3) with p1=B: contiguous block, p2-major.
        assert slice_indices(three_player, tasks[5]) == (4, 5, 6, 7)

    def test_outcome_indices_match_the_row_major_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            players = [f"p{i + 1}" for i in range(int(rng.integers(2, 5)))]
            menus = {p: [f"d{k}" for k in range(int(rng.integers(1, 4)))] for p in players}
            n = int(np.prod([len(m) for m in menus.values()]))
            game = make_game(players, menus, uniform_payoffs(players, n))
            for task in build_task_set(game):
                assert slice_indices(game, task) == reference_slice_indices(game, task)

    def test_unknown_fixed_label_is_rejected(self, three_player):
        task = InteractionTask("p1", "p2", (("p3", "Q"),))
        with pytest.raises(PreconditionError, match="unknown decision label 'Q'"):
            slice_indices(three_player, task)

    def test_slices_renormalize(self, three_player):
        view = pair_view(three_player, build_task_set(three_player)[0])
        assert view.players == ("p1", "p2")
        assert view.decisions == (("A", "B"), ("A", "B"))
        v1 = view.payoffs["p1"]
        np.testing.assert_allclose(v1, np.array([0.46, 0.04, 0.05, 0.05]) / 0.6)
        for p in view.players:
            np.testing.assert_allclose(view.payoffs[p].sum(), 1.0)

    def test_zero_mass_slice_is_rejected(self):
        game = make_game(
            ["p1", "p2", "p3"],
            {p: ["A", "B"] for p in ("p1", "p2", "p3")},
            {
                "p1": [0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0],
                "p2": [0.125] * 8,
                "p3": [0.125] * 8,
            },
        )
        # p3=B selects exactly p1's zero entries.
        task = build_task_set(game)[1]
        with pytest.raises(PreconditionError, match="cannot renormalize"):
            pair_view(game, task)

    def test_missing_vector_stays_unknown(self, stalled_three_player):
        view = pair_view(stalled_three_player, build_task_set(stalled_three_player)[0])
        assert view.payoffs["p2"] is None

    def test_payoff_override_replaces_the_source(self, three_player):
        task = build_task_set(three_player)[0]
        override = {p: np.full(8, 0.125) for p in ("p1", "p2")}
        view = pair_view(three_player, task, payoffs=override)
        for p in view.players:
            np.testing.assert_allclose(view.payoffs[p], 0.25)


class TestAgainstSet:
    def test_coordination_views_pass_the_gate(self, three_player):
        for task in build_task_set(three_player):
            assert against_set(pair_view(three_player, task))

    def test_dominance_solvable_view_fails_the_gate(self):
        # Both slices of the (p1, p2) interaction are strict-dominance games
        # with a unique equilibrium, so the pair is not against each other.
        game = make_game(
            ["p1", "p2", "p3"],
            {p: ["A", "B"] for p in ("p1", "p2", "p3")},
            {
                "p1": [0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.05, 0.05],
                "p2": [0.2, 0.2, 0.1, 0.1, 0.15, 0.15, 0.05, 0.05],
                "p3": [0.125] * 8,
            },
        )
        for task in build_task_set(game)[:2]:
            assert not against_set(pair_view(game, task))

    def test_gate_needs_true_payoffs(self, stalled_three_player):
        view = pair_view(stalled_three_player, build_task_set(stalled_three_player)[0])
        with pytest.raises(PreconditionError, match="p2"):
            against_set(view)


class TestRunPipelinePreconditions:
    def test_unknown_main_player(self, chicken):
        with pytest.raises(PreconditionError, match="main player"):
            run_pipeline(chicken, main_player="p9")

    def test_main_must_be_known(self, chicken):
        with pytest.raises(PreconditionError, match="must be known"):
            run_pipeline(chicken, main_player="p1", known_players=("p2",))

    def test_known_player_needs_a_vector(self, stalled_three_player):
        with pytest.raises(PreconditionError, match="no payoff vector"):
            run_pipeline(stalled_three_player, known_players=("p1", "p2"))

    @pytest.mark.parametrize("tol", [float("nan"), -0.5])
    def test_comparison_tol_is_checked_before_training(self, three_player, monkeypatch, tol):
        def no_training(*args):
            raise AssertionError("a task trained")

        monkeypatch.setattr("celab.pipeline.train_pair", no_training)
        with pytest.raises(PreconditionError, match="comparison tolerance"):
            run_pipeline(three_player, comparison_tol=tol)

    @pytest.mark.parametrize("seed", [True, False, -1], ids=repr)
    def test_seed_is_checked_before_training(self, three_player, monkeypatch, seed):
        # a bool is not the seed 1 or 0
        def no_training(*args):
            raise AssertionError("a task trained")

        monkeypatch.setattr("celab.pipeline.train_pair", no_training)
        with pytest.raises(PreconditionError, match="^seed must be (an integer|>= 0), got "):
            run_pipeline(three_player, seed=seed)


class TestViewsThatAreNot2x2:
    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a task trained")

        monkeypatch.setattr("celab.pipeline.train_pair", no_training)

    def test_a_task_that_would_train_on_one_is_refused(self, three_by_two_game):
        # the estimator reads 2x2 views only, so training task 0's 3x2 view
        # would be wasted
        message = (
            "task p1-p2 [p3=A] would train on a view with menus (('A', 'B', 'C'), ('A', 'B'))"
        )
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}"):
            run_pipeline(game_from_dict(three_by_two_game))

    def test_views_that_are_not_against_are_still_skipped(self, three_by_two_game):
        result = run_pipeline(game_from_dict(three_by_two_game), known_players=("p1", "p2"))
        assert result.status == "complete"
        statuses = [r.status for r in result.records]
        assert statuses == ["analytic_ce"] * 2 + ["skipped_not_against"] * 5
        assert validate_manifest(result.manifest()) == []

    def test_a_pair_of_one_label_players_is_solved(self):
        # their CE program has no deviation rows
        game = make_game(
            ["p1", "p2", "p3"],
            [["A"], ["B"], ["C", "D"]],
            {"p1": [0.5, 0.5], "p2": [0.5, 0.5], "p3": [0.25, 0.75]},
        )
        result = run_pipeline(game, known_players=("p1", "p2", "p3"))
        assert result.status == "complete"
        assert [r.status for r in result.records] == ["analytic_ce"] * 4
        assert [(c.task_index, c.welfare) for c in result.ce_records[:2]] == [(0, 2.0), (1, 2.0)]
        assert all(c.ce_ok for c in result.ce_records)
        assert validate_manifest(result.manifest()) == []


@pytest.fixture(scope="module")
def analytic_run(request):
    coordination = request.getfixturevalue("coordination")
    return run_pipeline(coordination, known_players=("p1", "p2"), seed=7)


class TestAnalyticPath:
    def test_fully_known_pair_skips_training(self, analytic_run):
        assert analytic_run.status == "complete"
        assert analytic_run.passes == 1
        (record,) = analytic_run.records
        assert record.status == "analytic_ce"
        assert record.detail == {}

    def test_ce_is_computed_and_checked(self, analytic_run):
        (ce,) = analytic_run.ce_records
        assert ce.source == "analytic"
        assert ce.ce_ok
        np.testing.assert_allclose(ce.distribution.sum(), 1.0)
        assert ce.welfare > 0.0

    def test_manifest_round_trips_and_validates(self, analytic_run):
        manifest = json.loads(json.dumps(analytic_run.manifest()))
        assert validate_manifest(manifest) == []
        assert manifest["knowledge"]["p1"]["provenance"] == "given"
        assert manifest["knowledge"]["p2"]["provenance"] == "given"

    def test_repeat_run_is_identical(self, analytic_run, coordination):
        again = run_pipeline(coordination, known_players=("p1", "p2"), seed=7)
        assert json.dumps(again.manifest(), sort_keys=True) == json.dumps(
            analytic_run.manifest(), sort_keys=True
        )


class TestOrientation:
    def test_known_player_on_the_minor_axis(self, three_player):
        # Standalone copy of the fixture's (p1, p2 | p3=A) view, with the
        # second player the known one, so the estimator sees swapped axes.
        task = build_task_set(three_player)[0]
        game = pair_view(three_player, task)
        result = run_pipeline(
            game,
            main_player="p2",
            known_players=("p2",),
            config=PIPELINE_CFG,
            seed=0,
        )
        assert result.status == "complete"
        (record,) = result.records
        assert record.status == "trained_estimated"
        assert record.detail["known_player"] == "p2"
        assert record.detail["estimated_player"] == "p1"
        estimated = result.knowledge["p1"]
        assert estimated.provenance == "estimated"
        np.testing.assert_allclose(estimated.values.sum(), 1.0, atol=1e-9)
        assert (estimated.values >= -1e-12).all()
        (ce,) = result.ce_records
        assert ce.source == "post_estimation"
        assert ce.ce_ok
        assert validate_manifest(result.manifest()) == []


@pytest.fixture(scope="module")
def stalled_run(request):
    game = request.getfixturevalue("stalled_three_player")
    return run_pipeline(game, known_players=("p1",), config=PIPELINE_CFG, seed=0)


class TestStalledRun:
    def test_partial_status_and_stalled_indices(self, stalled_run):
        assert stalled_run.status == "partial"
        assert [r.index for r in stalled_run.stalled_tasks] == [0, 1, 4, 5]

    def test_simulatable_tasks_still_process(self, stalled_run):
        statuses = [r.status for r in stalled_run.records]
        assert statuses[2] == "trained_estimated"
        assert statuses[3] == "trained_estimated"
        assert stalled_run.knowledge["p3"].provenance == "estimated"
        assert "p1-p3" in stalled_run.knowledge["p3"].source
        assert stalled_run.knowledge["p2"] is None

    def test_no_task_left_pending(self, stalled_run):
        assert all(r.status != "pending" for r in stalled_run.records)
        assert stalled_run.passes >= 2

    def test_task_seeds_derive_from_the_root_seed(self, stalled_run):
        expected = int(
            np.random.SeedSequence(0, spawn_key=(2, 2)).generate_state(1)[0]
        )
        assert stalled_run.records[2].detail["seed"] == expected

    def test_post_estimation_sweep_covers_completed_pairs(self, stalled_run):
        assert [c.task_index for c in stalled_run.ce_records] == [2, 3]
        assert all(c.source == "post_estimation" for c in stalled_run.ce_records)
        assert all(c.ce_ok for c in stalled_run.ce_records)

    def test_manifest_validates_partial_runs(self, stalled_run):
        manifest = json.loads(json.dumps(stalled_run.manifest()))
        assert validate_manifest(manifest) == []
        assert manifest["stalled_tasks"] == [0, 1, 4, 5]
        assert manifest["knowledge"]["p2"] == {"provenance": "unknown", "vector": None}

    def test_manifest_provenance_is_the_trained_slices(self, stalled_run):
        # tasks 2 and 3 complete p3's slices from pair p1-p3
        manifest = json.loads(json.dumps(stalled_run.manifest()))
        source = manifest["knowledge"]["p3"]["source"]
        manifest["knowledge"]["p3"]["source"] = "slices from pair p2-p3"
        assert validate_manifest(manifest) == [
            f"p3: source is not {source!r}, which the tasks give"
        ]
        manifest["knowledge"]["p3"] = {"provenance": "unknown", "vector": None}
        assert "p3: provenance 'unknown', but the trained tasks complete its slices" in (
            validate_manifest(manifest)
        )

    def test_manifest_digest(self, stalled_run):
        # sha256 of the sorted-key manifest, recorded with numpy 2.4 on
        # OpenBLAS: pins the stalled tasks and the post-estimation sweep
        text = json.dumps(stalled_run.manifest(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ed46f84b14f1cd14aabb948722fd539cafa196d1db03f7aa08d915d853112575"
        )


@pytest.fixture(scope="module")
def good_manifest(request):
    coordination = request.getfixturevalue("coordination")
    run = run_pipeline(coordination, known_players=("p1", "p2"), seed=7)
    return json.loads(json.dumps(run.manifest()))


def corrupted(manifest, mutate):
    broken = copy.deepcopy(manifest)
    mutate(broken)
    return validate_manifest(broken)


class TestValidateManifest:
    def test_clean_manifest_has_no_findings(self, good_manifest):
        assert validate_manifest(good_manifest) == []

    def test_missing_key(self, good_manifest):
        findings = corrupted(good_manifest, lambda m: m.pop("seed"))
        assert any("seed" in f for f in findings)

    def test_status_stall_consistency(self, good_manifest):
        findings = corrupted(good_manifest, lambda m: m["stalled_tasks"].append(0))
        assert findings == ["stalled_tasks is not [], the stalled tasks' indices"]
        findings = corrupted(
            good_manifest, lambda m: m.update(status="partial")
        )
        assert findings == ["status is not 'complete', which the task statuses give"]

    def test_unknown_status(self, good_manifest):
        findings = corrupted(good_manifest, lambda m: m.update(status="done"))
        assert findings == ["status is not 'complete', which the task statuses give"]

    def test_main_player_membership(self, good_manifest):
        findings = corrupted(good_manifest, lambda m: m.update(main_player="p9"))
        assert any("not among players" in f for f in findings)

    def test_knowledge_provenance_rules(self, good_manifest):
        findings = corrupted(
            good_manifest,
            lambda m: m["knowledge"]["p2"].update(provenance="guessed"),
        )
        assert any("unknown provenance" in f for f in findings)

        def unknown_with_vector(m):
            m["knowledge"]["p2"]["provenance"] = "unknown"

        findings = corrupted(good_manifest, unknown_with_vector)
        assert any("vector is present" in f for f in findings)

        def known_without_vector(m):
            m["knowledge"]["p2"]["vector"] = None

        findings = corrupted(good_manifest, known_without_vector)
        assert any("no vector" in f for f in findings)

    def test_main_vector_must_be_given(self, good_manifest):
        def estimated_main(m):
            m["knowledge"]["p1"]["provenance"] = "estimated"

        findings = corrupted(good_manifest, estimated_main)
        assert any("not marked given" in f for f in findings)

    def test_vector_must_be_a_distribution(self, good_manifest):
        def scale(m):
            m["knowledge"]["p2"]["vector"] = [0.5, 0.5, 0.5, 0.5]

        findings = corrupted(good_manifest, scale)
        assert any("not a distribution" in f for f in findings)

    def test_nan_vector_is_not_a_distribution(self, good_manifest):
        def nan_entry(m):
            m["knowledge"]["p2"]["vector"][0] = float("nan")

        findings = corrupted(good_manifest, nan_entry)
        assert any(f.startswith("p2: vector is not a distribution") for f in findings)

    def test_task_indices_unique_and_resolved(self, good_manifest):
        def dup(m):
            m["tasks"].append(dict(m["tasks"][0]))

        findings = corrupted(good_manifest, dup)
        assert "the manifest lists 2 tasks; the game makes 1" in findings
        assert "task 1: index 0 is not its position" in findings

        def pending(m):
            m["tasks"][0]["status"] = "pending"

        findings = corrupted(good_manifest, pending)
        assert any("invalid status" in f for f in findings)

        def unlisted_stall(m):
            m["tasks"][0]["status"] = "stalled"
            m["status"] = "partial"

        findings = corrupted(good_manifest, unlisted_stall)
        assert "stalled_tasks is not [0], the stalled tasks' indices" in findings
        # a stalled task gets no CE result
        assert ("ce results are not those the task statuses and knowledge give: none"
                in findings)

        def ghost_stall(m):
            m["status"] = "partial"
            m["stalled_tasks"] = [99]

        findings = corrupted(good_manifest, ghost_stall)
        assert "stalled_tasks is not [], the stalled tasks' indices" in findings

    def test_a_game_of_many_players_is_judged_without_fanning_out(self, good_manifest):
        # 40 players of two labels make 780 pairs of 2**38 tasks each
        def many_players(m):
            m["players"] = [f"q{i}" for i in range(40)]
            m["decisions"] = {p: ["A", "B"] for p in m["players"]}

        findings = corrupted(good_manifest, many_players)
        assert "the manifest lists 1 tasks; the game makes more than 1" in findings

    def test_nan_ce_distribution_is_not_a_distribution(self, good_manifest):
        def nan_dist(m):
            m["ce_results"][0]["distribution"][0] = float("nan")

        findings = corrupted(good_manifest, nan_dist)
        assert any("not a distribution" in f for f in findings)

    def test_ce_results_are_cross_checked(self, good_manifest):
        def ghost_task(m):
            m["ce_results"][0]["task_index"] = 42

        findings = corrupted(good_manifest, ghost_task)
        assert any("unknown task" in f for f in findings)

        def broken_dist(m):
            m["ce_results"][0]["distribution"] = [0.7, 0.7]

        findings = corrupted(good_manifest, broken_dist)
        assert any("not a distribution" in f for f in findings)

        def failed_check(m):
            m["ce_results"][0]["is_ce"] = False

        findings = corrupted(good_manifest, failed_check)
        assert findings == ["ce result for task 0: is_ce is not true"]


def test_interaction_task_is_hashable():
    t = InteractionTask("p1", "p2", (("p3", "A"),))
    assert t in {t}
    assert t.pair == ("p1", "p2")


def test_one_slicing_moves_the_full_game_ce():
    # What stitching loses even from exact slices: in 1,000 random 2x2x2
    # games with p1 known, p2's and p3's vectors are put together from
    # their exact renormalized p1-pair slices with the pipeline's equal
    # weights. The assembled game's max-welfare CE is compared with the true
    # game's, which HiGHS solves. The slices do not carry the mass each
    # holds of the full vector, so the CE moves, and is often not a CE of
    # the true game.
    scipy_opt = pytest.importorskip("scipy.optimize")
    players = ("p1", "p2", "p3")
    moved = not_ce = 0
    violations, losses = [], []
    for s in range(1000):
        rng = np.random.default_rng(s)
        u = [v / v.sum() for v in (rng.random(8) for _ in players)]
        truth = make_game(players, [["a", "b"]] * 3, dict(zip(players, u)))
        assembled = {"p1": u[0]}
        for unknown in ("p2", "p3"):
            tasks = [t for t in build_task_set(truth) if t.pair == ("p1", unknown)]
            full = np.zeros(8)
            for task in tasks:
                full[list(slice_indices(truth, task))] = (
                    pair_view(truth, task).payoff(unknown) / len(tasks)
                )
            assembled[unknown] = full
        lp = correlated_equilibrium_program(truth)
        ref = scipy_opt.linprog(
            -lp.objective, A_ub=lp.ineq_rows, b_ub=lp.ineq_rhs,
            A_eq=lp.eq_rows, b_eq=lp.eq_rhs, method="highs",
        )
        ce = max_welfare_correlated_equilibrium(
            make_game(players, [["a", "b"]] * 3, assembled)
        ).distribution
        moved += bool(np.abs(ce - ref.x).max() > 1e-6)
        check = is_correlated_equilibrium(truth, ce)
        not_ce += not check.ok
        violations.append(check.max_violation)
        losses.append(-ref.fun - float(lp.objective @ ce))
    assert moved == 333
    assert not_ce == 181
    assert max(violations) == pytest.approx(0.0396, abs=5e-5)
    assert np.percentile(losses, 90) == pytest.approx(0.0195, abs=5e-5)
    assert max(losses) == pytest.approx(0.328, abs=5e-4)
