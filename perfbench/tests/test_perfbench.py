"""Tests of the benchmark itself: tracer coverage, determinism anchors,
correctness gates and deadlines.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from celab.equilibrium import CESolution  # noqa: E402
from celab.games import make_game  # noqa: E402
from perfbench import gates, runner  # noqa: E402
from perfbench.calibrate import HostSpeed  # noqa: E402
from perfbench.tracer import BOUNDARIES, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, Request  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# span names each workload must record, and layers it must never enter
EXERCISES = {
    "train_coord": {
        "training.train_pair", "training.update_policy", "training.adam_step",
        "training.shape_rewards", "env.rollout", "env.average_states",
        "env.apply_action", "policy.forward", "policy.gradients", "policy.loss_value",
    },
    "pipeline_3p": {
        "pipeline.run_pipeline", "training.train_pair", "env.rollout", "policy.forward",
        "estimation.estimate_payoff", "lp.solve_lp", "equilibrium.enumerate",
        "games.make_game",
    },
    "lp_mix": {
        "equilibrium.ce", "lp.solve_lp", "estimation.estimate_payoff", "games.make_game",
    },
    "lp_defects": {"equilibrium.ce", "lp.solve_lp"},
}
BYPASSES = {
    "train_coord": {"lp", "equilibrium", "estimation", "pipeline", "games"},
    "pipeline_3p": set(),
    "lp_mix": {"policy", "env", "training", "pipeline"},
    "lp_defects": {"policy", "env", "training", "pipeline", "estimation"},
}
# the workloads BENCHMARK.json lists, on which no operation may fail
GATED = [w["name"] for w in SPEC["workloads"]]


def _workload(name, seed, tmp_path):
    workload, _, failure = runner.set_up(name, ROOT, seed, tmp_path, time.perf_counter())
    assert failure is None
    return workload


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced pass over each workload's first operations."""
    runs = {}
    for name in WORKLOADS:
        workload = _workload(name, 0, tmp_path_factory.mktemp(name))
        tracer = Tracer()
        tracer.install()
        try:
            records = runner.measure(workload, 0.0, tracer)
        finally:
            tracer.uninstall()
        runs[name] = (tracer, records)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_covers_the_layers_each_workload_exercises(traced_runs, name):
    tracer, _ = traced_runs[name]
    counts = tracer.span_counts()
    missing = {span for span in EXERCISES[name] if counts.get(span, 0) == 0}
    assert not missing, f"{name} recorded no spans for {sorted(missing)}"
    leaked = {span for span in counts if span.split(".")[0] in BYPASSES[name]}
    assert not leaked, f"{name} should bypass {sorted(leaked)}"


def test_every_boundary_is_exercised_by_some_workload():
    names = {span for _, _, span in BOUNDARIES}
    assert names == set().union(*EXERCISES.values())


def test_tracer_restores_the_original_functions():
    import celab.policy
    import celab.training

    before = (celab.policy.forward, celab.training.forward, celab.training.train_pair)
    tracer = Tracer()
    tracer.install()
    assert celab.training.forward is not before[1]
    tracer.uninstall()
    assert (celab.policy.forward, celab.training.forward, celab.training.train_pair) == before


def test_train_pair_time_is_accounted_for_by_policy_env_and_training(traced_runs):
    tracer, records = traced_runs["train_coord"]
    metrics = tracer.layer_metrics({r.index: r.scale for r in records})
    assert metrics["training.accounted_share"] == pytest.approx(1.0)
    assert metrics["training.epochs"] == WORKLOADS["train_coord"].epochs
    assert metrics["policy.forward.calls"] > 0 and metrics["lp.solve_lp.calls"] == 0


def test_per_layer_metrics_match_benchmark_json(traced_runs):
    tracer, records = traced_runs["lp_mix"]
    produced = set(tracer.layer_metrics({r.index: r.scale for r in records}))
    produced |= set(runner.record_layer_metrics(records)) | {"trace.overhead_share"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    host = HostSpeed()
    host.scale()
    end_to_end = runner.end_to_end(records, [0.5], host)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", GATED)
def test_back_to_back_runs_with_one_seed_give_identical_anchors(name, tmp_path):
    anchors = []
    for attempt in range(2):
        workload = _workload(name, 3, tmp_path)
        records = runner.measure(workload, 0.0)
        assert [r.failure for r in records if r.failure] == []
        anchors.append(runner.anchors(records, workload.min_ops))
    assert anchors[0] and anchors[0] == anchors[1]


def test_only_lp_defects_holds_known_defect_requests(tmp_path):
    assert "lp_defects" in WORKLOADS and "lp_defects" not in GATED
    for name in WORKLOADS:
        workload = _workload(name, 0, tmp_path)
        requests = [workload.request(i) for i in range(workload.min_ops)]
        assert {r.known_defect for r in requests} == {name == "lp_defects"}


def test_anchors_depend_on_the_seed(tmp_path):
    found = []
    for seed in (1, 2):
        workload = _workload("train_coord", seed, tmp_path)
        found.append(runner.anchors(runner.measure(workload, 0.0), workload.min_ops))
    assert found[0]["history_csv"] != found[1]["history_csv"]


def _chicken():
    return make_game(
        ["p1", "p2"], [["a", "b"], ["a", "b"]],
        {"p1": [0.0, 0.2, 0.35, 0.45], "p2": [0.0, 0.35, 0.2, 0.45]},
    )


def test_ce_gate_rejects_a_non_equilibrium_and_a_wrong_optimum():
    from celab.equilibrium import max_welfare_correlated_equilibrium

    game = _chicken()
    good = max_welfare_correlated_equilibrium(game)
    assert gates.check_ce(game, good) is None
    off = CESolution(distribution=np.array([1.0, 0.0, 0.0, 0.0]), welfare=0.0, status="optimal")
    assert gates.check_ce(game, off).startswith("ce_check")
    low = CESolution(distribution=good.distribution, welfare=good.welfare - 0.1, status="optimal")
    assert gates.check_ce(game, low).startswith("highs_welfare")


def _request(call, deadline=0.05):
    return Request(index=0, kind="ce", size=2, deadline=deadline, units=1, call=call,
                   verify=lambda result: Outcome(units=1))


def test_deadline_and_exceptions_become_failures_not_crashes():
    class Once:
        min_ops = 2

        def request(self, index):
            if index == 0:
                def spin():
                    while True:
                        pass
                return _request(spin)
            return _request(lambda: 1 / 0)

    slow, broken = runner.measure(Once(), 0.0)
    assert slow.failure == "timeout" and slow.raw_ms == pytest.approx(50.0)
    assert broken.failure.startswith("raised ZeroDivisionError")


def test_lp_point_check_uses_the_original_rows():
    from celab.lp import LinearProgram

    lp = LinearProgram(objective=[1.0, 1.0], ineq_rows=[[1.0, 1.0]], ineq_rhs=[1.0],
                       bounds=[(0.0, 1.0), (0.0, 1.0)])
    assert gates.lp_point_violation(lp, [0.5, 0.5]) <= gates.ROW_TOL
    assert gates.lp_point_violation(lp, [0.75, 0.5]) == pytest.approx(0.25)
