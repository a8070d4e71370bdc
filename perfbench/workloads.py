"""The benchmark's workloads: inputs generated from a seed, and operations.

Each workload turns `--seed` into a stream of requests. A request carries a
`call`, the only part that is timed and the only part that runs celab code
under test, and a `verify`, which checks the output (see gates.py) and
collects counts and determinism anchors. Calls look celab functions up as
module attributes at call time, so the tracer's wrappers see them.

Why each workload exists is written down in perfbench/README.md.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import gates


@dataclass
class Outcome:
    """What verifying one operation found."""

    units: int  # work done: epochs trained, or 1 for an LP request
    failure: str | None = None
    counts: dict[str, float] = field(default_factory=dict)
    anchors: dict[str, str] = field(default_factory=dict)


@dataclass
class Request:
    index: int
    kind: str  # "train" | "pipeline" | "ce" | "estimate"
    size: int  # menu size n of the n x n game the request works on
    deadline: float  # seconds; a request still running then is a failure
    units: int  # work it is expected to do, which a failed request is charged
    call: Callable[[], Any]
    verify: Callable[[Any], Outcome]
    # known-defect requests may fail without making the run incorrect
    known_defect: bool = False


def op_seed(seed: int, index: int) -> int:
    """The seed handed to celab for operation `index` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class TrainCoord:
    """`celab train` path: train_pair on coordination_2x2, default config,
    a fixed number of epochs, one seed per operation."""

    name = "train_coord"
    uses_highs = False
    epochs = 5
    deadline = 30.0
    min_ops = 2  # also the operations the determinism anchors cover

    def __init__(self, root: Path, seed: int, workdir: Path):
        from celab.games import load_game
        from celab.training import TrainingConfig

        self.seed = seed
        self.workdir = workdir
        self.game = load_game(root / "fixtures" / "coordination_2x2.json")
        self.pair = tuple(self.game.players)
        # a stability window longer than the epoch cap disables the early stop
        self.config = TrainingConfig(epochs=self.epochs, stability_window=self.epochs + 1)
        self.warm_config = TrainingConfig(epochs=1, stability_window=2)

    def warmup(self) -> None:
        from celab import training

        training.train_pair(self.game, self.pair, self.warm_config, self.seed)

    def request(self, index: int) -> Request:
        from celab import training

        seed = op_seed(self.seed, index)
        return Request(
            index=index,
            kind="train",
            size=2,
            deadline=self.deadline,
            units=self.epochs,
            call=lambda: training.train_pair(self.game, self.pair, self.config, seed),
            verify=lambda result: self._verify(index, result),
        )

    def _verify(self, index: int, result) -> Outcome:
        from celab.training import write_history_csv

        out = Outcome(units=result.epochs_run, failure=gates.check_training(result, self.epochs))
        path = self.workdir / f"history_{index}.csv"
        write_history_csv(result, path)
        out.anchors["history_csv"] = gates.digest(path.read_bytes())
        path.unlink()
        out.anchors["p_tilde"] = gates.digest(result.p_tilde)
        return out


class Pipeline3P:
    """`celab pipeline` path: run_pipeline on three_player with p1 known,
    a fixed number of epochs per trained task, one seed per operation."""

    name = "pipeline_3p"
    uses_highs = False
    # One epoch per task keeps an operation as short as a train_coord one
    # (about 0.15 s); at 3 epochs the 75th percentile swung by 14% between
    # runs, as host-speed changes fell inside single operations.
    epochs = 1
    known_tasks = 4  # tasks with p1 in them; they always train
    deadline = 60.0
    min_ops = 1

    def __init__(self, root: Path, seed: int, workdir: Path):
        from celab.games import load_game
        from celab.training import TrainingConfig

        self.seed = seed
        self.game = load_game(root / "fixtures" / "three_player.json")
        self.config = TrainingConfig(epochs=self.epochs, stability_window=self.epochs + 1)

    def _run(self, config, seed):
        from celab import pipeline

        return pipeline.run_pipeline(
            self.game, main_player="p1", known_players=("p1",), config=config, seed=seed
        )

    def warmup(self) -> None:
        self._run(self.config, self.seed)

    def request(self, index: int) -> Request:
        seed = op_seed(self.seed, index)
        return Request(
            index=index,
            kind="pipeline",
            size=2,
            deadline=self.deadline,
            units=self.epochs * self.known_tasks,
            call=lambda: self._run(self.config, seed),
            verify=self._verify,
        )

    def _verify(self, result) -> Outcome:
        manifest = result.manifest()
        failure, text = gates.check_manifest(manifest)
        out = Outcome(units=0, failure=failure)
        counts = out.counts
        for status in ("trained_estimated", "analytic_ce", "skipped_not_against",
                       "estimation_infeasible", "stalled"):
            counts[f"tasks.{status}"] = 0
        counts.update(passes=result.passes, estimates=0, estimates_ok=0)
        for record in result.records:
            counts[f"tasks.{record.status}"] += 1
            epochs = record.detail.get("epochs_run")
            if epochs is None:
                continue
            out.units += epochs
            if epochs != self.epochs and out.failure is None:
                out.failure = f"task_epochs: task {record.index} trained {epochs} epochs"
            counts["estimates"] += 1
            counts["estimates_ok"] += record.detail["estimation"]["status"] == "ok"
        errors = [
            float(np.abs(entry.values - self.game.payoffs[p]).max())
            for p, entry in result.knowledge.items()
            if entry is not None and entry.provenance == "estimated"
        ]
        if errors:
            counts["linf_vs_truth"] = max(errors)
        out.anchors["manifest"] = gates.digest(text)
        out.anchors["ce_distributions"] = gates.digest(
            *[c.distribution for c in result.ce_records]
        )
        return out


def _pure_nash_count(u1: np.ndarray, u2: np.ndarray) -> int:
    return sum(
        u1[i, j] >= u1[1 - i, j] and u2[i, j] >= u2[i, 1 - j]
        for i in range(2)
        for j in range(2)
    )


# the 56 ways to pick 3 of the 8 CE inequalities of a 2x2 game
_TIGHT_SETS = np.array(list(itertools.combinations(range(8), 3)))


def _max_welfare_ce_2x2(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Welfare-maximal CE of a 2x2 game by enumerating the polytope's
    vertices: any 3 of the 8 inequalities tight, plus the simplex row.
    Written here so the inputs do not depend on the LP under test."""
    incentive = np.zeros((4, 2, 2))
    for a in range(2):
        incentive[a, a, :] = u1[a, :] - u1[1 - a, :]
        incentive[2 + a, :, a] = u2[:, a] - u2[:, 1 - a]
    g = np.vstack([incentive.reshape(4, 4), np.eye(4)])  # g @ x >= 0
    systems = np.concatenate(
        [g[_TIGHT_SETS], np.ones((len(_TIGHT_SETS), 1, 4))], axis=1)
    regular = np.abs(np.linalg.det(systems)) > 1e-12
    rhs = np.broadcast_to([0.0, 0.0, 0.0, 1.0], (int(regular.sum()), 4))
    vertices = np.linalg.solve(systems[regular], rhs[..., None])[..., 0]
    vertices = vertices[np.all(vertices @ g.T >= -1e-12, axis=1)]
    x = np.maximum(vertices[np.argmax(vertices @ (u1 + u2).ravel())], 0.0)
    return x / x.sum()


def _simplex_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.random(size)
    return v / v.sum()


class LPMix:
    """LP-heavy requests on generated two-player games: max-welfare CE
    solves on 2x2 games and estimate_payoff on 2x2 games with two pure
    equilibria, from exact and from noisy CE distributions."""

    name = "lp_mix"
    uses_highs = True  # the CE gate compares welfare with scipy's HiGHS
    # Generous against host stalls: a 2x2 request takes about 1-3 ms.
    deadline = 5.0
    # One block of requests, shuffled: CE solves by menu size, then exact
    # and noisy estimates. Only 2x2 CE programs are here, because on every
    # larger size the dense simplex gives some wrong answers (2 in 10000 on
    # 3x3, 1.5% on 4x4), and a workload the benchmark gates on must have no
    # failing operation. Those sizes are in lp_defects below.
    # A CE solve takes about 0.3 ms and an estimate 1-1.7 ms. With 20 of 32
    # requests CE solves, work_ms.p50 falls inside the CE times and p75
    # inside the estimate times, not in the gap between them.
    ce_sizes = (2,) * 20
    estimates_per_kind = 6
    noise = 0.002
    pool_blocks = 64  # later requests repeat the pool
    # a request failing here is expected, and does not make the run incorrect
    ce_known_defect = False

    def __init__(self, root: Path, seed: int, workdir: Path):
        self._rng = np.random.default_rng(seed)
        self._block = [("ce", n) for n in self.ce_sizes]
        self._block += [("estimate", exact) for exact in (True, False)
                        for _ in range(self.estimates_per_kind)]
        self.min_ops = len(self._block)  # also the requests the anchors cover
        # The pool is made one block at a time, as requests reach it, so
        # that set-up time does not hold the generation of later blocks.
        # Blocks come from one generator in order, so a seed's pool does
        # not depend on when they are made.
        self.pool: list[tuple] = []
        self._extend_pool()
        kinds = dict.fromkeys(kind for kind, _ in self._block)
        self.warm = [next(item for item in self.pool if item[0] == kind) for kind in kinds]

    def _extend_pool(self) -> None:
        rng = self._rng
        for k in rng.permutation(len(self._block)):
            kind, arg = self._block[k]
            if kind == "ce":
                self.pool.append(("ce", arg, self._ce_game(rng, arg)))
            else:
                self.pool.append(("estimate", 2, self._estimate_input(rng, arg)))

    @staticmethod
    def _ce_game(rng, n):
        from celab.games import make_game

        menu = [f"a{i + 1}" for i in range(n)]
        return make_game(
            ["p1", "p2"], [menu, menu],
            {"p1": _simplex_vector(rng, n * n), "p2": _simplex_vector(rng, n * n)},
        )

    def _estimate_input(self, rng, exact):
        while True:
            u1, u2 = _simplex_vector(rng, 4), _simplex_vector(rng, 4)
            if _pure_nash_count(u1.reshape(2, 2), u2.reshape(2, 2)) >= 2:
                break
        p = _max_welfare_ce_2x2(u1.reshape(2, 2), u2.reshape(2, 2))
        if not exact:
            p = np.maximum(p + rng.normal(0.0, self.noise, 4), 0.0)
            p = p / p.sum()
        return u1, p, u2

    def warmup(self) -> None:
        for kind, size, payload in self.warm:
            self._call(kind, payload)()

    @staticmethod
    def _call(kind, payload):
        from celab import equilibrium, estimation

        if kind == "ce":
            return lambda: equilibrium.max_welfare_correlated_equilibrium(payload)
        v_main, p, _ = payload
        return lambda: estimation.estimate_payoff(v_main, p)

    def request(self, index: int) -> Request:
        index_in_pool = index % (self.pool_blocks * len(self._block))
        while index_in_pool >= len(self.pool):
            self._extend_pool()
        kind, size, payload = self.pool[index_in_pool]
        verify = (
            (lambda result: self._verify_ce(payload, result)) if kind == "ce"
            else (lambda result: self._verify_estimate(payload, result))
        )
        return Request(
            index=index,
            kind=kind,
            size=size,
            deadline=self.deadline,
            units=1,
            call=self._call(kind, payload),
            verify=verify,
            known_defect=kind == "ce" and self.ce_known_defect,
        )

    @staticmethod
    def _verify_ce(game, solution) -> Outcome:
        out = Outcome(units=1, failure=gates.check_ce(game, solution))
        out.anchors["ce_distributions"] = gates.digest(solution.distribution)
        return out

    @staticmethod
    def _verify_estimate(payload, result) -> Outcome:
        v_main, _, truth = payload
        out = Outcome(units=1, failure=gates.check_estimate(v_main, result))
        out.counts.update(estimates=1, estimates_ok=int(result.status == "ok"))
        if result.status == "ok":
            out.counts["linf_vs_truth"] = float(np.abs(result.estimate - truth).max())
            if result.round_trip is not None:
                out.counts["round_trip_linf"] = result.round_trip.l_inf
            out.anchors["estimates"] = gates.digest(result.estimate)
        else:
            out.anchors["estimates"] = gates.digest(result.status, *result.violated)
        return out


class LPDefects(LPMix):
    """Max-welfare CE solves on random n x n games, n = 3..6, where the
    dense simplex is known to fail: a false "optimal", a wrong optimum, a
    raised deviation check, or minutes of pivoting. It shows the defect
    (fail_share > 0) and the time of large programs; BENCHMARK.json does not
    list it, because its operations fail."""

    name = "lp_defects"
    deadline = 0.5
    # shares picked so that upper percentiles fall where many samples lie
    ce_sizes = (3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 6)
    estimates_per_kind = 0
    pool_blocks = 128
    ce_known_defect = True


WORKLOADS = {cls.name: cls for cls in (TrainCoord, Pipeline3P, LPMix, LPDefects)}
