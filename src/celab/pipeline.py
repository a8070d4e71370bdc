"""Pairwise estimation pipeline for games with more than two players.

The pipeline decomposes an I-player game into two-player interactions: one
task per unordered player pair per combination of the remaining players'
decisions. Tasks whose pair has exactly one known payoff vector are trained
in self-play and the unknown side estimated from the stable distribution;
tasks whose pair is fully known settle without interaction. Estimated slices
are stitched back into full payoff vectors, which unlocks further tasks, until
the queue drains or a full pass makes no progress (a stall, reported as a
partial result). Then every settled task whose pair is fully known gets its
correlated equilibrium computed and checked.

The game object carries the simulation ground truth for every player that can
act; `known_players` declares which of those vectors the estimator is given.
Everything else must be recovered through interactions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .equilibrium import (
    enumerate_equilibria,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
)
from .errors import InvalidGameError, PreconditionError
from .estimation import COMPARISON_TOL, estimate_payoff, estimation_report, known_major_order
from .games import Game, make_game
from .inputs import integer, real, simplex_vector
from .training import TrainingConfig, require_seed, task_seed, train_pair

SLICE_MASS_TOL = 1e-9

TASK_STATUSES = frozenset(
    {
        "pending",
        "trained_estimated",
        "estimation_infeasible",
        "analytic_ce",
        "skipped_not_against",
        "stalled",
    }
)


@dataclass(frozen=True)
class InteractionTask:
    """One pairwise interaction: an unordered player pair plus the decisions
    every other player is held at. `player_a` precedes `player_b` in the
    game's player order, so the induced view is a-major."""

    player_a: str
    player_b: str
    fixed_decisions: tuple[tuple[str, str], ...]

    @property
    def pair(self) -> tuple[str, str]:
        return (self.player_a, self.player_b)

    def describe(self) -> str:
        fixed = ", ".join(f"{p}={d}" for p, d in self.fixed_decisions)
        core = f"{self.player_a}-{self.player_b}"
        return f"{core} [{fixed}]" if fixed else core


def _fan_out(game: Game) -> Iterator[InteractionTask]:
    """`build_task_set`'s tasks one at a time, so a reader can stop early."""
    for a, b in itertools.combinations(game.players, 2):
        others = [p for p in game.players if p != a and p != b]
        menus = [game.decisions[game.players.index(p)] for p in others]
        for combo in itertools.product(*menus):
            yield InteractionTask(a, b, tuple(zip(others, combo)))


def build_task_set(game: Game) -> list[InteractionTask]:
    """All interaction tasks of a game, in deterministic order.

    Pairs are enumerated in player order; for each pair the remaining
    players' decision combinations fan out row-major.
    """
    return list(_fan_out(game))


def slice_indices(game: Game, task: InteractionTask) -> tuple[int, ...]:
    """Flat outcome indices matching a task's fixed decisions, in view order
    (player_a-major, player_b-minor)."""
    fixed = dict(task.fixed_decisions)
    menus = [[fixed[p]] if p in fixed else menu for p, menu in zip(game.players, game.decisions)]
    return tuple(game.outcome_index(combo) for combo in itertools.product(*menus))


def _renormalized_slice(
    full, indices: tuple[int, ...], task: InteractionTask, what: str
) -> np.ndarray:
    """`full` restricted to a view's outcomes and rescaled onto the simplex."""
    v = np.asarray(full, dtype=np.float64)[list(indices)]
    total = float(v.sum())
    if total <= SLICE_MASS_TOL:
        raise PreconditionError(
            f"{what} on view {task.describe()} is {total}; cannot renormalize"
        )
    return v / total


def pair_view(
    game: Game,
    task: InteractionTask,
    payoffs: Mapping[str, np.ndarray | None] | None = None,
) -> Game:
    """The two-player game a task induces: the pair's menus, with each
    payoff vector sliced to the task's outcomes and renormalized.

    `payoffs` overrides the source of full vectors (for knowledge-base views);
    by default the game's own vectors are sliced. Missing vectors stay None.
    """
    source = game.payoffs if payoffs is None else payoffs
    indices = slice_indices(game, task)
    sliced = {
        p: None
        if source.get(p) is None
        else _renormalized_slice(source[p], indices, task, f"payoff mass of {p!r}")
        for p in task.pair
    }
    menus = [game.decisions[game.players.index(p)] for p in task.pair]
    return make_game(task.pair, menus, sliced)


def against_set(view: Game) -> bool:
    """Whether the pair of a view (true payoffs) would bother interacting:
    it must admit at least two equilibria, otherwise play collapses onto the
    single prediction and the interaction reveals nothing. An unknown payoff
    raises PreconditionError."""
    return len(enumerate_equilibria(view)) >= 2


def _task_entry(task: InteractionTask) -> dict:
    """How a manifest names a task, in its task list and in its CE results."""
    return {"players": list(task.pair), "fixed": dict(task.fixed_decisions)}


@dataclass
class KnownVector:
    values: np.ndarray
    provenance: str  # "given" | "estimated"
    source: str = ""


@dataclass
class TaskRecord:
    index: int
    task: InteractionTask
    status: str = "pending"
    detail: dict = field(default_factory=dict)


@dataclass
class CERecord:
    task_index: int
    source: str  # "analytic" (settled without training) | "post_estimation"
    distribution: np.ndarray
    welfare: float
    ce_ok: bool
    max_violation: float


@dataclass
class PipelineResult:
    status: str  # "complete" | "partial"
    main_player: str
    seed: int
    config: TrainingConfig
    game: Game
    records: list[TaskRecord]
    ce_records: list[CERecord]
    knowledge: dict[str, KnownVector | None]
    passes: int

    @property
    def stalled_tasks(self) -> list[TaskRecord]:
        return [r for r in self.records if r.status == "stalled"]

    def manifest(self) -> dict:
        knowledge = {}
        for p in self.game.players:
            entry = self.knowledge.get(p)
            if entry is None:
                knowledge[p] = {"provenance": "unknown", "vector": None}
            else:
                knowledge[p] = {
                    "provenance": entry.provenance,
                    "vector": [float(x) for x in entry.values],
                    "source": entry.source,
                }
        return {
            "status": self.status,
            "main_player": self.main_player,
            "seed": self.seed,
            "passes": self.passes,
            "players": list(self.game.players),
            "decisions": {
                p: list(menu) for p, menu in zip(self.game.players, self.game.decisions)
            },
            "config": self.config.to_dict(),
            "knowledge": knowledge,
            "tasks": [
                {"index": r.index, **_task_entry(r.task), "status": r.status, "detail": r.detail}
                for r in self.records
            ],
            "ce_results": [
                {
                    "task_index": c.task_index,
                    **_task_entry(self.records[c.task_index].task),
                    "source": c.source,
                    "distribution": [float(x) for x in c.distribution],
                    "welfare": c.welfare,
                    "is_ce": c.ce_ok,
                    "max_violation": c.max_violation,
                }
                for c in self.ce_records
            ],
            "stalled_tasks": [r.index for r in self.stalled_tasks],
        }


def _ce_record(
    game: Game,
    knowledge: Mapping[str, KnownVector | None],
    record: TaskRecord,
    source: str,
) -> CERecord:
    known = {p: knowledge[p].values for p in record.task.pair}
    view = pair_view(game, record.task, payoffs=known)
    ce = max_welfare_correlated_equilibrium(view)
    check = is_correlated_equilibrium(view, ce.distribution)
    return CERecord(
        task_index=record.index,
        source=source,
        distribution=ce.distribution,
        welfare=ce.welfare,
        ce_ok=check.ok,
        max_violation=check.max_violation,
    )


def run_pipeline(
    game: Game,
    main_player: str | None = None,
    known_players: Sequence[str] | None = None,
    config: TrainingConfig | None = None,
    seed: int = 0,
    comparison_tol: float = COMPARISON_TOL,
    rotate_opponent: bool = False,
) -> PipelineResult:
    """Run the full pairwise estimation pipeline.

    Every task is either processed exactly once (trained and estimated,
    solved analytically, or skipped because the pair is not against each
    other) or reported stalled when a full pass over the queue makes no
    progress. Once the queue drains, a correlated equilibrium is computed for
    every settled task whose pair is fully known, each verified with the
    deviation check. A task that would train on a view that is not 2x2
    raises PreconditionError before it trains: estimation reads 2x2 views.
    """
    if main_player is None:
        main_player = game.players[0]
    if main_player not in game.players:
        raise PreconditionError(f"unknown main player {main_player!r}")
    if known_players is None:
        known_players = (main_player,)
    known_players = tuple(known_players)
    if main_player not in known_players:
        raise PreconditionError("the main player's payoff vector must be known")
    if config is None:
        config = TrainingConfig()
    # the checks of estimate_payoff and train_pair, made before any task trains
    real(comparison_tol, "comparison tolerance", non_negative=True)
    require_seed(seed)

    knowledge: dict[str, KnownVector | None] = {p: None for p in game.players}
    for p in known_players:
        if p not in game.players:
            raise PreconditionError(f"unknown player {p!r} in known_players")
        v = game.payoffs.get(p)
        if v is None:
            raise PreconditionError(
                f"player {p!r} is declared known but the game has no payoff vector"
            )
        knowledge[p] = KnownVector(values=np.asarray(v, dtype=np.float64), provenance="given")

    records = [TaskRecord(index=i, task=t) for i, t in enumerate(build_task_set(game))]
    # per (unknown player, partner pair): {task index: (indices, slice)}
    pieces: dict[tuple[str, tuple[str, str]], dict[int, tuple[tuple[int, ...], np.ndarray]]] = {}

    def settle(record: TaskRecord) -> str | None:
        """Process a task if what is known allows it; returns its final
        status, or None to leave it queued."""
        task = record.task
        a, b = task.pair
        if knowledge[a] is not None and knowledge[b] is not None:
            return "analytic_ce"
        if knowledge[a] is None and knowledge[b] is None:
            return None
        if any(game.payoffs.get(p) is None for p in task.pair):
            return None  # the ground truth cannot simulate this pair
        true_view = pair_view(game, task)
        if not against_set(true_view):
            record.detail = {"reason": "induced view has fewer than 2 equilibria"}
            return "skipped_not_against"
        if true_view.menu_sizes != (2, 2):
            raise PreconditionError(
                f"task {task.describe()} would train on a view with menus "
                f"{true_view.decisions}; estimation takes 2x2 views only"
            )

        pair_seed = task_seed(seed, record.index)
        trained = train_pair(true_view, task.pair, config, pair_seed)

        known_p, unknown_p = (a, b) if knowledge[a] is not None else (b, a)
        order = known_major_order(known_first=known_p == a)
        indices = slice_indices(game, task)
        known_slice = _renormalized_slice(
            knowledge[known_p].values, indices, task, "known payoff mass"
        )
        est = estimate_payoff(
            known_slice[order],
            trained.p_tilde[order],
            comparison_tol=comparison_tol,
            rotate_opponent=rotate_opponent,
        )
        report = estimation_report(est)
        record.detail = {
            "trained_pair": list(task.pair),
            "epochs_run": trained.epochs_run,
            "stable": trained.stable,
            "seed": pair_seed,
            "known_player": known_p,
            "estimated_player": unknown_p,
            "estimation": {
                "status": report["status"],
                "branch": report["branch"],
                "objective": report["objective"],
                "violated_families": report["violated_families"],
                "round_trip": report["round_trip"],
            },
        }
        if est.status != "ok":
            return "estimation_infeasible"
        # A complete pair sets the player's vector, and a known player gains
        # no more slices, so only this pair can have just become complete.
        got = pieces.setdefault((unknown_p, task.pair), {})
        got[record.index] = (indices, est.estimate[order])
        if sum(len(idx) for idx, _ in got.values()) == game.num_outcomes:
            full = np.zeros(game.num_outcomes)
            weight = 1.0 / len(got)
            for idx, vec in got.values():
                full[list(idx)] = weight * vec
            knowledge[unknown_p] = KnownVector(
                values=full,
                provenance="estimated",
                source=f"slices from pair {a}-{b} "
                f"({len(got)} combination(s), weight {weight:g} each)",
            )
        return "trained_estimated"

    queue = records
    passes = 0
    while queue:
        passes += 1
        pending = []
        for record in queue:
            status = settle(record)
            if status is None:
                pending.append(record)
            else:
                record.status = status
        if len(pending) == len(queue):
            break
        queue = pending
    for record in queue:
        record.status = "stalled"

    # Every vector is set once (given, or at assembly), so the knowledge an
    # analytic task saw when it settled is the knowledge read here.
    ce_records = [
        _ce_record(
            game, knowledge, r, "analytic" if r.status == "analytic_ce" else "post_estimation"
        )
        for r in records
        if r.status in ("analytic_ce", "trained_estimated", "skipped_not_against")
        and knowledge[r.task.player_a] is not None
        and knowledge[r.task.player_b] is not None
    ]

    return PipelineResult(
        status="partial" if queue else "complete",
        main_player=main_player,
        seed=seed,
        config=config,
        game=game,
        records=records,
        ce_records=ce_records,
        knowledge=knowledge,
        passes=passes,
    )


def _fault(read, *args) -> str | None:
    """The error text of `read(*args)`, or None if it reads."""
    try:
        read(*args)
    except PreconditionError as exc:
        return str(exc)
    return None


def _list_of(manifest: Mapping, key: str, kind, what: str, findings: list[str]) -> list:
    """`manifest[key]` if it is a list of `kind`; otherwise a finding and []."""
    value = manifest[key]
    if isinstance(value, list) and all(isinstance(x, kind) for x in value):
        return value
    findings.append(f"{key} is not a list of {what}")
    return []


def _is_index(value, count: int) -> bool:
    """Whether `value` is an int, not a bool, in range(count)."""
    return type(value) is int and 0 <= value < count


def _check_names(entry: Mapping, where: str, tasks: list, index: int, findings: list[str]):
    """A finding unless `entry` names the game's task `index` as `_task_entry` does."""
    named = {key: entry.get(key) for key in ("players", "fixed")}
    if index < len(tasks) and named != _task_entry(tasks[index]):
        findings.append(
            f"{where}: players {named['players']!r} and fixed {named['fixed']!r} differ "
            f"from the game's task {index}, {tasks[index].describe()}"
        )


def validate_manifest(manifest: Mapping) -> list[str]:
    """Structural checks on a pipeline manifest as JSON loads it. Returns
    findings and never raises: empty means the manifest is internally
    consistent. A part of the wrong type is a finding, and the checks that
    read it are skipped. The tasks must be `build_task_set`'s for the game
    of `players` and `decisions`, in order, and each CE result must name its
    task, both as `_task_entry` writes them."""
    if not isinstance(manifest, Mapping):
        return ["manifest is not an object"]
    required = (
        "status", "main_player", "seed", "passes", "players", "decisions", "config",
        "knowledge", "tasks", "ce_results", "stalled_tasks",
    )
    findings = [f"missing key {key!r}" for key in required if key not in manifest]
    if findings:
        return findings

    status = manifest["status"]
    if status not in ("complete", "partial"):
        findings.append(f"unknown status {status!r}")
    stalled = _list_of(manifest, "stalled_tasks", object, "task indices", findings)
    if status == "complete" and stalled:
        findings.append("complete run lists stalled tasks")
    if status == "partial" and not stalled:
        findings.append("partial run lists no stalled tasks")

    for key, minimum in (("seed", 0), ("passes", 1)):
        why = _fault(integer, manifest[key], minimum, key)
        if why:
            findings.append(why)
    config = manifest["config"]
    if not isinstance(config, Mapping):
        findings.append("config is not an object")
    else:
        try:
            TrainingConfig(**{k: v for k, v in config.items() if k != "loss_variant"})
        except (PreconditionError, TypeError) as exc:  # TypeError: an unknown field
            findings.append(f"config is not a training configuration: {exc}")

    game = None
    if not isinstance(manifest["decisions"], Mapping):
        findings.append("decisions is not an object")
    else:
        try:
            game = make_game(manifest["players"], manifest["decisions"], {})
        except InvalidGameError as exc:
            findings.append(f"players and decisions do not make a game: {exc}")
    players = game.players if game else ()
    listed = _list_of(manifest, "tasks", Mapping, "objects", findings)
    # one task past the list tells it is short, without fanning out a huge game
    tasks = list(itertools.islice(_fan_out(game), len(listed) + 1)) if game else []
    main = manifest["main_player"]
    if game and main not in players:
        findings.append(f"main player {main!r} not among players")

    knowledge = manifest["knowledge"]
    if not isinstance(knowledge, Mapping):
        findings.append("knowledge is not an object")
        knowledge = {}
    for p in players:
        entry = knowledge.get(p)
        if not isinstance(entry, Mapping):
            findings.append(f"knowledge entry missing for {p!r}")
            continue
        prov = entry.get("provenance")
        if p == main and prov != "given":
            findings.append("main player's vector is not marked given")
        if prov not in ("given", "estimated", "unknown"):
            findings.append(f"{p}: unknown provenance {prov!r}")
            continue
        vector = entry.get("vector")
        if prov == "unknown":
            if vector is not None:
                findings.append(f"{p}: unknown provenance but a vector is present")
            continue
        if vector is None:
            findings.append(f"{p}: provenance {prov} but no vector")
            continue
        why = _fault(simplex_vector, vector, game.num_outcomes, "it")
        if why:
            findings.append(f"{p}: vector is not a distribution ({why})")

    if game and len(listed) != len(tasks):
        made = f"more than {len(listed)}" if len(tasks) > len(listed) else len(tasks)
        findings.append(f"the manifest lists {len(listed)} tasks; the game makes {made}")
    for i, t in enumerate(listed):
        if type(t.get("index")) is not int or t["index"] != i:
            findings.append(f"task {i}: index {t.get('index')!r} is not its position")
        _check_names(t, f"task {i}", tasks, i, findings)
        task_status = t.get("status")
        if not isinstance(task_status, str) or task_status not in TASK_STATUSES - {"pending"}:
            findings.append(f"task {i}: invalid status {task_status!r}")
        if task_status == "stalled" and i not in stalled:
            findings.append(f"task {i}: stalled but not listed in stalled_tasks")
    for idx in stalled:
        if not _is_index(idx, len(listed)):
            findings.append(f"stalled task index {idx} not among tasks")

    for c in _list_of(manifest, "ce_results", Mapping, "objects", findings):
        idx = c.get("task_index")
        if not _is_index(idx, len(listed)):
            findings.append(f"ce result references unknown task {idx}")
        elif idx < len(tasks):
            _check_names(c, f"ce result for task {idx}", tasks, idx, findings)
            size = len(slice_indices(game, tasks[idx]))
            why = _fault(simplex_vector, c.get("distribution"), size, "it")
            if why:
                findings.append(f"ce result for task {idx}: not a distribution ({why})")
        if _fault(real, c.get("welfare"), "welfare") or not math.isfinite(c["welfare"]):
            findings.append(f"ce result for task {idx}: welfare is not a finite number")
        if not c.get("is_ce", False):
            findings.append(f"ce result for task {idx}: deviation check failed")
    return findings
