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


def _ce_tasks(
    statuses: Sequence, tasks: Sequence[InteractionTask], known: set[str]
) -> list[tuple[int, str]]:
    """The task index and source of each CE result a run writes, in task
    order: one per settled task whose two players are both `known`, the
    source `analytic` exactly for `analytic_ce`."""
    return [
        (i, "analytic" if status == "analytic_ce" else "post_estimation")
        for i, (status, task) in enumerate(zip(statuses, tasks))
        if status in ("analytic_ce", "trained_estimated", "skipped_not_against")
        and known.issuperset(task.pair)
    ]


def _estimated_players(game: Game, entries) -> dict[str, tuple[list[int], str]]:
    """The players a run assembles from trained slices, each with the task
    indices whose estimates make its vector and the vector's source text.
    `entries` are (index, task, status, detail) of tasks in task order. A
    player is estimated exactly when, for one pair, the `trained_estimated`
    tasks whose detail names it as `estimated_player` cover every outcome."""
    groups: dict[tuple[str, tuple[str, str]], list[tuple[int, InteractionTask]]] = {}
    for i, task, status, detail in entries:
        if status == "trained_estimated" and isinstance(detail, Mapping):
            player = detail.get("estimated_player")
            if player in task.pair:
                groups.setdefault((player, task.pair), []).append((i, task))
    found = {}
    for (player, (a, b)), group in groups.items():
        if player not in found and sum(
            len(slice_indices(game, task)) for _, task in group
        ) == game.num_outcomes:
            found[player] = ([i for i, _ in group], f"slices from pair {a}-{b} "
                             f"({len(group)} combination(s), weight {1.0 / len(group):g} each)")
    return found


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
    by_pair: dict[tuple[str, str], list[TaskRecord]] = {}
    for record in records:
        by_pair.setdefault(record.task.pair, []).append(record)
    estimates: dict[int, np.ndarray] = {}  # each trained task's estimated slice

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
        try:
            against = against_set(true_view)
        except PreconditionError as exc:
            raise PreconditionError(f"task {task.describe()}: {exc}") from None
        if not against:
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
        estimates[record.index] = est.estimate[order]
        return "trained_estimated"

    def assemble(pair: tuple[str, str]) -> None:
        """Set the vector of each player whose slices from `pair` are complete."""
        entries = [(r.index, r.task, r.status, r.detail) for r in by_pair[pair]]
        for player, (group, source) in _estimated_players(game, entries).items():
            full = np.zeros(game.num_outcomes)
            weight = 1.0 / len(group)
            for i in group:
                full[list(slice_indices(game, records[i].task))] = weight * estimates[i]
            knowledge[player] = KnownVector(values=full, provenance="estimated", source=source)

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
                if status == "trained_estimated":
                    assemble(record.task.pair)
        if len(pending) == len(queue):
            break
        queue = pending
    for record in queue:
        record.status = "stalled"

    # Every vector is set once (given, or at assembly), so the knowledge an
    # analytic task saw when it settled is the knowledge read here.
    known = {p for p, entry in knowledge.items() if entry is not None}
    ce_records = [
        _ce_record(game, knowledge, records[i], source)
        for i, source in _ce_tasks([r.status for r in records], [r.task for r in records], known)
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


def _list_of(manifest: Mapping, key: str, findings: list[str]) -> list | None:
    """`manifest[key]` if it is a list of objects; otherwise a finding and None."""
    value = manifest[key]
    if isinstance(value, list) and all(isinstance(x, Mapping) for x in value):
        return value
    findings.append(f"{key} is not a list of objects")
    return None


def _is_index(value, count: int) -> bool:
    """Whether `value` is an integer, not a bool, in range(count)."""
    return _fault(integer, value, 0, "index") is None and value < count


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
    task, both as `_task_entry` writes them. What the task statuses give is
    derived: the status, the stalled tasks, and each CE result's task and
    source, as `_ce_tasks` writes them for `run_pipeline`."""
    if not isinstance(manifest, Mapping):
        return ["manifest is not an object"]
    required = (
        "status", "main_player", "seed", "passes", "players", "decisions", "config",
        "knowledge", "tasks", "ce_results", "stalled_tasks",
    )
    findings = [f"missing key {key!r}" for key in required if key not in manifest]
    if findings:
        return findings

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
    listed = _list_of(manifest, "tasks", findings)
    # one task past the list tells it is short, without fanning out a huge game
    tasks = list(itertools.islice(_fan_out(game), len(listed or ()) + 1)) if game else []
    main = manifest["main_player"]
    if game and main not in players:
        findings.append(f"main player {main!r} not among players")

    statuses = None if listed is None else [t.get("status") for t in listed]
    listed = listed or []
    # who is estimated, and from what, when the tasks can tell
    estimated = None if statuses is None or not game else _estimated_players(
        game, zip(range(len(tasks)), tasks, statuses, (t.get("detail") for t in listed))
    )
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
        if estimated is not None:
            if (prov == "estimated") != (p in estimated):
                findings.append(f"{p}: provenance {prov!r}, but the trained tasks "
                                f"{'complete' if p in estimated else 'do not complete'} "
                                f"its slices")
                continue
            source = estimated[p][1] if p in estimated else ""
            if prov != "unknown" and entry.get("source") != source:
                findings.append(f"{p}: source is not {source!r}, which the tasks give")
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

    if statuses is not None:
        stalled = [i for i, task_status in enumerate(statuses) if task_status == "stalled"]
        status = "partial" if stalled else "complete"
        if manifest["status"] != status:
            findings.append(f"status is not {status!r}, which the task statuses give")
        given = manifest["stalled_tasks"]
        # JSON's true equals 1 in Python, but it is no index
        if given != stalled or not all(_is_index(i, len(statuses)) for i in given):
            findings.append(f"stalled_tasks is not {stalled}, the stalled tasks' indices")
    if game and len(listed) != len(tasks):
        made = f"more than {len(listed)}" if len(tasks) > len(listed) else len(tasks)
        findings.append(f"the manifest lists {len(listed)} tasks; the game makes {made}")
    for i, t in enumerate(listed):
        if not _is_index(t.get("index"), len(listed)) or t["index"] != i:
            findings.append(f"task {i}: index {t.get('index')!r} is not its position")
        _check_names(t, f"task {i}", tasks, i, findings)
        task_status = t.get("status")
        if not isinstance(task_status, str) or task_status not in TASK_STATUSES - {"pending"}:
            findings.append(f"task {i}: invalid status {task_status!r}")

    results = _list_of(manifest, "ce_results", findings)
    if game and statuses is not None and results is not None:
        known = {p for p in players if isinstance(knowledge.get(p), Mapping)
                 and knowledge[p].get("provenance") in ("given", "estimated")}
        expected = _ce_tasks(statuses, tasks, known)
        if [(c.get("task_index"), c.get("source")) for c in results] != expected:
            written = ", ".join(f"task {i} {source}" for i, source in expected) or "none"
            findings.append(f"ce results are not those the task statuses and knowledge give: "
                            f"{written}")
    for c in results or ():
        idx = c.get("task_index")
        if not _is_index(idx, len(listed)):
            findings.append(f"ce result references unknown task {idx}")
        elif idx < len(tasks):
            _check_names(c, f"ce result for task {idx}", tasks, idx, findings)
            size = len(slice_indices(game, tasks[idx]))
            why = _fault(simplex_vector, c.get("distribution"), size, "it")
            if why:
                findings.append(f"ce result for task {idx}: not a distribution ({why})")
        for key, at_least_0 in (("welfare", False), ("max_violation", True)):
            value = c.get(key)
            if _fault(real, value, key, PreconditionError, at_least_0) or not math.isfinite(value):
                floor = " >= 0" if at_least_0 else ""
                findings.append(f"ce result for task {idx}: {key} is not a finite number{floor}")
        if c.get("is_ce") is not True:
            findings.append(f"ce result for task {idx}: is_ce is not true")
    return findings
