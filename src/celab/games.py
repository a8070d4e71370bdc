"""Normal-form games with joint-outcome payoff vectors.

A game has I players, each with a finite decision menu. The joint outcomes
are the H = n_1 * ... * n_I decision combinations, enumerated row-major with
the first player's decision varying slowest. Each player's payoff is a single
vector of H values, one per joint outcome, normalized to sum to 1 with every
entry non-negative.

Payoff vectors may be omitted (None) to model players whose preferences are
unknown; operations that need them raise PreconditionError.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidGameError, PreconditionError

NORMALIZATION_TOL = 1e-9
RENORMALIZE_TOL = 1e-6


def on_simplex(v) -> bool:
    """Whether `v` is a probability vector: every entry >= -1e-9 and a sum
    within 1e-6 of 1. NaN fails both, so a vector holding one is not."""
    v = np.asarray(v, dtype=np.float64)
    return bool(np.all(v >= -NORMALIZATION_TOL)) and abs(float(v.sum()) - 1.0) <= RENORMALIZE_TOL


def holds_bool(value) -> bool:
    """Whether `value`, a number or a possibly nested list, tuple or array of
    them, is or holds a boolean. JSON's true and false load as Python bools,
    which numpy takes as 1 and 0, so every entry is scanned, not only the
    dtype after conversion: [0.5, 0.5, false, false] converts to float64."""
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            return value.dtype == bool
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return any(holds_bool(x) for x in value)
    return isinstance(value, (bool, np.bool_))


class RenormalizedPayoffWarning(UserWarning):
    """A payoff vector was off simplex by more than 1e-9 and got rescaled."""


@dataclass(frozen=True)
class Game:
    """Immutable normal-form game. Build with :func:`make_game` or :func:`load_game`."""

    players: tuple[str, ...]
    decisions: tuple[tuple[str, ...], ...]
    payoffs: Mapping[str, np.ndarray | None] = field(repr=False)

    @property
    def menu_sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.decisions)

    @property
    def num_outcomes(self) -> int:
        return math.prod(self.menu_sizes)

    def outcome_index(self, labels: Sequence[str]) -> int:
        """0-based canonical index of a joint decision combination."""
        if len(labels) != len(self.players):
            raise PreconditionError(
                f"expected {len(self.players)} decision labels, got {len(labels)}"
            )
        idx = 0
        for label, menu in zip(labels, self.decisions):
            try:
                pos = menu.index(label)
            except ValueError:
                raise PreconditionError(f"unknown decision label {label!r}") from None
            idx = idx * len(menu) + pos
        return idx

    def payoff(self, player: str) -> np.ndarray:
        """Payoff vector of a player; raises if the player or vector is missing."""
        if player not in self.payoffs:
            raise PreconditionError(f"unknown player {player!r}")
        v = self.payoffs[player]
        if v is None:
            raise PreconditionError(f"payoff vector for {player!r} is unknown")
        return v

    def payoff_matrix(self, player: str) -> np.ndarray:
        """Payoff vector reshaped to the menu grid, one axis per player."""
        return self.payoff(player).reshape(self.menu_sizes)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64).copy()
    out.flags.writeable = False
    return out


def _labels(value, what: str) -> tuple[str, ...]:
    """`value` as a tuple of string labels. Only a list or tuple of strings
    is taken, so a bare string is refused rather than split into characters."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise InvalidGameError(f"{what} must be a list of string labels, got {value!r}")
    return tuple(value)


def make_game(
    players: Sequence[str],
    decisions: Sequence[Sequence[str]] | Mapping[str, Sequence[str]],
    payoffs: Mapping[str, Sequence[float] | None],
) -> Game:
    """Validate and construct a Game.

    Players and menus are lists or tuples of string labels; `decisions` is
    one menu per player, in player order or keyed by player.

    Payoff vectors must be non-negative and sum to 1 within 1e-9; sums off by
    up to 1e-6 are renormalized with a RenormalizedPayoffWarning, anything
    worse raises InvalidGameError.
    """
    players_t = _labels(players, "players")
    if len(players_t) < 2:
        raise InvalidGameError("a game needs at least two players")
    if len(set(players_t)) != len(players_t):
        raise InvalidGameError("duplicate player ids")

    if isinstance(decisions, Mapping):
        missing = [p for p in players_t if p not in decisions]
        if missing:
            raise InvalidGameError(f"decision menus missing for players {missing}")
        decisions = [decisions[p] for p in players_t]
    elif not isinstance(decisions, (list, tuple)):
        raise InvalidGameError("decisions must give one menu per player")
    if len(decisions) != len(players_t):
        raise InvalidGameError("one decision menu per player required")
    menus = tuple(_labels(m, f"decision menu of {p!r}") for p, m in zip(players_t, decisions))
    for p, menu in zip(players_t, menus):
        if len(menu) < 1:
            raise InvalidGameError(f"empty decision menu for {p!r}")
        if len(set(menu)) != len(menu):
            raise InvalidGameError(f"duplicate decision labels for {p!r}")

    h = math.prod(len(m) for m in menus)
    vectors: dict[str, np.ndarray | None] = {}
    for p in players_t:
        raw = payoffs.get(p)
        if raw is None:
            vectors[p] = None
            continue
        if holds_bool(raw):
            raise InvalidGameError(f"payoff vector for {p!r} must hold numbers, not booleans")
        try:
            v = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):  # non-numeric entries or ragged rows
            raise InvalidGameError(f"payoff vector for {p!r} must hold numbers") from None
        if v.shape != (h,):
            raise InvalidGameError(
                f"payoff vector for {p!r} has shape {v.shape}, expected ({h},)"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidGameError(f"non-finite payoff entries for {p!r}")
        if np.any(v < -NORMALIZATION_TOL):
            raise InvalidGameError(f"negative payoff entries for {p!r}")
        v = np.maximum(v, 0.0)
        total = float(v.sum())
        if abs(total - 1.0) > RENORMALIZE_TOL:
            raise InvalidGameError(
                f"payoff vector for {p!r} sums to {total}, expected 1"
            )
        if abs(total - 1.0) > NORMALIZATION_TOL:
            warnings.warn(
                f"payoff vector for {p!r} renormalized (sum was {total})",
                RenormalizedPayoffWarning,
                stacklevel=2,
            )
            v = v / total
        vectors[p] = _freeze(v)

    extra = set(payoffs) - set(players_t)
    if extra:
        raise InvalidGameError(f"payoffs given for unknown players {sorted(extra)}")
    return Game(players=players_t, decisions=menus, payoffs=vectors)


@dataclass
class ValidationReport:
    """Outcome of validate_game: per-check verdicts plus human-readable findings."""

    normalized: dict[str, bool]
    restriction_ok: dict[str, bool]
    equilibrium_count: int | None
    multiple_equilibria: bool | None
    findings: list[str]

    @property
    def ok(self) -> bool:
        checks = list(self.normalized.values()) + list(self.restriction_ok.values())
        if self.multiple_equilibria is not None:
            checks.append(self.multiple_equilibria)
        return all(checks)


def _restriction_pairs(game: Game, player_pos: int) -> list[tuple[int, int]]:
    """Outcome index pairs that differ only in player_pos's own decision.

    The validity restriction demands a player's payoff take distinct values
    across its own decisions whenever everyone else's decisions are fixed
    (otherwise indifference mixes degenerate).
    """
    sizes = game.menu_sizes
    # one column per combination of the others' decisions, in row-major order
    columns = np.moveaxis(np.arange(game.num_outcomes).reshape(sizes), player_pos, 0)
    return [
        pair
        for column in columns.reshape(sizes[player_pos], -1).T.tolist()
        for pair in itertools.combinations(column, 2)
    ]


def validate_game(game: Game) -> ValidationReport:
    """Check normalization, the unequal-reward restriction, and (for 2-player
    games with both payoffs known) that the game has at least two equilibria.
    Sums, signs and equal rewards are judged within `NORMALIZATION_TOL`."""
    normalized: dict[str, bool] = {}
    restriction: dict[str, bool] = {}
    findings: list[str] = []
    for pos, p in enumerate(game.players):
        v = game.payoffs.get(p)
        if v is None:
            findings.append(f"{p}: payoff unknown, checks skipped")
            continue
        total = float(v.sum())
        normalized[p] = abs(total - 1.0) <= NORMALIZATION_TOL and bool(
            np.all(v >= -NORMALIZATION_TOL)
        )
        if not normalized[p]:
            findings.append(f"{p}: not normalized (sum={total})")
        rest_ok = True
        for i, j in _restriction_pairs(game, pos):
            if abs(v[i] - v[j]) <= NORMALIZATION_TOL:
                rest_ok = False
                findings.append(
                    f"{p}: equal rewards at outcomes {i + 1} and {j + 1} "
                    f"(value {v[i]:.6g})"
                )
        restriction[p] = rest_ok

    eq_count: int | None = None
    multiple: bool | None = None
    all_known = all(game.payoffs.get(p) is not None for p in game.players)
    if len(game.players) == 2 and all_known:
        if all(restriction.values()):
            from .equilibrium import enumerate_equilibria

            eq_count = len(enumerate_equilibria(game))
            multiple = eq_count >= 2
            if not multiple:
                findings.append(
                    f"game has {eq_count} equilibrium; at least 2 required"
                )
        else:
            findings.append("equilibrium count skipped: restriction violated")
    return ValidationReport(
        normalized=normalized,
        restriction_ok=restriction,
        equilibrium_count=eq_count,
        multiple_equilibria=multiple,
        findings=findings,
    )


def game_to_dict(game: Game) -> dict:
    return {
        "players": list(game.players),
        "decisions": {p: list(m) for p, m in zip(game.players, game.decisions)},
        "payoffs": {
            p: [float(x) for x in v] for p, v in game.payoffs.items() if v is not None
        },
    }


def game_from_dict(data: Mapping) -> Game:
    try:
        players = data["players"]
        decisions = data["decisions"]
    except (KeyError, TypeError) as exc:
        raise InvalidGameError(f"missing required field: {exc}") from None
    payoffs = data.get("payoffs", {})
    if not isinstance(payoffs, Mapping):
        raise InvalidGameError("payoffs must be a mapping of player id to vector")
    return make_game(players, decisions, payoffs)


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidGameError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
    return game_from_dict(data)


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
        fh.write("\n")
