"""Command-line surface: solve equilibria, run self-play training, estimate
opponent payoffs, and drive the pairwise pipeline, exporting CSV/JSON.

Exit codes are a stable contract: 0 success, 2 input error, 3 non-convergence
(epoch cap hit, training diverged to non-finite values, no feasible payoff
estimate, or a correlated-equilibrium solve that failed its own check), 4
partial results (pipeline stall). Input errors are raised as
PreconditionError or InvalidGameError, like those of the library itself, and
`main` reports each as one `error:` line. Every artifact embeds the resolved
configuration and seed, and no output file is overwritten unless --force is
given. The default output directory is taken from the CELAB_OUT_DIR
environment variable, falling back to the current directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .equilibrium import (
    enumerate_equilibria,
    in_nash_payoff_hull,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
)
from .errors import InvalidGameError, NumericError, PreconditionError, SolverError
from .estimation import COMPARISON_TOL, estimate_payoff, estimation_report, known_major_order
from .games import Game, holds_bool, load_game, on_simplex
from .pipeline import run_pipeline, validate_manifest
from .policy import save_checkpoint
from .training import TrainingConfig, require_seed, train_pair, write_history_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSTABLE = 3
EXIT_PARTIAL = 4

OUT_DIR_ENV = "CELAB_OUT_DIR"


def _header(args, seed: int | None, options: dict) -> dict:
    """Resolved invocation, embedded in every artifact as its header."""
    return {"command": args.command, "game": args.game, "seed": seed, "options": options}


def _out_dir(args) -> Path:
    """The output directory, not yet made: an input error leaves nothing behind."""
    raw = getattr(args, "out_dir", None) or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(raw)
    if path.exists() and not path.is_dir():
        raise PreconditionError(f"output directory {path} is not a directory")
    return path


def _target(args, default_name: str) -> Path:
    out = getattr(args, "out", None)
    return Path(out) if out else _out_dir(args) / default_name


def _refuse_overwrite(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise PreconditionError(f"refusing to overwrite {path} (pass --force to replace it)")


def _write_json(path: Path, payload: dict, force: bool) -> None:
    _refuse_overwrite(path, force)
    # serialize first, so a payload json cannot encode leaves no partial file
    text = json.dumps(payload, indent=2)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_game_file(path: str) -> Game:
    try:
        return load_game(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read game file {path}: {exc}") from None


def _require_payoffs(game: Game, players) -> None:
    for p in players:
        if game.payoffs.get(p) is None:
            raise PreconditionError(f"unknown payoff vector for player {p!r}")


def _two_players(game: Game) -> tuple[str, str]:
    if len(game.players) != 2:
        raise PreconditionError(
            f"this command needs a 2-player game, got {len(game.players)} players"
        )
    return game.players[0], game.players[1]


def _load_distribution(path: str, expected: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read distribution file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise PreconditionError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if isinstance(data, dict):
        for key in ("p_tilde", "distribution"):
            if key in data:
                data = data[key]
                break
        else:
            raise PreconditionError(
                f"{path}: expected a JSON array or an object with a "
                "'p_tilde' or 'distribution' field"
            )
    if holds_bool(data):
        raise PreconditionError(f"{path}: distribution entries must be numbers, not booleans")
    try:
        vec = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):  # non-numeric entries or ragged rows
        vec = np.empty(0)
    if vec.ndim != 1 or vec.size != expected:
        raise PreconditionError(
            f"{path}: distribution must be a flat array of {expected} probabilities"
        )
    if not on_simplex(vec):
        raise PreconditionError(f"{path}: distribution is not a point on the simplex")
    return np.clip(vec, 0.0, None)


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(x):.6g}" for x in values) + "]"


def _outcome_labels(game: Game) -> list[str]:
    return [",".join(combo) for combo in itertools.product(*game.decisions)]


def _training_config(args) -> TrainingConfig:
    return TrainingConfig(**{f.name: getattr(args, f.name) for f in fields(TrainingConfig)})


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    game = _load_game_file(args.game)
    _require_payoffs(game, game.players)
    players = list(game.players)
    target = _target(args, f"solve_{args.mode}.json")
    _refuse_overwrite(target, args.force)
    payload = {"mode": args.mode, "players": players}

    if args.mode == "ce":
        solution = max_welfare_correlated_equilibrium(game)
        check = is_correlated_equilibrium(game, solution.distribution)
        print(f"welfare-max correlated equilibrium of {' vs '.join(players)}:")
        labels = _outcome_labels(game)
        for label, mass in zip(labels, solution.distribution):
            print(f"  P({label}) = {mass:.6g}")
        print(f"welfare: {solution.welfare:.6g}")
        print(
            f"deviation check: {'ok' if check.ok else 'FAILED'} "
            f"(max violation {check.max_violation:.3g})"
        )
        payload.update(
            outcomes=labels,
            distribution=[float(x) for x in solution.distribution],
            welfare=solution.welfare,
            deviation_check={"ok": check.ok, "max_violation": check.max_violation},
        )
    elif args.mode == "ne":
        equilibria = enumerate_equilibria(game)
        print(f"{len(equilibria)} equilibria of {' vs '.join(players)}:")
        for eq in equilibria:
            strat = " ".join(
                f"{p}={_fmt_vec(s)}" for p, s in zip(players, eq.strategies)
            )
            print(f"  {eq.kind}: {strat} payoffs {_fmt_vec(eq.payoffs)}")
        payload["equilibria"] = [
            {
                "kind": eq.kind,
                "strategies": [[float(x) for x in s] for s in eq.strategies],
                "payoffs": [float(x) for x in eq.payoffs],
                "welfare": eq.welfare,
            }
            for eq in equilibria
        ]
    else:  # hull
        if not args.point:
            raise PreconditionError("--mode hull needs at least one --point U1 U2 ...")
        if any(len(point) != len(players) for point in args.point):
            raise PreconditionError(f"--point takes one payoff per player ({len(players)})")
        if not np.isfinite(args.point).all():
            raise PreconditionError("--point payoffs must be finite numbers")
        equilibria = enumerate_equilibria(game)
        ne_payoffs = [eq.payoffs for eq in equilibria]
        verdicts = []
        for point in args.point:
            inside = in_nash_payoff_hull(ne_payoffs, tuple(point))
            verdicts.append({"point": [float(x) for x in point], "inside": inside})
            where = "inside" if inside else "outside"
            coords = ", ".join(f"{x:.6g}" for x in point)
            print(f"payoff point ({coords}) is {where} the equilibrium payoff hull")
        payload["equilibrium_payoffs"] = [[float(x) for x in p] for p in ne_payoffs]
        payload["points"] = verdicts

    header = _header(args, None, {"mode": args.mode, "points": args.point})
    _write_json(target, {"reproducibility": header, **payload}, args.force)
    print(f"wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    game = _load_game_file(args.game)
    pair = _two_players(game)
    _require_payoffs(game, pair)
    config = _training_config(args)
    require_seed(args.seed)  # before the output directory is made
    prefix = args.prefix
    if Path(prefix).name != prefix:  # so that every file lands in the output directory
        raise PreconditionError(
            f"--prefix {prefix!r} is not a file-name stem: it has a directory part"
        )

    out_dir = _out_dir(args)
    history_path = out_dir / f"{prefix}_history.csv"
    p_tilde_path = out_dir / f"{prefix}_p_tilde.json"
    checkpoint_paths = {p: out_dir / f"{prefix}_checkpoint_{p}.json" for p in pair}
    for path in (history_path, p_tilde_path, *checkpoint_paths.values()):
        _refuse_overwrite(path, args.force)

    result = train_pair(game, pair, config, args.seed)

    out_dir.mkdir(parents=True, exist_ok=True)  # once there is something to write
    write_history_csv(result, history_path)
    for p in pair:
        save_checkpoint(
            result.params[p],
            checkpoint_paths[p],
            seed=args.seed,
            config=config.to_dict(),
        )
    header = _header(args, args.seed, {"config": config.to_dict(), "players": list(pair)})
    _write_json(
        p_tilde_path,
        {
            "reproducibility": header,
            "players": list(pair),
            "stable": result.stable,
            "epochs_run": result.epochs_run,
            "stability_tolerance": config.tolerance,
            "p_tilde": [float(x) for x in result.p_tilde],
        },
        args.force,
    )

    if result.stable:
        print(
            f"stable after {result.epochs_run} epochs "
            f"(window {config.stability_window}, tolerance {config.tolerance:g})"
        )
    else:
        print(
            f"epoch cap {config.epochs} reached without stability "
            f"(tolerance {config.tolerance:g}); exporting the last state"
        )
    print(f"p_tilde: {_fmt_vec(result.p_tilde)}")
    written = [history_path, *checkpoint_paths.values(), p_tilde_path]
    print("wrote " + ", ".join(str(p) for p in written))
    return EXIT_OK if result.stable else EXIT_UNSTABLE


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    if not args.round_trip_tol >= 0.0:  # False on NaN as well
        raise PreconditionError(
            f"round-trip tolerance must be >= 0, got {args.round_trip_tol}"
        )
    game = _load_game_file(args.game)
    a, b = _two_players(game)
    if game.menu_sizes != (2, 2):
        raise PreconditionError(
            f"estimation is defined for 2x2 interactions, got menus {game.menu_sizes}"
        )
    known = args.known_player
    if known not in game.players:
        raise PreconditionError(f"unknown player {known!r}; players are {list(game.players)}")
    _require_payoffs(game, (known,))
    estimated = b if known == a else a
    target = _target(args, "estimate_report.json")
    _refuse_overwrite(target, args.force)
    distribution = _load_distribution(args.distribution, game.num_outcomes)

    order = known_major_order(known_first=known == a)
    v_main = game.payoff(known)[order]
    p_view = distribution[order]

    result = estimate_payoff(
        v_main,
        p_view,
        comparison_tol=args.comparison_tol,
        rotate_opponent=args.rotate_opponent,
        round_trip=args.round_trip,
    )
    report = estimation_report(result)

    payload = {
        "known_player": known,
        "estimated_player": estimated,
        "axes_swapped": bool(known != a),
        "report": report,
    }
    if result.estimate is not None:
        payload["estimate_game_order"] = [float(x) for x in result.estimate[order]]

    print(f"estimating {estimated}'s payoffs from {known}'s view")
    if result.status == "ok":
        print(
            f"status: ok (branch {result.branch}, objective {result.objective:.6g})"
        )
        print(f"estimate for {estimated}: {_fmt_vec(result.estimate[order])}")
    else:
        print("status: infeasible; violated constraint families:")
        for family in result.violated:
            print(f"  - {family}")
    if args.round_trip and result.round_trip is not None:
        match = result.round_trip.l_inf <= args.round_trip_tol
        payload["round_trip_verdict"] = {
            "l_inf": result.round_trip.l_inf,
            "tol": args.round_trip_tol,
            "match": match,
        }
        print(
            f"round trip: L_inf {result.round_trip.l_inf:.3g} -> "
            f"{'match' if match else 'DIVERGES'} (tol {args.round_trip_tol:g})"
        )

    options = {
        "known_player": known,
        "distribution": args.distribution,
        "comparison_tol": args.comparison_tol,
        "rotate_opponent": args.rotate_opponent,
        "round_trip": args.round_trip,
        "round_trip_tol": args.round_trip_tol,
    }
    header = _header(args, None, options)
    _write_json(target, {"reproducibility": header, **payload}, args.force)
    print(f"wrote {target}")
    return EXIT_OK if result.status == "ok" else EXIT_UNSTABLE


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args) -> int:
    game = _load_game_file(args.game)
    target = _target(args, "pipeline_manifest.json")
    _refuse_overwrite(target, args.force)
    config = _training_config(args)
    result = run_pipeline(
        game,
        main_player=args.main_player,
        known_players=args.known_player,
        config=config,
        seed=args.seed,
        comparison_tol=args.comparison_tol,
        rotate_opponent=args.rotate_opponent,
    )

    manifest = result.manifest()
    findings = validate_manifest(manifest)

    print(f"pipeline over {len(result.records)} tasks ({result.passes} passes):")
    for record in result.records:
        line = f"  task {record.index} {record.task.describe()}: "
        if record.status == "analytic_ce":
            line += "analytic (no interaction)"
        elif record.status == "trained_estimated":
            line += (
                f"trained and estimated ({record.detail['epochs_run']} epochs, "
                f"{'stable' if record.detail['stable'] else 'epoch cap'})"
            )
        elif record.status == "estimation_infeasible":
            line += "trained, but no feasible payoff estimate"
        elif record.status == "skipped_not_against":
            line += "skipped (pair is not against each other)"
        else:
            line += record.status
        print(line)
    for p in game.players:
        entry = result.knowledge[p]
        if entry is None:
            print(f"  {p}: payoffs unknown")
        elif entry.provenance == "given":
            print(f"  {p}: payoffs given")
        else:
            print(f"  {p}: payoffs estimated ({entry.source})")
    for ce in result.ce_records:
        ok = "ok" if ce.ce_ok else "FAILED"
        print(
            f"  CE task {ce.task_index} [{ce.source}]: "
            f"{_fmt_vec(ce.distribution)} welfare {ce.welfare:.6g} "
            f"deviation check {ok}"
        )
    for finding in findings:
        print(f"  manifest warning: {finding}", file=sys.stderr)

    options = {
        "main_player": result.main_player,
        "known_players": [
            p
            for p in game.players
            if result.knowledge[p] is not None
            and result.knowledge[p].provenance == "given"
        ],
        "comparison_tol": args.comparison_tol,
        "rotate_opponent": args.rotate_opponent,
        "config": config.to_dict(),
    }
    header = _header(args, args.seed, options)
    _write_json(target, {"reproducibility": header, **manifest}, args.force)
    print(f"status: {result.status}")
    print(f"wrote {target}")
    return EXIT_OK if result.status == "complete" else EXIT_PARTIAL


# ---------------------------------------------------------------------------
# parser


_TRAINING_HELP = {
    "rounds": "simulation rounds per epoch (M)",
    "steps": "environment steps per round (N)",
    "step_size": "per-component action step (theta)",
    "discount": "reward discount per remaining step (gamma)",
    "stability_window": "trailing epochs that must agree for stability (K)",
    "stability_tol": "stability tolerance (default: 2 * step size)",
}


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainingConfig field, with the field's default."""
    for f in fields(TrainingConfig):
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=int if isinstance(f.default, int) else float,  # stability_tol=None: float
            default=f.default,
            help=_TRAINING_HELP.get(f.name),
        )


def _add_common_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celab",
        allow_abbrev=False,
        description="Correlated-equilibrium tooling: solvers, self-play "
        "training, payoff estimation, and the pairwise pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="equilibria of a game file with any number of players "
        "(mixed Nash for 2x2 games only)", allow_abbrev=False
    )
    solve.add_argument("game", help="game JSON file")
    solve.add_argument("--mode", choices=("ne", "ce", "hull"), default="ce")
    solve.add_argument("--point", nargs="+", type=float, action="append",
                       metavar="U",
                       help="payoff point for --mode hull, one payoff per "
                       "player (repeatable)")
    solve.add_argument("--out", default=None, help="JSON output path")
    _add_common_output_flags(solve)
    solve.set_defaults(fn=cmd_solve)

    train = sub.add_parser(
        "train", help="self-play training on a 2-player game", allow_abbrev=False
    )
    train.add_argument("game", help="game JSON file")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--prefix", default="train",
                       help="output file name prefix, a file-name stem with no "
                       "directory part (default: train)")
    _add_training_flags(train)
    _add_common_output_flags(train)
    train.set_defaults(fn=cmd_train)

    estimate = sub.add_parser(
        "estimate", help="estimate the opposing payoff vector from a distribution",
        allow_abbrev=False,
    )
    estimate.add_argument("game", help="game JSON file (known player's side)")
    estimate.add_argument("--known-player", required=True)
    estimate.add_argument("--distribution", required=True,
                          help="JSON file with the observed joint distribution")
    estimate.add_argument("--comparison-tol", type=float, default=COMPARISON_TOL,
                          help="tolerance for ranking ties in the sorted view")
    estimate.add_argument("--rotate-opponent", action="store_true",
                          help="assume the opposing decision axis is flipped")
    estimate.add_argument("--round-trip", action="store_true",
                          help="re-solve the equilibrium from the estimate and "
                          "append a match verdict")
    estimate.add_argument("--round-trip-tol", type=float, default=1e-6)
    estimate.add_argument("--out", default=None, help="JSON output path")
    _add_common_output_flags(estimate)
    estimate.set_defaults(fn=cmd_estimate)

    pipeline = sub.add_parser(
        "pipeline", help="pairwise decomposition over a multi-player game",
        allow_abbrev=False,
    )
    pipeline.add_argument("game", help="game JSON file")
    pipeline.add_argument("--main-player", default=None)
    pipeline.add_argument("--known-player", action="append", default=None,
                          help="player whose payoffs are given (repeatable; "
                          "default: the main player)")
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument("--comparison-tol", type=float, default=COMPARISON_TOL)
    pipeline.add_argument("--rotate-opponent", action="store_true")
    pipeline.add_argument("--out", default=None, help="JSON output path")
    _add_training_flags(pipeline)
    _add_common_output_flags(pipeline)
    pipeline.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidGameError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # sizes from flags, such as --rounds, too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"error: training diverged to non-finite values: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except SolverError as exc:
        print(f"error: correlated-equilibrium solve failed: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
