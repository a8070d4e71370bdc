"""Correctness checks the benchmark applies to every operation's output.

They are written here, from the problem data, so that they stay independent
of the code paths they check. A check returns None when the output holds and
otherwise a reason, "<check>: <detail>"; the runner counts a reason as a
failed operation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

ROW_TOL = 1e-7
WELFARE_TOL = 1e-6
SIMPLEX_TOL = 1e-7


def digest(*parts) -> str:
    """sha256 over arrays (as float64 bytes), strings and bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def lp_point_violation(lp, x) -> float:
    """Largest violation of a LinearProgram's original rows and bounds at x."""
    x = np.asarray(x, dtype=np.float64)
    worst = 0.0
    if lp.ineq_rows is not None and lp.ineq_rows.size:
        worst = max(worst, float((lp.ineq_rows @ x - lp.ineq_rhs).max()))
    if lp.eq_rows is not None and lp.eq_rows.size:
        worst = max(worst, float(np.abs(lp.eq_rows @ x - lp.eq_rhs).max()))
    lo = np.array([b[0] for b in lp.bounds])
    hi = np.array([b[1] for b in lp.bounds])
    worst = max(worst, float((lo - x).max()), float((x - hi).max()))
    return worst


def highs_optimum(lp) -> float | None:
    """Optimal objective of a LinearProgram from scipy's HiGHS, or None when
    scipy is not importable (it is a test-only dependency)."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    res = linprog(
        -lp.objective,
        A_ub=lp.ineq_rows,
        b_ub=lp.ineq_rhs,
        A_eq=lp.eq_rows,
        b_eq=lp.eq_rhs,
        bounds=[(lo, None if not np.isfinite(hi) else hi) for lo, hi in lp.bounds],
        method="highs",
    )
    if res.status != 0:
        return None
    return float(-res.fun)


def check_ce(game, solution) -> str | None:
    """Gate for a max-welfare CE answer: deviation check, original LP rows,
    and the optimum against HiGHS."""
    from celab.equilibrium import correlated_equilibrium_program, is_correlated_equilibrium

    dist = np.asarray(solution.distribution, dtype=np.float64)
    if not np.all(np.isfinite(dist)):
        return "ce_check: non-finite CE distribution"
    check = is_correlated_equilibrium(game, dist)
    if not check.ok:
        return f"ce_check: is_correlated_equilibrium fails by {check.max_violation:.3g}"
    lp = correlated_equilibrium_program(game)
    violation = lp_point_violation(lp, dist)
    if violation > ROW_TOL:
        return f"lp_rows: LP point breaks original rows by {violation:.3g}"
    best = highs_optimum(lp)
    if best is not None and abs(best - solution.welfare) > WELFARE_TOL:
        return f"highs_welfare: welfare {solution.welfare:.9g} differs from HiGHS {best:.9g}"
    return None


def check_estimate(v_main, result) -> str | None:
    """Gate for an `ok` estimate: its pressure rows hold, it is a payoff
    vector, and its round-trip distribution is a CE of the implied game."""
    from celab.estimation import constraint_slacks
    from celab.equilibrium import is_correlated_equilibrium
    from celab.games import make_game

    if result.status != "ok":
        return None
    est = np.asarray(result.estimate, dtype=np.float64)
    if not np.all(np.isfinite(est)):
        return "estimate_simplex: non-finite estimate"
    if abs(est.sum() - 1.0) > SIMPLEX_TOL or est.min() < -SIMPLEX_TOL:
        return f"estimate_simplex: estimate is off the simplex (sum {est.sum():.9g})"
    slacks = constraint_slacks(result)
    if slacks.size and slacks.min() < -ROW_TOL:
        return f"pressure_rows: estimate breaks a pressure row by {-slacks.min():.3g}"
    if result.round_trip is not None:
        game = make_game(
            ["known", "estimated"],
            {"known": ["a1", "a2"], "estimated": ["b1", "b2"]},
            {"known": v_main, "estimated": est},
        )
        check = is_correlated_equilibrium(game, result.round_trip.distribution)
        if not check.ok:
            return f"round_trip_ce: round-trip CE fails the deviation check by {check.max_violation:.3g}"
    return None


def check_training(result, epochs: int) -> str | None:
    """Gate for a fixed-epoch training run: full-length, finite history."""
    if result.epochs_run != epochs or len(result.history) != epochs:
        return f"history: {len(result.history)} epochs, expected {epochs}"
    for stats in result.history:
        values = list(stats.mean_terminal_reward.values())
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(stats.terminal_state))):
            return f"history: non-finite values at epoch {stats.epoch}"
    p = np.asarray(result.p_tilde, dtype=np.float64)
    if not np.all(np.isfinite(p)) or abs(p.sum() - 1.0) > SIMPLEX_TOL:
        return "history: p_tilde is not a finite distribution"
    return None


def check_manifest(manifest) -> tuple[str | None, str]:
    """Gate for a pipeline manifest; also returns its canonical JSON text."""
    from celab.pipeline import validate_manifest

    try:
        text = json.dumps(manifest, sort_keys=True, allow_nan=False)
    except ValueError:
        return "manifest: non-finite numbers", ""
    findings = validate_manifest(manifest)
    if findings:
        return "manifest: " + "; ".join(findings[:3]), text
    return None, text
