"""Recover an opponent's payoff vector from a stable joint distribution.

The inverse model ranks the known player's payoffs in ascending order, reads
directed preference pressure between ranked neighbours off the distribution,
and turns each window into a linear row over the unknown opponent payoffs.
Together with simplex constraints and the requirement that the implied 2x2
game still admits a mixed equilibrium, the rows form a small LP whose optimum
is the estimate. Infeasible systems are diagnosed (which row families cannot
hold simultaneously) and reported, never silently relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import max_welfare_correlated_equilibrium
from .errors import PreconditionError
from .games import make_game
from .inputs import number_array, real, simplex_vector
from .lp import LinearProgram, solve_lp

COMPARISON_TOL = 1e-9
SLACK_TOL = 1e-7
MIX_DEGENERATE_TOL = 1e-12


def known_major_order(known_first: bool) -> np.ndarray:
    """Outcome permutation of a 2x2 view that puts the known player on the
    major axis, where the estimator expects it: the identity or the 2x2
    transpose, each its own inverse."""
    return np.arange(4) if known_first else np.array([0, 2, 1, 3])


@dataclass(frozen=True)
class ReorderedView:
    """Inputs re-indexed so the known payoffs ascend.

    permutation maps sorted position -> original outcome index (0-based).
    """

    permutation: tuple[int, ...]
    v_bar_main: np.ndarray
    p_bar: np.ndarray

    @property
    def size(self) -> int:
        return len(self.permutation)

    def _slots(self, rotated: bool = False) -> np.ndarray:
        """Original outcome index of every sorted slot.

        The rotated reading shifts the opponent's sorted vector by one slot
        (first element moved to the end) before mapping back.
        """
        perm = self.permutation
        return np.array(perm[1:] + perm[:1] if rotated else perm)

    def restore(self, sorted_values: np.ndarray, rotated: bool = False) -> np.ndarray:
        out = np.empty(self.size)
        out[self._slots(rotated)] = np.asarray(sorted_values, dtype=np.float64)
        return out


def reorder(v_main, p_tilde) -> ReorderedView:
    """Stable ascending sort keyed by the known payoffs; the distribution
    rides along under the same permutation. Raises PreconditionError unless
    `v_main` is a flat array of finite numbers and `p_tilde` a point on the
    simplex of the same length."""
    v = number_array(v_main, (None,), "known payoffs")
    p = simplex_vector(p_tilde, v.size, "distribution")
    perm = tuple(int(i) for i in np.argsort(v, kind="stable"))
    return ReorderedView(
        permutation=perm,
        v_bar_main=v[list(perm)],
        p_bar=p[list(perm)],
    )


@dataclass(frozen=True)
class PressureConstraint:
    """One linear row over the sorted opponent unknowns: coefficients . w
    (sense) rhs, where rhs folds the known-payoff terms."""

    kind: str  # "outgoing" | "incoming"
    position: int  # 1-based sorted slot h
    window: int  # neighbour offset L
    coefficients: np.ndarray
    rhs: float
    sense: str  # ">=" | "==" | "<="

    @property
    def family(self) -> str:
        return f"{self.kind} h={self.position} L={self.window}"


@dataclass(frozen=True)
class SkippedWindow:
    kind: str
    position: int
    window: int
    reason: str


# Branch order per row kind: the first shape the mass triple has sets the
# sense. A triple can be rising and a plateau at once (b ~ c), so the order
# matters.
_SENSE_BRANCHES = {
    "outgoing": (("rising", ">="), ("plateau", "=="), ("falling", "<=")),
    "incoming": (("falling", ">="), ("plateau", "=="), ("rising", "<=")),
}


def build_pressure_constraints(
    view: ReorderedView, comparison_tol: float = COMPARISON_TOL
) -> tuple[list[PressureConstraint], list[SkippedWindow]]:
    """Directed-pressure rows for every position and window length.

    At sorted position h with window L, the relevant mass triple is
    (a, b, c) = (p_bar[h-L], p_bar[h], p_bar[h+L]), indices cyclic. The sense
    tables treat b as a slope reading: rising mass constrains the outgoing
    difference one way, a plateau pins it to zero, falling mass flips it.
    The first matching branch wins; triples matching no branch (a strict
    valley) produce no row and are recorded.
    """
    h_count = view.size
    p = view.p_bar
    v1 = view.v_bar_main
    tol = comparison_tol
    masses = p.tolist()  # float comparisons are cheaper than numpy scalar ones

    rows: list[PressureConstraint] = []
    skipped: list[SkippedWindow] = []

    for window in range(1, h_count // 2 + 1):
        for k in range(h_count):
            ahead = (k + window) % h_count
            behind = (k - window) % h_count
            a, b, c = masses[behind], masses[k], masses[ahead]
            shapes = {
                "rising": a < b - tol and b <= c + tol,
                "plateau": a <= b + tol and c <= b + tol,
                "falling": b < a - tol and c <= b + tol,
            }
            # outgoing: pressure to climb from slot k toward higher payoff;
            # incoming: pressure arriving at slot k from the lower neighbour,
            # where at the top slot the single-step row compares against the
            # bottom slot instead of its ranked predecessor.
            # (kind, slot losing weight, slot gaining weight, weight, constant)
            partner = 0 if (k == h_count - 1 and window == 1) else behind
            for kind, minus, plus, weight, constant in (
                ("outgoing", behind, k, p[behind], p[ahead] * (v1[ahead] - v1[k])),
                ("incoming", k, partner, p[k], p[k] * (v1[k] - v1[behind])),
            ):
                for shape, sense in _SENSE_BRANCHES[kind]:
                    if shapes[shape]:
                        break
                else:
                    skipped.append(
                        SkippedWindow(
                            kind, k + 1, window,
                            f"mass triple ({a:.6g}, {b:.6g}, {c:.6g}) matches no branch",
                        )
                    )
                    continue
                coeffs = np.zeros(h_count)
                coeffs[minus] -= weight
                coeffs[plus] += weight
                rows.append(
                    PressureConstraint(
                        kind=kind, position=k + 1, window=window,
                        coefficients=coeffs, rhs=-constant, sense=sense,
                    )
                )
    return rows, skipped


@dataclass
class RoundTrip:
    """Re-solving the 2x2 game with the estimate, compared to the input."""

    distribution: np.ndarray
    l_inf: float


@dataclass
class EstimationResult:
    status: str  # "ok" | "infeasible"
    estimate: np.ndarray | None
    view: ReorderedView
    constraints: list[PressureConstraint]
    skipped: list[SkippedWindow]
    branch: str | None
    objective: float | None
    main_mix_probability: float | None
    violated: list[str]
    round_trip: RoundTrip | None
    rotated: bool = False


def _main_mix_probability(v_main: np.ndarray) -> float | None:
    """Opponent mixing weight q on its first decision that leaves the known
    player indifferent; None when the indifference system is degenerate."""
    v1, v2, v3, v4 = v_main
    den = v1 - v3 - v2 + v4
    if abs(den) < MIX_DEGENERATE_TOL:
        return None
    return (v4 - v2) / den


# LP form of each sense: `>=` rows are negated into `<=`, the others kept
_SENSE_SIGN = {">=": -1.0, "<=": 1.0, "==": 1.0}


def _signed(rows: list[PressureConstraint]):
    """Pressure rows in LP form, `block . w (<= or ==) rhs`. Returns (block,
    rhs, equality mask, per-row sign)."""
    sign = np.array([_SENSE_SIGN[row.sense] for row in rows])
    block = np.array([row.coefficients for row in rows]) * sign[:, None]
    equality = np.array([row.sense == "==" for row in rows])
    return block, np.array([row.rhs for row in rows]) * sign, equality, sign


def _diagnose(rows: list[PressureConstraint], signed) -> list[str]:
    """Elastic relaxation: one slack per pressure row, minimize total slack,
    keep the simplex constraints hard. Rows needing slack name the violated
    families."""
    block, rhs, equality, _ = signed
    n_rows, h = block.shape
    # slack columns in row order: -s on an inequality, +s1 - s2 on an equality
    widths = np.where(equality, 2, 1)
    first = h + np.cumsum(widths) - widths
    elastic = np.zeros((n_rows, h + widths.sum()))
    elastic[:, :h] = block
    elastic[np.arange(n_rows), first] = np.where(equality, 1.0, -1.0)
    elastic[equality, first[equality] + 1] = -1.0
    simplex = np.zeros(elastic.shape[1])
    simplex[:h] = 1.0
    objective = np.zeros(elastic.shape[1])
    objective[h:] = -1.0
    solution = solve_lp(
        LinearProgram(
            objective=objective,
            ineq_rows=elastic[~equality],
            ineq_rhs=rhs[~equality],
            eq_rows=np.concatenate([elastic[equality], simplex[None]]),
            eq_rhs=np.concatenate([rhs[equality], [1.0]]),
        )
    )
    if solution.status != "optimal":
        return ["pressure system (diagnosis LP failed)"]
    violated = []
    for i in np.repeat(np.arange(n_rows), widths)[solution.x[h:] > SLACK_TOL]:
        if rows[i].family not in violated:
            violated.append(rows[i].family)
    if not violated:
        violated.append("mixed-equilibrium sign branches (both orientations infeasible)")
    return violated


def estimate_payoff(
    v_main,
    p_tilde,
    comparison_tol: float = COMPARISON_TOL,
    rotate_opponent: bool = False,
    round_trip: bool = True,
) -> EstimationResult:
    """Estimate the opponent payoff vector that best explains `p_tilde`.

    Maximizes the expected opponent reward under the observed distribution,
    subject to the pressure rows, the simplex constraints, and the
    requirement that the estimated side still admits a mixed equilibrium:
    the opponent's own-decision payoff gaps must share a sign, so that the
    implied mixing weight lands in [0, 1]. Both sign branches are solved and
    the higher objective wins.

    The known side's own mixing weight (from `v_main` alone) is reported as
    a diagnostic; it does not gate the solve.
    """
    # a NaN or negative tolerance would skip every window
    real(comparison_tol, "comparison tolerance", non_negative=True)
    view = reorder(v_main, p_tilde)
    if view.size != 4:
        raise PreconditionError(f"a 2x2 interaction has 4 outcomes, got {view.size}")
    v, p = view.restore(view.v_bar_main), view.restore(view.p_bar)
    rows, skipped = build_pressure_constraints(view, comparison_tol)

    result = EstimationResult(
        status="infeasible",
        estimate=None,
        view=view,
        constraints=rows,
        skipped=skipped,
        branch=None,
        objective=None,
        main_mix_probability=None,
        violated=[],
        round_trip=None,
        rotated=rotate_opponent,
    )

    result.main_mix_probability = _main_mix_probability(v)

    slots = view._slots(rotate_opponent)
    objective = p[slots]
    # the opponent's own-decision payoff gaps (top row: w1-w2, bottom row:
    # w4-w3) over the sorted unknowns
    gaps = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])[:, slots]
    signed = block, rhs, equality, _ = _signed(rows)
    ineq_rows = block[~equality]
    ineq_rhs = np.concatenate([[0.0, 0.0], rhs[~equality]])
    eq_rows = np.concatenate([np.ones((1, view.size)), block[equality]])
    eq_rhs = np.concatenate([[1.0], rhs[equality]])
    best = None
    for name, sign in (("gaps_nonnegative", -1.0), ("gaps_nonpositive", 1.0)):
        solution = solve_lp(
            LinearProgram(
                objective=objective,
                ineq_rows=np.concatenate([gaps * sign, ineq_rows]),
                ineq_rhs=ineq_rhs,
                eq_rows=eq_rows,
                eq_rhs=eq_rhs,
            )
        )
        if solution.status == "optimal":
            if best is None or solution.objective > best[1].objective + 1e-12:
                best = (name, solution)

    if best is None:
        result.violated = _diagnose(rows, signed)
        return result

    name, solution = best
    estimate = view.restore(np.clip(solution.x, 0.0, 1.0), rotate_opponent)
    result.status = "ok"
    result.branch = name
    result.objective = solution.objective
    result.estimate = estimate
    if round_trip:
        game = make_game(
            ["known", "estimated"],
            {"known": ["a1", "a2"], "estimated": ["b1", "b2"]},
            {"known": v, "estimated": estimate},
        )
        ce = max_welfare_correlated_equilibrium(game)
        result.round_trip = RoundTrip(
            distribution=ce.distribution,
            l_inf=float(np.abs(ce.distribution - p).max()),
        )
    return result


def constraint_slacks(result: EstimationResult) -> np.ndarray:
    """Signed satisfaction margin of each emitted row at the estimate
    (>= -1e-9 for feasible solutions; equality rows contribute -|residual|)."""
    if result.estimate is None:
        raise PreconditionError("no estimate to evaluate")
    _, rhs, equality, sign = _signed(result.constraints)
    w_bar = result.estimate[result.view._slots(result.rotated)]
    # one dot per row on the unsigned coefficients: a matrix product, or a
    # dot on a negated row, can differ in the last bit or the sign of zero
    values = np.array([row.coefficients @ w_bar for row in result.constraints])
    margins = rhs - sign * values
    return np.where(equality, -np.abs(margins), margins)


def estimation_report(result: EstimationResult) -> dict:
    """JSON-ready report: permutation, constraint ledger, LP outcome, and the
    round-trip check when one ran."""
    report = {
        "status": result.status,
        "permutation": list(result.view.permutation),
        "sorted_known_payoffs": result.view.v_bar_main.tolist(),
        "sorted_distribution": result.view.p_bar.tolist(),
        "constraints": [
            {
                "kind": row.kind,
                "position": row.position,
                "window": row.window,
                "coefficients": row.coefficients.tolist(),
                "rhs": row.rhs,
                "sense": row.sense,
            }
            for row in result.constraints
        ],
        "skipped_windows": [
            {
                "kind": s.kind,
                "position": s.position,
                "window": s.window,
                "reason": s.reason,
            }
            for s in result.skipped
        ],
        "main_mix_probability": result.main_mix_probability,
        "branch": result.branch,
        "objective": result.objective,
        "estimate": None if result.estimate is None else result.estimate.tolist(),
        "violated_families": result.violated,
        "round_trip": None
        if result.round_trip is None
        else {
            "distribution": result.round_trip.distribution.tolist(),
            "l_inf": result.round_trip.l_inf,
        },
    }
    return report
