"""Dense linear programming via two-phase primal simplex.

Problems in this package are tiny (tens of variables), so the solver favors
exact reproducibility over scale: dense float64 tableau, Bland's anti-cycling
rule (smallest eligible index enters; ratio ties leave by smallest basis
index), fixed tolerances. Identical inputs produce bit-identical outputs.

Maximization form:

    maximize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lo <= x <= hi   (lo finite; hi may be +inf)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9


@dataclass
class LinearProgram:
    objective: np.ndarray
    ineq_rows: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    eq_rows: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    bounds: list[tuple[float, float]] | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        n = self.objective.size
        if self.ineq_rows is not None:
            self.ineq_rows = np.asarray(self.ineq_rows, dtype=np.float64).reshape(-1, n)
            self.ineq_rhs = np.asarray(self.ineq_rhs, dtype=np.float64).reshape(-1)
            if self.ineq_rows.shape[0] != self.ineq_rhs.size:
                raise ValueError("ineq_rows/ineq_rhs length mismatch")
        if self.eq_rows is not None:
            self.eq_rows = np.asarray(self.eq_rows, dtype=np.float64).reshape(-1, n)
            self.eq_rhs = np.asarray(self.eq_rhs, dtype=np.float64).reshape(-1)
            if self.eq_rows.shape[0] != self.eq_rhs.size:
                raise ValueError("eq_rows/eq_rhs length mismatch")
        if self.bounds is None:
            self.bounds = [(0.0, np.inf)] * n
        if len(self.bounds) != n:
            raise ValueError("one (lo, hi) pair per variable required")
        self.bounds = [(lo, np.inf if hi is None else hi) for lo, hi in self.bounds]
        for lo, hi in self.bounds:
            if not math.isfinite(lo):
                raise ValueError("lower bounds must be finite")
            if math.isnan(hi):
                raise ValueError("upper bounds must not be NaN")
            if hi < lo:
                raise ValueError(f"bound lo {lo} exceeds hi {hi}")


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    t[row] /= t[row, col]
    for r in range(t.shape[0]):
        if r != row and t[r, col] != 0.0:
            t[r] -= t[r, col] * t[row]
    basis[row] = col


def _simplex_max(t: np.ndarray, basis: list[int], cost: np.ndarray,
                 allowed: int) -> tuple[str, int]:
    """Run primal simplex on tableau t (rows = constraints, last col = rhs),
    maximizing `cost` over the first `allowed` columns. Bland's rule both ways."""
    m = t.shape[0]
    iters = 0
    while True:
        # reduced costs relative to the current basis
        cb = cost[basis]
        reduced = cost[:allowed] - cb @ t[:, :allowed]
        entering = -1
        for j in range(allowed):
            if reduced[j] > TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", iters
        leaving = -1
        best_ratio = np.inf
        for r in range(m):
            a = t[r, entering]
            if a > TOL:
                ratio = t[r, -1] / a
                if ratio < best_ratio - TOL or (
                    abs(ratio - best_ratio) <= TOL
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded", iters
        _pivot(t, basis, leaving, entering)
        iters += 1


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve a LinearProgram; infeasible/unbounded are statuses, not errors."""
    c = lp.objective
    n = c.size
    lo = np.array([b[0] for b in lp.bounds])
    hi = np.array([b[1] for b in lp.bounds])

    # shift x = lo + y so y >= 0; finite upper bounds become rows
    a_ub = lp.ineq_rows if lp.ineq_rows is not None else np.zeros((0, n))
    b_ub = lp.ineq_rhs if lp.ineq_rhs is not None else np.zeros(0)
    b_ub = b_ub - a_ub @ lo
    ub_extra = []
    ub_extra_rhs = []
    for i in range(n):
        if math.isfinite(hi[i]):
            row = np.zeros(n)
            row[i] = 1.0
            ub_extra.append(row)
            ub_extra_rhs.append(hi[i] - lo[i])
    if ub_extra:
        a_ub = np.vstack([a_ub, ub_extra])
        b_ub = np.concatenate([b_ub, ub_extra_rhs])
    a_eq = lp.eq_rows if lp.eq_rows is not None else np.zeros((0, n))
    b_eq = lp.eq_rhs if lp.eq_rhs is not None else np.zeros(0)
    b_eq = b_eq - a_eq @ lo

    n_ub = a_ub.shape[0]
    n_eq = a_eq.shape[0]
    m = n_ub + n_eq

    # columns: y (n) | slack/surplus (n_ub) | artificials (counted below) | rhs
    rows = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    rhs = np.concatenate([b_ub, b_eq])
    slack = np.zeros((m, n_ub))
    needs_artificial = []
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = -rows[r]
            rhs[r] = -rhs[r]
            if r < n_ub:
                slack[r, r] = -1.0  # surplus after the sign flip
                needs_artificial.append(r)
        elif r < n_ub:
            slack[r, r] = 1.0
        if r >= n_ub:
            needs_artificial.append(r)

    n_art = len(needs_artificial)
    art = np.zeros((m, n_art))
    basis: list[int] = [0] * m
    for k, r in enumerate(needs_artificial):
        art[r, k] = 1.0
        basis[r] = n + n_ub + k
    for r in range(m):
        if r < n_ub and slack[r, r] == 1.0:
            basis[r] = n + r

    t = np.hstack([rows, slack, art, rhs.reshape(-1, 1)])
    total_cols = n + n_ub + n_art
    iterations = 0

    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[n + n_ub :] = -1.0  # maximize -(sum of artificials)
        status, it = _simplex_max(t, basis, phase1_cost, total_cols)
        iterations += it
        cb = phase1_cost[basis]
        val = cb @ t[:, -1]
        if val < -TOL:
            return LPSolution(status="infeasible", iterations=iterations)
        # drive leftover artificials out of the basis; drop redundant rows
        keep = np.ones(t.shape[0], dtype=bool)
        for r in range(t.shape[0]):
            if basis[r] >= n + n_ub:
                pivot_col = -1
                for j in range(n + n_ub):
                    if abs(t[r, j]) > TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(t, basis, r, pivot_col)
                else:
                    keep[r] = False
        if not keep.all():
            t = t[keep]
            basis = [b for b, k in zip(basis, keep) if k]

    # phase 2 over original + slack columns only
    phase2_cost = np.zeros(t.shape[1] - 1)
    phase2_cost[:n] = c
    status, it = _simplex_max(t, basis, phase2_cost, n + n_ub)
    iterations += it
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=iterations)

    y = np.zeros(t.shape[1] - 1)
    for r, b in enumerate(basis):
        y[b] = t[r, -1]
    x = lo + y[:n]
    return LPSolution(
        status="optimal",
        x=x,
        objective=float(c @ x),
        iterations=iterations,
    )
