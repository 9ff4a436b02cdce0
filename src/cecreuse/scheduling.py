"""Workload routing and CPU allocation by projected gradient descent.

The decision block is the pair (lam, fshare): lam rows live on the
probability simplex (each app's workload split over stations), fshare
columns live on the simplex too (each station's CPU split over apps).  Both
projections are separable, so the euclidean projection of the whole block is
row/column-wise sort-based simplex projection.  Steps follow a diminishing
schedule theta0 / sqrt(i) toward the projected target, with an Armijo
backtracking line search that additionally keeps every queue strictly inside
its stability region by a small margin.  The line search tables its
candidate steps STEP_BLOCK at a time, one broadcast evaluation per block,
and hands the accepted step's table on, so the next iterate is not tabled
again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay import (EvalResult, branch_tables, evaluate_with_rates,
                    gradient_with_rates, selected_stability)
from .errors import (EmptyVector, Infeasible, LineSearchExhausted,
                     MalformedInput, StabilityViolation)
from .model import HitRateTable, Scenario, SchedulingState


ALPHA = 0.3         # Armijo sufficient-decrease fraction
BETA = 0.5          # backtracking shrink factor
J_MAX = 60          # line-search attempts before giving up
STEP_BLOCK = 8      # line-search steps tabled in one broadcast
DELTA_STAB = 1e-6   # relative utilization margin below 1


@dataclass(frozen=True)
class PgdParams:
    """Step schedule of the descent."""
    theta0: float = 1.0        # base step size, scaled by 1/sqrt(iteration)

    def __post_init__(self):
        # written so that NaN fails the check
        if not 0.0 < self.theta0 < math.inf:
            raise MalformedInput(f"theta0 must be positive and finite, "
                                 f"got {self.theta0!r}")


def project_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto {w : w >= 0, sum w = 1}.

    Sorts each row in decreasing order and finds the largest j such that
    u_j + (1 - sum_{i<=j} u_i) / j > 0; that prefix determines the row's
    shift.  All rows share one sort and one cumulative sum.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[1] == 0:
        raise EmptyVector("cannot project an empty vector")
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    idx = np.arange(1, v.shape[1] + 1)
    cond = u + (1.0 - css) / idx > 0.0
    # j = 1 holds in exact arithmetic; no j holds only in a row with a NaN
    # or with entries too large for 1 - u_1 to be resolved
    if not cond.any(axis=1).all():
        raise MalformedInput("cannot project a vector with NaN or huge entries")
    rho = v.shape[1] - np.argmax(cond[:, ::-1], axis=1)   # last j that holds
    tau = (1.0 - css[np.arange(v.shape[0]), rho - 1]) / rho
    return np.maximum(v + tau[:, None], 0.0)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of one vector onto {w : w >= 0, sum w = 1}."""
    return project_rows(np.atleast_2d(v))[0]


def project_decisions(lam: np.ndarray, fshare: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Project lam rows and fshare columns onto their simplices.

    Both come back C-ordered, like the iterates, so that sums over them
    reduce in the same order."""
    return (np.ascontiguousarray(project_rows(lam)),
            np.ascontiguousarray(project_rows(fshare.T).T))


def backtrack(objective_fn, point: tuple[np.ndarray, np.ndarray],
              direction: tuple[np.ndarray, np.ndarray], base_obj: float,
              grad_dot_dir: float
              ) -> tuple[int, np.ndarray, np.ndarray, EvalResult]:
    """Smallest j whose step beta^j meets the decrease and margin tests.

    A step passes when its objective is no higher than ``base_obj`` and
    meets the Armijo test.  The steps are tabled STEP_BLOCK at a time:
    objective_fn takes lam and fshare with a leading step axis and returns
    an evaluation whose ``point(k)`` is the block's k-th point, with
    ``objective`` None on points that are unstable or inside the stability
    margin.  Within a block the steps are tested in order, so the result is
    the one a step-by-step search gives.  Returns (j, lam, fshare,
    evaluation) of the accepted point.
    """
    for first in range(0, J_MAX + 1, STEP_BLOCK):
        js = range(first, min(first + STEP_BLOCK, J_MAX + 1))
        steps = np.array([BETA ** j for j in js])[:, None, None]
        lam = point[0] + steps * direction[0]
        fsh = point[1] + steps * direction[1]
        block = objective_fn(lam, fsh)
        for k, j in enumerate(js):
            res = block.point(k)
            if res.objective is None:
                continue
            if (res.objective <= base_obj and base_obj - res.objective
                    >= -ALPHA * BETA ** j * grad_dot_dir):
                return j, lam[k], fsh[k], res
    raise LineSearchExhausted(
        "no backtracking step met the decrease and margin tests",
        tried=J_MAX + 1)


# a projected target this close to the iterate counts as stationary
STATIONARY_TOL = 1e-14
# the repair fills queues to this much less than the load the stability
# margin allows, so that rounding cannot carry a filled queue past the
# margin the final check applies
REPAIR_SHRINK = 1e-12


def solve_scheduling(scenario: Scenario, hit: HitRateTable,
                     sched: SchedulingState, iters: int,
                     params: PgdParams = PgdParams()
                     ) -> tuple[SchedulingState, list[tuple[int, float, int]]]:
    """Improve (lam, fshare) under a frozen cache with hit table ``hit``.

    Search flags are re-chosen from the branch delays at the start of every
    iteration and held fixed through its gradient and line search.  The
    trace rows are (iteration, objective, backtrack_count); the objective
    column is non-increasing.  Stops early at a stationary projected target
    or when the line search is exhausted, keeping the current point; a
    gradient that overflows is MalformedInput.  Each block of line-search
    steps is tabled once, and the accepted step's slice of its table is
    handed on to the next iteration and the final flags, so no point is
    tabled twice.
    """
    sched = sched.copy()
    trace: list[tuple[int, float, int]] = []
    table = None  # branch table of the current point, once built
    for i in range(1, iters + 1):
        res = evaluate_with_rates(scenario, hit.total, hit.neighbor,
                                  sched.lam, sched.fshare, table=table)
        if not res.feasible:
            raise StabilityViolation("scheduling started from an unstable point")
        table = res.table
        grad = gradient_with_rates(scenario, res, sched.lam)
        if not (np.isfinite(grad.dlam).all() and np.isfinite(grad.dfshare).all()):
            raise MalformedInput("the objective's gradient overflows: the "
                                 "scenario's delays or capacities are too large")
        theta = params.theta0 / np.sqrt(i)
        target = project_decisions(sched.lam - theta * grad.dlam,
                                   sched.fshare - theta * grad.dfshare)
        d_lam = target[0] - sched.lam
        d_fsh = target[1] - sched.fshare
        if max(np.abs(d_lam).max(), np.abs(d_fsh).max()) < STATIONARY_TOL:
            trace.append((i, res.objective, 0))
            break
        grad_dot = float(np.sum(grad.dlam * d_lam) + np.sum(grad.dfshare * d_fsh))

        def objective_fn(lam, fsh):
            return evaluate_with_rates(scenario, hit.total, hit.neighbor, lam,
                                       fsh, y=res.y, margin=DELTA_STAB)

        try:
            j, new_lam, new_fsh, accepted = backtrack(
                objective_fn, (sched.lam, sched.fshare),
                (d_lam, d_fsh), res.objective, grad_dot)
        except LineSearchExhausted:
            trace.append((i, res.objective, J_MAX + 1))
            break
        sched.lam = new_lam
        sched.fshare = new_fsh
        table = accepted.table
        trace.append((i, accepted.objective, j))
    sched.y = evaluate_with_rates(scenario, hit.total, hit.neighbor, sched.lam,
                                  sched.fshare, table=table).y
    return sched, trace


def initial_feasible_point(scenario: Scenario, hit: HitRateTable
                           ) -> tuple[SchedulingState, EvalResult]:
    """Capacity-proportional routing, uniform CPU split, repaired to stability.

    lam rows start proportional to compute capacity and fshare uniform.  If
    some queue is overloaded, each app's excess load moves to its
    largest-slack stations; if a row cannot fit under the current split,
    fshare is rebalanced proportionally to the demanded cycle rates and the
    shift is retried.  Returns the point with its evaluation (search flags
    re-chosen, margin 0), tabled once unless the repair moved it.  Raises
    Infeasible when no stable point is found.
    """
    A, N = scenario.num_apps, scenario.num_stations
    caps = scenario.compute_capacities
    rates = scenario.total_rates

    lam = np.tile(caps / caps.sum(), (A, 1))
    fshare = np.full((A, N), 1.0 / A)
    wa = scenario.workloads[:, None]
    table = branch_tables(scenario, hit.total, lam, fshare)
    srv_best = np.minimum(wa * np.ones((A, N)), table.srv1)
    moved = False
    for _attempt in range(4):
        f = fshare * caps[None, :]
        cap_load = (1.0 - DELTA_STAB) * (1.0 - REPAIR_SHRINK) * f / srv_best
        load = lam * rates[:, None]
        if np.all(load <= cap_load):
            break
        moved = True
        stuck = False
        for a in range(A):
            if rates[a] == 0.0:
                continue
            row = np.minimum(load[a], cap_load[a])
            excess = float(load[a].sum() - row.sum())
            if excess <= 0.0:
                continue
            slack = cap_load[a] - row
            for n in np.argsort(-slack, kind="stable"):
                take = min(excess, float(slack[n]))
                row[n] += take
                excess -= take
                if excess <= 0.0:
                    break
            if excess > 1e-12 * rates[a]:
                stuck = True
            load[a] = row
            lam[a] = row / rates[a]
            lam[a, np.argmax(lam[a])] += 1.0 - lam[a].sum()
        if not stuck:
            continue
        # rebalance each station's CPU toward the demanded cycle rates
        demand = load * srv_best
        col = demand.sum(axis=0)
        fshare = np.where(col[None, :] > 0.0, demand / np.maximum(col, 1e-300),
                          1.0 / A)
        fshare = fshare / fshare.sum(axis=0, keepdims=True)

    if moved:
        table = branch_tables(scenario, hit.total, lam, fshare)
    cheaper = np.broadcast_to(table.srv1 < wa, (A, N)).astype(np.int8)
    stable, _ = selected_stability(scenario, hit.total, lam, fshare, cheaper,
                                   DELTA_STAB, table=table)
    if not stable.all():
        raise Infeasible("no stable routing found for the given capacities")
    res = evaluate_with_rates(scenario, hit.total, hit.neighbor, lam, fshare,
                              table=table)
    return SchedulingState(lam=lam, fshare=fshare, y=res.y), res
