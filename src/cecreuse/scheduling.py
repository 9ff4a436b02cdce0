"""Workload routing and CPU allocation by projected gradient descent.

The decision block is the pair (lam, fshare): lam rows live on the
probability simplex (each app's workload split over stations), fshare
columns live on the simplex too (each station's CPU split over apps).  Both
projections are separable, so the euclidean projection of the whole block is
row/column-wise sort-based simplex projection.  Steps follow a diminishing
schedule theta0 / sqrt(i) toward the projected target, with an Armijo
backtracking line search that additionally keeps every queue strictly inside
its stability region by a small margin.  The line search tables its
candidate steps STEP_BLOCK (12) at a time, one broadcast evaluation per
block, and hands the accepted step's table and objective on, so the next
iterate is neither tabled nor evaluated again.  The cache is frozen for
the whole descent, so the hit half of every table (delay.hit_tables) is
built once and only the load half is tabled per block; each line search
holds its flag terms (y == 1 and the selected service cost) once.
Independent problems of the same shape descend together as a
ScenarioStack: one block per iteration for all of them, each with its own
steps, tests and stopping, as it would descend alone.  A problem that stops
keeps its place in the stack with a zero direction, so from then on its
line searches table only its own point and keep its bits.

The block width only groups steps: each problem takes its first passing
step whatever the width.  On the seed-601 desk_sweep benchmark operations
a pass tables 1,711 blocks at width 8 and 1,412 at 12 (1,523 at 9, 1,478
at 10, 1,346 at 16); widths 10 and 12 timed alike there, about 3% faster
than 8 and 16, and 12 tables fewer blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .delay import (BranchDelays, EvalResult, accepted_evaluation,
                    branch_tables, evaluate_with_rates, gradient_with_rates,
                    hit_tables, search_flags, selected_stability)
from .errors import (EmptyVector, Infeasible, MalformedInput,
                     StabilityViolation)
from .model import HitRateTable, Scenario, ScenarioStack, SchedulingState


ALPHA = 0.3         # Armijo sufficient-decrease fraction
BETA = 0.5          # backtracking shrink factor
J_MAX = 60          # line-search attempts before giving up
STEP_BLOCK = 12     # line-search steps tabled in one broadcast
DELTA_STAB = 1e-6   # relative utilization margin below 1

# the line search's step sizes beta^j, j = 0..J_MAX, and their Armijo factors
STEP_SIZES = np.array([BETA ** j for j in range(J_MAX + 1)])
ARMIJO = -ALPHA * STEP_SIZES


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

    Both may carry a leading problem axis; every row and column is then
    projected as it is alone.  Both come back C-ordered, like the iterates,
    so that sums over them reduce in the same order."""
    rows = project_rows(lam.reshape(-1, lam.shape[-1])).reshape(lam.shape)
    cols = np.swapaxes(fshare, -1, -2)
    cols = project_rows(cols.reshape(-1, cols.shape[-1])).reshape(cols.shape)
    return (np.ascontiguousarray(rows),
            np.ascontiguousarray(np.swapaxes(cols, -1, -2)))


class StackStep(NamedTuple):
    """The step each problem of a stack took in one line search."""
    steps: np.ndarray      # accepted j, J_MAX + 1 where exhausted
    # objective and table at the accepted points; where exhausted, at the
    # current point: the base objective and the rows of the table given
    objective: np.ndarray
    table: BranchDelays


def backtrack(objective_fn, point: tuple[np.ndarray, np.ndarray],
              direction: tuple[np.ndarray, np.ndarray], base_obj, grad_dot_dir,
              table: BranchDelays):
    """Each problem's smallest j whose step beta^j meets the decrease and
    margin tests.

    ``point`` and ``direction`` carry a leading problem axis, ``base_obj``
    and ``grad_dot_dir`` hold one value per problem, and ``table`` holds
    the points' branch delays.  A step passes when its objective is no
    higher than the problem's ``base_obj`` and meets the Armijo test.  The
    steps are tabled STEP_BLOCK at a time: objective_fn takes lam and
    fshare with a leading step axis and returns an evaluation of the
    block, whose ``objectives()`` holds each (step, problem) objective,
    NaN on points that are unstable or inside the stability margin.  The
    test runs per (step, problem): each problem takes its first passing
    step, and blocks are tabled while some problem has none, so each
    result is the one a step-by-step search gives.  Returns (backtracks,
    lam, fshare, StackStep), where backtracks sums the accepted steps' j;
    a problem whose search is exhausted keeps its point, its base
    objective and its rows of ``table``, and raises nothing.

    A problem is stalled when a block's smallest step fails and leaves
    every entry of its point equal, and that step's objective also fails
    against the bound of step J_MAX.  Every later step is smaller, so it
    rounds to the same bits and objective, and its bound lies between
    those two: it fails too.  Blocks are tabled only while some problem
    with no step yet is not stalled, so the result is the full search's.
    A zero direction stalls or passes in the first block.
    """
    base = np.asarray(base_obj)
    steps = np.full(base.shape, J_MAX + 1)   # per problem; J_MAX + 1: none yet
    stalled = np.zeros(base.shape, dtype=bool)
    taken = None    # the accepted points, once some problems have one
    lead = (slice(None),) + (None,) * point[0].ndim   # the step axis
    for first in range(0, J_MAX + 1, STEP_BLOCK):
        sizes = STEP_SIZES[first:first + STEP_BLOCK]
        lam = point[0] + sizes[lead] * direction[0]
        fsh = point[1] + sizes[lead] * direction[1]
        block = objective_fn(lam, fsh)
        obj = block.objectives()
        bound = ARMIJO[first:first + STEP_BLOCK, None] * grad_dot_dir
        passed = (obj <= base) & (base - obj >= bound)
        if taken is not None:
            passed &= steps > J_MAX
        new = passed.any(axis=0)
        if not new.all():   # only a problem with no passing step stalls
            last = obj[-1]
            stalled |= (~new & _unmoved(lam[-1], point[0])
                        & _unmoved(fsh[-1], point[1])
                        & ~((last <= base)
                            & (base - last >= ARMIJO[-1] * grad_dot_dir)))
        if not new.any():
            if ((steps <= J_MAX) | stalled).all():
                break
            continue
        k = passed.argmax(axis=0)   # each problem's first passing step
        if taken is None and new.all() and (k == k[0]).all():
            # every problem takes the same step: the block's slice of it
            k = int(k[0])
            return ((first + k) * len(new), lam[k], fsh[k], StackStep(
                np.full(base.shape, first + k), obj[k],
                BranchDelays(*(x[k] if x.ndim == lam.ndim else x
                               for x in block.table))))
        steps[new] = first + k[new]
        if taken is None:
            taken = (point[0].copy(), point[1].copy(),
                     np.array(base, dtype=np.float64), [x.copy() for x in table])
        at = (k[new], np.flatnonzero(new))
        for mine, x in zip(taken[:3], (lam, fsh, obj)):
            mine[new] = x[at]
        for mine, x in zip(taken[3], block.table):
            mine[new] = x[at] if x.ndim == lam.ndim else x[new]
        if ((steps <= J_MAX) | stalled).all():
            break
    if taken is None:
        return 0, point[0], point[1], StackStep(steps, base, table)
    return (int(steps[steps <= J_MAX].sum()), taken[0], taken[1],
            StackStep(steps, taken[2], BranchDelays(*taken[3])))


def _unmoved(x: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Per problem (the leading axis), whether every entry of x equals
    point's."""
    return (x == point).reshape(len(point), -1).all(axis=1)


# a projected target this close to the iterate counts as stationary
STATIONARY_TOL = 1e-14
# the repair fills queues to this much less than the load the stability
# margin allows, so that rounding cannot carry a filled queue past the
# margin the final check applies
REPAIR_SHRINK = 1e-12


def solve_scheduling(scenario: Scenario | ScenarioStack, hit: HitRateTable,
                     sched: SchedulingState, iters: int,
                     params: PgdParams = PgdParams()
                     ) -> tuple[SchedulingState, list]:
    """Improve (lam, fshare) under a frozen cache with hit table ``hit``.

    Search flags are re-chosen from the branch delays at the start of every
    iteration and held fixed through its gradient and line search.  The
    trace rows are (iteration, objective, backtrack_count); the objective
    column is non-increasing.  Stops early at a stationary projected target
    or when the line search is exhausted, keeping the current point; a
    gradient that overflows is MalformedInput.  Each block of line-search
    steps is tabled once, and the accepted step's slice of its table is
    handed on to the next iteration and the final flags, so no point is
    tabled twice.  Each iterate is evaluated once: after the first, its
    flags are chosen again from that table, and where they equal the flags
    its line search held fixed, its objective is the one that search found
    (delay.accepted_evaluation); only where they moved is it evaluated in
    full.  The final flags come from the last table.

    A ScenarioStack descends all of its problems together: ``hit`` and
    ``sched`` carry its problem axis, and the trace comes back as one list
    per problem.  Each iteration tables, differentiates, projects and
    line-searches every problem in one block; each problem keeps its own
    step, stationary test and line search.  One that stops stays in the
    block with a zero direction, so each later line search tables only its
    own point and its point, table and objective keep their bits: each
    ends where it would alone.  A failing problem raises, but not
    necessarily the first to fail: a caller that needs that one runs the
    problems alone.  A scenario descends as a stack of one.
    """
    out = sched.copy()
    if isinstance(scenario, ScenarioStack):
        out.lam, out.fshare, out.y, traces = _descend(
            scenario, hit.total, hit.neighbor, out.lam, out.fshare, iters,
            params)
        return out, traces
    lam, fshare, y, traces = _descend(
        ScenarioStack.of([scenario]), hit.total[None], hit.neighbor[None],
        out.lam[None], out.fshare[None], iters, params)
    out.lam, out.fshare, out.y = lam[0], fshare[0], y[0]
    return out, traces[0]


def _descend(stack: ScenarioStack, total: np.ndarray, neighbor: np.ndarray,
             lam: np.ndarray, fshare: np.ndarray, iters: int,
             params: PgdParams):
    """solve_scheduling over ``stack`` from (lam, fshare); returns the final
    (lam, fshare, y) and the per-problem traces.

    ``live`` marks the problems still descending: it gates their trace
    rows and their directions, which are zero once a problem stops.  The
    loop ends when none is live.
    """
    traces: list[list[tuple[int, float, int]]] = [[] for _ in range(len(stack))]
    live = np.ones(len(stack), dtype=bool)
    # the hit half of every table: the cache, so the hit rates, are frozen
    half = hit_tables(stack, total, neighbor)
    wa = stack.workloads[:, None]
    # the branch table of the current points, and their objectives under
    # the flags the last line search held fixed (held), once it has run
    table = objective = held = None
    for i in range(1, iters + 1):
        res = (None if table is None else
               accepted_evaluation(stack, held, table, objective))
        if res is None:   # the first iterate, or the flags moved
            res = evaluate_with_rates(stack, total, neighbor, lam, fshare,
                                      table=half if table is None else table)
            if not res.stable.all():
                raise StabilityViolation(
                    "scheduling started from an unstable point")
        table = res.table
        grad = gradient_with_rates(stack, res, lam)
        if not (np.isfinite(grad.dlam).all() and np.isfinite(grad.dfshare).all()):
            raise MalformedInput("the objective's gradient overflows: the "
                                 "scenario's delays or capacities are too large")
        theta = params.theta0 / np.sqrt(i)
        target = project_decisions(lam - theta * grad.dlam,
                                   fshare - theta * grad.dfshare)
        d_lam = target[0] - lam
        d_fsh = target[1] - fshare
        lam_move = np.abs(d_lam).max(axis=(-2, -1))
        fsh_move = np.abs(d_fsh).max(axis=(-2, -1))
        # stationary: Python's max(lam_move, fsh_move) below the tolerance
        still = live & (np.where(fsh_move > lam_move, fsh_move, lam_move)
                        < STATIONARY_TOL)
        base = res.objective
        # the masks apply only once a problem has stopped: most stacks hold
        # one problem, which never needs them, and on a small problem they
        # cost about 5% of each iteration
        if still.any():
            for p in np.flatnonzero(still):
                traces[p].append((i, float(base[p]), 0))
            live &= ~still
            if not live.any():
                break
        if not live.all():
            d_lam = np.where(live[:, None, None], d_lam, 0.0)
            d_fsh = np.where(live[:, None, None], d_fsh, 0.0)
        grad_dot = ((grad.dlam * d_lam).sum(axis=(-2, -1))
                    + (grad.dfshare * d_fsh).sum(axis=(-2, -1)))
        held = half.held(res.y, wa)

        def objective_fn(lam_k, fsh_k):
            return evaluate_with_rates(stack, total, neighbor, lam_k, fsh_k,
                                       margin=DELTA_STAB, table=held)

        _, lam, fshare, step = backtrack(objective_fn, (lam, fshare),
                                         (d_lam, d_fsh), base, grad_dot, table)
        table, objective = step.table, step.objective
        steps, objs = step.steps.tolist(), objective.tolist()
        for p, on in enumerate(live.tolist()):
            if on:
                traces[p].append((i, objs[p], steps[p]))
        if max(steps) > J_MAX:   # exhausted searches keep their points
            live &= step.steps <= J_MAX
            if not live.any():
                break
    if table is None:   # no iteration ran
        table = branch_tables(stack, total, lam, fshare)
    return lam, fshare, search_flags(half, table), traces


def initial_feasible_point(scenario: Scenario, hit: HitRateTable
                           ) -> tuple[SchedulingState, EvalResult]:
    """Capacity-proportional routing, uniform CPU split, repaired to stability.

    lam rows start proportional to compute capacity and fshare uniform.  If
    some queue is overloaded, each app's excess load moves to its
    largest-slack stations; if a row cannot fit under the current split,
    fshare is rebalanced proportionally to the demanded cycle rates and the
    shift runs again, up to four shifts in all.  Returns the point with its
    evaluation (search flags re-chosen, margin 0), tabled once unless the
    repair moved it.  Raises Infeasible when no stable point is found.
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
