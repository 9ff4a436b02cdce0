"""Response-time formulas, the weighted objective and its analytic gradient.

Each (app, station) pair is an isolated FCFS queue.  Without cache searching
the queue is M/M/1 with service rate mu0 = f/w^a.  With searching the service
time is w^s/f plus, on a miss, an Exp(w^a)/f computation, giving an M/G/1
queue with rate mu1 = f/(w^s + (1-P_hr) w^a) and the Pollaczek-Khinchine mean
sojourn.  branch_delays evaluates both in cycle units,

    D0 = w^a / (f - load w^a),
    D1 = srv1/f + load (srv1^2 + (1-P^2) w^2) / (2 f (f - load srv1)),

with srv1 = w^s + (1-P) w^a, which is the same algebra with fewer divisions.
Every delay in the package, scalar or per (app, station), comes from there,
and so does every stability decision: a branch is stable when its slack
f - load E[S] is positive.  One table per decision point serves its search
flags, objective, stability test and gradient; the line search tables a
block of points in one broadcast over a leading axis.  A ScenarioStack
passes for a scenario: its arrays carry a leading problem axis, and the
same formulas evaluate every problem of the stack in one broadcast.  One
queue's dD1/dP is hit_derivative, a scalar formula the caching level search
sums over the searching stations at every probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StabilityViolation
from .model import CacheAssignment, Scenario, SchedulingState, compute_hit_rates

# slope reported for routing load onto a zero-CPU queue; the projection step
# zeroes such coordinates, the value itself never enters any accepted point
BIG_GRADIENT = 1e12


# -- branch delays -------------------------------------------------------------


class BranchDelays(NamedTuple):
    """Both branch sojourn times plus the terms the gradient reuses.

    ``f``/``load`` are the CPU speed and arrival rate they were computed at;
    ``d0``/``d1`` are the M/M/1 and M/G/1 mean sojourn times (s), 0 where
    ``ok0``/``ok1`` mark the branch unstable; ``den0``/``den1`` are the
    stability slacks f - load w (cycles/s), ``srv1`` the mean search-branch
    cost and ``sq`` its second-moment numerator (cycles^2).
    """

    f: np.ndarray
    load: np.ndarray
    d0: np.ndarray
    ok0: np.ndarray
    d1: np.ndarray
    ok1: np.ndarray
    den0: np.ndarray
    den1: np.ndarray
    srv1: np.ndarray
    sq: np.ndarray


def branch_delays(f, load, wa, ws, hit) -> BranchDelays:
    """Both branches at CPU speed f (cycles/s) and arrival rate load (tasks/s).

    ``wa`` is the mean workload, ``ws`` the search workload (cycles) and
    ``hit`` the total hit rate; all arguments broadcast, so the same call
    serves one queue and an (app, station) table.  No infinities are stored.
    A branch is ok when f > 0 and its slack is positive.
    """
    fpos = f > 0.0

    den0 = f - load * wa
    ok0 = fpos & (den0 > 0.0)
    d0 = np.divide(wa * np.ones_like(f), den0, out=np.zeros_like(f), where=ok0)

    srv1 = ws + (1.0 - hit) * wa
    den1 = f - load * srv1
    ok1 = fpos & (den1 > 0.0)
    sq = srv1 * srv1 + (1.0 - hit * hit) * wa * wa
    two_f_den1 = 2.0 * f * den1
    d1 = np.divide(srv1 * np.ones_like(f), f, out=np.zeros_like(f), where=fpos)
    d1 += np.divide(load * sq, two_f_den1, out=np.zeros_like(f), where=ok1)
    d1 = np.where(ok1, d1, 0.0)
    return BranchDelays(f, load, d0, ok0, d1, ok1, den0, den1, srv1, sq)


def hit_derivative(load: float, f: float, wa: float, ws: float,
                   hit: float) -> float:
    """Derivative of the cache-search sojourn time with respect to the hit rate.

    One queue: arrival rate ``load`` (tasks/s) first, then CPU speed ``f``
    (cycles/s), the reverse of branch_delays' (f, load) order; ``wa``,
    ``ws`` and ``hit`` as there.  Returns -inf when the queue is unstable
    at this hit rate (callers treat that as "unboundedly beneficial to
    raise the hit rate").
    """
    if f <= 0.0:
        return -math.inf
    W = (1.0 - hit) * wa + ws
    den = f - load * W
    if den <= 0.0:
        return -math.inf
    mu0sq = (f / wa) * (f / wa)
    t1 = wa / f
    t2 = load * load * wa * W * W / (2.0 * f * den * den)
    t3 = f * load * load * (1.0 - hit) * (1.0 + hit) * wa / (2.0 * mu0sq * den * den)
    t4 = f * load * hit / (mu0sq * den)
    t5 = load * wa * W / (f * den)
    return -(t1 + t2 + t3 + t4 + t5)


# -- vectorized objective ----------------------------------------------------


@dataclass
class EvalResult:
    """Objective evaluation at one decision point, or at a block of points
    stacked on a leading axis of lam and fshare.

    ``objective`` is None when some station carries load without a stable
    service branch, and on a block, whose k-th point is ``point(k)`` and
    whose ``objectives()`` are its points'; ``stable`` holds that test per
    point.  On a ScenarioStack a point is one
    decision per problem of the stack: ``objective`` then holds one value
    per problem, NaN where that problem is unstable.  Delays are per (app,
    station) with 0 where no traffic is routed and no CPU assigned, and None
    when no point is stable.  ``table`` holds the branch delays the points
    were evaluated from; ``weights`` are the apps' objective weights.
    """

    objective: float | None
    app_delays: np.ndarray | None
    station_delays: np.ndarray | None
    y: np.ndarray
    table: BranchDelays
    stable: np.ndarray
    weights: np.ndarray

    @property
    def feasible(self) -> bool:
        """Whether this point, or every problem of a stacked point, is stable."""
        return self.objective is not None and bool(self.stable.all())

    def objectives(self) -> np.ndarray:
        """Every point's objective, over the block's and the stack's axes,
        NaN where the point is unstable."""
        if self.app_delays is None:
            return np.full(self.stable.shape, np.nan)
        return np.asarray(_weighted(self.weights, self.app_delays, self.stable))

    def point(self, k: int) -> EvalResult:
        """The k-th point of a block, as evaluating it alone would give.

        Arrays with the block's leading axis are sliced; ``srv1``, ``sq``
        and flags given for the whole block are shared.
        """
        lead = self.table.f.ndim
        table = BranchDelays(*(x[k] if x.ndim == lead else x
                               for x in self.table))
        y = self.y[k] if self.y.ndim == lead else self.y
        stable = self.stable[k]
        if not stable.any():
            return EvalResult(None, None, None, y, table, stable, self.weights)
        app_delays = self.app_delays[k]
        return EvalResult(_weighted(self.weights, app_delays, stable),
                          app_delays, self.station_delays[k], y, table, stable,
                          self.weights)


def _weighted(weights: np.ndarray, app_delays: np.ndarray, stable: np.ndarray):
    """The objective weights @ app_delays: a float for one point, and for
    points on leading axes an array of them, NaN where unstable.

    matmul computes a row-times-column product with the BLAS dot that
    ``weights @ app_delays`` calls for one point, once per point of the
    leading axes, so every point's value is the one it has alone."""
    if app_delays.ndim == 1:
        return float(weights @ app_delays)
    values = np.matmul(weights[..., None, :], app_delays[..., :, None])
    return np.where(stable, values[..., 0, 0], np.nan)


def branch_tables(scenario: Scenario, total_hit: np.ndarray,
                  lam: np.ndarray, fshare: np.ndarray) -> BranchDelays:
    """branch_delays over every (app, station) queue of a decision point.

    ``lam`` and ``fshare`` may carry leading axes (a block of points); every
    field then has them too, except ``srv1`` and ``sq``, which depend on the
    app (and on a stack, the problem) alone.
    """
    f = fshare * scenario.compute_capacities[..., None, :]
    load = lam * scenario.total_rates[..., :, None]
    return branch_delays(f, load, scenario.workloads[:, None],
                         scenario.search_workload, total_hit[..., :, None])


def _stable(t: BranchDelays, y, wa, margin: float = 0.0) -> np.ndarray:
    """Where the branch y selects is ok, or the queue is idle (no load, no CPU).

    A positive ``margin`` also caps the utilisation load E[S] / f at
    1 - margin, with E[S] = ``wa`` on branch 0 (the line search's margin).
    Elementwise, so a table with leading axes gives a test with them.
    """
    search = y == 1
    ok = np.where(search, t.ok1, t.ok0)
    if margin:
        ok &= t.load * np.where(search, t.srv1, wa) <= (1.0 - margin) * t.f
    return ok | ((t.load == 0.0) & (t.f == 0.0))


def selected_stability(scenario: Scenario, total_hit: np.ndarray,
                       lam: np.ndarray, fshare: np.ndarray, y: np.ndarray,
                       margin: float = 0.0, table: BranchDelays | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(stable, slack) per (app, station) for the service branch y selects.

    ``stable`` is the test evaluate_with_rates applies at ``margin``;
    ``slack`` is f - load E[S] of the selected branch (cycles/s), negative
    on an overloaded queue.  ``table`` as in evaluate_with_rates.
    """
    t = branch_tables(scenario, total_hit, lam, fshare) if table is None else table
    stable = _stable(t, y, scenario.workloads[:, None], margin)
    return stable, np.where(y == 1, t.den1, t.den0)


def evaluate_with_rates(scenario: Scenario, total_hit: np.ndarray,
                        neighbor_hit: np.ndarray, lam: np.ndarray,
                        fshare: np.ndarray, y: np.ndarray | None = None,
                        margin: float = 0.0,
                        table: BranchDelays | None = None) -> EvalResult:
    """Weighted objective from precomputed hit rates; y recomputed if None,
    as the faster branch per queue (ties keep y = 0).

    A point whose selected branches are not stable at ``margin`` evaluates
    as infeasible.  ``table``, when given, is this point's branch_tables
    (from an earlier evaluation of it) and is not built again.

    ``lam`` and ``fshare`` may carry a leading axis, a block of points
    evaluated in one broadcast; every elementwise operation and every
    per-point sum is then the one a single point takes, and the points'
    objectives are left to ``objectives()`` and ``point(k)``.  On a
    ScenarioStack the hit rates, ``lam``, ``fshare`` and ``y`` carry its
    problem axis, after any block axis.
    """
    t = branch_tables(scenario, total_hit, lam, fshare) if table is None else table
    dt = scenario.transfer_delays[..., None, :]
    d1_remote = t.d1 + neighbor_hit * dt
    if y is None:  # the faster branch; an unstable one is infinitely slow
        y = (np.where(t.ok0, t.d0, np.inf)
             > np.where(t.ok1, d1_remote, np.inf)).astype(np.int8)
    weights = scenario.weights
    stable = np.all(_stable(t, y, scenario.workloads[:, None], margin),
                    axis=(-2, -1))
    if not stable.any():
        return EvalResult(None, None, None, y, t, stable, weights)

    idle = (t.load == 0.0) & (t.f == 0.0)
    station_delays = np.where(y == 1, d1_remote, t.d0)
    station_delays = np.where(idle, 0.0, station_delays)

    rates = scenario.total_rates
    carried = rates > 0.0
    arr = scenario.arrival_rate_matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        trans = np.abs(t.load - arr) * dt / rates[..., :, None]
    trans = np.where(carried[..., :, None], trans, 0.0)
    app_delays = np.where(carried, (lam * station_delays).sum(axis=-1)
                          + trans.sum(axis=-1), 0.0)
    objective = (_weighted(weights, app_delays, stable)
                 if app_delays.ndim == weights.ndim else None)
    return EvalResult(objective, app_delays, station_delays, y, t, stable,
                      weights)


def evaluate_objective(scenario: Scenario, cache: CacheAssignment,
                       sched: SchedulingState,
                       frozen_y: np.ndarray | None = None) -> EvalResult:
    """Non-raising objective evaluation (hit rates from the cache)."""
    rates = compute_hit_rates(scenario, cache)
    neighbor = rates.neighbor
    return evaluate_with_rates(scenario, rates.total, neighbor, sched.lam,
                               sched.fshare, y=frozen_y)


# -- analytic gradient -------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveGradient:
    dlam: np.ndarray     # seconds per unit workload fraction, (A, N)
    dfshare: np.ndarray  # seconds per unit CPU share, (A, N)


def gradient_with_rates(scenario: Scenario, res: EvalResult,
                        lam: np.ndarray) -> ObjectiveGradient:
    """Exact partials of the y-frozen objective w.r.t. lam and fshare at
    the point ``res`` evaluated (margin 0) from routing ``lam``; on a
    ScenarioStack, at every problem's point, all of which must be stable."""
    if not res.stable.all():
        raise StabilityViolation("gradient requested at an unstable point")
    t = res.table
    wa = scenario.workloads[:, None]
    dt = scenario.transfer_delays[..., None, :]
    phi = scenario.weights[..., :, None]
    ysel = res.y == 1
    idle = (t.load == 0.0) & (t.f == 0.0)

    # d(lam * D)/dlam = D + load dD/dload on the selected branch; load = lam * R
    g0 = np.divide(t.load * wa * wa, t.den0 * t.den0,
                   out=np.zeros_like(t.f), where=t.ok0)
    g1 = np.divide(t.load * t.sq, 2.0 * t.den1 * t.den1,
                   out=np.zeros_like(t.f), where=t.ok1)
    sign = np.where(t.load - scenario.arrival_rate_matrix >= 0.0, 1.0, -1.0)
    dlam = phi * ((res.station_delays + np.where(ysel, g1, g0)) + sign * dt)

    # d(lam * D)/df per branch, then chain rule df/dfshare = C_n
    h0 = -np.divide(lam * wa, t.den0 * t.den0, out=np.zeros_like(t.f), where=t.ok0)
    h1 = -np.divide(lam * t.srv1, t.f * t.f, out=np.zeros_like(t.f), where=t.ok1)
    h1 -= np.divide(lam * t.load * t.sq * (t.den1 + t.f),
                    2.0 * t.f * t.f * t.den1 * t.den1,
                    out=np.zeros_like(t.f), where=t.ok1)
    dfshare = (phi * np.where(ysel, h1, h0)
               * scenario.compute_capacities[..., None, :])

    # zero-CPU, zero-load coordinates: routing load there is ruinous, adding
    # CPU there changes nothing
    dlam = np.where(idle, BIG_GRADIENT, dlam)
    dfshare = np.where(idle, 0.0, dfshare)

    # apps with no traffic contribute nothing anywhere
    quiet = scenario.total_rates[..., :, None] == 0.0
    dlam = np.where(quiet, 0.0, dlam)
    dfshare = np.where(quiet, 0.0, dfshare)
    return ObjectiveGradient(dlam=dlam, dfshare=dfshare)
