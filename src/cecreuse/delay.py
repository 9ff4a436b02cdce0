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
same formulas evaluate every problem of the stack in one broadcast.

The table is two halves joined: a load half (f, load, branch 0 and the
idle mask), which reads the routing and CPU shares alone, and a hit half
(srv1, sq), which reads the hit rate alone; branch 1 reads both.  Each
alternating subproblem holds one of them fixed and tables it once:
the caching sweep, whose lam and fshare are frozen, the load half with
each app's transfer term (load_tables); the descent, whose cache is
frozen, the hit half with the neighbor-hit transfer (hit_tables), and
each of its line searches that half with its held flags.
evaluate_with_rates takes whichever half its caller froze and tables the
other, with the same operations in the same order, so every value keeps
its bits.  One queue's dD1/dP is hit_derivative, which splits the same
way: its hit-free factors per queue (hit_factors), which the caching
level search tables once per context, and the rest (hit_sensitivity),
which it sums over the searching stations at every probe.
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
    cost and ``sq`` its second-moment numerator (cycles^2); ``idle`` marks
    the queues with no load and no CPU, stable with delay 0.
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
    idle: np.ndarray


class LoadHalf(NamedTuple):
    """The terms of branch_delays that do not read the hit rate: the CPU
    speed, the arrival rate, whether f > 0, branch 0 and the idle mask.

    ``transfer``, filled by load_tables, holds each app's summed transfer
    term, the part of its delay that reads the routing alone.
    """

    f: np.ndarray
    load: np.ndarray
    fpos: np.ndarray
    den0: np.ndarray
    ok0: np.ndarray
    d0: np.ndarray
    idle: np.ndarray
    transfer: np.ndarray | None = None


class HitHalf(NamedTuple):
    """The terms of branch_delays that read the hit rate alone: ``srv1``
    and ``sq``.

    ``remote``, filled by hit_tables, is the neighbor hit rate times the
    transfer delay, which the search branch adds.  ``y``, ``search``
    (y == 1) and ``cost`` (the mean service cost of the branch y selects)
    are the flag terms of a line search that holds y fixed (held).
    """

    srv1: np.ndarray
    sq: np.ndarray
    remote: np.ndarray | None = None
    y: np.ndarray | None = None
    search: np.ndarray | None = None
    cost: np.ndarray | None = None

    def held(self, y: np.ndarray, wa: np.ndarray) -> "HitHalf":
        """This half with the flags ``y`` held fixed; ``wa`` is the mean
        workload, branch 0's service cost."""
        search = y == 1
        return self._replace(y=y, search=search,
                             cost=np.where(search, self.srv1, wa))


def load_half(f, load, wa) -> LoadHalf:
    """branch_delays' load half at CPU speed f and arrival rate load."""
    fpos = f > 0.0
    den0 = f - load * wa
    ok0 = fpos & (den0 > 0.0)
    d0 = np.divide(wa, den0, out=np.zeros(np.shape(den0)), where=ok0)
    return LoadHalf(f, load, fpos, den0, ok0, d0, (load == 0.0) & (f == 0.0))


def hit_half(wa, ws, hit) -> HitHalf:
    """branch_delays' hit half at total hit rate hit."""
    srv1 = ws + (1.0 - hit) * wa
    return HitHalf(srv1, srv1 * srv1 + (1.0 - hit * hit) * wa * wa)


def _joined(lh: LoadHalf, hh: HitHalf) -> BranchDelays:
    """The table of both halves: branch 1, which reads both."""
    f, load, srv1 = lh.f, lh.load, hh.srv1
    den1 = f - load * srv1
    ok1 = lh.fpos & (den1 > 0.0)
    two_f_den1 = 2.0 * f * den1
    # both terms only where branch 1 is ok (ok1 implies f > 0): 0 elsewhere;
    # the waiting term is 0 without load too, where 2 f den1 = 2 f^2 may
    # underflow to 0
    d1 = np.divide(srv1, f, out=np.zeros(np.shape(den1)), where=ok1)
    d1 += np.divide(load * hh.sq, two_f_den1, out=np.zeros(np.shape(den1)),
                    where=ok1 & (load > 0.0))
    return BranchDelays(f, load, lh.d0, lh.ok0, d1, ok1, lh.den0, den1, srv1,
                        hh.sq, lh.idle)


def branch_delays(f, load, wa, ws, hit) -> BranchDelays:
    """Both branches at CPU speed f (cycles/s) and arrival rate load (tasks/s).

    ``wa`` is the mean workload, ``ws`` the search workload (cycles) and
    ``hit`` the total hit rate; all arguments broadcast, so the same call
    serves one queue and an (app, station) table.  No infinities are stored.
    A branch is ok when f > 0 and its slack is positive.  The table is
    its load half (load_half) joined with its hit half (hit_half).
    """
    return _joined(load_half(f, load, wa), hit_half(wa, ws, hit))


def hit_factors(load: float, f: float, wa: float) -> tuple[float, ...]:
    """The hit-free factors of hit_derivative at one queue: (load, f,
    wa/f, mu0^2, load^2 wa, 2f, f load, f load^2, 2 mu0^2, load wa), with
    mu0 = f/wa; the quotients are 0.0 where f <= 0, which
    hit_sensitivity reads as unstable before any of them."""
    if f <= 0.0:
        return (load, f) + (0.0,) * 8
    mu0sq = (f / wa) * (f / wa)
    fl = f * load
    return (load, f, wa / f, mu0sq, load * load * wa, 2.0 * f, fl, fl * load,
            2.0 * mu0sq, load * wa)


def hit_sensitivity(stations, wa: float, ws: float, hit: float) -> float:
    """Sum of c (dD1/dP + dt) over ``stations``, tuples (c, dt, *factors)
    of a weight, a transfer delay and one queue's hit_factors: the
    hit-dependent part of hit_derivative.  -inf as soon as one queue is
    unstable at this hit rate."""
    unstable = -math.inf
    omh = 1.0 - hit
    W = omh * wa + ws
    oph = 1.0 + hit
    total = 0.0
    for c, dt, load, f, t1, mu0sq, llw, two_f, fl, fll, two_mu0sq, lw in stations:
        if f <= 0.0:
            return unstable
        den = f - load * W
        if den <= 0.0:
            return unstable
        t2 = llw * W * W / (two_f * den * den)
        t3 = fll * omh * oph * wa / (two_mu0sq * den * den)
        t4 = fl * hit / (mu0sq * den)
        t5 = lw * W / (f * den)
        d = -(t1 + t2 + t3 + t4 + t5)
        if d == unstable:
            return unstable
        total = total + c * (d + dt)
    return total


def hit_derivative(load: float, f: float, wa: float, ws: float,
                   hit: float) -> float:
    """Derivative of the cache-search sojourn time with respect to the hit rate.

    One queue: arrival rate ``load`` (tasks/s) first, then CPU speed ``f``
    (cycles/s), the reverse of branch_delays' (f, load) order; ``wa``,
    ``ws`` and ``hit`` as there.  Returns -inf when the queue is unstable
    at this hit rate (callers treat that as "unboundedly beneficial to
    raise the hit rate").  With W = (1 - P) wa + ws and den = f - load W,

        dD1/dP = -(wa/f + load^2 wa W^2 / (2 f den^2)
                   + f load^2 (1 - P)(1 + P) wa / (2 mu0^2 den^2)
                   + f load P / (mu0^2 den) + load wa W / (f den)),

    its hit-free factors per queue (hit_factors) and the rest
    (hit_sensitivity, at weight 1 and no transfer).
    """
    return hit_sensitivity(((1.0, 0.0) + hit_factors(load, f, wa),), wa, ws, hit)


# -- vectorized objective ----------------------------------------------------


@dataclass
class EvalResult:
    """Objective evaluation at one decision point, or at a block of points
    stacked on a leading axis of lam and fshare.

    ``objective`` is None when some station carries load without a stable
    service branch, and on a block, whose ``objectives()`` are its
    points'; ``stable`` holds that test per point.  On a ScenarioStack a
    point is one decision per problem of the stack: ``objective`` then
    holds one value per problem, NaN where that problem is unstable.
    Delays are per (app, station) with 0 where no traffic is routed and no
    CPU assigned, and None when no point is stable; ``app_delays`` is None
    too on an accepted_evaluation, which forms only the station delays.
    ``table`` holds the branch delays the points were evaluated from;
    ``weights`` are the apps' objective weights.
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


def load_tables(scenario: Scenario, lam: np.ndarray,
                fshare: np.ndarray) -> LoadHalf:
    """branch_tables' load half, with each app's summed transfer term:
    what a caller that holds (lam, fshare) fixed tables once."""
    f = fshare * scenario.compute_capacities[..., None, :]
    load = lam * scenario.total_rates[..., :, None]
    return load_half(f, load, scenario.workloads[:, None])._replace(
        transfer=_transfer_sums(scenario, load))


def _transfer_sums(scenario: Scenario, load: np.ndarray) -> np.ndarray:
    """Per app, the transfer delay its rerouted load pays, summed over the
    stations and divided by its rate; 0 for an app with no traffic."""
    rates = scenario.total_rates[..., :, None]
    trans = (np.abs(load - scenario.arrival_rate_matrix)
             * scenario.transfer_delays[..., None, :])
    return np.divide(trans, rates, out=np.zeros(np.shape(trans)),
                     where=rates > 0.0).sum(axis=-1)


def hit_tables(scenario: Scenario, total_hit: np.ndarray,
               neighbor_hit: np.ndarray) -> HitHalf:
    """branch_tables' hit half, with the search branch's transfer of
    neighbor hits: what a caller that holds the cache fixed tables once."""
    return hit_half(scenario.workloads[:, None], scenario.search_workload,
                    total_hit[..., :, None])._replace(
        remote=neighbor_hit * scenario.transfer_delays[..., None, :])


def _stable(t: BranchDelays, search, margin: float = 0.0, cost=None
            ) -> np.ndarray:
    """Where the branch ``search`` (y == 1) selects is ok, or the queue is
    idle.

    A positive ``margin`` also caps the utilisation load E[S] / f at
    1 - margin, with E[S] = ``cost``, the selected branch's mean service
    cost (the line search's margin).  Elementwise, so a table with leading
    axes gives a test with them.
    """
    ok = np.where(search, t.ok1, t.ok0)
    if margin:
        ok &= t.load * cost <= (1.0 - margin) * t.f
    return ok | t.idle


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
    search = y == 1
    stable = _stable(t, search, margin,
                     np.where(search, t.srv1, scenario.workloads[:, None]))
    return stable, np.where(search, t.den1, t.den0)


def _faster_branch(t: BranchDelays, d1_remote: np.ndarray) -> np.ndarray:
    """Search flags: the faster branch per queue, where an unstable branch
    is infinitely slow and ties keep y = 0."""
    return (np.where(t.ok0, t.d0, np.inf)
            > np.where(t.ok1, d1_remote, np.inf)).astype(np.int8)


def _station_delays(t: BranchDelays, search, d1_remote) -> np.ndarray:
    """Each queue's delay on the branch ``search`` selects, 0 where idle."""
    return np.where(t.idle, 0.0, np.where(search, d1_remote, t.d0))


def search_flags(hit: HitHalf, table: BranchDelays) -> np.ndarray:
    """The flags evaluate_with_rates chooses when given no y, from the
    point's ``table`` and its hit half alone."""
    return _faster_branch(table, table.d1 + hit.remote)


def accepted_evaluation(scenario: Scenario, held: HitHalf,
                        table: BranchDelays,
                        objective: np.ndarray) -> EvalResult | None:
    """evaluate_with_rates at a line search's accepted points, given no y
    and margin 0, or None where it must run in full.

    ``table`` holds the points' branch delays and ``objective`` their
    objectives under the flags ``held.y`` the search held fixed; a point
    passed the search's stability test at a positive margin, so it is
    stable at margin 0 too.  If the flags chosen again from the table
    equal y in every problem, evaluate_with_rates would find every point
    stable and give it that objective, since a block's objectives are
    those its points have alone (_weighted).  Only the station delays the
    gradient reads are formed then; ``app_delays`` is None.  Where flags
    moved, None.
    """
    d1_remote = table.d1 + held.remote
    if not (_faster_branch(table, d1_remote) == held.y).all():
        return None
    delays = _station_delays(table, held.search, d1_remote)
    return EvalResult(objective, None, delays, held.y, table,
                      np.ones(np.shape(objective), dtype=bool),
                      scenario.weights)


def evaluate_with_rates(scenario: Scenario, total_hit: np.ndarray,
                        neighbor_hit: np.ndarray, lam: np.ndarray,
                        fshare: np.ndarray, y: np.ndarray | None = None,
                        margin: float = 0.0,
                        table: BranchDelays | LoadHalf | HitHalf | None = None
                        ) -> EvalResult:
    """Weighted objective from precomputed hit rates; y recomputed if None,
    as the faster branch per queue (ties keep y = 0).

    A point whose selected branches are not stable at ``margin`` evaluates
    as infeasible.  ``table``, when given, is what the caller holds fixed,
    and it is not built again: the point's whole branch_tables (from an
    earlier evaluation of it), or one half with the other tabled here,
    the load_tables of the (lam, fshare) a caching sweep freezes or the
    hit_tables of the hit rates a descent freezes.  A hit half whose flags
    are held (HitHalf.held) brings y and its flag terms.

    ``lam`` and ``fshare`` may carry a leading axis, a block of points
    evaluated in one broadcast; every elementwise operation and every
    per-point sum is then the one a single point takes, and the points'
    objectives are left to ``objectives()``.  On a ScenarioStack the hit
    rates, ``lam``, ``fshare`` and ``y`` carry its problem axis, after any
    block axis.
    """
    if isinstance(table, BranchDelays):
        t, load, hit = table, None, None
        remote = neighbor_hit * scenario.transfer_delays[..., None, :]
    else:
        load = (table if isinstance(table, LoadHalf)
                else load_tables(scenario, lam, fshare))
        hit = (table if isinstance(table, HitHalf)
               else hit_tables(scenario, total_hit, neighbor_hit))
        t, remote = _joined(load, hit), hit.remote
    d1_remote = t.d1 + remote
    cost = None
    if hit is not None and hit.y is not None:
        y, search, cost = hit.y, hit.search, hit.cost
    else:
        if y is None:
            y = _faster_branch(t, d1_remote)
        search = y == 1
        if margin:
            cost = np.where(search, t.srv1, scenario.workloads[:, None])
    weights = scenario.weights
    stable = np.all(_stable(t, search, margin, cost), axis=(-2, -1))
    if not stable.any():
        return EvalResult(None, None, None, y, t, stable, weights)

    station_delays = _station_delays(t, search, d1_remote)
    transfer = (_transfer_sums(scenario, t.load) if load is None
                else load.transfer)
    app_delays = np.where(scenario.total_rates > 0.0,
                          (lam * station_delays).sum(axis=-1) + transfer, 0.0)
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
    shape = t.f.shape

    # d(lam * D)/dlam = D + load dD/dload on the selected branch; load = lam * R
    g0 = np.divide(t.load * wa * wa, t.den0 * t.den0,
                   out=np.zeros(shape), where=t.ok0)
    g1 = np.divide(t.load * t.sq, 2.0 * t.den1 * t.den1,
                   out=np.zeros(shape), where=t.ok1)
    sign = np.where(t.load - scenario.arrival_rate_matrix >= 0.0, 1.0, -1.0)
    dlam = phi * ((res.station_delays + np.where(ysel, g1, g0)) + sign * dt)

    # d(lam * D)/df per branch, then chain rule df/dfshare = C_n
    h0 = -np.divide(lam * wa, t.den0 * t.den0, out=np.zeros(shape), where=t.ok0)
    h1 = -np.divide(lam * t.srv1, t.f * t.f, out=np.zeros(shape), where=t.ok1)
    h1 -= np.divide(lam * t.load * t.sq * (t.den1 + t.f),
                    2.0 * t.f * t.f * t.den1 * t.den1,
                    out=np.zeros(shape), where=t.ok1)
    dfshare = (phi * np.where(ysel, h1, h0)
               * scenario.compute_capacities[..., None, :])

    # zero-CPU, zero-load coordinates: routing load there is ruinous, adding
    # CPU there changes nothing
    dlam = np.where(t.idle, BIG_GRADIENT, dlam)
    dfshare = np.where(t.idle, 0.0, dfshare)

    # apps with no traffic contribute nothing anywhere
    quiet = scenario.total_rates[..., :, None] == 0.0
    dlam = np.where(quiet, 0.0, dlam)
    dfshare = np.where(quiet, 0.0, dfshare)
    return ObjectiveGradient(dlam=dlam, dfshare=dfshare)
