"""Alternating minimization over caching and scheduling, plus baselines.

One round is a full caching sweep (all stations, several passes) followed by
a block of projected-gradient scheduling iterations.  Both subproblem
solvers are non-increasing in the objective, so the concatenated trace is
non-increasing as well.  Baselines: Greedy (ratio-order caching with
capacity-proportional routing, no optimization), NoR (no reuse: empty
caches, scheduling only) and NoC (no collaboration: every station solves
its own single-station problem on its local arrivals).  One round loop,
``_alternate``, serves the proposed solver (one problem) and NoC (one
group per set of kept apps, whose descents run as one stack per round).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .caching import SweepState, sweep_all_stations
from .errors import CecReuseError, Infeasible, MalformedInput
from .model import (CacheAssignment, HitRateTable,
                    Scenario, ScenarioStack, SchedulingState,
                    compute_hit_rates, validate)
from .scheduling import PgdParams, initial_feasible_point, solve_scheduling

# relative per-round improvement below which alternation stops
ROUND_IMPROVEMENT_TOL = 1e-6
ROUND_CAP = 10           # default number of alternation rounds
CACHING_PASSES = 10      # caching sweeps over all stations per round
SCHEDULING_ITERS = 10    # descent iterations per round

ALGORITHMS = ("proposed", "greedy", "nor", "noc")

TraceRow = tuple[int, str, int, float]


@dataclass
class SolveReport:
    """Everything a solve produced; ``to_dict`` gives it as a JSON document.

    ``feasible`` says whether the returned decision passes model.validate
    (for NoC, whether every per-station decision does).
    """
    algorithm: str
    objective_trace: list[TraceRow]
    cache: CacheAssignment | None
    sched: SchedulingState | None
    final_objective: float | None
    rounds_completed: int
    wall_time_s: float
    feasible: bool

    def to_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "objective_trace": [list(row) for row in self.objective_trace],
            "final_objective": self.final_objective,
            "rounds_completed": self.rounds_completed,
            "wall_time_s": self.wall_time_s,
            "feasible": self.feasible,
            "cache": None,
            "sched": None,
        }
        if self.cache is not None:
            d["cache"] = {"entries": [e.tolist() for e in self.cache.entries]}
        if self.sched is not None:
            d["sched"] = {"lam": self.sched.lam.tolist(),
                          "fshare": self.sched.fshare.tolist(),
                          "y": self.sched.y.tolist()}
        return d


def greedy_cache(scenario: Scenario) -> CacheAssignment:
    """Fill each station in descending p/s order until the next item no
    longer fits (ties broken by (app, input) index).

    The stations share one order, Scenario.density_order, so each fills
    the longest prefix of it whose running size total fits its capacity.
    """
    order = scenario.density_order
    filled = np.cumsum(scenario.s[order])
    cache = CacheAssignment.zeros(scenario)
    for n, cap in enumerate(scenario.storage_capacities):
        cache.x[n, order[:np.searchsorted(filled, cap, side="right")]] = 1.0
    return cache


def _feasible_start(scenario: Scenario, hit: HitRateTable
                    ) -> tuple[SchedulingState, float]:
    """The repaired capacity-proportional start under a cache with hit
    table ``hit``, and its objective.

    A start objective that is not finite (an input, such as a transfer
    delay, so large that a delay overflows) is MalformedInput: no descent
    can improve on it, and a report of it would not be valid JSON.
    """
    sched, res = initial_feasible_point(scenario, hit)
    if not res.feasible:
        raise Infeasible("repaired starting point is still unstable")
    if not math.isfinite(res.objective):
        raise MalformedInput(f"start objective {res.objective} is not finite: "
                             "the scenario's delays overflow")
    return sched, res.objective


def solve_greedy(scenario: Scenario) -> SolveReport:
    """Ratio-order caching + capacity-proportional routing, no
    optimization: the proposed solve's start, reached with no round."""
    return replace(alternating_solve(scenario, 0), algorithm="greedy")


@dataclass
class _Run:
    """One problem under alternating_solve's rounds: its scenario, the
    cache the sweeps rewrite, its scheduling state and its trace."""
    scenario: Scenario
    cache: SweepState
    sched: SchedulingState
    trace: list[TraceRow]

    @classmethod
    def start(cls, scenario: Scenario) -> "_Run":
        """The run at the repaired start under the Greedy cache."""
        cache = SweepState(scenario, greedy_cache(scenario))
        sched, obj = _feasible_start(scenario, cache.hit)
        return cls(scenario, cache, sched, [(0, "init", 0, obj)])


def _alternate(runs: list[_Run], rounds: int, params: PgdParams
               ) -> dict[int, CecReuseError]:
    """alternating_solve's rounds on independent problems of one shape;
    returns the failures by position.  Each round, every run still going
    sweeps its own cache, then all of them descend as one ScenarioStack.
    A failed stacked descent descends its runs again alone, so a failure is
    its own run's.  A run stops at its failure or on the round test; all
    kept partitions are released at the end."""
    stack = ScenarioStack.of([run.scenario for run in runs])
    failed: dict[int, CecReuseError] = {}
    going = list(range(len(runs)))
    for r in range(1, rounds + 1):
        prev = {s: runs[s].trace[-1][3] for s in going}
        swept = []
        for s in going:
            run = runs[s]
            try:
                run.cache, run.sched, objs = sweep_all_stations(
                    run.scenario, run.cache, run.sched, passes=CACHING_PASSES)
            except CecReuseError as exc:
                failed[s] = exc
                continue
            run.trace += [(r, "caching", i, o)
                          for i, o in enumerate(objs, start=1)]
            swept.append(s)
        batches = [swept] if swept else []
        while batches:
            batch = batches.pop()
            hit = HitRateTable(*(np.stack([getattr(runs[s].cache.hit, name)
                                           for s in batch])
                                 for name in ("local", "neighbor", "total")))
            sched = SchedulingState(*(np.stack([getattr(runs[s].sched, name)
                                                for s in batch])
                                      for name in ("lam", "fshare", "y")))
            try:
                out, traces = solve_scheduling(stack.take(batch), hit, sched,
                                               SCHEDULING_ITERS, params)
            except CecReuseError as exc:
                if len(batch) == 1:
                    failed[batch[0]] = exc
                else:
                    batches += [[s] for s in batch]
                continue
            for s, *point, trace in zip(batch, out.lam, out.fshare, out.y,
                                        traces):
                runs[s].sched = SchedulingState(*point)
                runs[s].trace += [(r, "scheduling", i, o)
                                  for i, o, _j in trace]
        going = [s for s in swept if s not in failed and not (
            prev[s] - runs[s].trace[-1][3]
            < ROUND_IMPROVEMENT_TOL * max(abs(prev[s]), 1e-300))]
        if not going:
            break
    for run in runs:
        run.cache.release()
    return failed


def alternating_solve(scenario: Scenario, rounds: int = ROUND_CAP,
                      params: PgdParams = PgdParams()) -> SolveReport:
    """Alternate the caching sweep and the scheduling descent from the
    Greedy state, stopping early once a round improves by less than 1e-6
    relative.  The cache is one SweepState, which the sweeps rewrite; its
    kept partitions are released before it is returned."""
    t0 = time.perf_counter()
    run = _Run.start(scenario)
    failed = _alternate([run], rounds, params)
    if failed:
        raise failed[0]
    return SolveReport(algorithm="proposed", objective_trace=run.trace,
                       cache=run.cache, sched=run.sched,
                       final_objective=run.trace[-1][3],
                       rounds_completed=run.trace[-1][0],
                       wall_time_s=time.perf_counter() - t0,
                       feasible=not validate(scenario, run.cache, run.sched))


def solve_nor(scenario: Scenario, rounds: int = ROUND_CAP,
              params: PgdParams = PgdParams()) -> SolveReport:
    """No reuse: empty caches, y forced off by the branch rule, scheduling
    only with the same total iteration budget."""
    t0 = time.perf_counter()
    cache = CacheAssignment.zeros(scenario)
    hit = compute_hit_rates(scenario, cache)
    sched, obj = _feasible_start(scenario, hit)
    trace: list[TraceRow] = [(0, "init", 0, obj)]
    sched, strace = solve_scheduling(scenario, hit, sched,
                                     rounds * SCHEDULING_ITERS, params)
    for i, o, _j in strace:
        trace.append((1, "scheduling", i, o))
    return SolveReport(algorithm="nor", objective_trace=trace, cache=cache,
                       sched=sched, final_objective=trace[-1][3],
                       rounds_completed=1,
                       wall_time_s=time.perf_counter() - t0,
                       feasible=not validate(scenario, cache, sched))


def solve_noc(scenario: Scenario, rounds: int = ROUND_CAP,
              params: PgdParams = PgdParams()) -> SolveReport:
    """No collaboration: each station serves its own arrivals in isolation.

    Every station becomes its one-station problem, Scenario.isolated (apps
    reweighted by their local arrival share, zero-arrival apps dropped),
    and runs alternating_solve's rounds on it; routing is then trivial and
    the descent only moves the CPU split.  Stations start in index order,
    up to the first whose start fails; those that keep the same apps run
    as one group of alternating_solve's loop, so a round's descent costs
    one block per iteration, not one per station.  Each station reaches
    the rounds and decision it reaches alone; the error of the failing
    station n of lowest index is raised, as a station-by-station loop
    would, prefixed "NoC station n: ".  The objective is the sum of the
    per-station objectives; the assembled cache/sched is a per-station
    patchwork for inspection, not a collaborative evaluation.
    """
    if scenario.num_stations == 1:
        rep = alternating_solve(scenario, rounds, params)
        return replace(rep, algorithm="noc")
    t0 = time.perf_counter()
    A, N = scenario.num_apps, scenario.num_stations
    rates = scenario.arrival_rate_matrix
    kept = [[a for a in range(A) if rates[a, n] > 0.0] for n in range(N)]

    runs: dict[int, _Run] = {}
    failed: dict[int, CecReuseError] = {}
    for n in range(N):
        if not kept[n]:
            continue
        try:
            runs[n] = _Run.start(scenario.isolated(n))
        except CecReuseError as exc:
            failed[n] = exc
            break
    groups: dict[tuple[int, ...], list[int]] = {}
    for n in runs:
        groups.setdefault(tuple(kept[n]), []).append(n)
    for members in groups.values():
        lost = _alternate([runs[n] for n in members], rounds, params)
        failed.update((members[s], exc) for s, exc in lost.items())
    if failed:
        n = min(failed)
        raise type(failed[n])(f"NoC station {n}: {failed[n]}") from failed[n]

    cache = CacheAssignment.zeros(scenario)
    caps = scenario.compute_capacities
    lam = np.tile(caps / caps.sum(), (A, 1))
    fshare = np.full((A, N), 1.0 / A)
    y = np.zeros((A, N), dtype=np.int8)
    init_sum = final_sum = 0.0
    for n, run in runs.items():
        init_sum += run.trace[0][3]
        final_sum += run.trace[-1][3]
        # the kept apps' column segments, in order, are the run's catalog
        cache.x[n, np.repeat(rates[:, n] > 0.0, np.diff(scenario.offsets))] = run.cache.x[0]
        fshare[:, n] = 0.0
        fshare[kept[n], n] = run.sched.fshare[:, 0]
        y[kept[n], n] = run.sched.y[:, 0]
    served = scenario.total_rates > 0.0
    lam[served] = rates[served] / scenario.total_rates[served, None]
    trace: list[TraceRow] = [(0, "init", 0, init_sum), (1, "noc", 1, final_sum)]
    return SolveReport(
        algorithm="noc", objective_trace=trace, cache=cache,
        sched=SchedulingState(lam, fshare, y), final_objective=final_sum,
        rounds_completed=max((run.trace[-1][0] for run in runs.values()),
                             default=0),
        wall_time_s=time.perf_counter() - t0,
        feasible=all(not validate(run.scenario, run.cache, run.sched)
                     for run in runs.values()))


def check_rounds(rounds) -> None:
    """A round cap is an integer >= 0; anything else is MalformedInput."""
    if not (isinstance(rounds, (int, np.integer)) and rounds >= 0):
        raise MalformedInput(f"rounds must be an integer >= 0, got {rounds!r}")


def solve(scenario: Scenario, algorithm: str, rounds: int = ROUND_CAP,
          params: PgdParams = PgdParams()) -> SolveReport:
    """Run the solver named by ``algorithm``, one of ALGORITHMS.

    ``rounds`` caps the alternation (NoR: its iteration budget in rounds);
    Greedy ignores it and ``params``.
    """
    check_rounds(rounds)
    if algorithm == "proposed":
        return alternating_solve(scenario, rounds, params)
    if algorithm == "greedy":
        return solve_greedy(scenario)
    if algorithm == "nor":
        return solve_nor(scenario, rounds, params)
    if algorithm == "noc":
        return solve_noc(scenario, rounds, params)
    raise MalformedInput(f"unknown algorithm {algorithm!r}; "
                         f"choose from {', '.join(ALGORITHMS)}")
