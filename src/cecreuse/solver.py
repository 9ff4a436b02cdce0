"""Alternating minimization over caching and scheduling, plus baselines.

One round is a full caching sweep (all stations, several passes) followed by
a block of projected-gradient scheduling iterations.  Both subproblem
solvers are non-increasing in the objective, so the concatenated trace is
non-increasing as well.  Baselines: Greedy (ratio-order caching with
capacity-proportional routing, no optimization), NoR (no reuse: empty
caches, scheduling only) and NoC (no collaboration: every station solves
its own single-station problem on its local arrivals, the stations'
scheduling descents stacked into one per round).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .caching import SweepState, sweep_all_stations
from .errors import CecReuseError, Infeasible, MalformedInput
from .model import (Application, BaseStation, CacheAssignment, HitRateTable,
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


def _density_order(scenario: Scenario) -> np.ndarray:
    """Every input, numbered app after app, by p/s descending, ties by
    that number: the stable argsort of -p/s over all apps.

    The apps' density orders are already sorted runs, so a stable sort of
    their concatenation merges them; a tie keeps its app order and, within
    an app, its index order.
    """
    bounds = np.cumsum([0] + [len(o) for o in scenario.density_orders])
    merged = np.argsort(np.concatenate(scenario.sorted_neg_densities),
                        kind="stable")
    return np.concatenate([order + b for order, b in
                           zip(scenario.density_orders, bounds)])[merged]


def greedy_cache(scenario: Scenario) -> CacheAssignment:
    """Fill each station in descending p/s order until the next item no
    longer fits (ties broken by (app, input) index).

    The stations share one order, so each fills a prefix of it: the
    longest whose running size total stays within its capacity.
    """
    order = _density_order(scenario)
    filled = np.cumsum(np.concatenate(scenario.result_sizes)[order])
    bounds = np.cumsum([0] + [scenario.catalog_size(a)
                              for a in range(scenario.num_apps)])
    cache = CacheAssignment.zeros(scenario)
    row = np.empty(len(order))
    for n, cap in enumerate(scenario.storage_capacities):
        row[:] = 0.0
        row[order[:np.searchsorted(filled, cap, side="right")]] = 1.0
        for a, x in enumerate(cache.entries):
            x[n] = row[bounds[a]:bounds[a + 1]]
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
    """Ratio-order caching + capacity-proportional routing, no optimization."""
    t0 = time.perf_counter()
    cache = greedy_cache(scenario)
    sched, obj = _feasible_start(scenario, compute_hit_rates(scenario, cache))
    return SolveReport(algorithm="greedy",
                       objective_trace=[(0, "init", 0, obj)],
                       cache=cache, sched=sched, final_objective=obj,
                       rounds_completed=0,
                       wall_time_s=time.perf_counter() - t0,
                       feasible=not validate(scenario, cache, sched))


def alternating_solve(scenario: Scenario, rounds: int = ROUND_CAP,
                      params: PgdParams = PgdParams()) -> SolveReport:
    """Alternate the caching sweep and the scheduling descent from the
    Greedy state, stopping early once a round improves by less than 1e-6
    relative.  The cache is one SweepState, which the sweeps rewrite; its
    kept partitions are released before it is returned."""
    t0 = time.perf_counter()
    cache = SweepState(scenario, greedy_cache(scenario))
    sched, obj = _feasible_start(scenario, cache.hit)
    trace: list[TraceRow] = [(0, "init", 0, obj)]
    rounds_completed = 0
    prev = obj
    for r in range(1, rounds + 1):
        cache, sched, pass_objs = sweep_all_stations(
            scenario, cache, sched, passes=CACHING_PASSES)
        for i, o in enumerate(pass_objs, start=1):
            trace.append((r, "caching", i, o))
        sched, strace = solve_scheduling(scenario, cache.hit, sched,
                                         SCHEDULING_ITERS, params)
        for i, o, _j in strace:
            trace.append((r, "scheduling", i, o))
        rounds_completed = r
        cur = trace[-1][3]
        if prev - cur < ROUND_IMPROVEMENT_TOL * max(abs(prev), 1e-300):
            break
        prev = cur
    cache.release()
    return SolveReport(algorithm="proposed", objective_trace=trace,
                       cache=cache, sched=sched, final_objective=trace[-1][3],
                       rounds_completed=rounds_completed,
                       wall_time_s=time.perf_counter() - t0,
                       feasible=not validate(scenario, cache, sched))


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


def _single_station_scenario(scenario: Scenario, n: int,
                             kept: list[int]) -> Scenario:
    """Station n in isolation, kept apps reweighted by their local share;
    it reads its catalogs' arrays from ``scenario``'s."""
    rates = scenario.arrival_rate_matrix
    apps = []
    for a in kept:
        app = scenario.apps[a]
        share = rates[a, n] / scenario.total_rates[a]
        apps.append(Application(weight=app.weight * share,
                                mean_workload=app.mean_workload,
                                typical_inputs=app.typical_inputs))
    st = scenario.stations[n]
    station = BaseStation(compute_capacity=st.compute_capacity,
                          storage_capacity=st.storage_capacity,
                          transfer_delay=st.transfer_delay,
                          arrival_rates=tuple(float(rates[a, n]) for a in kept))
    sub = Scenario(stations=(station,), apps=tuple(apps),
                   search_workload=scenario.search_workload)
    sub.share_catalogs(scenario, kept)
    return sub


@dataclass
class _Lone:
    """One station's single-station solve inside solve_noc: the state that
    alternating_solve keeps for it from round to round."""
    station: int
    kept: tuple[int, ...]        # the apps with arrivals at the station
    sub: Scenario
    cache: SweepState
    sched: SchedulingState
    start: float                 # objective at the repaired start
    objective: float             # after the latest round
    rounds: int = 0
    done: bool = False           # stopped by the round test
    feasible: bool = False

    def end_round(self, cur: float) -> None:
        """alternating_solve's round test, after a round that ended at
        ``cur``."""
        self.rounds += 1
        prev = self.objective
        self.done = prev - cur < ROUND_IMPROVEMENT_TOL * max(abs(prev), 1e-300)
        self.objective = cur


def _descend_together(lones: list[_Lone], stack: ScenarioStack,
                      params: PgdParams, fail) -> None:
    """One round's scheduling descent of every station in ``lones``, as one
    stack.  If the stack fails, the stations descend alone in index order
    and the first that fails goes to ``fail``; those before it keep their
    descents, which are the ones the stack would have given them."""
    hit = HitRateTable(*(np.stack([getattr(lone.cache.hit, name)
                                   for lone in lones])
                         for name in ("local", "neighbor", "total")))
    sched = SchedulingState(*(np.stack([getattr(lone.sched, name)
                                        for lone in lones])
                              for name in ("lam", "fshare", "y")))
    try:
        out, traces = solve_scheduling(stack, hit, sched, SCHEDULING_ITERS,
                                       params)
    except CecReuseError:
        for lone in lones:
            try:
                lone.sched, trace = solve_scheduling(
                    lone.sub, lone.cache.hit, lone.sched, SCHEDULING_ITERS,
                    params)
            except CecReuseError as exc:
                fail(lone.station, exc)
                return
            lone.end_round(trace[-1][1])
        return
    for s, lone in enumerate(lones):
        lone.sched.lam, lone.sched.fshare = out.lam[s], out.fshare[s]
        lone.sched.y = out.y[s]
        lone.end_round(traces[s][-1][1])


def solve_noc(scenario: Scenario, rounds: int = ROUND_CAP,
              params: PgdParams = PgdParams()) -> SolveReport:
    """No collaboration: each station serves its own arrivals in isolation.

    Every station becomes a single-station scenario (apps reweighted by
    their local arrival share, zero-arrival apps dropped) and runs
    alternating_solve's rounds on it; routing is then trivial and the
    descent only moves the CPU split.  Stations that keep the same apps run
    as one group: each round, every station of it still running sweeps its
    own cache, and then all of them descend as one ScenarioStack, so that a
    round's descent costs one block per iteration, not one per station.
    Each station reaches the rounds and the decision it reaches alone, and
    the first station, in index order, whose solve fails raises its error,
    as a station-by-station loop would.  The reported objective is the sum
    of the per-station objectives.  The assembled cache/sched is a
    per-station patchwork for inspection; it is not a collaborative
    evaluation.
    """
    if scenario.num_stations == 1:
        rep = alternating_solve(scenario, rounds, params)
        return replace(rep, algorithm="noc")
    t0 = time.perf_counter()
    A, N = scenario.num_apps, scenario.num_stations
    caps = scenario.compute_capacities
    rates = scenario.arrival_rate_matrix

    groups: dict[tuple[int, ...], list[int]] = {}
    for n in range(N):
        kept = tuple(a for a in range(A) if rates[a, n] > 0.0)
        if kept:
            groups.setdefault(kept, []).append(n)
    solves: dict[int, _Lone] = {}
    failure: tuple[int, CecReuseError] | None = None

    def alive(n: int) -> bool:
        # a failing station drops the stations after it, not those before
        return failure is None or n < failure[0]

    def fail(n: int, exc: CecReuseError) -> None:
        nonlocal failure
        if alive(n):
            failure = (n, exc)

    for kept, members in groups.items():
        group: list[_Lone] = []
        for n in members:
            if not alive(n):
                break
            try:
                sub = _single_station_scenario(scenario, n, list(kept))
                cache = SweepState(sub, greedy_cache(sub))
                sched, obj = _feasible_start(sub, cache.hit)
            except CecReuseError as exc:
                fail(n, exc)
                break
            group.append(_Lone(n, kept, sub, cache, sched, obj, obj))
        if group:
            stack = ScenarioStack.of([lone.sub for lone in group])
        for _r in range(rounds):
            running = []
            for pos, lone in enumerate(group):
                if lone.done or not alive(lone.station):
                    continue
                try:
                    lone.cache, lone.sched, _ = sweep_all_stations(
                        lone.sub, lone.cache, lone.sched, passes=CACHING_PASSES)
                except CecReuseError as exc:
                    fail(lone.station, exc)
                    break
                running.append(pos)
            running = [pos for pos in running if alive(group[pos].station)]
            if not running:
                break
            _descend_together([group[pos] for pos in running],
                              stack.take(running), params, fail)
        for lone in group:
            lone.cache.release()
            if not alive(lone.station):
                break
            lone.feasible = not validate(lone.sub, lone.cache, lone.sched)
            solves[lone.station] = lone
    if failure is not None:
        raise failure[1]

    cache = CacheAssignment.zeros(scenario)
    lam = np.tile(caps / caps.sum(), (A, 1))
    fshare = np.full((A, N), 1.0 / A)
    y = np.zeros((A, N), dtype=np.int8)
    init_sum = 0.0
    final_sum = 0.0
    rounds_completed = 0
    feasible = True
    for n in range(N):
        lone = solves.get(n)
        if lone is None:
            continue
        init_sum += lone.start
        final_sum += lone.objective
        rounds_completed = max(rounds_completed, lone.rounds)
        feasible = feasible and lone.feasible
        for idx, a in enumerate(lone.kept):
            cache.entries[a][n] = lone.cache.entries[idx][0]
            fshare[a, n] = lone.sched.fshare[idx, 0]
            y[a, n] = lone.sched.y[idx, 0]
        for a in range(A):
            if a not in lone.kept:
                fshare[a, n] = 0.0
    for a in range(A):
        if scenario.total_rates[a] > 0.0:
            lam[a] = rates[a] / scenario.total_rates[a]
    sched = SchedulingState(lam=lam, fshare=fshare, y=y)
    trace: list[TraceRow] = [(0, "init", 0, init_sum), (1, "noc", 1, final_sum)]
    return SolveReport(algorithm="noc", objective_trace=trace, cache=cache,
                       sched=sched, final_objective=final_sum,
                       rounds_completed=rounds_completed,
                       wall_time_s=time.perf_counter() - t0,
                       feasible=feasible)


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
