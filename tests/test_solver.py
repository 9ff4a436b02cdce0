"""Alternating minimization and the three baselines."""
import gc
import json
from dataclasses import replace

import numpy as np
import pytest

from cecreuse import (CacheAssignment, GeneratorParams, Infeasible,
                      MalformedInput, alternating_solve,
                      evaluate_objective, generate_scenario, greedy_cache,
                      solve, solve_greedy, solve_noc, solve_nor, storage_used)
from cecreuse import caching, delay, model, scheduling, solver

from conftest import build_scenario


def caching_phase_shares(report, first_iters=2):
    """Fraction of each round's caching-phase drop reached after first_iters."""
    trace = report.objective_trace
    shares = []
    for r in range(1, report.rounds_completed + 1):
        rows = [(i, t) for i, t in enumerate(trace)
                if t[0] == r and t[1] == "caching"]
        if not rows:
            continue
        start = trace[rows[0][0] - 1][3]
        total = start - rows[-1][1][3]
        if total <= 1e-9 * max(abs(start), 1.0):
            continue
        early = rows[min(first_iters - 1, len(rows) - 1)][1][3]
        shares.append((start - early) / total)
    return shares


# -- greedy baseline ----------------------------------------------------------


def sequential_greedy_cache(scenario):
    """Reference for greedy_cache: one item at a time, in descending p/s
    order (ties by (app, input) index), until the next item no longer fits
    the remaining budget."""
    ratios = []
    for a in range(scenario.num_apps):
        p = scenario.match_probs[a]
        s = scenario.result_sizes[a]
        for k in range(scenario.catalog_size(a)):
            ratios.append((a, k, p[k] / s[k], s[k]))
    apps_idx = np.array([r[0] for r in ratios])
    input_idx = np.array([r[1] for r in ratios])
    ratio = np.array([r[2] for r in ratios])
    order = np.lexsort((input_idx, apps_idx, -ratio))

    entries = [np.zeros((scenario.num_stations, scenario.catalog_size(a)))
               for a in range(scenario.num_apps)]
    for n in range(scenario.num_stations):
        budget = float(scenario.storage_capacities[n])
        for pos in order:
            a, k = int(apps_idx[pos]), int(input_idx[pos])
            size = scenario.result_sizes[a][k]
            if size > budget:
                break
            entries[a][n, k] = 1.0
            budget -= size
    return entries


def assert_same_cache(got, want):
    assert len(got.entries) == len(want)
    for x, ref in zip(got.entries, want):
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("seed", range(42, 62))
def test_greedy_cache_matches_sequential_fill(seed):
    sc = generate_scenario(GeneratorParams(seed=seed))
    assert_same_cache(greedy_cache(sc), sequential_greedy_cache(sc))


def test_greedy_cache_exact_fill_and_stop():
    # p/s order: app 0 input 1, app 1 input 0, app 0 input 0, app 1 input 1
    # (sizes 2e5, 1e5, 3e5, 1e5); station 0 holds the first three exactly,
    # station 1 is one byte short of that and stops after two, station 2
    # stops at the third item although the fourth would still fit
    apps = [(1.0, 4e8, [(0.06, 3e5), (0.1, 2e5)]),
            (1.0, 4e8, [(0.04, 1e5), (0.001, 1e5)])]
    sc = build_scenario((2e9,) * 3, (6e5, 6e5 - 1.0, 4e5), (0.02,) * 3,
                        ((1.0, 1.0),) * 3, apps)
    cache = greedy_cache(sc)
    assert cache.entries[0].tolist() == [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    assert cache.entries[1].tolist() == [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    assert storage_used(sc, cache, 0) == sc.storage_capacities[0]
    assert_same_cache(cache, sequential_greedy_cache(sc))


def test_greedy_cache_empty_when_nothing_fits():
    sc = build_scenario((2e9,), (5e4,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5), (0.1, 2e5)])])
    cache = greedy_cache(sc)
    assert cache.entries[0].sum() == 0.0


def test_greedy_cache_ratio_order():
    # densities 0.3, 0.2, 0.125: items 1 and 2 fit, the third breaks the fill
    sc = build_scenario((2e9,), (2.0,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.3, 1.0), (0.2, 1.0), (0.25, 2.0)])])
    cache = greedy_cache(sc)
    assert cache.entries[0][0].tolist() == [1.0, 1.0, 0.0]


def test_merged_density_order_equals_one_stable_argsort():
    # p and s from short lists: densities tie within apps and across them,
    # zero included
    rng = np.random.default_rng(7)
    for _ in range(20):
        apps = [(1.0, 4e8, [(float(rng.choice([0.0, 0.01, 0.02])),
                             float(rng.choice([1e3, 2e3])))
                            for _ in range(rng.integers(1, 8))])
                for _ in range(rng.integers(1, 5))]
        sc = build_scenario((2e9,), (1e4,), (0.02,), ((1.0,) * len(apps),),
                            apps)
        densities = [p / s for p, s in zip(sc.match_probs, sc.result_sizes)]
        want = np.argsort(-np.concatenate(densities), kind="stable")
        assert sc.density_order.tolist() == want.tolist()
        # each app's order is its own inputs' stable argsort, read off the
        # merged one
        for order, d in zip(sc.density_orders, densities):
            assert order.tolist() == np.argsort(-d, kind="stable").tolist()


def test_greedy_cache_respects_storage(default_scenario):
    sc = default_scenario
    cache = greedy_cache(sc)
    for n in range(sc.num_stations):
        assert storage_used(sc, cache, n) <= sc.storage_capacities[n]


# -- alternating solver -------------------------------------------------------


def greedy_reference(sc):
    """Greedy from its parts: the ratio-order cache, and the repaired
    capacity-proportional start under it with its objective."""
    cache = greedy_cache(sc)
    sched, res = scheduling.initial_feasible_point(
        sc, model.compute_hit_rates(sc, cache))
    return cache, sched, res.objective


def assert_greedy_state(rep, sc):
    """``rep`` holds Greedy's decision with its init-only trace."""
    cache, sched, obj = greedy_reference(sc)
    assert rep.objective_trace == [(0, "init", 0, obj)]
    assert rep.final_objective == obj
    assert rep.rounds_completed == 0 and rep.feasible
    assert np.array_equal(rep.cache.x, cache.x)
    for name in ("lam", "fshare", "y"):
        assert np.array_equal(getattr(rep.sched, name), getattr(sched, name))


def test_zero_rounds_returns_greedy_state(default_scenario):
    # Greedy is the proposed solve with no round
    rep = alternating_solve(default_scenario, rounds=0)
    assert rep.algorithm == "proposed"
    assert_greedy_state(rep, default_scenario)
    rep = solve_greedy(default_scenario)
    assert rep.algorithm == "greedy"
    assert_greedy_state(rep, default_scenario)


def test_zero_rounds_keep_the_start_and_release(monkeypatch):
    # the round loop runs no round: the proposed solver and Greedy return
    # Greedy's decision with its init-only trace, NoC the sum of its
    # stations' start objectives as both init and final; each releases
    # every SweepState
    released = []
    release = caching.SweepState.release

    def counted(self):
        released.append(self)
        release(self)

    monkeypatch.setattr(caching.SweepState, "release", counted)
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=0.002))
    for solve_zero in (lambda: alternating_solve(sc, 0),
                       lambda: solve_greedy(sc)):
        released.clear()
        rep = solve_zero()
        assert_greedy_state(rep, sc)
        assert len(released) == 1 and released[0] is rep.cache

    released.clear()
    noc = solve_noc(sc, 0)
    start = 0.0
    for n in range(sc.num_stations):
        sub = sc.isolated(n)
        hit = model.compute_hit_rates(sub, greedy_cache(sub))
        start += solver._feasible_start(sub, hit)[1]
    assert noc.objective_trace == [(0, "init", 0, start), (1, "noc", 1, start)]
    assert noc.final_objective == start
    assert noc.rounds_completed == 0 and noc.feasible
    assert len(released) == sc.num_stations


@pytest.mark.parametrize("seed", [42, 43, 44])
def test_trace_monotone_and_below_greedy(seed):
    sc = generate_scenario(GeneratorParams(seed=seed))
    rep = alternating_solve(sc)
    objs = [row[3] for row in rep.objective_trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert rep.final_objective < solve_greedy(sc).final_objective
    assert rep.feasible and rep.algorithm == "proposed"


def test_caching_phases_converge_fast():
    # most of each caching phase's improvement lands in its first two sweeps
    sc = generate_scenario(GeneratorParams(seed=42))
    rep = alternating_solve(sc)
    shares = caching_phase_shares(rep)
    assert shares and all(s >= 0.8 for s in shares)


def test_one_hit_table_per_round(monkeypatch):
    # the solve's one SweepState builds the hit table for the start; the
    # sweeps keep it current and the descent reads it, so only the final
    # validation builds another, whatever the number of rounds
    calls = []
    compute = model.compute_hit_rates

    def counted(*args):
        calls.append(args)
        return compute(*args)

    for module in (model, caching, solver, delay):
        monkeypatch.setattr(module, "compute_hit_rates", counted)
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=0.002))
    completed = []
    for rounds in (0, 1, 2, solver.ROUND_CAP):
        calls.clear()
        completed.append(alternating_solve(sc, rounds).rounds_completed)
        assert len(calls) == 2
    # this scenario stops on the round tolerance after three rounds
    assert completed == [0, 1, 2, 3]


@pytest.mark.parametrize("params,solves,reductions", [
    (GeneratorParams(seed=42), 121, 205),
    (GeneratorParams(seed=42, num_stations=20, num_apps=8,
                     workload_factor=0.5), 237, 560),
], ids=["default", "N20-A8"])
def test_station_solves_and_peer_hit_reductions(monkeypatch, params, solves,
                                                reductions):
    # each station solve builds one context; a station is solved again only
    # when its peer-mask version or y moved, and an app's peer hit mass is
    # reduced again only when the version moved.  Solving again after any
    # accepted rewrite, with every app's mass reduced per solve, took 165 and
    # 366 solves here, with 825 and 2,928 reductions.
    counts = {"solves": 0, "reductions": 0}
    init, peer_hit_mass = caching.EfficiencyContext.__init__, caching.peer_hit_mass

    def counted_init(self, *args):
        counts["solves"] += 1
        init(self, *args)

    def counted_mass(*args):
        counts["reductions"] += 1
        return peer_hit_mass(*args)

    monkeypatch.setattr(caching.EfficiencyContext, "__init__", counted_init)
    monkeypatch.setattr(caching, "peer_hit_mass", counted_mass)
    rep = alternating_solve(generate_scenario(params))
    assert rep.rounds_completed == solver.ROUND_CAP
    assert counts == {"solves": solves, "reductions": reductions}


@pytest.mark.parametrize("params,make_cache,tables", [
    # the capacity-proportional start is already stable: one point
    (GeneratorParams(seed=42), greedy_cache, 1),
    # an overloaded start that the repair moves: two points
    (GeneratorParams(seed=100, num_stations=6, num_apps=4, k_scale=0.002,
                     workload_factor=2.2), CacheAssignment.zeros, 2),
], ids=["default", "repaired"])
def test_start_point_is_tabled_once_per_point(monkeypatch, params, make_cache,
                                              tables):
    calls = []
    branch_delays = delay.branch_delays

    def counted(*args):
        calls.append(args)
        return branch_delays(*args)

    sc = generate_scenario(params)
    cache = make_cache(sc)
    hit = model.compute_hit_rates(sc, cache)
    monkeypatch.setattr(delay, "branch_delays", counted)
    sched, obj = solver._feasible_start(sc, hit)
    assert len(calls) == tables
    assert obj == evaluate_objective(sc, cache, sched, frozen_y=sched.y).objective


def reachable(root):
    """Every object reachable from ``root`` through gc referents."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen:
                seen[id(ref)] = ref
                todo.append(ref)
    return seen.values()


@pytest.mark.parametrize("algorithm", ["proposed", "noc"])
def test_kept_partitions_are_released_with_the_solve(monkeypatch, algorithm):
    # the sweep keeps a partition per station from round to round; none is
    # left in the report's cache, nor alive anywhere once the solve returns
    built = set()
    build = caching.Partition.build.__func__

    def recorded(cls, scenario, counts):
        part = build(cls, scenario, counts)
        built.add(id(part))
        return part

    monkeypatch.setattr(caching.Partition, "build", classmethod(recorded))
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=0.002))
    rep = solve(sc, algorithm)
    gc.collect()
    assert built
    assert not [o for o in reachable(rep.cache)
                if isinstance(o, caching.Partition)]
    assert not [o for o in gc.get_objects()
                if isinstance(o, caching.Partition) and id(o) in built]


def test_determinism_modulo_wall_time(default_scenario):
    a = alternating_solve(default_scenario)
    b = alternating_solve(default_scenario)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_report_dict_round_trip(default_scenario):
    d = alternating_solve(default_scenario, rounds=2).to_dict()
    assert json.loads(json.dumps(d)) == d
    assert "mode" not in d["cache"]


# -- baselines against the proposed solver --------------------------------------


def test_nor_ignores_search_workload():
    args = ((2e9, 3e9), (4e9, 4e9), (0.01, 0.02), ((1.0, 0.6), (0.8, 1.2)))
    apps = [(1.0, 4e8, [(0.2, 1e5), (0.1, 2e5)]), (1.5, 3e8, [(0.3, 1e5)])]
    small = solve_nor(build_scenario(*args, apps, search_workload=1e4))
    large = solve_nor(build_scenario(*args, apps, search_workload=5e7))
    assert small.final_objective == large.final_objective
    assert np.array_equal(small.sched.lam, large.sched.lam)
    assert not small.sched.y.any()
    assert small.cache.entries[0].sum() == 0.0


def test_proposed_dominates_baselines(default_scenario):
    prop = alternating_solve(default_scenario).final_objective
    assert prop <= solve_nor(default_scenario).final_objective
    assert prop <= solve_noc(default_scenario).final_objective
    assert prop <= solve_greedy(default_scenario).final_objective


def test_reuse_value_crosses_over_with_load():
    # light load: reuse matters little, scheduling alone beats greedy caching;
    # heavy load: greedy caching beats scheduling without reuse
    lo = generate_scenario(GeneratorParams(seed=42, workload_factor=0.5))
    assert solve_nor(lo).final_objective < solve_greedy(lo).final_objective
    hi = generate_scenario(GeneratorParams(seed=42, workload_factor=1.5))
    assert solve_greedy(hi).final_objective < solve_nor(hi).final_objective


def test_noc_single_station_equals_alternating():
    sc = build_scenario((2e9,), (2e5,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])],
                        search_workload=1e4)
    noc = solve_noc(sc)
    prop = alternating_solve(sc)
    assert noc.algorithm == "noc"
    assert noc.final_objective == prop.final_objective
    assert noc.objective_trace == prop.objective_trace


def test_solve_dispatches_by_name():
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=0.002))
    direct = {"proposed": alternating_solve(sc, 2), "greedy": solve_greedy(sc),
              "nor": solve_nor(sc, 2), "noc": solve_noc(sc, 2)}
    for name, rep in direct.items():
        got = solve(sc, name, rounds=2)
        assert got.algorithm == name
        assert got.objective_trace == rep.objective_trace
    with pytest.raises(MalformedInput):
        solve(sc, "turbo")
    with pytest.raises(MalformedInput):
        solve(sc, "proposed", rounds=-1)


def test_noc_infeasible_under_heavy_load():
    sc = generate_scenario(GeneratorParams(seed=42, workload_factor=1.5))
    with pytest.raises(Infeasible):
        solve_noc(sc)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("capacity,error,message", [
    (1e308, MalformedInput, "the objective's gradient overflows"),
    (None, Infeasible, "no stable routing found"),
])
def test_noc_raises_the_first_failing_stations_error(capacity, error, message):
    # station 2 cannot be stabilised at its start; with a capacity of
    # 1e308, station 0's gradient overflows later, at its first descent.
    # Station by station, station 0 fails first: the stack must not raise
    # station 2's error because it met it earlier
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=0.002))
    stations = list(sc.stations)
    if capacity is not None:
        stations[0] = replace(stations[0], compute_capacity=capacity)
    stations[2] = replace(stations[2], arrival_rates=tuple(
        1e4 * r for r in stations[2].arrival_rates))
    first = 0 if capacity is not None else 2
    with pytest.raises(error, match=f"^NoC station {first}: {message}"):
        solve_noc(replace(sc, stations=tuple(stations)))
