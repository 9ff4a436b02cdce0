"""Alternating minimization and the three baselines."""
import json
from dataclasses import replace

import numpy as np
import pytest

from cecreuse import (CacheAssignment, GeneratorParams, Infeasible,
                      MalformedInput, alternating_solve,
                      evaluate_objective, generate_scenario, greedy_cache,
                      solve, solve_greedy, solve_noc, solve_nor, storage_used)
from cecreuse import caching, delay, model, solver

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


def test_greedy_cache_respects_storage(default_scenario):
    sc = default_scenario
    cache = greedy_cache(sc)
    for n in range(sc.num_stations):
        assert storage_used(sc, cache, n) <= sc.storage_capacities[n]


# -- alternating solver -------------------------------------------------------


def test_zero_rounds_returns_greedy_state(default_scenario):
    rep = alternating_solve(default_scenario, rounds=0)
    base = solve_greedy(default_scenario)
    assert rep.objective_trace == base.objective_trace
    assert rep.final_objective == base.final_objective
    assert all(np.array_equal(rep.cache.entries[a], base.cache.entries[a])
               for a in range(default_scenario.num_apps))
    assert np.array_equal(rep.sched.lam, base.sched.lam)


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
    with pytest.raises(error, match=message):
        solve_noc(replace(sc, stations=tuple(stations)))
