"""Per-station cache placement: efficiencies, level search, rounding, oracles."""
import numpy as np
import pytest

from cecreuse import (CacheAssignment, DegenerateInput,
                      DimensionMismatch, EfficiencyContext, GeneratorParams, MalformedInput,
                      SchedulingState, StabilityViolation, TooLarge,
                      alternating_solve, brute_force_cache_oracle,
                      compute_hit_rates, efficiencies_at_solution,
                      evaluate_objective, g_of_B, generate_scenario,
                      round_to_binary, solve_caching_bs,
                      storage_used, sweep_all_stations, theorem3_ratio)
from cecreuse import caching, solver
from cecreuse.caching import LEVEL_ACCURACY, _locate_level, _solve_fraction

from conftest import build_scenario, uniform_state


def single_y1_sched(n_apps, n_stations):
    return SchedulingState(np.full((n_apps, n_stations), 1.0 / n_stations),
                           np.full((n_apps, n_stations), 1.0 / n_apps),
                           np.ones((n_apps, n_stations), dtype=np.int8))


def knapsack_scenario(seed=7, num_items=12, search_workload=1e4):
    """Single station, single app, capacity at half the catalog volume."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = rng.uniform(0.01, 0.08, num_items)
    p = p / p.sum() * 0.8
    s = rng.uniform(5e4, 2e5, num_items)
    cap = float(s.sum() / 2)
    sc = build_scenario((2e9,), (cap,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, list(zip(p.tolist(), s.tolist())))],
                        search_workload=search_workload)
    return sc, p, s, cap


# -- partition ----------------------------------------------------------------


def partition(sc, cache, station):
    """(exclusive, replicated) inputs of app 0 as the caching context sees them."""
    ctx = EfficiencyContext(sc, cache, uniform_state(sc), station)
    return ctx.exclusive[0], ctx.replicated[0]


def test_partition_single_station():
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5), (0.1, 1e5)])])
    exc, rep = partition(sc, CacheAssignment.zeros(sc), 0)
    assert rep.size == 0 and sorted(exc.tolist()) == [0, 1]


def test_partition_two_stations(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment([np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])])
    exc, rep = partition(sc, cache, 0)
    assert rep.tolist() == [1] and sorted(exc.tolist()) == [0, 2]
    full = CacheAssignment([np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])])
    exc, rep = partition(sc, full, 0)
    assert exc.size == 0 and sorted(rep.tolist()) == [0, 1, 2]


# -- pointwise efficiency ------------------------------------------------------


def storage_efficiency(ctx, cache, a, k, xv):
    """eps of input k of app a with the station's other entries as cached."""
    rows = [x[ctx.station].copy() for x in cache.entries]
    rows[a][k] = xv
    return float(efficiencies_at_solution(ctx, rows)[a][k])


def test_storage_efficiency_zero_without_search(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment.zeros(sc)
    ctx = EfficiencyContext(sc, cache, uniform_state(sc, y=0), 0)
    for k in range(3):
        assert storage_efficiency(ctx, cache, 0, k, 0.0) == 0.0


def test_storage_efficiency_replicated_constant():
    # phi = 1, lam_n = 0.5, y = 1, Dt_n = 0.02 s, p/s = 2e-10 per byte
    sc = build_scenario((2e9, 2e9), (4e9, 4e9), (0.02, 0.02), ((1.0,), (1.0,)),
                        [(1.0, 4e8, [(2e-5, 1e5)])])
    cache = CacheAssignment([np.array([[0.0], [1.0]])])
    ctx = EfficiencyContext(sc, cache, single_y1_sched(1, 2), 0)
    got = storage_efficiency(ctx, cache, 0, 0, 0.0)
    assert got == pytest.approx(-2e-12, rel=1e-12)
    # constant in x
    assert storage_efficiency(ctx, cache, 0, 0, 0.7) == got


def test_storage_efficiency_ordered_by_density():
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.1, 1e5), (0.3, 1e5), (0.2, 1e5)])],
                        search_workload=1e4)
    cache = CacheAssignment.zeros(sc)
    ctx = EfficiencyContext(sc, cache, single_y1_sched(1, 1), 0)
    effs = [storage_efficiency(ctx, cache, 0, k, 0.0) for k in range(3)]
    assert effs[1] < effs[2] < effs[0] < 0.0


def test_storage_efficiency_monotone_in_x_grid():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(5):
        K = 6
        p = rng.uniform(0.02, 0.2, K)
        p = p / p.sum() * rng.uniform(0.5, 0.9)
        s = rng.uniform(5e4, 3e5, K)
        sc = build_scenario((2e9, 3e9), (4e9, 4e9), (0.01, 0.02),
                            ((1.0, 0.6), (0.8, 1.2)),
                            [(1.0, 4e8, list(zip(p[:3].tolist(), s[:3].tolist()))),
                             (1.5, 3e8, list(zip(p[3:].tolist(), s[3:].tolist())))],
                            search_workload=2e5)
        cache = CacheAssignment.zeros(sc)
        for a in range(2):
            mask = rng.integers(0, 2, 3).astype(float)
            cache.entries[a][1] = mask
        ctx = EfficiencyContext(sc, cache, single_y1_sched(2, 2), 0)
        grid = np.linspace(0.0, 1.0, 1001)
        for a in range(2):
            for k in ctx.exclusive[a]:
                vals = np.array([storage_efficiency(ctx, cache, a, int(k), float(g))
                                 for g in grid])
                assert (np.diff(vals) >= -1e-15).all()


# -- level mapping and its inverse ---------------------------------------------


@pytest.fixture
def ratio_two_ctx():
    """Single station, two exclusive items with p/s densities 4e-6 : 2e-6."""
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.4, 1e5), (0.1, 5e4)])],
                        search_workload=1e4)
    return EfficiencyContext(sc, CacheAssignment.zeros(sc),
                             single_y1_sched(1, 1), 0)


def test_g_of_b_extreme_levels(ratio_two_ctx):
    ctx = ratio_two_ctx
    top = g_of_B(ctx, 0.0)[0]
    assert top.tolist() == [1.0, 1.0]
    floor = ctx.efficiency_floor()
    empty = g_of_B(ctx, floor)[0]
    assert empty.tolist() == [0.0, 0.0]


def test_g_of_b_fractional_boundary(ratio_two_ctx):
    ctx = ratio_two_ctx
    lo = ctx.exclusive_eff(0, 1, 0.0)
    hi = ctx.exclusive_eff(0, 1, 1.0)
    assert lo < hi < 0.0
    level = 0.5 * (lo + hi)
    row = g_of_B(ctx, level)[0]
    assert row[0] == 1.0 and 0.0 < row[1] < 1.0
    eff = efficiencies_at_solution(ctx, [row])[0]
    assert eff[0] <= level + 1e-15          # cached entry at or below the level
    assert eff[1] == pytest.approx(level, rel=1e-9)  # fractional entry at it


def test_solve_inverse_endpoints(ratio_two_ctx):
    ctx = ratio_two_ctx
    lo = ctx.exclusive_eff(0, 1, 0.0)
    hi = ctx.exclusive_eff(0, 1, 1.0)
    assert _locate_level(ctx, 0, lo) == (1, False)
    assert _locate_level(ctx, 0, hi) == (1, True)
    assert _solve_fraction(ctx, 0, 1, hi) == pytest.approx(1.0, abs=1e-9)


def test_solve_inverse_matches_grid_scan(ratio_two_ctx):
    ctx = ratio_two_ctx
    lo = ctx.exclusive_eff(0, 1, 0.0)
    hi = ctx.exclusive_eff(0, 1, 1.0)
    level = 0.5 * (lo + hi)
    assert _locate_level(ctx, 0, level) == (1, True)
    x = _solve_fraction(ctx, 0, 1, level)
    # two-stage grid scan at 1e-6 resolution
    coarse = np.linspace(0.0, 1.0, 1001)
    vals = np.array([ctx.exclusive_eff(0, 1, float(g)) for g in coarse])
    i = int(np.searchsorted(vals, level))
    fine = np.arange(max(coarse[i - 1], 0.0), min(coarse[i] + 1e-6, 1.0), 1e-6)
    fvals = np.array([ctx.exclusive_eff(0, 1, float(g)) for g in fine])
    x_grid = float(fine[np.searchsorted(fvals, level)])
    assert x == pytest.approx(x_grid, abs=2e-6)


# -- per-station solver ---------------------------------------------------------


def test_solve_caching_unconstrained_caches_everything():
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])],
                        search_workload=1e4)
    rows, level = solve_caching_bs(sc, CacheAssignment.zeros(sc),
                                   single_y1_sched(1, 1), 0)
    assert rows[0].tolist() == [1.0, 1.0, 1.0]
    assert -2.0 * LEVEL_ACCURACY < level < 0.0


def test_solve_caching_zero_capacity():
    sc = build_scenario((2e9,), (0.0,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5), (0.1, 1e5)])],
                        search_workload=1e4)
    rows, _ = solve_caching_bs(sc, CacheAssignment.zeros(sc),
                               single_y1_sched(1, 1), 0)
    assert rows[0].tolist() == [0.0, 0.0]


def test_solve_caching_ends_at_float_resolution():
    # a weight of 1e300 puts the levels near -1e293, where adjacent doubles
    # lie farther apart than LEVEL_ACCURACY: the bisection must still end
    sc = build_scenario((2e9,), (1.5e5,), (0.02,), ((2.0,),),
                        [(1e300, 4e8, [(0.3, 1e5), (0.2, 1e5), (0.1, 1e5)])])
    rows, level = solve_caching_bs(sc, CacheAssignment.zeros(sc),
                                   single_y1_sched(1, 1), 0)
    x = rows[0]
    assert float(x @ np.full(3, 1e5)) <= 1.5e5
    assert ((x > 0.0) & (x < 1.0)).sum() <= 1
    assert -np.inf < level < 0.0


def test_solve_caching_matches_fractional_knapsack():
    sc, p, s, cap = knapsack_scenario()
    sched = single_y1_sched(1, 1)
    rows, level = solve_caching_bs(sc, CacheAssignment.zeros(sc), sched, 0)
    x = rows[0]
    K = len(p)
    order = np.lexsort((np.arange(K), -(p / s)))
    knap = np.zeros(K)
    rem = cap
    for k in order:
        take = min(1.0, rem / s[k])
        knap[k] = take
        rem -= take * s[k]
        if rem <= 0.0:
            break
    frac = (x > 1e-12) & (x < 1.0 - 1e-12)
    assert frac.sum() <= 1
    assert np.array_equal(x >= 1.0 - 1e-12, knap >= 1.0 - 1e-12)  # same prefix
    assert np.array_equal(frac, (knap > 0) & (knap < 1))          # same boundary item
    assert float(x @ s) <= cap
    assert cap - float(x @ s) <= s.max()  # tight up to the level resolution
    assert abs(float(p @ x) - float(p @ knap)) <= p[frac].sum() + 1e-12

    # the optimality conditions hold at the returned level
    ctx = EfficiencyContext(sc, CacheAssignment.zeros(sc), sched, 0)
    eff = efficiencies_at_solution(ctx, rows)[0]
    assert (eff[x >= 1.0 - 1e-12] <= level + 1e-9).all()
    assert (eff[x <= 1e-12] >= level - 1e-9).all()
    if frac.any():
        assert abs(float(eff[frac][0]) - level) <= 2e-9


# -- rounding and its guarantee --------------------------------------------------


def test_round_to_binary():
    rows = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 0.37, 1.0])]
    out = round_to_binary(rows)
    assert out[0].tolist() == [1.0, 0.0, 1.0]
    assert out[1].tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(MalformedInput):
        round_to_binary([np.array([0.4, 0.6])])


def test_theorem3_ratio_values():
    ratio, bound = theorem3_ratio(10.0, 4.0, 4.0, 1e5, 5, 4e9)
    assert ratio == 1.0
    assert bound == pytest.approx(0.999875)
    with pytest.raises(DegenerateInput):
        theorem3_ratio(5.0, 5.0, 5.0, 1e5, 2, 4e9)
    with pytest.raises(DegenerateInput):
        theorem3_ratio(10.0, 4.0, 4.0, 1e5, 2, 0.0)


# -- exhaustive oracle ------------------------------------------------------------


def test_oracle_hand_knapsack():
    sc = build_scenario((2e9,), (2.0,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.3, 1.0), (0.2, 1.0), (0.25, 2.0)])],
                        search_workload=1e3)
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    rows, obj = brute_force_cache_oracle(sc, CacheAssignment.zeros(sc), sched, 0)
    assert rows[0].tolist() == [1.0, 1.0, 0.0]
    assert obj > 0.0


def test_oracle_zero_capacity():
    sc = build_scenario((2e9,), (0.0,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.3, 1e5), (0.2, 1e5)])])
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    rows, _ = brute_force_cache_oracle(sc, CacheAssignment.zeros(sc), sched, 0)
    assert rows[0].tolist() == [0.0, 0.0]


def test_oracle_too_large():
    items = [(0.01, 1e5)] * 23
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((2.0,),), [(1.0, 4e8, items)])
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    with pytest.raises(TooLarge):
        brute_force_cache_oracle(sc, CacheAssignment.zeros(sc), sched, 0)


def test_oracle_never_beaten_by_rounded_solver():
    rng = np.random.Generator(np.random.PCG64(13))
    for trial in range(8):
        K = 5
        apps = []
        for a in range(2):
            p = rng.uniform(0.02, 0.15, K)
            p = p / p.sum() * rng.uniform(0.5, 0.9)
            s = rng.uniform(5e4, 3e5, K)
            apps.append((float(rng.uniform(0.5, 2.0)), float(rng.uniform(2e8, 6e8)),
                         list(zip(p.tolist(), s.tolist()))))
        cap = float(rng.uniform(2e5, 8e5))
        sc = build_scenario((2e9, 3e9), (cap, cap), (0.01, 0.02),
                            ((1.0, 0.6), (0.8, 1.2)), apps, search_workload=2e5)
        cache = CacheAssignment.zeros(sc)
        sched = uniform_state(sc)
        rows, _ = solve_caching_bs(sc, cache, sched, 0)
        cand = cache.with_station(0, round_to_binary(rows))
        rounded = evaluate_objective(sc, cand, sched).objective
        _, oracle = brute_force_cache_oracle(sc, cache, sched, 0)
        assert oracle <= rounded + 1e-12


# -- alternating sweep -------------------------------------------------------------


def fresh_state(sc):
    """A sweep state over an empty cache of its own."""
    return caching.SweepState(sc, CacheAssignment.zeros(sc))


def test_sweep_zero_passes(two_station_one_app):
    sc = two_station_one_app
    state = fresh_state(sc)
    out, _, objs = sweep_all_stations(sc, state, uniform_state(sc), passes=0)
    assert objs == []
    assert out is state
    assert not any(x.any() for x in out.entries)


def test_sweep_single_station_matches_one_solve():
    sc, *_ = knapsack_scenario(seed=9)
    cache = CacheAssignment.zeros(sc)
    start = uniform_state(sc)
    swept, _, _ = sweep_all_stations(sc, fresh_state(sc), start, passes=1)

    sched = start.copy()
    sched.y = evaluate_objective(sc, cache, sched).y
    rows, _ = solve_caching_bs(sc, cache, sched, 0)
    want = round_to_binary(rows)[0]
    assert np.array_equal(swept.entries[0][0], want)


def test_sweep_more_passes_never_worse():
    rng = np.random.Generator(np.random.PCG64(17))
    apps = []
    for a in range(2):
        p = rng.uniform(0.02, 0.15, 6)
        p = p / p.sum() * 0.8
        s = rng.uniform(5e4, 3e5, 6)
        apps.append((1.0, 4e8, list(zip(p.tolist(), s.tolist()))))
    sc = build_scenario((2e9, 3e9), (6e5, 6e5), (0.01, 0.02),
                        ((1.0, 0.6), (0.8, 1.2)), apps, search_workload=2e5)
    start = uniform_state(sc)
    _, _, one = sweep_all_stations(sc, fresh_state(sc), start, passes=1)
    swept, _, two = sweep_all_stations(sc, fresh_state(sc), start, passes=2)
    assert two[-1] <= one[-1] + 1e-15
    assert all(b <= a + 1e-15 for a, b in zip(two, two[1:]))
    # storage feasible throughout
    for n in range(sc.num_stations):
        assert storage_used(sc, swept, n) <= sc.storage_capacities[n] + 1e-6


def test_sweep_rejects_unstable_start():
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((20.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    with pytest.raises(StabilityViolation):
        sweep_all_stations(sc, fresh_state(sc), uniform_state(sc), 1)


def test_sweep_rejects_fractional_neighbor_entry():
    # a neighbor row holding 0.5 cannot reach the sweep: the cache rejects it
    with pytest.raises(MalformedInput, match="not binary"):
        CacheAssignment([np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])])


def test_sweep_state_rejects_wrong_row_length(two_station_one_app):
    sc = two_station_one_app
    # a candidate is one flat row over the whole catalog
    with pytest.raises(DimensionMismatch):
        fresh_state(sc).candidate(0, np.zeros(sc.offsets[-1] + 1))


def test_sweep_state_matches_hit_rate_oracle(monkeypatch):
    """A solve builds one SweepState.  Its counts and hit table equal the
    column sums and the dense compute_hit_rates of its own matrices, bit
    for bit: when it is built, after every accepted station rewrite of
    every round, and at the start of every round."""
    states, accepts, round_starts = [], [], []

    def check(state):
        oracle = compute_hit_rates(state.scenario, state)
        for name in ("local", "neighbor", "total"):
            assert np.array_equal(getattr(state.hit, name),
                                  getattr(oracle, name)), name
        assert np.array_equal(state.counts, state.x.sum(axis=0))

    class CheckedSweepState(caching.SweepState):
        def __init__(self, scenario, cache):
            super().__init__(scenario, cache)
            states.append(self)
            check(self)

        def accept(self, n, rows, hit):
            super().accept(n, rows, hit)
            accepts.append(n)
            check(self)

    sweep = solver.sweep_all_stations

    def checked_sweep(scenario, cache, sched, passes):
        assert cache is states[-1]
        check(cache)
        round_starts.append(cache)
        return sweep(scenario, cache, sched, passes)

    monkeypatch.setattr(solver, "SweepState", CheckedSweepState)
    monkeypatch.setattr(solver, "sweep_all_stations", checked_sweep)
    for seed in range(42, 47):
        sc = generate_scenario(GeneratorParams(seed=seed))
        built, accepted, started = len(states), len(accepts), len(round_starts)
        rep = alternating_solve(sc)
        assert len(states) == built + 1
        assert rep.cache is states[-1]
        assert len(round_starts) == started + rep.rounds_completed
        assert len(accepts) > accepted  # some rewrites
