"""Delay formulas: branch sojourn times, search selection, objective, gradient."""
import math

import numpy as np
import pytest

from cecreuse import (CacheAssignment, EfficiencyContext, QueueSimConfig,
                      SchedulingState, StabilityViolation, analytic_mean,
                      branch_delays, choose_cache_search, compute_hit_rates,
                      d_delay1_d_phr, evaluate_objective, objective_gradient,
                      processing_delay, recompute_search_flags, response_time,
                      service_time_cdf, weighted_objective)
from cecreuse.delay import evaluate_with_rates, gradient_with_rates, hit_derivative

from conftest import build_scenario, full_cache, uniform_state


def pk_sojourn(load, mu0, mu1, p_hr):
    # Pollaczek-Khinchine mean sojourn with the mixed service second moment
    e_t = 1.0 / mu1
    e_t2 = 1.0 / mu1 ** 2 + (1.0 - p_hr ** 2) / mu0 ** 2
    return e_t + load * e_t2 / (2.0 * (1.0 - load / mu1))


def mu1_of(f, wa, ws, p_hr):
    # service rate of the search branch
    return f / (ws + (1.0 - p_hr) * wa)


# -- branch delays on one queue ------------------------------------------------


def d0_of(load, mu0):
    # no-search branch at f = mu0 cycles/s and one cycle per task
    return branch_delays(mu0, load, 1.0, 0.0, 0.0)


def test_delay_no_cache_values():
    assert d0_of(0.0, 5.0).d0 == pytest.approx(1.0 / 5.0)
    assert d0_of(3.0, 5.0).d0 == pytest.approx(0.5)
    near = d0_of(5.0 * (1.0 - 1e-9), 5.0)
    assert near.ok0 and near.d0 > 1e8 / 5.0
    unstable = d0_of(5.0, 5.0)
    assert not unstable.ok0 and unstable.d0 == 0.0
    with pytest.raises(StabilityViolation):
        analytic_mean(QueueSimConfig(arrival_rate=5.0, cpu=5.0, app_workload=1.0,
                                     search_workload=0.0, hit_rate=0.0,
                                     mode="no_cache", num_tasks=10))


def test_delay_no_cache_diverges_monotonically():
    prev = 0.0
    for load in (4.0, 4.9, 4.99, 4.9999):
        cur = d0_of(load, 5.0).d0
        assert cur > prev
        prev = cur


def test_delay_with_cache_all_hits_is_md1():
    # f = 1e9, ws = 2.5e7 -> mu1 = 40/s; at load 20/s the M/D/1 sojourn is
    # 1/40 + 20 / (2 * 40 * 20) = 0.0375 s
    assert mu1_of(1e9, 1e8, 2.5e7, 1.0) == pytest.approx(40.0)
    b = branch_delays(1e9, 20.0, 1e8, 2.5e7, 1.0)
    assert b.ok1 and b.d1 == pytest.approx(0.0375)


def test_delay_with_cache_empty_queue():
    b = branch_delays(1e9, 0.0, 1e8, 2.5e7, 0.4)
    assert b.d1 == pytest.approx(1.0 / mu1_of(1e9, 1e8, 2.5e7, 0.4))


def test_delay_with_cache_matches_pollaczek_khinchine():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(200):
        f = rng.uniform(5e8, 5e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(1e6, 5e7)
        p_hr = rng.uniform(0.0, 1.0)
        mu0, mu1 = f / wa, mu1_of(f, wa, ws, p_hr)
        load = rng.uniform(0.0, 0.95) * mu1
        got = branch_delays(f, load, wa, ws, p_hr).d1
        want = pk_sojourn(load, mu0, mu1, p_hr)
        assert got == pytest.approx(want, rel=1e-12)


def test_delay_with_cache_unstable_raises():
    mu1 = mu1_of(1e9, 1e8, 2.5e7, 0.0)
    b = branch_delays(1e9, mu1, 1e8, 2.5e7, 0.0)
    assert not b.ok1 and b.d1 == 0.0
    with pytest.raises(StabilityViolation):
        analytic_mean(QueueSimConfig(arrival_rate=mu1, cpu=1e9, app_workload=1e8,
                                     search_workload=2.5e7, hit_rate=0.0,
                                     mode="with_cache", num_tasks=10))


def test_branch_delays_broadcast_like_scalars():
    f = np.array([[1e9, 2e9], [3e9, 0.0]])
    load = np.array([[2.0, 30.0], [1.0, 0.0]])
    wa = np.array([[1e8], [2e8]])
    hit = np.array([[0.3], [0.9]])
    table = branch_delays(f, load, wa, 2.5e7, hit)
    for a in range(2):
        for n in range(2):
            one = branch_delays(float(f[a, n]), float(load[a, n]), float(wa[a, 0]),
                                2.5e7, float(hit[a, 0]))
            for name in ("d0", "ok0", "d1", "ok1"):
                assert getattr(table, name)[a, n] == getattr(one, name)


def test_service_rate_identity():
    # with an empty queue each branch's sojourn is its mean service time
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        f = rng.uniform(1e8, 8e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(0.0, 5e7)
        p = rng.uniform(0.0, 1.0)
        b = branch_delays(f, 0.0, wa, ws, p)
        assert 1.0 / b.d0 == pytest.approx(f / wa, rel=1e-12)
        assert b.d1 * f == pytest.approx(ws + (1.0 - p) * wa, rel=1e-12)


def test_service_time_cdf():
    assert service_time_cdf(2.5e7, 0.3, 1e8, 2.5e7) == pytest.approx(0.3)
    assert service_time_cdf(1e12, 0.3, 1e8, 2.5e7) == pytest.approx(1.0)
    assert service_time_cdf(1e7, 0.3, 1e8, 2.5e7) == 0.0
    assert service_time_cdf(2.5e7 + 1e8, 0.0, 1e8, 2.5e7) == pytest.approx(
        1.0 - math.exp(-1.0))


def test_choose_cache_search_rule():
    assert choose_cache_search(0.5, 0.3, 0.4, 0.02) == 1
    assert choose_cache_search(math.inf, 0.3, 0.4, 0.02) == 1
    assert choose_cache_search(0.3, 0.3, 0.0, 0.02) == 0  # tie keeps y = 0
    # zero hit probability: searching only adds ws, so it never wins
    b = branch_delays(1e9, 3.0, 1e8, 2.5e7, 0.0)
    assert choose_cache_search(float(b.d0), float(b.d1), 0.0, 0.02) == 0


def test_recompute_search_flags_zero_hits(two_station_one_app):
    sc = two_station_one_app
    hit = compute_hit_rates(sc, CacheAssignment.zeros(sc))
    state = uniform_state(sc)
    y = recompute_search_flags(sc, hit.total, hit.neighbor, state.lam, state.fshare)
    assert not y.any()


# -- hit-rate derivative ------------------------------------------------------


def test_hit_derivative_empty_queue_limit():
    assert d_delay1_d_phr(0.0, 5.0, 1e9, 1e8, 2.5e7, 0.3) == pytest.approx(-1e8 / 1e9)


def test_hit_derivative_dominates_service_term():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(100):
        f = rng.uniform(5e8, 5e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(1e6, 5e7)
        p = rng.uniform(0.0, 1.0)
        load = rng.uniform(0.0, 0.9) * mu1_of(f, wa, ws, p)
        assert d_delay1_d_phr(1.0, load, f, wa, ws, p) <= -wa / f + 1e-18


def test_hit_derivative_matches_finite_difference():
    rng = np.random.Generator(np.random.PCG64(6))
    h = 1e-7
    for _ in range(100):
        f = rng.uniform(5e8, 5e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(1e6, 5e7)
        p = rng.uniform(0.05, 0.9)
        mu_lo = mu1_of(f, wa, ws, p - h)  # worst-case rate in the stencil
        load = rng.uniform(0.1, 0.85) * mu_lo
        got = d_delay1_d_phr(1.0, load, f, wa, ws, p)

        def d1(ph):
            return float(branch_delays(f, load, wa, ws, ph).d1)

        fd = (d1(p + h) - d1(p - h)) / (2.0 * h)
        assert got == pytest.approx(fd, rel=1e-6)


def test_hit_derivative_unstable_is_minus_inf():
    # no CPU, then a load at (den = 0) and past (den < 0) the search branch's
    # service rate of 1e9 / 1.25e8 = 8 tasks/s
    for load, f in ((1.0, 0.0), (8.0, 1e9), (9.0, 1e9)):
        assert hit_derivative(load, f, 1e8, 2.5e7, 0.0) == -math.inf
        with pytest.raises(StabilityViolation):
            d_delay1_d_phr(1.0, load, f, 1e8, 2.5e7, 0.0)
    assert math.isfinite(hit_derivative(7.9, 1e9, 1e8, 2.5e7, 0.0))


def test_efficiency_bracket_unstable_is_minus_inf(two_station_one_app):
    sc = two_station_one_app
    lam = np.array([[0.5, 0.5]])
    hit = 0.3
    d_own = hit_derivative(0.5 * 2.0, 2e9, 4e8, sc.search_workload, hit)
    for fshare1, y1, want in (
            (0.0, 1, -math.inf),   # station 1 searches without CPU
            (0.1, 1, -math.inf),   # 2e8 cycles/s cannot carry 1 task/s of 4e8
            (0.0, 0, 0.5 * d_own),  # a station that does not search is skipped
    ):
        sched = SchedulingState(lam, np.array([[1.0, fshare1]]),
                                np.array([[1, y1]], dtype=np.int8))
        ctx = EfficiencyContext(sc, CacheAssignment.zeros(sc), sched, 0)
        assert ctx.bracket(0, hit) == want


# -- per-app response time -----------------------------------------------------


def test_processing_delay_branch_selection(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment([np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])])
    hit = compute_hit_rates(sc, cache)
    lam = np.array([[0.5, 0.5]])
    fshare = np.ones((1, 2))
    # textbook M/M/1 and Pollaczek-Khinchine forms at f = 2e9, load 0.5 * 2
    p_hr = float(hit.total[0])
    load = 1.0
    mu0 = 2e9 / 4e8
    mu1 = mu1_of(2e9, 4e8, sc.search_workload, p_hr)
    for yv in (0, 1):
        sched = SchedulingState(lam, fshare, np.full((1, 2), yv, dtype=np.int8))
        got = processing_delay(sc, cache, sched, 0, 0)
        if yv == 0:
            want = 1.0 / (mu0 - load)
        else:
            want = (pk_sojourn(load, mu0, mu1, p_hr)
                    + float(hit.neighbor[0, 0]) * sc.transfer_delays[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_response_time_no_redistribution(two_station_one_app):
    sc = two_station_one_app
    lam = sc.arrival_rate_matrix / sc.total_rates[:, None]
    sched = SchedulingState(lam, np.ones((1, 2)), np.zeros((1, 2), dtype=np.int8))
    delays = np.array([0.2, 0.7])
    assert response_time(sc, sched, 0, delays) == pytest.approx(float(lam[0] @ delays))


def test_response_time_single_station():
    sc = build_scenario((2e9,), (1e9,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    assert response_time(sc, sched, 0, np.array([0.33])) == pytest.approx(0.33)


def test_response_time_redistribution_example(two_station_one_app):
    # R = (1, 1), lam = (1, 0): station 0 processes everything at 0.2 s and
    # pays |2-1| 0.01 / 2 + |0-1| 0.02 / 2 = 0.015 s of transfers
    sc = two_station_one_app
    sched = SchedulingState(np.array([[1.0, 0.0]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    got = response_time(sc, sched, 0, np.array([0.2, 0.7]))
    assert got == pytest.approx(0.215)


def test_weighted_objective_single_app_equals_response(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment.zeros(sc)
    sched = SchedulingState(np.array([[0.6, 0.4]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    res = evaluate_objective(sc, cache, sched, frozen_y=sched.y)
    want = response_time(sc, sched, 0, res.station_delays[0])
    assert weighted_objective(sc, cache, sched, frozen_y=sched.y) == pytest.approx(want)


def test_weighted_objective_linear_in_weights():
    apps = [(1.0, 4e8, [(0.2, 1e5)]), (1.0, 3e8, [(0.1, 1e5)])]
    heavy = [(2.0, 4e8, [(0.2, 1e5)]), (2.0, 3e8, [(0.1, 1e5)])]
    args = ((2e9, 2e9), (4e9, 4e9), (0.01, 0.02), ((1.0, 0.5), (0.5, 1.0)))
    sc1 = build_scenario(*args, apps)
    sc2 = build_scenario(*args, heavy)
    state = uniform_state(sc1)
    v1 = weighted_objective(sc1, CacheAssignment.zeros(sc1), state, frozen_y=state.y)
    v2 = weighted_objective(sc2, CacheAssignment.zeros(sc2), state, frozen_y=state.y)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_weighted_objective_seed42_greedy_regression(default_scenario):
    # pinned on first run; bit-identical under the fixed seed
    from cecreuse import solve_greedy
    rep = solve_greedy(default_scenario)
    got = weighted_objective(default_scenario, rep.cache, rep.sched)
    assert got == 23.243082099805644


def test_objective_non_increasing_in_local_hits(two_station_one_app):
    # raising the local rate at fixed total (a peer already holds the item)
    # only removes transfers, never adds delay
    sc = two_station_one_app
    state = uniform_state(sc, y=1)
    total = np.array([0.5])
    for local0 in (0.0, 0.2, 0.4):
        lo = evaluate_with_rates(sc, total, np.array([[0.5 - local0, 0.1]]),
                                 state.lam, state.fshare, y=state.y)
        hi = evaluate_with_rates(sc, total, np.array([[0.5 - local0 - 0.1, 0.1]]),
                                 state.lam, state.fshare, y=state.y)
        assert hi.objective <= lo.objective + 1e-15


def test_evaluate_objective_flags_overload():
    sc = build_scenario((2e9,), (1e9,), (0.02,), ((20.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])  # mu0 = 5 < load = 20
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    res = evaluate_objective(sc, CacheAssignment.zeros(sc), sched)
    assert not res.feasible and res.objective is None
    with pytest.raises(StabilityViolation):
        weighted_objective(sc, CacheAssignment.zeros(sc), sched)


def test_idle_station_contributes_zero():
    sc = build_scenario((2e9, 2e9), (1e9, 1e9), (0.01, 0.01), ((1.0, 0.0), (1.0, 0.0)),
                        [(1.0, 4e8, [(0.2, 1e5)]), (1.0, 3e8, [(0.1, 1e5)])])
    lam = np.array([[1.0, 0.0], [1.0, 0.0]])
    fshare = np.array([[0.5, 0.0], [0.5, 0.0]])  # station 1 idle for both apps
    sched = SchedulingState(lam, fshare, np.zeros((2, 2), dtype=np.int8))
    res = evaluate_objective(sc, CacheAssignment.zeros(sc), sched)
    assert res.feasible
    assert res.station_delays[0, 1] == 0.0 and res.station_delays[1, 1] == 0.0


# -- gradient -----------------------------------------------------------------


def feasible_point(sc, cache, lam, fshare):
    hit = compute_hit_rates(sc, cache)
    y = recompute_search_flags(sc, hit.total, hit.neighbor, lam, fshare)
    return hit, y


def test_gradient_matches_finite_differences(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment([np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])])
    lam = np.array([[0.6, 0.4]])
    fshare = np.ones((1, 2))
    hit, y = feasible_point(sc, cache, lam, fshare)
    grad = gradient_with_rates(sc, hit.total, hit.neighbor, lam, fshare, y)
    h = 1e-7

    def obj(lm, fs):
        return evaluate_with_rates(sc, hit.total, hit.neighbor, lm, fs, y=y).objective

    for a in range(1):
        for n in range(2):
            lp, lm_ = lam.copy(), lam.copy()
            lp[a, n] += h
            lm_[a, n] -= h
            fd = (obj(lp, fshare) - obj(lm_, fshare)) / (2 * h)
            assert grad.dlam[a, n] == pytest.approx(fd, rel=1e-5)
            fp, fm = fshare.copy(), fshare.copy()
            fp[a, n] += h
            fm[a, n] -= h
            fd = (obj(lam, fp) - obj(lam, fm)) / (2 * h)
            assert grad.dfshare[a, n] == pytest.approx(fd, rel=1e-5)


def test_gradient_cpu_share_strictly_negative(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment.zeros(sc)
    lam = np.array([[0.6, 0.4]])
    fshare = np.ones((1, 2))
    hit, y = feasible_point(sc, cache, lam, fshare)
    grad = gradient_with_rates(sc, hit.total, hit.neighbor, lam, fshare, y)
    assert (grad.dfshare < 0.0).all()


def test_gradient_symmetric_network(two_station_one_app):
    sc = build_scenario((2e9, 2e9), (4e9, 4e9), (0.015, 0.015), ((1.0,), (1.0,)),
                        [(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])])
    cache = full_cache(sc)
    state = uniform_state(sc)
    hit, y = feasible_point(sc, cache, state.lam, state.fshare)
    grad = gradient_with_rates(sc, hit.total, hit.neighbor, state.lam, state.fshare, y)
    assert grad.dlam[0, 0] == pytest.approx(grad.dlam[0, 1], rel=1e-12)
    assert grad.dfshare[0, 0] == pytest.approx(grad.dfshare[0, 1], rel=1e-12)


def test_gradient_raises_at_unstable_point():
    sc = build_scenario((2e9,), (1e9,), (0.02,), ((20.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    with pytest.raises(StabilityViolation):
        objective_gradient(sc, CacheAssignment.zeros(sc), sched, sched.y)
