"""Delay formulas: branch sojourn times, search selection, objective, gradient."""
import math
import warnings

import numpy as np
import pytest

from cecreuse import (CacheAssignment, EfficiencyContext,
                      QueueSimConfig, SchedulingState, StabilityViolation,
                      analytic_mean,
                      branch_delays, compute_hit_rates, evaluate_objective,
                      validate)
from cecreuse.delay import (evaluate_with_rates, gradient_with_rates,
                            hit_derivative, selected_stability)
from cecreuse.queuesim import _draw_services
from cecreuse.scheduling import DELTA_STAB

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


def test_idle_queue_with_a_tiny_cpu_has_a_finite_search_delay():
    """At f = 6.7e-180 and no load, 2 f (f - load srv1) underflows to 0;
    the waiting term is 0 there, so d1 is the service time alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t = branch_delays(6.7e-180, 0.0, 1e8, 2.5e7, 0.5)
    assert t.ok1 and t.d1 == (2.5e7 + 0.5 * 1e8) / 6.7e-180
    assert math.isfinite(t.d1)


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
    # the simulator's per-task cost (cpu = 1 cycle/s, so seconds are cycles)
    # against its closed form: an atom of mass P_hr at ws, then the
    # exponential miss tail; without searching a plain exponential
    wa, ws, n = 1e8, 2.5e7, 100_000

    def cdf(w, p_hr, mode):
        if mode == "no_cache":
            return 1.0 - math.exp(-w / wa)
        return 0.0 if w < ws else 1.0 - (1.0 - p_hr) * math.exp(-(w - ws) / wa)

    for p_hr, mode in ((0.3, "with_cache"), (0.0, "with_cache"), (0.0, "no_cache")):
        cfg = QueueSimConfig(arrival_rate=1.0, cpu=1.0, app_workload=wa,
                             search_workload=ws, hit_rate=p_hr, mode=mode,
                             num_tasks=n)
        cost = _draw_services(cfg, np.random.Generator(np.random.PCG64(9)), n)
        for w in (1e7, ws, ws + 1e7, ws + wa, ws + 3 * wa, 1e12):
            assert np.mean(cost <= w) == pytest.approx(cdf(w, p_hr, mode), abs=0.01)
    assert cdf(ws, 0.3, "with_cache") == pytest.approx(0.3)
    assert cdf(1e7, 0.3, "with_cache") == 0.0


def search_flag(f, load, hit, neighbor, ws=2.5e7, dt=0.02):
    """The search flag evaluate_with_rates picks on one queue: f cycles/s,
    load tasks/s, wa=1e8."""
    sc = build_scenario((f,), (1e9,), (dt,), ((load,),),
                        [(1.0, 1e8, [(hit, 1e5)])], search_workload=ws)
    y = evaluate_with_rates(sc, np.array([hit]), np.array([[neighbor]]),
                            np.ones((1, 1)), np.ones((1, 1))).y
    return int(y[0, 0])


def test_choose_cache_search_rule():
    assert search_flag(1e9, 3.0, 0.5, 0.0) == 1
    # a remote-hit transfer of 0.4 s outweighs the faster search branch
    assert search_flag(1e9, 3.0, 0.5, 0.4, dt=1.0) == 0
    # load 12/s overloads the no-search branch (mu0 = 10/s) but not search
    assert search_flag(1e9, 12.0, 0.5, 0.4, dt=1.0) == 1
    # ws = 0, no hits, empty queue: both branches take wa/f; tie keeps y = 0
    b = branch_delays(1e9, 0.0, 1e8, 0.0, 0.0)
    assert b.d0 == b.d1
    assert search_flag(1e9, 0.0, 0.0, 0.0, ws=0.0) == 0
    # zero hit probability: searching only adds ws, so it never wins
    assert search_flag(1e9, 3.0, 0.0, 0.0) == 0


def test_search_flags_zero_hits(two_station_one_app):
    sc = two_station_one_app
    hit = compute_hit_rates(sc, CacheAssignment.zeros(sc))
    state = uniform_state(sc)
    y = evaluate_with_rates(sc, hit.total, hit.neighbor, state.lam,
                            state.fshare).y
    assert not y.any()


def test_stability_predicate_agrees_everywhere():
    # evaluate_with_rates, validate and selected_stability at margin 0 make
    # one decision per queue: idle and CPU-without-load queues are stable,
    # zero-CPU-with-load and overloaded ones are not, and queues placed at
    # utilisation 1 or 1 - delta agree whichever side rounding puts them
    rng = np.random.Generator(np.random.PCG64(31))
    delta = DELTA_STAB
    kinds = np.array(["normal", "idle", "cpu_no_load", "no_cpu", "overloaded",
                      "boundary", "margin"])
    A, N = 2, 3
    for _ in range(50):
        sc = build_scenario(rng.uniform(1e9, 4e9, N), (1e9,) * N, (0.01,) * N,
                            rng.uniform(0.5, 2.0, (N, A)),
                            [(1.0, rng.uniform(1e8, 4e8), [(0.3, 1e5), (0.2, 1e5)])
                             for _ in range(A)])
        cache = CacheAssignment([rng.integers(0, 2, (N, 2)).astype(float)
                                 for _ in range(A)])
        hit = compute_hit_rates(sc, cache)
        y = rng.integers(0, 2, (A, N)).astype(np.int8)
        wa = sc.workloads[:, None]
        srv = np.where(y == 1, sc.search_workload + (1.0 - hit.total[:, None]) * wa, wa)
        kind = rng.choice(kinds, (A, N), p=[0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        util = rng.uniform(0.0, 0.95, (A, N))
        util[kind == "overloaded"] = rng.uniform(1.05, 3.0, (A, N))[kind == "overloaded"]
        util[kind == "boundary"] = 1.0
        util[kind == "margin"] = 1.0 - delta
        util[(kind == "idle") | (kind == "cpu_no_load")] = 0.0
        fshare = rng.uniform(0.1, 1.0, (A, N))
        fshare[(kind == "idle") | (kind == "no_cpu")] = 0.0
        rates, caps = sc.total_rates[:, None], sc.compute_capacities[None, :]
        lam = util * fshare * caps / (rates * srv)
        lam[kind == "no_cpu"] = rng.uniform(0.1, 1.0, (A, N))[kind == "no_cpu"]

        stable, slack = selected_stability(sc, hit.total, lam, fshare, y, margin=0.0)
        f, load = fshare * caps, lam * rates
        want = ((f > 0.0) & (load * srv < f)) | ((load == 0.0) & (f == 0.0))
        assert (stable == want).all()
        assert (slack == f - load * srv).all()
        assert stable[np.isin(kind, ["normal", "idle", "cpu_no_load", "margin"])].all()
        assert not stable[np.isin(kind, ["no_cpu", "overloaded"])].any()

        flagged = {(v.app, v.station) for v in
                   validate(sc, cache, SchedulingState(lam, fshare, y))
                   if v.constraint == "stability"}
        assert flagged == {(int(a), int(n)) for a, n in zip(*np.nonzero(~stable))}
        res = evaluate_with_rates(sc, hit.total, hit.neighbor, lam, fshare, y=y)
        assert res.feasible == stable.all()
        for a, n in np.ndindex(A, N):
            # every other queue idle: feasibility is this queue's verdict
            lam1, fsh1 = np.zeros((A, N)), np.zeros((A, N))
            lam1[a, n], fsh1[a, n] = lam[a, n], fshare[a, n]
            one = evaluate_with_rates(sc, hit.total, hit.neighbor, lam1, fsh1, y=y)
            assert one.feasible == stable[a, n]

        # the line-search margin only removes queues, never those at <= 95%
        inside, _ = selected_stability(sc, hit.total, lam, fshare, y, margin=delta)
        assert not (inside & ~stable).any()
        assert inside[kind == "normal"].all()


# -- hit-rate derivative ------------------------------------------------------


def test_hit_derivative_empty_queue_limit():
    assert hit_derivative(0.0, 1e9, 1e8, 2.5e7, 0.3) == pytest.approx(-1e8 / 1e9)


def test_hit_derivative_dominates_service_term():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(100):
        f = rng.uniform(5e8, 5e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(1e6, 5e7)
        p = rng.uniform(0.0, 1.0)
        load = rng.uniform(0.0, 0.9) * mu1_of(f, wa, ws, p)
        assert hit_derivative(load, f, wa, ws, p) <= -wa / f + 1e-18


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
        got = hit_derivative(load, f, wa, ws, p)

        def d1(ph):
            return float(branch_delays(f, load, wa, ws, ph).d1)

        fd = (d1(p + h) - d1(p - h)) / (2.0 * h)
        assert got == pytest.approx(fd, rel=1e-6)


def test_hit_derivative_unstable_is_minus_inf():
    # no CPU, then a load at (den = 0) and past (den < 0) the search branch's
    # service rate of 1e9 / 1.25e8 = 8 tasks/s
    for load, f in ((1.0, 0.0), (8.0, 1e9), (9.0, 1e9)):
        assert hit_derivative(load, f, 1e8, 2.5e7, 0.0) == -math.inf
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


def one_block_hit_derivative(load, f, wa, ws, hit):
    """dD1/dP as one block of scalar algebra, every factor formed at the
    call."""
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


@pytest.mark.parametrize("fshare1,load1", [
    (0.5, 1.0),    # both stations stable
    (0.0, 1.0),    # station 1 searches without CPU: f <= 0
    (0.1, 1.0),    # 2e8 cycles/s cannot carry 1 task/s of 4e8: den <= 0
    (0.5, 0.0),    # station 1 searches with no load
], ids=["stable", "no-cpu", "overloaded", "no-load"])
def test_split_hit_derivative_is_the_brackets_per_station_term(
        two_station_one_app, fshare1, load1):
    # hit_derivative is its hit-free factors per queue (hit_factors) and
    # the hit-dependent rest (hit_sensitivity), which bracket sums over
    # the searching stations from factors built once per context: each
    # station's term is c (hit_derivative + dt), bit for bit, and both
    # unstable branches give -inf, as the one-block formula does
    sc = two_station_one_app
    ws = sc.search_workload
    lam = np.array([[1.0 - 0.5 * load1, 0.5 * load1]])
    sched = SchedulingState(lam, np.array([[1.0, fshare1]]),
                            np.ones((1, 2), dtype=np.int8))
    ctx = EfficiencyContext(sc, CacheAssignment.zeros(sc), sched, 0)
    for hit in (0.0, 0.3, 0.6, 1.0):
        total, want = 0.0, None
        for j in range(2):
            load, f = float(lam[0, j] * 2.0), float(ctx.f[0, j])
            d = hit_derivative(load, f, 4e8, ws, hit)
            assert repr(d) == repr(one_block_hit_derivative(load, f, 4e8, ws, hit))
            c = float(lam[0, j])
            if c == 0.0:
                continue
            if d == -math.inf:
                want = -math.inf
                break
            total = total + c * (d + (0.0 if j == 0 else 0.02))
        want = total if want is None else want
        assert repr(ctx.bracket(0, hit)) == repr(want)
        if hit == 0.0:   # both unstable cases are unstable without hits
            assert (want == -math.inf) == (fshare1 in (0.0, 0.1))


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
        y = np.full((1, 2), yv, dtype=np.int8)
        res = evaluate_with_rates(sc, hit.total, hit.neighbor, lam, fshare, y=y)
        got = float(res.station_delays[0, 0])
        if yv == 0:
            want = 1.0 / (mu0 - load)
        else:
            want = (pk_sojourn(load, mu0, mu1, p_hr)
                    + float(hit.neighbor[0, 0]) * sc.transfer_delays[0])
        assert got == pytest.approx(want, rel=1e-12)


def response_delays(sc, sched):
    """evaluate_objective's per-app response times and station delays."""
    res = evaluate_objective(sc, CacheAssignment.zeros(sc), sched, frozen_y=sched.y)
    return res.app_delays, res.station_delays


def test_response_time_no_redistribution(two_station_one_app):
    sc = two_station_one_app
    lam = sc.arrival_rate_matrix / sc.total_rates[:, None]
    sched = SchedulingState(lam, np.ones((1, 2)), np.zeros((1, 2), dtype=np.int8))
    app, delays = response_delays(sc, sched)
    assert app[0] == pytest.approx(float(lam[0] @ delays[0]))


def test_response_time_single_station():
    sc = build_scenario((2e9,), (1e9,), (0.02,), ((2.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    app, delays = response_delays(sc, sched)
    assert app[0] == pytest.approx(float(delays[0, 0]))


def test_response_time_redistribution_example(two_station_one_app):
    # R = (1, 1), lam = (1, 0): station 0 processes everything at
    # 1 / (5 - 2) s and pays |2-1| 0.01 / 2 + |0-1| 0.02 / 2 = 0.015 s of
    # transfers
    sc = two_station_one_app
    sched = SchedulingState(np.array([[1.0, 0.0]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    app, delays = response_delays(sc, sched)
    assert delays[0, 0] == pytest.approx(1.0 / 3.0)
    assert app[0] == pytest.approx(1.0 / 3.0 + 0.015)


def test_weighted_objective_single_app_equals_response(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment.zeros(sc)
    sched = SchedulingState(np.array([[0.6, 0.4]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    res = evaluate_objective(sc, cache, sched, frozen_y=sched.y)
    # routed processing delays plus the transfer imbalance, per unit rate
    rate = float(sc.total_rates[0])
    lam, arr, dt = sched.lam[0], sc.arrival_rate_matrix[0], sc.transfer_delays
    want = float(lam @ res.station_delays[0] + np.abs(lam * rate - arr) @ dt / rate)
    assert res.objective == pytest.approx(want)


def test_weighted_objective_linear_in_weights():
    apps = [(1.0, 4e8, [(0.2, 1e5)]), (1.0, 3e8, [(0.1, 1e5)])]
    heavy = [(2.0, 4e8, [(0.2, 1e5)]), (2.0, 3e8, [(0.1, 1e5)])]
    args = ((2e9, 2e9), (4e9, 4e9), (0.01, 0.02), ((1.0, 0.5), (0.5, 1.0)))
    sc1 = build_scenario(*args, apps)
    sc2 = build_scenario(*args, heavy)
    state = uniform_state(sc1)
    v1 = evaluate_objective(sc1, CacheAssignment.zeros(sc1), state,
                            frozen_y=state.y).objective
    v2 = evaluate_objective(sc2, CacheAssignment.zeros(sc2), state,
                            frozen_y=state.y).objective
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_weighted_objective_seed42_greedy_regression(default_scenario):
    # pinned on first run; bit-identical under the fixed seed
    from cecreuse import solve_greedy
    rep = solve_greedy(default_scenario)
    got = evaluate_objective(default_scenario, rep.cache, rep.sched).objective
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


def evaluated_point(sc, cache, lam, fshare):
    hit = compute_hit_rates(sc, cache)
    return hit, evaluate_with_rates(sc, hit.total, hit.neighbor, lam, fshare)


def test_gradient_matches_finite_differences(two_station_one_app):
    sc = two_station_one_app
    cache = CacheAssignment([np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])])
    lam = np.array([[0.6, 0.4]])
    fshare = np.ones((1, 2))
    hit, res = evaluated_point(sc, cache, lam, fshare)
    grad = gradient_with_rates(sc, res, lam)
    h = 1e-7

    def obj(lm, fs):
        return evaluate_with_rates(sc, hit.total, hit.neighbor, lm, fs, y=res.y).objective

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
    _, res = evaluated_point(sc, cache, lam, fshare)
    grad = gradient_with_rates(sc, res, lam)
    assert (grad.dfshare < 0.0).all()


def test_gradient_symmetric_network(two_station_one_app):
    sc = build_scenario((2e9, 2e9), (4e9, 4e9), (0.015, 0.015), ((1.0,), (1.0,)),
                        [(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])])
    cache = full_cache(sc)
    state = uniform_state(sc)
    _, res = evaluated_point(sc, cache, state.lam, state.fshare)
    grad = gradient_with_rates(sc, res, state.lam)
    assert grad.dlam[0, 0] == pytest.approx(grad.dlam[0, 1], rel=1e-12)
    assert grad.dfshare[0, 0] == pytest.approx(grad.dfshare[0, 1], rel=1e-12)


def test_gradient_raises_at_unstable_point():
    sc = build_scenario((2e9,), (1e9,), (0.02,), ((20.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                            np.zeros((1, 1), dtype=np.int8))
    hit = compute_hit_rates(sc, CacheAssignment.zeros(sc))
    res = evaluate_with_rates(sc, hit.total, hit.neighbor, sched.lam,
                              sched.fshare, y=sched.y)
    with pytest.raises(StabilityViolation):
        gradient_with_rates(sc, res, sched.lam)
