"""Discrete-event queue against the closed-form means."""
import math

import numpy as np
import pytest

from cecreuse import (MalformedInput, QueueSimConfig, UnstableConfig,
                      analytic_mean, simulate)
from cecreuse.queuesim import _lindley_waits


def cfg(**kw):
    base = dict(arrival_rate=5.0, cpu=2e9, app_workload=2e8,
                search_workload=2.5e7, hit_rate=0.0, mode="no_cache",
                num_tasks=200_000, rng_seed=7)
    base.update(kw)
    return QueueSimConfig(**base)


def compare_to_analytic(c):
    """|simulated mean - analytic mean| / analytic mean."""
    analytic = analytic_mean(c)
    return abs(simulate(c).mean_sojourn - analytic) / analytic


def test_single_task_is_exact_service():
    # every task hits: deterministic service ws / cpu, no queueing
    r = simulate(cfg(arrival_rate=0.0, mode="with_cache", hit_rate=1.0,
                     search_workload=5e7))
    assert r.mean_sojourn == 5e7 / 2e9
    assert r.tasks_counted == 1


def test_closed_form_waits_match_lindley_recursion():
    rng = np.random.Generator(np.random.PCG64(41))
    inter = rng.exponential(0.2, 10_000)
    serv = rng.exponential(0.15, 10_000)
    want = np.zeros_like(inter)
    w = 0.0
    for i in range(1, len(want)):
        w = max(0.0, w + serv[i - 1] - inter[i])
        want[i] = w
    got = _lindley_waits(inter.copy(), serv)
    assert got[0] == 0.0 and (got >= 0.0).all()
    # worst-case rounding of a running sum of n float64 terms
    atol = np.finfo(np.float64).eps * len(inter) * np.abs(serv[:-1] - inter[1:]).sum()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def test_single_queued_task():
    assert _lindley_waits(np.array([0.7]), np.array([0.3])).tolist() == [0.0]
    r = simulate(cfg(num_tasks=1))
    assert r.tasks_counted == 1
    assert r.mean_sojourn > 0.0


def test_mm1_matches_analytic():
    c = cfg()  # mu0 = 10/s, arrival 5/s -> sojourn 0.2 s
    assert analytic_mean(c) == pytest.approx(0.2)
    assert compare_to_analytic(c) < 0.025


def test_md1_all_hits_matches_analytic():
    c = cfg(arrival_rate=20.0, mode="with_cache", hit_rate=1.0,
            search_workload=5e7, rng_seed=11)
    assert analytic_mean(c) == pytest.approx(0.0375)
    assert compare_to_analytic(c) < 0.01


def test_mixed_service_accuracy():
    c = cfg(arrival_rate=6.0, mode="with_cache", hit_rate=0.5, rng_seed=3)
    assert compare_to_analytic(c) < 0.025


def test_determinism():
    a = simulate(cfg(rng_seed=123))
    b = simulate(cfg(rng_seed=123))
    assert a == b
    c = simulate(cfg(rng_seed=124))
    assert c.mean_sojourn != a.mean_sojourn


def test_unstable_raises():
    with pytest.raises(UnstableConfig):
        simulate(cfg(arrival_rate=10.0))  # rho = 1 exactly
    with pytest.raises(UnstableConfig):
        simulate(cfg(arrival_rate=40.0, mode="with_cache", hit_rate=0.2))


def test_default_warmup_drops_ten_percent():
    r = simulate(cfg(num_tasks=50_000))
    assert r.tasks_counted == 50_000 - 5_000
    r2 = simulate(cfg(num_tasks=12_345))
    assert r2.tasks_counted == 12_345 - 12_345 // 10


def test_malformed_inputs():
    with pytest.raises(MalformedInput):
        simulate(cfg(mode="half"))
    with pytest.raises(MalformedInput):
        simulate(cfg(hit_rate=1.5, mode="with_cache"))
    with pytest.raises(MalformedInput):
        simulate(cfg(cpu=0.0))
    with pytest.raises(MalformedInput):
        simulate(cfg(num_tasks=0))


@pytest.mark.parametrize("field", ["arrival_rate", "cpu", "app_workload",
                                   "search_workload"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_rejects_non_finite_or_negative_numbers(field, value):
    # checked before the stability test: NaN must not slip through as a
    # NaN mean, -1 tasks/s must not give a "result", inf is not "unstable"
    with pytest.raises(MalformedInput):
        simulate(cfg(**{field: value}, mode="with_cache", hit_rate=0.5))
