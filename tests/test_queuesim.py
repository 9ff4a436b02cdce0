"""Discrete-event queue against the closed-form means, and the blocked
simulator against the whole-array one it replaced, bit for bit."""
import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecreuse import (MalformedInput, QueueSimConfig, UnstableConfig,
                      analytic_mean, queuesim, simulate)
from cecreuse.queuesim import BLOCK, MAX_TASKS, _waits


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
    # one generator gives the task its hit indicator, then its workload
    for mode, hit, seed in itertools.product(("no_cache", "with_cache"),
                                             (0.0, 0.4, 1.0), range(5)):
        c = cfg(arrival_rate=0.0, mode=mode, hit_rate=hit, rng_seed=seed)
        assert simulate(c) == whole_array_simulate(c)


def whole_array_waits(interarrivals, services):
    """The closed form over every task at once: U_0 = 0,
    U_i = sum_{k<=i} (S_{k-1} - T_k), W_i = U_i - min_{k<=i} U_k."""
    u = interarrivals.copy()
    u[0] = 0.0
    np.subtract(services[:-1], u[1:], out=u[1:])
    np.cumsum(u, out=u)
    return u - np.minimum.accumulate(u)


def whole_array_simulate(cfg):
    """The simulator as it was before blocking: one generator, every task's
    interarrivals, then hit indicators, then workloads drawn at once."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.rng_seed)))

    def services(n):
        hits = (rng.random(n) < cfg.hit_rate if cfg.mode == "with_cache"
                else np.zeros(n, dtype=bool))
        workloads = -cfg.app_workload * np.log1p(-rng.random(n))
        if cfg.mode == "no_cache":
            return workloads / cfg.cpu
        return (cfg.search_workload + np.where(hits, 0.0, workloads)) / cfg.cpu

    if cfg.arrival_rate == 0.0:
        return queuesim.SimResult(float(services(1)[0]), 1)
    n = cfg.num_tasks
    interarrivals = -np.log1p(-rng.random(n)) / cfg.arrival_rate
    s = services(n)
    counted = (whole_array_waits(interarrivals, s) + s)[n // 10:]
    return queuesim.SimResult(float(counted.mean()), int(counted.size))


def block_waits(interarrivals, services, block):
    """Every task's wait, through the block step in blocks of ``block``."""
    n = len(interarrivals)
    waits, carry = np.empty(n), None
    u, w = np.empty(block + 1), np.empty(block + 1)
    for lo in range(0, n, block):
        k = min(block, n - lo)
        carry = _waits(interarrivals[lo:lo + k], services[lo:lo + k], carry,
                       u[:k + 1], w[:k + 1])
        waits[lo:lo + k] = w[1:k + 1]
    return waits


def test_closed_form_waits_match_lindley_recursion():
    rng = np.random.Generator(np.random.PCG64(41))
    inter = rng.exponential(0.2, 10_000)
    serv = rng.exponential(0.15, 10_000)
    want = np.zeros_like(inter)
    w = 0.0
    for i in range(1, len(want)):
        w = max(0.0, w + serv[i - 1] - inter[i])
        want[i] = w
    whole = whole_array_waits(inter, serv)
    # worst-case rounding of a running sum of n float64 terms
    atol = np.finfo(np.float64).eps * len(inter) * np.abs(serv[:-1] - inter[1:]).sum()
    # blocks that split the busy periods anywhere, the last one short
    for block in (1, 2, 7, 64, 999, 4096, 10_000, BLOCK):
        got = block_waits(inter, serv, block)
        assert got[0] == 0.0 and (got >= 0.0).all()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        # the carry continues the sequential sums: the same bits as one block
        np.testing.assert_array_equal(got, whole)


def test_single_queued_task():
    u, w = np.empty(2), np.empty(2)
    carry = _waits(np.array([0.7]), np.array([0.3]), None, u, w)
    assert w[1:].tolist() == [0.0]
    assert carry == (0.0, 0.0, 0.3)
    # the next task arrives 0.1 s later and waits out the first's service
    _waits(np.array([0.1]), np.array([0.5]), carry, u, w)
    assert w[1:].tolist() == [0.3 - 0.1]
    r = simulate(cfg(num_tasks=1))
    assert r.tasks_counted == 1
    assert r.mean_sojourn > 0.0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mode=st.sampled_from(["no_cache", "with_cache"]),
       hit=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       rho=st.floats(1e-3, 0.95),
       seed=st.integers(0, 2 ** 32),
       blocks=st.sampled_from([1, 2, 3, 12]), offset=st.integers(-2, 2),
       workloads=st.tuples(st.floats(1e7, 1e9), st.floats(1e6, 1e8)))
@pytest.mark.parametrize("block", [1, 7, 64, BLOCK])
def test_blocks_equal_the_whole_array_simulator(block, mode, hit, rho, seed,
                                                blocks, offset, workloads):
    wa, ws = workloads
    hit = hit if mode == "with_cache" else 0.0
    srv = (wa if mode == "no_cache" else ws + (1.0 - hit) * wa) / 2e9
    c = QueueSimConfig(arrival_rate=rho / srv, cpu=2e9, app_workload=wa,
                       search_workload=ws, hit_rate=hit, mode=mode,
                       num_tasks=max(1, blocks * block + offset), rng_seed=seed)
    with mock.patch.object(queuesim, "BLOCK", block):
        got = simulate(c)
    want = whole_array_simulate(c)
    assert got.mean_sojourn == want.mean_sojourn
    assert got.tasks_counted == want.tasks_counted


def test_peak_memory_of_a_million_tasks():
    # one with-cache queue of the validate-queueing grid: the counted
    # sojourns (7.2 MB) are the only array that grows with the task count
    c = cfg(arrival_rate=10.0, mode="with_cache", hit_rate=0.5,
            num_tasks=10 ** 6)
    tracemalloc.start()
    try:
        simulate(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


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


@pytest.mark.parametrize("field,value", [
    ("num_tasks", 2000.0), ("num_tasks", 2.5), ("num_tasks", True),
    ("num_tasks", "100"), ("num_tasks", None), ("num_tasks", 10 ** 18),
    ("num_tasks", 10 ** 30),
    ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", False),
    ("hit_rate", "0.5"), ("arrival_rate", "0.5"), ("cpu", None),
    ("app_workload", True), ("search_workload", "2.5e7"),
    ("cpu", 10 ** 400), ("hit_rate", -10 ** 400),
])
@pytest.mark.parametrize("arrival_rate", [5.0, 0.0])
def test_wrong_types_are_malformed_input(field, value, arrival_rate):
    c = cfg(mode="with_cache", hit_rate=0.5, arrival_rate=arrival_rate)
    # checked before any draw, on the single-task path too
    with pytest.raises(MalformedInput, match=field):
        simulate(replace(c, **{field: value}))


def test_task_count_bound():
    # the bound itself is checked without a simulation, which would take
    # 7.2 GB if the check were missing
    c = cfg(mode="with_cache", hit_rate=0.5)
    assert queuesim._checked(replace(c, num_tasks=MAX_TASKS)).num_tasks == MAX_TASKS
    with pytest.raises(MalformedInput, match="^num_tasks must be at most"):
        queuesim._checked(replace(c, num_tasks=MAX_TASKS + 1))


@pytest.mark.parametrize("mode", ["no_cache", "with_cache"])
def test_numpy_and_integer_fields_are_their_values(mode):
    # a numpy scalar, a Python int or a Fraction is the number it holds
    c = cfg(mode=mode, hit_rate=0.5, num_tasks=2000, rng_seed=3)
    odd = replace(c, num_tasks=np.int64(2000), rng_seed=np.uint32(3),
                  arrival_rate=np.float32(5.0), cpu=np.int64(2 * 10 ** 9),
                  app_workload=2 * 10 ** 8, search_workload=Fraction(5 * 10 ** 7, 2),
                  hit_rate=np.float64(0.5))
    assert simulate(odd) == simulate(c)
