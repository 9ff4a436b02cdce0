"""Property tests: the binary cache type, hit-rate identities, the level
search's probes, the batched projection, report JSON."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cecreuse import (CacheAssignment, GeneratorParams, Infeasible,
                      MalformedInput, SchedulingState, SolveReport,
                      compute_hit_rates, generate_scenario, project_decisions,
                      solver)
from cecreuse.caching import EfficiencyContext, SweepState
from cecreuse.delay import hit_derivative
from cecreuse.model import dot

from conftest import build_scenario

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])

# mostly exact 0/1, plus any float at all: near misses, NaN, infinities
ENTRY = st.one_of(st.sampled_from([0.0, 1.0]),
                  st.sampled_from([0.5, 1.0 - 1e-13, 1e-300, -0.0, 2.0]),
                  st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def matrices(draw, elements):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    flat = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


@PROPERTY
@given(st.lists(matrices(ENTRY), min_size=1, max_size=3))
def test_cache_accepts_exactly_the_binary_arrays(entries):
    binary = all(v == 0.0 or v == 1.0 for x in entries for v in x.flat)
    if binary:
        cache = CacheAssignment(entries)
        assert all(np.array_equal(a, b) for a, b in zip(cache.entries, entries))
    else:
        with pytest.raises(MalformedInput):
            CacheAssignment(entries)


@st.composite
def scenarios_with_cache(draw):
    """A small hand-sized scenario, a binary cache, and a binary station
    rewrite (station index, one row per app)."""
    n, n_apps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bits = st.sampled_from([0.0, 1.0])
    apps, entries, rows = [], [], []
    for _ in range(n_apps):
        k = draw(st.integers(1, 6))
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        scale = draw(st.floats(0.0, 0.95)) / max(sum(weights), 1e-9)
        sizes = draw(st.lists(st.floats(1e3, 1e6), min_size=k, max_size=k))
        apps.append((1.0, 1e8, [(min(scale * w, 1.0), s)
                                for w, s in zip(weights, sizes)]))
        flat = draw(st.lists(bits, min_size=n * k, max_size=n * k))
        entries.append(np.array(flat).reshape(n, k))
        rows.append(np.array(draw(st.lists(bits, min_size=k, max_size=k))))
    sc = build_scenario((1e9,) * n, (1e9,) * n, (0.01,) * n,
                        tuple((1.0,) * n_apps for _ in range(n)), apps)
    return sc, CacheAssignment(entries), draw(st.integers(0, n - 1)), rows


@PROPERTY
@given(scenarios_with_cache())
def test_hit_rates_are_ordered_and_split_exactly(case):
    sc, cache, _, _ = case
    hit = compute_hit_rates(sc, cache)
    assert np.array_equal(hit.neighbor, hit.total[:, None] - hit.local)
    for a, p in enumerate(sc.match_probs):
        # every cached set's mass is at most the catalog's, in the same sum
        assert 0.0 <= hit.local[a].min()
        assert hit.local[a].max() <= hit.total[a] <= dot(p, np.ones_like(p))


@PROPERTY
@given(scenarios_with_cache())
def test_sweep_candidate_equals_the_dense_oracle(case):
    sc, cache, n, rows = case
    counts, hit = SweepState(sc, cache).candidate(n, rows)
    rewritten = cache.with_station(n, rows)
    want = compute_hit_rates(sc, rewritten)
    for field in ("local", "neighbor", "total"):
        assert np.array_equal(getattr(hit, field), getattr(want, field))
    for c, x in zip(counts, rewritten.entries):
        assert np.array_equal(c, x.sum(axis=0))


@st.composite
def level_searches(draw):
    """One station's level search: a scenario, a binary cache and a
    scheduling state in which CPU shares may be 0 and loads may exceed
    what the CPU serves (so brackets meet zero-CPU and unstable queues)."""
    n, n_apps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bits = st.sampled_from([0.0, 1.0])

    def floats(lo, hi, size):
        return draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))

    apps, entries = [], []
    for _ in range(n_apps):
        k = draw(st.integers(1, 6))
        apps.append((draw(st.floats(0.1, 2.0)), draw(st.floats(1e7, 1e9)),
                     list(zip(floats(0.0, 0.15, k), floats(1e3, 1e6, k)))))
        flat = draw(st.lists(bits, min_size=n * k, max_size=n * k))
        entries.append(np.array(flat).reshape(n, k))
    rates = tuple(tuple(floats(0.0, 20.0, n_apps)) for _ in range(n))
    sc = build_scenario(floats(1e9, 8e9, n), (1e9,) * n, floats(0.0, 0.05, n),
                        rates, apps)
    shape = (n_apps, n)
    size = n_apps * n
    fshare = np.array(floats(0.01, 1.0, size))
    zero_cpu = draw(st.one_of(st.none(), st.integers(0, size - 1)))
    if zero_cpu is not None:
        fshare[zero_cpu] = 0.0
    sched = SchedulingState(
        lam=np.array(floats(0.0, 1.0, size)).reshape(shape),
        fshare=fshare.reshape(shape),
        y=np.array(draw(st.lists(bits, min_size=size,
                                 max_size=size))).reshape(shape))
    return sc, CacheAssignment(entries), sched, draw(st.integers(0, n - 1))


def station_order_bracket(ctx, a, hit):
    """G(P_hr) as the station-order sum of scalar hit_derivative calls."""
    sc = ctx.scenario
    rate, wa = sc.total_rates[a], float(sc.workloads[a])
    total = 0.0
    for j in range(sc.num_stations):
        c = float(sc.weights[a]) * ctx.lam[a, j] * ctx.yf[a, j]
        if c == 0.0:
            continue
        d = hit_derivative(ctx.lam[a, j] * rate, ctx.f[a, j], wa,
                           sc.search_workload, hit)
        if d == -math.inf:
            return -math.inf
        if j == ctx.station:
            total = total + c * d
        else:
            total = total + c * (d + ctx.dt[j])
    return total


@PROPERTY
@given(level_searches(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_bracket_equals_the_station_order_sum(case, hits):
    sc, cache, sched, station = case
    ctx = EfficiencyContext(sc, cache, sched, station)
    for a in range(sc.num_apps):
        for hit in hits:
            assert ctx.bracket(a, hit) == station_order_bracket(ctx, a, hit)


XV = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


@PROPERTY
@given(level_searches(),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), XV),
                min_size=1, max_size=10))
def test_memoised_exclusive_eff_equals_a_fresh_context(case, queries):
    sc, cache, sched, station = case
    ctx = EfficiencyContext(sc, cache, sched, station)
    asked = [(a % sc.num_apps, j, xv) for a, j, xv in queries]
    asked = [(a, j % len(ctx.exclusive[a]), xv) for a, j, xv in asked
             if len(ctx.exclusive[a])]
    for a, j, xv in asked + asked:
        fresh = EfficiencyContext(sc, cache, sched, station)
        assert ctx.exclusive_eff(a, j, xv) == fresh.exclusive_eff(a, j, xv)


def project_simplex_per_row(v):
    """The one-vector sort-based projection, one row at a time."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / idx > 0.0
    rho = idx[cond][-1]
    tau = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + tau, 0.0)


# ties, negative entries, and rows already on the simplex
SIMPLEX_ENTRY = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5, 1.0 / 3]),
                          st.floats(-3.0, 3.0))


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_batched_projection_equals_the_per_row_loop(apps, stations, data):
    shape = (apps, stations)
    lam, fshare = (np.array(data.draw(st.lists(
        SIMPLEX_ENTRY, min_size=apps * stations,
        max_size=apps * stations))).reshape(shape) for _ in range(2))
    if data.draw(st.booleans()):
        lam[0] = project_simplex_per_row(lam[0])
        fshare[:, 0] = project_simplex_per_row(fshare[:, 0])
    lam_p, fsh_p = project_decisions(lam, fshare)
    assert np.array_equal(lam_p, np.vstack([project_simplex_per_row(r)
                                            for r in lam]))
    assert np.array_equal(fsh_p, np.column_stack([project_simplex_per_row(c)
                                                  for c in fshare.T]))
    assert lam_p.flags.c_contiguous and fsh_p.flags.c_contiguous


@pytest.mark.parametrize("algorithm", ["alternating_solve", "solve_greedy",
                                       "solve_nor", "solve_noc"])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 3),
       apps=st.integers(1, 2))
def test_report_survives_a_json_round_trip(seed, stations, apps, algorithm):
    sc = generate_scenario(GeneratorParams(seed=seed, num_stations=stations,
                                           num_apps=apps, k_scale=0.002))
    kwargs = {} if algorithm == "solve_greedy" else {"rounds": 2}
    try:
        rep = getattr(solver, algorithm)(sc, **kwargs)
    except Infeasible:
        assume(False)
    d = rep.to_dict()
    again = SolveReport.from_dict(json.loads(json.dumps(d))).to_dict()
    assert again == d
