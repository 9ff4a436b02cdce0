"""Property tests: the binary cache type, hit-rate identities, the caching
sweep's station skip, the solve's one sweep state, the level search's
probes, the batched projection, the blocked line search, report JSON."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cecreuse import (CacheAssignment, GeneratorParams, Infeasible,
                      LineSearchExhausted, MalformedInput, SchedulingState,
                      backtrack, compute_hit_rates,
                      generate_scenario, initial_feasible_point,
                      project_decisions, solver)
from cecreuse.caching import (LEVEL_ACCURACY, EfficiencyContext, SweepState,
                              _level_rows, _locate_level, _solve_fraction,
                              g_of_B, round_to_binary, solve_caching_bs,
                              sweep_all_stations)
from cecreuse.delay import (BranchDelays, evaluate_with_rates,
                            gradient_with_rates, hit_derivative)
from cecreuse.scheduling import (ALPHA, BETA, DELTA_STAB, J_MAX, STEP_BLOCK,
                                 solve_scheduling)
from cecreuse.model import dot, rows_storage

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


def copied(cache):
    """A cache with matrices of its own."""
    return CacheAssignment([x.copy() for x in cache.entries])


def sweep_solving_every_station(scenario, cache, sched, passes):
    """The caching sweep as it was before stations were skipped: every
    station is solved on every visit."""
    sched = sched.copy()
    res = evaluate_with_rates(scenario, cache.hit.total, cache.hit.neighbor,
                              sched.lam, sched.fshare)
    sched.y = res.y
    obj = res.objective
    pass_objs = []
    for _ in range(passes):
        changed = False
        for n in range(scenario.num_stations):
            rows, _level = solve_caching_bs(scenario, cache, sched, n,
                                            cache.peer_counts(n))
            rows_bin = round_to_binary(rows)
            if all(np.array_equal(rows_bin[a], cache.entries[a][n])
                   for a in range(scenario.num_apps)):
                continue
            if rows_storage(scenario, rows_bin) > scenario.storage_capacities[n]:
                continue
            counts, hit = cache.candidate(n, rows_bin)
            res2 = evaluate_with_rates(scenario, hit.total, hit.neighbor,
                                       sched.lam, sched.fshare)
            if res2.feasible and res2.objective <= obj:
                cache.accept(n, rows_bin, counts, hit)
                sched.y = res2.y
                obj = res2.objective
                changed = True
        pass_objs.append(obj)
        if not changed:
            break
    return cache, sched, pass_objs


# One station, several apps, greedy start: the first rewrite stops an app
# with a small cached set from searching, and the station solved again under
# the new y gives that storage to the others.  Random draws meet this in
# about one case in twenty, so two instances are pinned.
@PROPERTY
@example(seed=10, stations=1, apps=3, load=0.5, start="greedy", descent=0,
         passes=3)
@example(seed=51, stations=1, apps=2, load=1.0, start="greedy", descent=3,
         passes=3)
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 4),
       apps=st.integers(1, 3), load=st.sampled_from([0.5, 1.0, 1.5]),
       start=st.sampled_from(["empty", "greedy", "random"]),
       descent=st.integers(0, 3), passes=st.integers(1, 6))
def test_skipping_sweep_equals_solving_every_station(
        seed, stations, apps, load, start, descent, passes):
    sc = generate_scenario(GeneratorParams(
        seed=seed, num_stations=stations, num_apps=apps,
        workload_factor=load, k_scale=0.002))
    if start == "greedy":
        cache = solver.greedy_cache(sc)
    else:
        cache = CacheAssignment.zeros(sc)
        if start == "random":
            rng = np.random.default_rng(seed)
            for x in cache.entries:
                x[:] = rng.integers(0, 2, x.shape)
    hit = compute_hit_rates(sc, cache)
    try:
        sched, _ = initial_feasible_point(sc, hit)
    except Infeasible:
        assume(False)
    # a few descent steps move routing off the proportional start
    sched, _ = solve_scheduling(sc, hit, sched, descent)
    got = sweep_all_stations(sc, SweepState(sc, copied(cache)), sched, passes)
    want = sweep_solving_every_station(sc, SweepState(sc, copied(cache)),
                                       sched, passes)
    assert got[2] == want[2]
    assert all(np.array_equal(a, b)
               for a, b in zip(got[0].entries, want[0].entries))
    assert all(np.array_equal(a, b)
               for a, b in zip(got[0].counts, want[0].counts))
    for field in ("lam", "fshare", "y"):
        assert np.array_equal(getattr(got[1], field), getattr(want[1], field))
    for field in ("local", "neighbor", "total"):
        assert np.array_equal(getattr(got[0].hit, field),
                              getattr(want[0].hit, field))


def solve_rebuilding_state_each_round(scenario, rounds):
    """alternating_solve's round loop as it was: each round's sweep starts
    from a fresh copy of the cache and a fresh SweepState, and the descent
    takes the hit table the sweep ends with."""
    cache = solver.greedy_cache(scenario)
    sched, res = initial_feasible_point(scenario,
                                        compute_hit_rates(scenario, cache))
    trace = [(0, "init", 0, res.objective)]
    prev = res.objective
    for r in range(1, rounds + 1):
        state = SweepState(scenario, copied(cache))
        cache, sched, pass_objs = sweep_all_stations(
            scenario, state, sched, solver.CACHING_PASSES)
        trace += [(r, "caching", i, o) for i, o in enumerate(pass_objs, 1)]
        sched, strace = solve_scheduling(scenario, state.hit, sched,
                                         solver.SCHEDULING_ITERS)
        trace += [(r, "scheduling", i, o) for i, o, _j in strace]
        cur = trace[-1][3]
        if prev - cur < solver.ROUND_IMPROVEMENT_TOL * max(abs(prev), 1e-300):
            break
        prev = cur
    return trace, cache, sched


@PROPERTY
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 4),
       apps=st.integers(1, 3), load=st.sampled_from([0.5, 1.0, 1.5]),
       rounds=st.integers(0, 6))
def test_one_state_per_solve_equals_a_fresh_state_per_round(
        seed, stations, apps, load, rounds):
    sc = generate_scenario(GeneratorParams(
        seed=seed, num_stations=stations, num_apps=apps,
        workload_factor=load, k_scale=0.002))
    try:
        trace, cache, sched = solve_rebuilding_state_each_round(sc, rounds)
    except Infeasible:
        assume(False)
    rep = solver.alternating_solve(sc, rounds)
    assert rep.objective_trace == trace
    assert all(np.array_equal(a, b)
               for a, b in zip(rep.cache.entries, cache.entries))
    for field in ("lam", "fshare", "y"):
        assert np.array_equal(getattr(rep.sched, field), getattr(sched, field))


def eager_g_of_B(ctx, level):
    """g_of_B as it was: replicated inputs chosen by a mask over their
    efficiencies, and every boundary fraction solved with its position."""
    rows = []
    for a in range(ctx.scenario.num_apps):
        x = np.zeros(ctx.scenario.catalog_size(a))
        if ctx.active[a]:
            re = ctx.rep_eff[a]
            x[ctx.replicated[a][(re <= level) & (re < 0.0)]] = 1.0
            if len(ctx.exclusive[a]):
                m, pending = _locate_level(ctx, a, level)
                x[ctx.exclusive[a][:m]] = 1.0
                if pending:
                    x[ctx.exclusive[a][m]] = _solve_fraction(ctx, a, m, level)
        rows.append(x)
    return rows


def eager_solve_caching_bs(scenario, cache, sched, station):
    """The station solve as it was before probes were decided from storage
    bounds: every probe solves its fractions and compares the exact
    storage.  Also returns each probe's outcome under the bounds rule."""
    ctx = EfficiencyContext(scenario, cache, sched, station)
    cap = float(scenario.storage_capacities[station])
    floor = ctx.efficiency_floor()
    if floor == 0.0:
        return [np.zeros(scenario.catalog_size(a))
                for a in range(scenario.num_apps)], 0.0, []
    outcomes = []
    b_l, b_r = floor, 0.0
    while b_r - b_l >= LEVEL_ACCURACY:
        b_m = 0.5 * (b_l + b_r)
        rows, pending = _level_rows(ctx, b_m)
        lower = rows_storage(scenario, rows)
        for a, m in pending:
            rows[a][ctx.exclusive[a][m]] = 1.0
        upper = rows_storage(scenario, rows)
        outcomes.append("lower >= cap" if lower >= cap else
                        "upper < cap" if upper < cap else "straddle")
        if rows_storage(scenario, eager_g_of_B(ctx, b_m)) < cap:
            b_l = b_m
        else:
            b_r = b_m
    level = 0.5 * (b_l + b_r)
    rows = eager_g_of_B(ctx, level)
    if rows_storage(scenario, rows) > cap:
        level = b_l
        rows = eager_g_of_B(ctx, level)
    return rows, level, outcomes


# Each probe outcome pinned once: random draws rarely meet a straddle.  In
# the first example the first probe is decided by the lower bound; in the
# second storage never binds, so every probe is decided by the upper bound;
# in the third five probes straddle the capacity and solve their fractions.
@PROPERTY
@example(seed=10, stations=2, apps=3, start="greedy", station=0,
         outcome="lower >= cap")
@example(seed=0, stations=1, apps=1, start="greedy", station=0,
         outcome="upper < cap")
@example(seed=14, stations=1, apps=1, start="greedy", station=0,
         outcome="straddle")
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 4),
       apps=st.integers(1, 3), start=st.sampled_from(["empty", "greedy", "random"]),
       station=st.integers(0, 3), outcome=st.none())
def test_bounded_probes_equal_the_eager_probes(seed, stations, apps, start,
                                               station, outcome):
    sc = generate_scenario(GeneratorParams(
        seed=seed, num_stations=stations, num_apps=apps, k_scale=0.002))
    if start == "greedy":
        cache = solver.greedy_cache(sc)
    else:
        cache = CacheAssignment.zeros(sc)
        if start == "random":
            rng = np.random.default_rng(seed)
            for x in cache.entries:
                x[:] = rng.integers(0, 2, x.shape)
    try:
        sched, _ = initial_feasible_point(sc, compute_hit_rates(sc, cache))
    except Infeasible:
        assume(False)
    station %= stations
    rows, level = solve_caching_bs(sc, cache, sched, station)
    want_rows, want_level, outcomes = eager_solve_caching_bs(sc, cache, sched,
                                                             station)
    assert level == want_level
    assert [r.tobytes() for r in rows] == [r.tobytes() for r in want_rows]
    ctx = EfficiencyContext(sc, cache, sched, station)
    for b in (0.0, ctx.efficiency_floor()):
        assert ([r.tobytes() for r in g_of_B(ctx, b)]
                == [r.tobytes() for r in eager_g_of_B(ctx, b)])
    assert outcome is None or outcome in outcomes


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


def per_step_backtrack(objective_fn, point, direction, base_obj, grad_dot_dir):
    """The line search one step at a time, each step evaluated alone, with
    the same acceptance test; None when no step passes."""
    for j in range(J_MAX + 1):
        step = BETA ** j
        lam = point[0] + step * direction[0]
        fsh = point[1] + step * direction[1]
        res = objective_fn(lam, fsh)
        if res.objective is None:
            continue
        if (res.objective <= base_obj
                and base_obj - res.objective >= -ALPHA * step * grad_dot_dir):
            return j, lam, fsh, res
    return None


def make_search(seed, stations, apps, projected, scale_exp, base_shift,
                margin):
    """A line search from the start point of a generated scenario.

    The direction is the projected-gradient one or a random one, scaled by
    2^scale_exp so that the long steps leave the stable region; the base
    objective is lowered by ``base_shift`` of itself, so that 1.0 leaves
    no step to accept.  Returns (objective_fn, point, direction, base_obj,
    grad_dot, evaluate at margin 0).
    """
    sc = generate_scenario(GeneratorParams(seed=seed, num_stations=stations,
                                           num_apps=apps, k_scale=0.002))
    hit = compute_hit_rates(sc, CacheAssignment.zeros(sc))
    start, res = initial_feasible_point(sc, hit)
    grad = gradient_with_rates(sc, res, start.lam)
    if projected:
        target = project_decisions(start.lam - grad.dlam,
                                   start.fshare - grad.dfshare)
        direction = (target[0] - start.lam, target[1] - start.fshare)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        direction = (rng.normal(size=start.lam.shape),
                     rng.normal(size=start.lam.shape))
    direction = tuple(2.0 ** scale_exp * d for d in direction)
    grad_dot = float(np.sum(grad.dlam * direction[0])
                     + np.sum(grad.dfshare * direction[1]))

    def evaluate(lam, fsh, margin=margin):
        return evaluate_with_rates(sc, hit.total, hit.neighbor, lam, fsh,
                                   y=res.y, margin=margin)

    return (evaluate, (start.lam, start.fshare), direction,
            res.objective * (1.0 - base_shift), grad_dot,
            lambda lam, fsh: evaluate(lam, fsh, 0.0))


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def search_both_ways(objective_fn, point, direction, base_obj, grad_dot,
                     unmargined):
    """Assert that the blocked search returns what the per-step loop does,
    bit for bit, or that both exhaust; return what the per-step loop met:
    "unstable" and "margin" steps, "later block" or "exhausted"."""
    kinds = set()

    def watched(lam, fsh):
        res = objective_fn(lam, fsh)
        if res.objective is None:
            kinds.add("margin" if unmargined(lam, fsh).feasible else "unstable")
        return res

    want = per_step_backtrack(watched, point, direction, base_obj, grad_dot)
    if want is None:
        with pytest.raises(LineSearchExhausted) as err:
            backtrack(objective_fn, point, direction, base_obj, grad_dot)
        assert err.value.tried == J_MAX + 1
        return kinds | {"exhausted"}
    got = backtrack(objective_fn, point, direction, base_obj, grad_dot)
    assert got[0] == want[0]
    assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
    assert repr(got[3].objective) == repr(want[3].objective)
    for name in ("app_delays", "station_delays", "y"):
        assert same_bits(getattr(got[3], name), getattr(want[3], name)), name
    for name, a, b in zip(BranchDelays._fields, got[3].table, want[3].table):
        assert same_bits(a, b), name
    return kinds | ({"later block"} if want[0] >= STEP_BLOCK else set())


@PROPERTY
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 5),
       apps=st.integers(1, 4), projected=st.booleans(),
       scale_exp=st.integers(0, 24),
       base_shift=st.sampled_from([0.0, 1e-9, 1.0]),
       margin=st.sampled_from([0.0, DELTA_STAB, 0.1, 0.5]))
def test_blocked_line_search_equals_the_per_step_loop(
        seed, stations, apps, projected, scale_exp, base_shift, margin):
    try:
        search = make_search(seed, stations, apps, projected, scale_exp,
                             base_shift, margin)
    except Infeasible:
        assume(False)
    search_both_ways(*search)


# (seed, stations, apps, projected, scale_exp, base_shift, margin) -> a kind
# of step or outcome the per-step loop meets on that search
@pytest.mark.parametrize("case,kind", [
    ((42, 3, 2, True, 12, 0.0, DELTA_STAB), "unstable"),
    ((42, 3, 2, True, 12, 0.0, DELTA_STAB), "later block"),
    ((42, 3, 2, True, 0, 0.0, 0.5), "margin"),
    ((42, 3, 2, False, 0, 1.0, DELTA_STAB), "exhausted"),
])
def test_blocked_line_search_cases(case, kind):
    assert kind in search_both_ways(*make_search(*case))


def per_station_noc(scenario):
    """NoC as a station-by-station loop: alternating_solve on each station's
    single-station scenario in index order, its objectives summed in that
    order, its decisions patched in.  The first failure raises."""
    A, N = scenario.num_apps, scenario.num_stations
    rates = scenario.arrival_rate_matrix
    cache = CacheAssignment.zeros(scenario)
    fshare = np.full((A, N), 1.0 / A)
    y = np.zeros((A, N), dtype=np.int8)
    init = final = 0.0
    rounds = 0
    for n in range(N):
        kept = [a for a in range(A) if rates[a, n] > 0.0]
        if not kept:
            continue
        rep = solver.alternating_solve(
            solver._single_station_scenario(scenario, n, kept))
        init += rep.objective_trace[0][3]
        final += rep.final_objective
        rounds = max(rounds, rep.rounds_completed)
        fshare[:, n] = 0.0
        for idx, a in enumerate(kept):
            cache.entries[a][n] = rep.cache.entries[idx][0]
            fshare[a, n] = rep.sched.fshare[idx, 0]
            y[a, n] = rep.sched.y[idx, 0]
    lam = np.tile(scenario.compute_capacities / scenario.compute_capacities.sum(),
                  (A, 1))
    for a in range(A):
        if scenario.total_rates[a] > 0.0:
            lam[a] = rates[a] / scenario.total_rates[a]
    trace = [(0, "init", 0, init), (1, "noc", 1, final)]
    return trace, rounds, cache, SchedulingState(lam, fshare, y)


@PROPERTY
@given(seed=st.integers(0, 10_000), stations=st.integers(2, 4),
       apps=st.integers(1, 3), load=st.sampled_from([0.5, 1.0, 3.0]),
       silent=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 3))))
def test_stacked_noc_equals_the_per_station_loop(seed, stations, apps, load,
                                                 silent):
    # the stations descend as stacks grouped by their apps; every station
    # must end where its own single-station solve ends, bit for bit, and a
    # failure must be the one the loop meets first.  ``silent`` zeroes
    # some (app, station) arrival rates, so stations keep different apps
    sc = generate_scenario(GeneratorParams(seed=seed, num_stations=stations,
                                           num_apps=apps, workload_factor=load,
                                           k_scale=0.002))
    sc = replace(sc, stations=tuple(
        replace(station, arrival_rates=tuple(
            0.0 if (a, n) in silent else r
            for a, r in enumerate(station.arrival_rates)))
        for n, station in enumerate(sc.stations)))
    try:
        want = per_station_noc(sc)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            solver.solve_noc(sc)
        assert str(got.value) == str(exc)
        return
    rep = solver.solve_noc(sc)
    trace, rounds, cache, sched = want
    assert repr(rep.objective_trace) == repr(trace)
    assert rep.rounds_completed == rounds
    for got, ref in zip(rep.cache.entries, cache.entries):
        assert same_bits(got, ref)
    for name in ("lam", "fshare", "y"):
        assert same_bits(getattr(rep.sched, name), getattr(sched, name)), name


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
    assert json.loads(json.dumps(d)) == d
