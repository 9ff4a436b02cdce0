"""Property tests: the catalog check, the binary cache type, hit-rate
identities, peer-mask versions and the partitions kept by them, the caching
sweep's station skip, the solve's one sweep state, the level search's
probes, the batched projection, the blocked line search, report JSON."""
import itertools
import json
import math
import operator
import warnings
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cecreuse import (CacheAssignment, CecReuseError, DimensionMismatch,
                      GeneratorParams, Infeasible, MalformedInput, PgdParams,
                      SchedulingState, backtrack, compute_hit_rates,
                      generate_scenario, initial_feasible_point,
                      project_decisions, solver)
from cecreuse import caching, delay, scheduling
from cecreuse.caching import (LEVEL_ACCURACY, EfficiencyContext, Partition,
                              SweepState, _fits, _level_fills, _level_rows,
                              _level_search, _locate_level, _prefix_length,
                              _solve_fraction, g_of_B, peer_hit_mass,
                              round_to_binary, solve_caching_bs,
                              sweep_all_stations)
from cecreuse.delay import (BranchDelays, evaluate_with_rates,
                            gradient_with_rates, hit_derivative)
from cecreuse.scheduling import (ALPHA, BETA, DELTA_STAB, J_MAX, STEP_BLOCK,
                                 STATIONARY_TOL, solve_scheduling)
from cecreuse.model import (BINARY_TOL, Application, BaseStation,
                            HitRateTable, Scenario, ScenarioStack,
                            TypicalInput, dot, row_storage, rows_storage,
                            validate)

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
    if len({x.shape[0] for x in entries}) > 1:
        # the apps' matrices are one (N, K) matrix: one station count
        with pytest.raises(DimensionMismatch, match="station rows"):
            CacheAssignment(entries)
    elif binary:
        cache = CacheAssignment(entries)
        assert all(np.array_equal(a, b) for a, b in zip(cache.entries, entries))
    else:
        with pytest.raises(MalformedInput):
            CacheAssignment(entries)


def catalog_verdict(apps):
    """The catalog check as a loop over the typical inputs: the message of
    the first that fails, or None."""
    for a, app in enumerate(apps):
        total_p = 0.0
        for k, ti in enumerate(app.typical_inputs):
            if not 0.0 <= ti.match_prob <= 1.0:
                return f"app {a} input {k}: match prob outside [0, 1]"
            if not 0.0 < ti.result_size < math.inf:
                return f"app {a} input {k}: result size must be finite and positive"
            total_p += ti.match_prob
        if total_p > 1.0 + 1e-12:
            return f"app {a}: match probabilities sum to {total_p} > 1"
    return None


P_FAULTS = (math.nan, math.inf, -math.inf, -1e-300, math.nextafter(1.0, 2.0), 2.0)
S_FAULTS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0)


@st.composite
def faulty_catalogs(draw):
    """Apps whose match totals lie near 1 + 1e-12, with up to three bad
    match probs or sizes injected, two possibly in one input."""
    apps = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 12))
        total = draw(st.sampled_from([0.5, 1.0, 1.0 + 1e-12, 1.0 + 2e-12,
                                      1.0 + 1e-11, 1.5]))
        w = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        p = [total * x / sum(w) for x in w]
        s = draw(st.lists(st.floats(1e-3, 1e6), min_size=k, max_size=k))
        for _ in range(draw(st.integers(0, 3)) if k else 0):
            i = draw(st.integers(0, k - 1))
            if draw(st.booleans()):
                p[i] = draw(st.sampled_from(P_FAULTS))
            else:
                s[i] = draw(st.sampled_from(S_FAULTS))
        apps.append(Application(1.0, 1e8, tuple(map(TypicalInput, p, s))))
    return tuple(apps)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(faulty_catalogs())
def test_array_catalog_check_equals_the_input_loop(apps):
    # the same verdict and message as a loop over the inputs, whose match
    # total is a running sum in input order
    station = BaseStation(1e9, 1e6, 0.01, (1.0,) * len(apps))
    want = catalog_verdict(apps)
    if want is None:
        Scenario(stations=(station,), apps=apps, search_workload=1e4)
        return
    with pytest.raises(MalformedInput) as got:
        Scenario(stations=(station,), apps=apps, search_workload=1e4)
    assert str(got.value) == want


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
    """A candidate's table, read from the kept peer mask, equals the dense
    table of the rewritten cache bit for bit; accepting it leaves the
    state's counts equal to the rewritten column sums, its per-station
    counts of cached inputs the rewritten row counts, and its table and
    matrix equal the rewritten ones."""
    sc, cache, n, rows = case
    rewritten = cache.with_station(n, rows)
    want = compute_hit_rates(sc, rewritten)
    state = SweepState(sc, copied(cache))
    row = np.concatenate(rows)
    hit = state.candidate(n, row)
    for field in ("local", "neighbor", "total"):
        assert getattr(hit, field).tobytes() == getattr(want, field).tobytes()
    state.accept(n, row, hit)
    assert state.counts.tobytes() == rewritten.x.sum(axis=0).tobytes()
    assert state.cached.tolist() == np.count_nonzero(rewritten.x,
                                                     axis=1).tolist()
    assert state.x.tobytes() == rewritten.x.tobytes()
    assert state.hit is hit


def copied(cache):
    """A cache with matrices of its own."""
    return CacheAssignment([x.copy() for x in cache.entries])


@st.composite
def rewrite_sequences(draw):
    """A scenarios_with_cache case with up to five more binary station
    rewrites after its own."""
    sc, cache, n, rows = draw(scenarios_with_cache())
    bits = st.sampled_from([0.0, 1.0])
    rewrites = [(n, np.concatenate(rows))]
    for _ in range(draw(st.integers(0, 5))):
        k = int(sc.offsets[-1])
        rewrites.append((draw(st.integers(0, sc.num_stations - 1)),
                         np.array(draw(st.lists(bits, min_size=k, max_size=k)))))
    return sc, cache, rewrites


def peer_masks(cache):
    """Per station, per app: the inputs some other station caches."""
    return [[x.sum(axis=0) - x[j] > 0.0 for x in cache.entries]
            for j in range(cache.entries[0].shape[0])]


@PROPERTY
@given(rewrite_sequences())
def test_accept_bumps_exactly_the_versions_whose_peer_mask_flips(case):
    """After each accepted rewrite, the versions that moved are those of
    the stations whose peer mask changed, each by one; the rewriting
    station's own mask never changes.  The partition every station then
    gets equals the one split from its matrices."""
    sc, cache, rewrites = case
    state = SweepState(sc, copied(cache))
    for n, row in rewrites:
        before, versions = peer_masks(state), state.versions.copy()
        state.accept(n, row, state.candidate(n, row))
        after = peer_masks(state)
        flipped = [any(not np.array_equal(b, a) for b, a in zip(bj, aj))
                   for bj, aj in zip(before, after)]
        assert not flipped[n]
        assert (state.versions - versions).tolist() == list(map(int, flipped))
        for j in range(sc.num_stations):
            mask = state.x.sum(axis=0) - state.x[j] > 0.0
            assert np.array_equal(state.peer_mask(j), mask)
            assert_same_partition(state.peers(j), split_by_masks(state, j))


def split_by_masks(cache, j):
    """Station j's partition as EfficiencyContext once split it on every
    build: a mask gather over the density order and the prefix sums of the
    exclusive class."""
    sc = cache.scenario
    exc_pos, prefix_p, hit = [], [], []
    for p, order, x in zip(sc.match_probs, sc.density_orders, cache.entries):
        counts = x.sum(axis=0) - x[j]
        cached_by_peer = counts[order] > 0.0
        exc_pos.append(np.flatnonzero(~cached_by_peer))
        prefix_p.append(np.concatenate(([0.0], np.cumsum(p[order[~cached_by_peer]]))))
        hit.append(peer_hit_mass(p, counts > 0.0))
    return Partition(exc_pos, prefix_p, hit)


def assert_same_partition(got, want):
    assert all(pos.dtype == np.int32 for pos in got.exc_pos)
    assert [pos.tolist() for pos in got.exc_pos] == [
        pos.tolist() for pos in want.exc_pos]
    assert [s.tobytes() for s in got.prefix_p] == [
        s.tobytes() for s in want.prefix_p]
    assert got.hit == want.hit


@st.composite
def tied_rewrite_sequences(draw):
    """A station cache, up to five binary station rewrites and a scheduling
    state, on catalogs whose densities p/s tie often, zero included, with
    storage that may bind and transfer delays that may be 0."""
    n, n_apps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bits = st.sampled_from([0.0, 1.0])

    def pick(values, size):
        return draw(st.lists(st.sampled_from(values), min_size=size,
                             max_size=size))

    apps, entries, sizes = [], [], []
    for _ in range(n_apps):
        k = draw(st.integers(1, 6))
        apps.append((1.0, 1e8, list(zip(pick([0.0, 0.02, 0.05], k),
                                        pick([1e3, 2e3, 4e3], k)))))
        entries.append(np.array(pick([0.0, 1.0], n * k)).reshape(n, k))
        sizes.append(k)
    rates = tuple(tuple(pick([0.0, 1.0, 5.0], n_apps)) for _ in range(n))
    sc = build_scenario((4e9,) * n, pick([0.0, 3e3, 1e4, 1e9], n),
                        pick([0.0, 0.01, 0.5], n), rates, apps)
    rewrites = [(draw(st.integers(0, n - 1)),
                 np.array(pick([0.0, 1.0], sum(sizes))))
                for _ in range(draw(st.integers(0, 5)))]
    shape = (n_apps, n)
    sched = SchedulingState(
        lam=np.array(pick([0.0, 0.3, 1.0], n_apps * n)).reshape(shape),
        fshare=np.array(pick([0.2, 0.5], n_apps * n)).reshape(shape),
        y=np.array(draw(st.lists(bits, min_size=n_apps * n,
                                 max_size=n_apps * n))).reshape(shape))
    return sc, CacheAssignment(entries), rewrites, sched


def pinned_tie_case(transfer):
    """Two stations, one app of four inputs: three share the density 2e-5,
    and station 1 caches two of them, so station 0 sees a replicated run of
    ties.  With transfer 0 at station 0 its replicated efficiencies are all
    -0.0, and none is cached at any level."""
    sc = build_scenario((4e9, 4e9), (3e3, 1e4), (transfer, 0.01),
                        ((5.0,), (1.0,)),
                        [(1.0, 1e8, [(0.02, 1e3), (0.05, 1e3), (0.02, 1e3),
                                     (0.04, 2e3)])])
    cache = CacheAssignment([np.array([[0.0, 0.0, 0.0, 0.0],
                                       [1.0, 0.0, 1.0, 1.0]])])
    sched = SchedulingState(lam=np.array([[0.7, 0.3]]),
                            fshare=np.ones((1, 2)), y=np.ones((1, 2)))
    return sc, cache, [(1, np.array([1.0, 1.0, 0.0, 1.0]))], sched


@PROPERTY
@example(pinned_tie_case(0.5))
@example(pinned_tie_case(0.0))
@given(tied_rewrite_sequences())
def test_kept_partitions_give_the_contexts_of_a_fresh_split(case):
    """Through random accepted rewrites, every station's kept partition is
    bit-equal to a fresh split of its matrices, and a context on it searches
    its level as a context built from the cache does.  At every replicated
    efficiency, where ties sit at the boundary, its rows equal the rows
    chosen by a mask over those efficiencies."""
    sc, cache, rewrites, sched = case
    state = SweepState(sc, copied(cache))
    for n, row in [(None, None)] + rewrites:
        if n is not None:
            state.accept(n, row, state.candidate(n, row))
        for j in range(sc.num_stations):
            kept = state.peers(j)
            assert_same_partition(kept, split_by_masks(state, j))
            ctx = EfficiencyContext(sc, state, sched, j, kept)
            fresh = EfficiencyContext(sc, copied(state), sched, j)
            try:
                want = _level_search(fresh)
            except MalformedInput:
                with pytest.raises(MalformedInput):
                    _level_search(ctx)
                continue
            got = _level_search(ctx)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]
            levels = {float(e) for effs in ctx.rep_eff for e in effs}
            for level in sorted(levels) + [0.0, -0.0]:
                assert ([r.tobytes() for r in g_of_B(ctx, level)]
                        == [r.tobytes() for r in eager_g_of_B(fresh, level)])


def test_prefix_length_gallops_from_any_guess():
    """The end of a true prefix, found from every guess with O(log) asks,
    so a long run of ties around a poor guess costs no linear scan."""
    for n in range(0, 40):
        for length in range(n + 1):
            for guess in range(n + 1):
                asked = []

                def holds(j):
                    assert 0 <= j < n
                    asked.append(j)
                    return j < length

                assert _prefix_length(holds, n, guess) == length
                assert len(asked) <= 2 * max(n, 1).bit_length() + 2


def sweep_solving_every_station(scenario, cache, sched, passes):
    """The caching sweep as it was before stations were skipped: every
    station is solved on every visit, with its peers counted from the
    cache rather than kept by the SweepState."""
    sched = sched.copy()
    res = evaluate_with_rates(scenario, cache.hit.total, cache.hit.neighbor,
                              sched.lam, sched.fshare)
    sched.y = res.y
    obj = res.objective
    pass_objs = []
    for _ in range(passes):
        changed = False
        for n in range(scenario.num_stations):
            rows, _level = solve_caching_bs(scenario, cache, sched, n)
            row = np.concatenate(round_to_binary(rows))
            if np.array_equal(row, cache.x[n]):
                continue
            if row_storage(scenario, row) > scenario.storage_capacities[n]:
                continue
            hit = cache.candidate(n, row)
            res2 = evaluate_with_rates(scenario, hit.total, hit.neighbor,
                                       sched.lam, sched.fshare)
            if res2.feasible and res2.objective <= obj:
                cache.accept(n, row, hit)
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
# about one case in twenty, so two instances are pinned.  In the third, two
# stations' kept rows are tested again, unsolved, after a peer's accepted
# rewrite that left their peer masks and y as they were.
@PROPERTY
@example(seed=10, stations=1, apps=3, load=0.5, start="greedy", descent=0,
         passes=3)
@example(seed=51, stations=1, apps=2, load=1.0, start="greedy", descent=3,
         passes=3)
@example(seed=0, stations=4, apps=2, load=1.5, start="greedy", descent=3,
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
    assert np.array_equal(got[0].counts, want[0].counts)
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


def prefix_storage(ctx, level, x=None):
    """The storage a probe compares at ``level``: per app (P[end] - Q[t])
    + Q[m], from running sums of its sizes in density order (P) and of its
    exclusive class's (Q), then w * x for each pending entry of size w, both
    in app order.  Each x is the solved fraction, or ``x`` if given.  An app
    the level leaves empty adds nothing."""
    used, pending = 0.0, []
    for a in range(ctx.scenario.num_apps):
        pos = ctx.exc_pos[a]
        if not ctx.active[a]:
            continue
        end = ctx.replicated_end(a, level)
        m, frac = _locate_level(ctx, a, level) if len(pos) else (0, False)
        t = int(np.searchsorted(pos, end))
        if end == t and not m and not frac:
            continue
        sizes = ctx.scenario.result_sizes[a][ctx.order[a]].tolist()
        run = [0.0, *itertools.accumulate(sizes)]
        exc = [0.0, *itertools.accumulate(sizes[j] for j in pos.tolist())]
        used += (run[end] - exc[t]) + exc[m]
        if frac:
            pending.append(sizes[pos[m]] * (
                _solve_fraction(ctx, a, m, level) if x is None else x))
    for term in pending:
        used += term
    return used


def eager_solve_caching_bs(scenario, cache, sched, station):
    """The station solve with every fraction solved at every probe, whose
    verdict compares prefix_storage with the capacity; rows whose dense
    storage is over it give the empty rows at the floor.  Also returns each
    probe's outcome: decided by the storage with its fractions at 0 or at
    1, or straddling the capacity."""
    ctx = EfficiencyContext(scenario, cache, sched, station)
    cap = float(scenario.storage_capacities[station])
    floor = ctx.efficiency_floor()
    empty = [np.zeros(scenario.catalog_size(a)) for a in range(scenario.num_apps)]
    if floor == 0.0:
        return empty, 0.0, []
    outcomes = []
    b_l, b_r = floor, 0.0
    while b_r - b_l >= LEVEL_ACCURACY:
        b_m = 0.5 * (b_l + b_r)
        lower, upper = prefix_storage(ctx, b_m, 0.0), prefix_storage(ctx, b_m, 1.0)
        outcomes.append("lower >= cap" if lower >= cap else
                        "upper < cap" if upper < cap else "straddle")
        if prefix_storage(ctx, b_m) < cap:
            b_l = b_m
        else:
            b_r = b_m
    level = 0.5 * (b_l + b_r)
    if not prefix_storage(ctx, level) <= cap:
        level = b_l
    rows = eager_g_of_B(ctx, level)
    if rows_storage(scenario, rows) > cap:
        return empty, floor, outcomes
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
def level_searches(draw, sizes=st.floats(1e3, 1e6), most_inputs=6):
    """One station's level search: a scenario, a binary cache and a
    scheduling state in which CPU shares may be 0 and loads may exceed
    what the CPU serves (so brackets meet zero-CPU and unstable queues).
    Result sizes are drawn from ``sizes``, up to ``most_inputs`` per app."""
    n, n_apps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bits = st.sampled_from([0.0, 1.0])

    def floats(lo, hi, size):
        return draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))

    apps, entries = [], []
    for _ in range(n_apps):
        k = draw(st.integers(1, most_inputs))
        apps.append((draw(st.floats(0.1, 2.0)), draw(st.floats(1e7, 1e9)),
                     list(zip(floats(0.0, min(0.15, 0.9 / k), k),
                              draw(st.lists(sizes, min_size=k, max_size=k))))))
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
    the same acceptance test; None when no step passes, where the search
    keeps its point, its base objective and its table."""
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


class Search(NamedTuple):
    """One line search of one problem, with what evaluates its steps."""
    scenario: Scenario
    hit: HitRateTable
    y: np.ndarray
    point: tuple[np.ndarray, np.ndarray]
    direction: tuple[np.ndarray, np.ndarray]
    base_obj: float
    grad_dot: float
    margin: float

    def evaluate(self, lam, fsh, margin=None):
        """The point (lam, fsh) evaluated alone, at the search's margin
        unless ``margin`` is given."""
        return evaluate_with_rates(
            self.scenario, self.hit.total, self.hit.neighbor, lam, fsh,
            y=self.y, margin=self.margin if margin is None else margin)


def make_search(seed, stations, apps, projected, scale_exp, base_shift,
                margin, flipped=False):
    """A line search from the start point of a generated scenario.

    The direction is the projected-gradient one or a random one, scaled by
    2^scale_exp so that the long steps leave the stable region; the base
    objective is lowered by ``base_shift`` of itself, so that 1.0 leaves
    no step to accept.  The search flags are the start's, or their
    complement when ``flipped``.
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
    return Search(sc, hit, 1 - res.y if flipped else res.y,
                  (start.lam, start.fshare), direction,
                  res.objective * (1.0 - base_shift), grad_dot, margin)


def stacked_backtrack(searches):
    """backtrack on the stack of ``searches``, one problem each, called as
    the descent calls it."""
    def stacked(get):
        return np.stack([get(s) for s in searches])

    stack = ScenarioStack.of([s.scenario for s in searches])
    total = stacked(lambda s: s.hit.total)
    neighbor = stacked(lambda s: s.hit.neighbor)
    y, margin = stacked(lambda s: s.y), searches[0].margin

    def objective_fn(lam, fsh):
        return evaluate_with_rates(stack, total, neighbor, lam, fsh, y=y,
                                   margin=margin)

    point = tuple(stacked(lambda s: s.point[i]) for i in range(2))
    direction = tuple(stacked(lambda s: s.direction[i]) for i in range(2))
    return backtrack(objective_fn, point, direction,
                     stacked(lambda s: s.base_obj),
                     stacked(lambda s: s.grad_dot),
                     delay.branch_tables(stack, total, *point))


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def search_both_ways(search):
    """Assert that the blocked search on a stack of one returns what the
    per-step loop does, bit for bit, or that both exhaust; return what the
    per-step loop met: "unstable" and "margin" steps, "later block" or
    "exhausted"."""
    kinds = set()

    def watched(lam, fsh):
        res = search.evaluate(lam, fsh)
        if res.objective is None:
            kinds.add("margin" if search.evaluate(lam, fsh, 0.0).feasible
                      else "unstable")
        return res

    want = per_step_backtrack(watched, search.point, search.direction,
                              search.base_obj, search.grad_dot)
    got = stacked_backtrack([search])
    if want is None:
        # an exhausted search reports J_MAX + 1 and keeps its point, its
        # base objective and its table
        assert got[0] == 0 and got[3].steps.tolist() == [J_MAX + 1]
        assert same_bits(got[1], search.point[0][None])
        assert same_bits(got[2], search.point[1][None])
        assert got[3].objective.tolist() == [search.base_obj]
        table = delay.branch_tables(search.scenario, search.hit.total,
                                    *search.point)
        for name, a, b in zip(BranchDelays._fields, got[3].table, table):
            assert same_bits(a, b[None]), name
        return kinds | {"exhausted"}
    assert got[0] == want[0] and got[3].steps.tolist() == [want[0]]
    assert same_bits(got[1], want[1][None]) and same_bits(got[2], want[2][None])
    assert repr(float(got[3].objective[0])) == repr(want[3].objective)
    for name, a, b in zip(BranchDelays._fields, got[3].table, want[3].table):
        assert same_bits(a, b[None]), name
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
    search_both_ways(search)


# (seed, stations, apps, projected, scale_exp, base_shift, margin) -> a kind
# of step or outcome the per-step loop meets on that search
@pytest.mark.parametrize("case,kind", [
    ((42, 3, 2, True, 12, 0.0, DELTA_STAB), "unstable"),
    ((42, 3, 2, True, 12, 0.0, DELTA_STAB), "later block"),
    ((42, 3, 2, True, 0, 0.0, 0.5), "margin"),
    ((42, 3, 2, False, 0, 1.0, DELTA_STAB), "exhausted"),
])
def test_blocked_line_search_cases(case, kind):
    assert kind in search_both_ways(make_search(*case))


def stack_equals_each_alone(searches):
    """Assert that the line search over the stack of ``searches`` gives
    each problem what its search on a stack of one gives, bit for bit, and
    sums the accepted steps; return what the stack met: "blocks" when
    problems accepted in different blocks, "exhausted" when some problem
    exhausted while another accepted."""
    got = stacked_backtrack(searches)
    alone = [stacked_backtrack([s]) for s in searches]
    steps = got[3].steps
    assert got[0] == sum(one[0] for one in alone) == int(
        steps[steps <= J_MAX].sum())
    for p, one in enumerate(alone):
        assert steps[p] == one[3].steps[0], p
        assert same_bits(got[1][p], one[1][0]) and same_bits(got[2][p], one[2][0])
        assert repr(float(got[3].objective[p])) == repr(float(one[3].objective[0]))
        for name, a, b in zip(BranchDelays._fields, got[3].table,
                              one[3].table):
            assert same_bits(a[p], b[0]), (p, name)
    accepted = steps[steps <= J_MAX]
    kinds = set()
    if len(set((accepted // STEP_BLOCK).tolist())) > 1:
        kinds.add("blocks")
    if accepted.size and accepted.size < steps.size:
        kinds.add("exhausted")
    return kinds


# (projected, scale_exp, base_shift, flipped) of each problem
PROBLEM = st.tuples(st.booleans(), st.integers(0, 24),
                    st.sampled_from([0.0, 1e-9, 1.0]), st.booleans())


@PROPERTY
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 5),
       apps=st.integers(1, 4), margin=st.sampled_from([0.0, DELTA_STAB, 0.5]),
       problems=st.lists(PROBLEM, min_size=2, max_size=4))
def test_stacked_line_search_equals_each_problem_alone(seed, stations, apps,
                                                       margin, problems):
    try:
        searches = [make_search(seed, stations, apps, projected, scale_exp,
                                base_shift, margin, flipped)
                    for projected, scale_exp, base_shift, flipped in problems]
    except Infeasible:
        assume(False)
    stack_equals_each_alone(searches)


# problems of the seed-42 scenario (3 stations, 2 apps, margin DELTA_STAB)
# -> what their stack meets
@pytest.mark.parametrize("problems,kind", [
    (((True, 12, 0.0, False), (True, 0, 0.0, False)), "blocks"),
    (((True, 0, 0.0, False), (False, 0, 1.0, False)), "exhausted"),
    (((False, 0, 1.0, False), (True, 12, 0.0, False), (True, 0, 0.0, False)),
     "blocks"),
    (((False, 0, 1.0, False), (True, 12, 0.0, False), (True, 0, 0.0, False)),
     "exhausted"),
])
def test_stacked_line_search_cases(problems, kind):
    searches = [make_search(42, 3, 2, *p[:3], DELTA_STAB, p[3])
                for p in problems]
    assert kind in stack_equals_each_alone(searches)


@PROPERTY
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 5),
       apps=st.integers(1, 4), margin=st.sampled_from([0.0, DELTA_STAB, 0.5]),
       problems=st.lists(PROBLEM, min_size=1, max_size=4))
def test_line_search_does_not_depend_on_the_block_width(seed, stations, apps,
                                                        margin, problems):
    """backtrack tables its steps STEP_BLOCK at a time, but each problem's
    result is its step-by-step search's: one step per block, the old and
    the new default width and all J_MAX + 1 steps in one block give the
    same backtracks, points, steps, objectives and tables, bit for bit."""
    try:
        searches = [make_search(seed, stations, apps, projected, scale_exp,
                                base_shift, margin, flipped)
                    for projected, scale_exp, base_shift, flipped in problems]
    except Infeasible:
        assume(False)
    results = []
    for width in (1, 8, 12, J_MAX + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheduling, "STEP_BLOCK", width)
            results.append(stacked_backtrack(searches))
    want = results[0]
    for got in results[1:]:
        assert got[0] == want[0]
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        assert same_bits(got[3].steps, want[3].steps)
        assert same_bits(got[3].objective, want[3].objective)
        for name, a, b in zip(BranchDelays._fields, got[3].table,
                              want[3].table):
            assert same_bits(a, b), name


def monolithic_evaluation(stack, total, neighbor, lam, fshare, y, margin):
    """evaluate_with_rates as one block of algebra, every term built from
    the point afresh: (table fields, y, stable, station delays, app
    delays)."""
    f = fshare * stack.compute_capacities[..., None, :]
    load = lam * stack.total_rates[..., :, None]
    wa, ws = stack.workloads[:, None], stack.search_workload
    hit = total[..., :, None]
    fpos = f > 0.0
    den0 = f - load * wa
    ok0 = fpos & (den0 > 0.0)
    d0 = np.divide(wa, den0, out=np.zeros(np.shape(den0)), where=ok0)
    srv1 = ws + (1.0 - hit) * wa
    den1 = f - load * srv1
    ok1 = fpos & (den1 > 0.0)
    sq = srv1 * srv1 + (1.0 - hit * hit) * wa * wa
    two_f_den1 = 2.0 * f * den1
    d1 = np.divide(srv1, f, out=np.zeros(np.shape(den1)), where=ok1)
    d1 += np.divide(load * sq, two_f_den1, out=np.zeros(np.shape(den1)),
                    where=ok1)
    idle = (load == 0.0) & (f == 0.0)
    table = dict(f=f, load=load, d0=d0, ok0=ok0, d1=d1, ok1=ok1, den0=den0,
                 den1=den1, srv1=srv1, sq=sq, idle=idle)
    dt = stack.transfer_delays[..., None, :]
    d1_remote = d1 + neighbor * dt
    if y is None:
        y = (np.where(ok0, d0, np.inf)
             > np.where(ok1, d1_remote, np.inf)).astype(np.int8)
    search = y == 1
    ok = np.where(search, ok1, ok0)
    if margin:
        ok &= load * np.where(search, srv1, wa) <= (1.0 - margin) * f
    stable = np.all(ok | idle, axis=(-2, -1))
    delays = np.where(idle, 0.0, np.where(search, d1_remote, d0))
    rates = stack.total_rates
    with np.errstate(divide="ignore", invalid="ignore"):
        trans = np.abs(load - stack.arrival_rate_matrix) * dt / rates[..., :, None]
    trans = np.where((rates > 0.0)[..., :, None], trans, 0.0)
    app = np.where(rates > 0.0, (lam * delays).sum(axis=-1)
                   + trans.sum(axis=-1), 0.0)
    return table, y, stable, delays, app


@st.composite
def frozen_half_cases(draw):
    """A stack of 1-3 problems (A apps, N stations) with drawn hit rates,
    a block of 1-3 points on a leading axis, drawn flags or none, and a
    margin.  Each station's capacity puts its most loaded queue's branch-0
    utilisation at a drawn 0.3-1.2, so overloaded and inside-margin queues
    occur; so do apps with no traffic anywhere and idle queues (no load,
    no CPU)."""
    P, A, N = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
               draw(st.integers(1, 4)))
    B = draw(st.integers(1, 3))

    def arr(shape, lo, hi, zeros=True):
        elems = st.floats(lo, hi)
        if zeros:
            elems = st.one_of(st.just(0.0), elems)
        return np.array(draw(st.lists(elems, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
                        ).reshape(shape)

    rates = arr((P, A, N), 0.1, 20.0)
    rates[:, draw(st.integers(0, A - 1))] *= draw(st.sampled_from([0.0, 1.0]))
    workloads = arr((A,), 1e7, 1e9, False)
    lam, fshare = arr((B, P, A, N), 1e-3, 1.0), arr((B, P, A, N), 1e-3, 1.0)
    # queues with no CPU and, where drawn, no load either
    idle = arr((B, P, A, N), 1.0, 1.0) == 0.0
    lam[idle & (arr((B, P, A, N), 1.0, 1.0) == 0.0)] = 0.0
    fshare[idle] = 0.0
    cycles = lam * rates.sum(axis=-1)[..., None] * workloads[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(fshare > 0.0, cycles / fshare, 0.0).max(axis=(0, 2))
    compute = np.where(need > 0.0, need / arr((P, N), 0.3, 1.2, False),
                       arr((P, N), 1e8, 1e10, False))
    stack = ScenarioStack(compute, arr((P, N), 0.0, 0.1), rates,
                          rates.sum(axis=-1), arr((P, A), 0.0, 3.0),
                          workloads, 25e6)
    total = arr((P, A), 0.0, 1.0)
    neighbor = total[..., None] * arr((P, A, N), 0.0, 1.0)
    y = draw(st.one_of(st.none(), st.builds(
        lambda v: np.array(v, dtype=np.int8).reshape(P, A, N),
        st.lists(st.integers(0, 1), min_size=P * A * N, max_size=P * A * N))))
    margin = draw(st.one_of(st.sampled_from([0.0, DELTA_STAB]),
                            st.floats(0.05, 0.95)))
    return stack, total, neighbor, lam, fshare, y, margin


@PROPERTY
@given(frozen_half_cases())
def test_frozen_halves_evaluate_as_a_fresh_evaluation(case):
    """evaluate_with_rates from either frozen half (the caching sweep's
    load half, the descent's hit half, with its flags held or not), from
    a full table or from nothing gives, bit for bit, what the one-block
    algebra gives, on every point of a block of a stack; so do
    branch_tables, search_flags and accepted_evaluation."""
    stack, total, neighbor, lam, fshare, y, margin = case
    want_table, want_y, stable, delays, app = monolithic_evaluation(
        stack, total, neighbor, lam, fshare, y, margin)
    table = delay.branch_tables(stack, total, lam, fshare)
    assert BranchDelays._fields == tuple(want_table)
    for name, got in zip(BranchDelays._fields, table):
        assert same_bits(np.asarray(got), want_table[name]), name
    hit = delay.hit_tables(stack, total, neighbor)
    halves = [None, table, delay.load_tables(stack, lam, fshare), hit]
    wa = stack.workloads[:, None]
    for half in halves:
        res = evaluate_with_rates(stack, total, neighbor, lam, fshare, y=y,
                                  margin=margin, table=half)
        assert same_bits(res.y, want_y) and same_bits(res.stable, stable)
        for name, got in zip(BranchDelays._fields, res.table):
            assert same_bits(np.asarray(got), want_table[name]), name
        if stable.any():
            assert same_bits(res.station_delays, delays)
            assert same_bits(res.app_delays, app)
        else:
            assert res.app_delays is None and res.station_delays is None
    assert same_bits(delay.search_flags(hit, table),
                     monolithic_evaluation(stack, total, neighbor, lam,
                                           fshare, None, 0.0)[1])
    # a line search's flags held in the hit half
    held = hit.held(want_y[0] if y is None else y, wa)
    res = evaluate_with_rates(stack, total, neighbor, lam, fshare,
                              margin=margin, table=held)
    _t, _y, stable, delays, app = monolithic_evaluation(
        stack, total, neighbor, lam, fshare, held.y, margin)
    assert same_bits(res.stable, stable)
    if stable.any():
        assert same_bits(res.station_delays, delays)
        assert same_bits(res.app_delays, app)
    # an accepted point: the flags chosen again equal the held ones or not
    point = BranchDelays(*(x[0] if np.ndim(x) == lam.ndim else x
                           for x in table))
    fresh = monolithic_evaluation(stack, total, neighbor, lam[0], fshare[0],
                                  None, 0.0)
    got = delay.accepted_evaluation(stack, held, point, np.zeros(len(total)))
    if np.array_equal(fresh[1], held.y):
        assert same_bits(got.station_delays, fresh[3])
    else:
        assert got is None


def fresh_descent(sc, hit, start, iters, params=PgdParams()):
    """solve_scheduling on one problem with every iterate evaluated afresh
    by evaluate_with_rates, flags chosen again, from the table its line
    search built.  Returns the final (lam, fshare, y), the trace, and what
    the descent met: flags "moved" at an iterate's start, a "stationary"
    stop, an "exhausted" search."""
    stack = ScenarioStack.of([sc])
    total, neighbor = hit.total[None], hit.neighbor[None]
    lam, fshare = start.lam[None], start.fshare[None]
    trace, kinds, table, held = [], set(), None, None
    for i in range(1, iters + 1):
        res = evaluate_with_rates(stack, total, neighbor, lam, fshare,
                                  table=table)
        assert res.stable.all()
        if held is not None and not np.array_equal(res.y, held):
            kinds.add("moved")
        grad = gradient_with_rates(stack, res, lam)
        theta = params.theta0 / np.sqrt(i)
        target = project_decisions(lam - theta * grad.dlam,
                                   fshare - theta * grad.dfshare)
        d_lam, d_fsh = target[0] - lam, target[1] - fshare
        base = res.objective
        if max(np.abs(d_lam).max(), np.abs(d_fsh).max()) < STATIONARY_TOL:
            trace.append((i, float(base[0]), 0))
            return lam[0], fshare[0], res.y[0], trace, kinds | {"stationary"}
        grad_dot = ((grad.dlam * d_lam).sum(axis=(-2, -1))
                    + (grad.dfshare * d_fsh).sum(axis=(-2, -1)))
        held = res.y

        def objective_fn(lam_k, fsh_k):
            return evaluate_with_rates(stack, total, neighbor, lam_k, fsh_k,
                                       y=held, margin=DELTA_STAB)

        point = (lam, fshare)
        _, lam, fshare, step = backtrack(objective_fn, point, (d_lam, d_fsh),
                                         base, grad_dot, res.table)
        j = int(step.steps[0])
        trace.append((i, float(step.objective[0]), j))
        if j > J_MAX:
            # an exhausted search keeps its point, base objective and table
            assert lam is point[0] and fshare is point[1]
            assert step.objective is base and step.table is res.table
            return lam[0], fshare[0], held[0], trace, kinds | {"exhausted"}
        table = step.table
    y = evaluate_with_rates(stack, total, neighbor, lam, fshare, table=table).y
    return lam[0], fshare[0], y[0], trace, kinds


def descent_problem(seed, stations, apps, factor, totals, shares):
    """The seed's scenario with arrival rates scaled by ``factor``, a hit
    table of the given total hit rates split over the stations by
    ``shares``, and its repaired start; None if it has none."""
    sc = generate_scenario(GeneratorParams(
        seed=seed, num_stations=stations, num_apps=apps,
        workload_factor=factor, k_scale=0.002))
    total = np.array(totals)
    local = total[:, None] * np.array(shares).reshape(apps, stations)
    hit = HitRateTable(local, total[:, None] - local, total)
    try:
        start, _ = initial_feasible_point(sc, hit)
    except Infeasible:
        return None
    return sc, hit, start


def descent_equals_fresh_evaluations(problems, iters):
    """Assert that solve_scheduling on the stack of ``problems`` gives each
    problem the trace, lam, fshare and y of its fresh_descent, bit for bit;
    return what the fresh descents met."""
    stack = ScenarioStack.of([sc for sc, _, _ in problems])
    hit = HitRateTable(*(np.stack([getattr(h, name) for _, h, _ in problems])
                         for name in ("local", "neighbor", "total")))
    sched = SchedulingState(*(np.stack([getattr(s, name)
                                        for _, _, s in problems])
                              for name in ("lam", "fshare", "y")))
    got, traces = solve_scheduling(stack, hit, sched, iters)
    kinds = set()
    for p, (sc, h, start) in enumerate(problems):
        lam, fshare, y, trace, met = fresh_descent(sc, h, start, iters)
        kinds |= met
        assert repr(traces[p]) == repr(trace), p
        for name, want in (("lam", lam), ("fshare", fshare), ("y", y)):
            assert same_bits(getattr(got, name)[p], want), (p, name)
    return kinds


# per problem: workload factor, and per app a total hit rate and its
# shares per station (a factor of the total, not summing to one)
@st.composite
def descent_stacks(draw):
    seed = draw(st.integers(0, 10_000))
    stations, apps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    specs = draw(st.lists(st.tuples(
        st.sampled_from([0.5, 1.0, 3.0]),
        st.lists(st.floats(0.0, 1.0), min_size=apps, max_size=apps),
        st.lists(st.floats(0.0, 1.0), min_size=apps * stations,
                 max_size=apps * stations)), min_size=1, max_size=4))
    return seed, stations, apps, specs, draw(st.sampled_from([10, 40, 100]))


@PROPERTY
@given(descent_stacks())
def test_descent_equals_evaluating_every_iterate_afresh(case):
    seed, stations, apps, specs, iters = case
    problems = [descent_problem(seed, stations, apps, *spec) for spec in specs]
    problems = [p for p in problems if p is not None]
    assume(problems)
    descent_equals_fresh_evaluations(problems, iters)


# a stack of three problems whose fresh descents meet flags that move, a
# stationary stop and an exhausted search: (seed, stations, apps,
# [(factor, totals, shares)], iters)
PINNED_STACK = (9961, 2, 2, [(3.0, [0.18, 0.86], [0.12, 0.81, 0.19, 0.43]),
                             (1.0, [0.57, 0.63], [0.04, 0.81, 0.53, 0.92]),
                             (1.0, [0.17, 0.44], [0.96, 0.63, 0.51, 0.47])], 40)


@pytest.mark.parametrize("kind", ["moved", "stationary", "exhausted"])
def test_descent_cases(monkeypatch, kind):
    seed, stations, apps, specs, iters = PINNED_STACK
    problems = [descent_problem(seed, stations, apps, *spec) for spec in specs]
    assert None not in problems
    # the first iterate, and one where flags moved, are evaluated in full:
    # the first from the descent's hit half, the other from its table.
    # Each line-search block is kept with the iteration that tabled it
    full, blocks, iteration = [], [], [0]
    evaluate = scheduling.evaluate_with_rates
    gradient = scheduling.gradient_with_rates

    def counted(*args, **kwargs):
        if not kwargs.get("margin"):
            full.append(isinstance(kwargs.get("table"), BranchDelays))
        else:
            blocks.append((iteration[0], args[3], args[4]))
        return evaluate(*args, **kwargs)

    def stepped(*args, **kwargs):
        iteration[0] += 1
        return gradient(*args, **kwargs)

    monkeypatch.setattr(scheduling, "evaluate_with_rates", counted)
    monkeypatch.setattr(scheduling, "gradient_with_rates", stepped)
    assert kind in descent_equals_fresh_evaluations(problems, iters)
    assert full[0] is False and any(full[1:])
    # a problem that stopped stays in the stack, and every block tabled
    # after it stopped holds only its own point
    checked = dict.fromkeys(("stationary", "exhausted"), 0)
    for p, (sc, h, start) in enumerate(problems):
        lam, fshare, _y, trace, met = fresh_descent(sc, h, start, iters)
        for stop in met & set(checked):
            # a stationary problem sits out its last iteration's line search
            first = trace[-1][0] + (stop == "exhausted")
            for i, lam_k, fsh_k in blocks:
                if i >= first:
                    assert (lam_k[:, p] == lam).all(), (p, i)
                    assert (fsh_k[:, p] == fshare).all(), (p, i)
                    checked[stop] += 1
    assert all(checked.values()), checked


def per_station_noc(scenario):
    """NoC as a station-by-station loop: alternating_solve on each station's
    one-station problem in index order, its objectives summed in that
    order, its decisions patched in.  The first failure raises, its message
    prefixed with the station."""
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
        try:
            rep = solver.alternating_solve(scenario.isolated(n))
        except CecReuseError as exc:
            raise type(exc)(f"NoC station {n}: {exc}") from exc
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


# result sizes from 1e-300 to 1e300, sizes within one decade (whose sums
# round differently in different orders), and a few whose sums overflow
WIDE_SIZES = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                       st.floats(1e5, 1e6),
                       st.sampled_from([1e-300, 1e300, 1e308, 1.7e308]))


def probe_levels(ctx, fractions):
    """Levels that probe ``ctx``: fractions of its floor, 0, and every
    exclusive input's efficiency at x = 0 and 1 and just below 1 (either
    side of 1 - BINARY_TOL), where position ends and fractions sit."""
    floor = ctx.efficiency_floor()
    levels = {f * floor for f in fractions} | {0.0, floor}
    for a, pos in enumerate(ctx.exc_pos):
        if ctx.active[a]:
            for j in range(len(pos)):
                for xv in (0.0, 1.0, 1.0 - 1e-10, 1.0 - 1e-13):
                    levels.add(ctx.exclusive_eff(a, j, xv))
    return sorted(lv for lv in levels if math.isfinite(lv))


def exact_storage(ctx, level):
    """The dense storage of the exact rows at ``level``: a dense row, every
    fraction solved, summed over the whole catalog."""
    return rows_storage(ctx.scenario, eager_g_of_B(ctx, level))


# three inputs whose sizes overflow any running sum of two, at a station
# whose transfer delay puts every input before the replicated boundary, so
# that boundary's prefix sums are inf on both sides of the subtraction
OVERFLOW_CASE = (build_scenario((2e9,), (1e9,), (100.0,), ((2.0,),),
                                [(1.0, 4e8, [(0.3, 1.7e308), (0.2, 1.7e308),
                                             (0.1, 1e308)])]),
                 CacheAssignment([np.zeros((1, 3))]),
                 SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                                 np.ones((1, 1))), 0)


@PROPERTY
@example(case=OVERFLOW_CASE, fractions=[0.5], caps=[1.75e308])
@given(case=level_searches(WIDE_SIZES, 16),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       caps=st.lists(st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e),
                     max_size=3))
def test_probe_verdict_is_the_prefix_storage(case, fractions, caps):
    """_fits gives the verdict of prefix_storage at the solved fractions,
    strict and not, at every probed level and at caps drawn at random, on
    that storage, on it with the fractions at 0 and at 1, on the dense
    sum, and one ulp either side of each.  It halves a fraction only where
    the storage with the fractions at 0 and at 1 straddles the cap."""
    sc, cache, sched, station = case
    ctx = EfficiencyContext(sc, cache, sched, station)
    halvings, halved = caching._halvings, []

    def counted(*args):
        for step in halvings(*args):
            halved.append(step)
            yield step

    for level in probe_levels(ctx, fractions):
        used = prefix_storage(ctx, level)
        lower, upper = prefix_storage(ctx, level, 0.0), prefix_storage(ctx, level, 1.0)
        points = {used, lower, upper, exact_storage(ctx, level)}
        tried = set(caps)
        for v in points:
            tried |= {v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)}
        for cap in sorted(c for c in tried if 0.0 <= c < math.inf):
            for below in (operator.lt, operator.le):
                halved.clear()
                with mock.patch.object(caching, "_halvings", counted):
                    verdict = _fits(ctx, level, cap, below)
                assert verdict == below(used, cap), (level, cap, below)
                if not below(lower, cap) or below(upper, cap):
                    assert not halved, (level, cap, below)


def test_overflowing_prefix_sums_never_fit():
    """Where an app's running size sum and its exclusive class's are both
    inf at the replicated boundary, the probe's storage is inf - inf = NaN,
    which fits no capacity, strict or not, and raises no RuntimeWarning;
    the dense sum of the same row is finite."""
    sc, cache, sched, station = OVERFLOW_CASE
    ctx = EfficiencyContext(sc, cache, sched, station)
    level = ctx.exclusive_eff(0, 1, 0.0)   # the first input cached
    assert _level_fills(ctx, level) == [(0, 3, 3, 1, False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isnan(prefix_storage(ctx, level))
        assert not _fits(ctx, level, 1.75e308)
        assert not _fits(ctx, level, 1.75e308, operator.le)
    assert exact_storage(ctx, level) == 1.7e308


@PROPERTY
@given(case=level_searches(), fractions=st.lists(st.floats(0.0, 1.0),
                                                 min_size=1, max_size=4))
def test_rounded_fraction_equals_the_solved_fraction_rounded(case, fractions):
    """The sweep's rounding halves a boundary fraction only while it may
    still round to 1, and decides as the fraction solved to INVERSE_TOL
    does; where it rounds to 1 it has solved that fraction in full.  A
    rounded row is the exact row rounded entry by entry."""
    sc, cache, sched, station = case
    ctx = EfficiencyContext(sc, cache, sched, station)
    cut = 1.0 - BINARY_TOL
    for level in probe_levels(ctx, fractions):
        exact = np.concatenate(eager_g_of_B(ctx, level))
        row, pending = _level_rows(ctx, level)
        caching._fill_fractions(ctx, row, pending, level, True)
        assert row.tobytes() == np.where(exact >= cut, 1.0, 0.0).tobytes()
        for a in range(sc.num_apps):
            if not (ctx.active[a] and len(ctx.exc_pos[a])):
                continue
            m, pending = _locate_level(ctx, a, level)
            if pending:
                x = _solve_fraction(ctx, a, m, level)
                early = _solve_fraction(ctx, a, m, level, cut)
                assert (early >= cut) == (x >= cut)
                assert early >= x and (early < cut or early == x)


@PROPERTY
@given(level_searches())
def test_sweep_rows_are_the_solved_rows_rounded(case):
    """The sweep's level search returns the exact search's level and its
    row rounded entry by entry.  Both report their rows' counts of nonzero
    entries."""
    sc, cache, sched, station = case
    try:
        row, level, cached = _level_search(
            EfficiencyContext(sc, cache, sched, station))
    except MalformedInput:
        return
    got, got_level, got_cached = _level_search(
        EfficiencyContext(sc, cache, sched, station), rounded=True)
    assert got_level == level
    assert got.tobytes() == np.where(row >= 1.0 - BINARY_TOL, 1.0, 0.0).tobytes()
    assert cached == np.count_nonzero(row)
    assert got_cached == np.count_nonzero(got)


@PROPERTY
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 4),
       apps=st.integers(1, 3), load=st.sampled_from([0.5, 1.0, 1.5]),
       start=st.sampled_from(["empty", "greedy"]))
def test_written_rows_pass_the_dense_check(seed, stations, apps, load, start):
    """Each station's solve_caching_bs rows, and the binary rows they round
    to, fit by their dense storage, and the cache a sweep writes passes
    validate."""
    sc = generate_scenario(GeneratorParams(
        seed=seed, num_stations=stations, num_apps=apps,
        workload_factor=load, k_scale=0.002))
    cache = (solver.greedy_cache(sc) if start == "greedy"
             else CacheAssignment.zeros(sc))
    try:
        sched, _ = initial_feasible_point(sc, compute_hit_rates(sc, cache))
    except Infeasible:
        assume(False)
    for n in range(stations):
        rows, _level = solve_caching_bs(sc, cache, sched, n)
        cap = sc.storage_capacities[n]
        assert rows_storage(sc, rows) <= cap
        assert rows_storage(sc, round_to_binary(rows)) <= cap
    state, out, _objs = sweep_all_stations(sc, SweepState(sc, copied(cache)),
                                           sched, 3)
    assert validate(sc, state, out) == []


@pytest.mark.parametrize("seed, ulps", [(1, 24), (10, -33)])
def test_rows_written_fit_where_the_two_sums_differ(seed, ulps):
    """4,096 sizes within one decade, all cached at level 0: the full row's
    prefix-sum storage is ``ulps`` ulps off its dense sum, and the capacity
    lies strictly between the two.  Where the prefix sum reads low (seed
    10), the probes find the full row fits and its dense storage does not:
    solve_caching_bs returns the empty rows, and the sweep, started from
    half the inputs cached so that searching pays, solves the full row,
    which passes its objective test, and does not accept it.  Either way
    the rows returned fit by their dense storage and the sweep's cache
    passes validate."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0, 2.0, 4096)
    p = rng.uniform(0.1, 1.0, 4096)
    inputs = list(zip((p / p.sum() * 0.8).tolist(), s.tolist()))
    sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))

    def station(cap):
        sc = build_scenario((2e9,), (cap,), (0.02,), ((2.0,),),
                            [(1.0, 4e8, inputs)])
        return sc, EfficiencyContext(sc, CacheAssignment.zeros(sc), sched, 0)

    _sc, ctx = station(1e4)
    prefix, dense = prefix_storage(ctx, 0.0), exact_storage(ctx, 0.0)
    assert prefix - dense == ulps * math.ulp(dense)
    cap = 0.5 * (prefix + dense)
    assert min(prefix, dense) < cap < max(prefix, dense)
    sc, ctx = station(cap)
    full, _level, _cached = _level_search(ctx, rounded=True)
    rows, level = solve_caching_bs(sc, CacheAssignment.zeros(sc), sched, 0)
    assert rows_storage(sc, rows) <= cap
    half = np.zeros((1, len(inputs)))
    half[0, :len(inputs) // 2] = 1.0
    state, out, objs = sweep_all_stations(
        sc, SweepState(sc, CacheAssignment([half.copy()])), sched, 3)
    assert row_storage(sc, state.x[0]) <= cap
    assert validate(sc, state, out) == []
    if prefix < dense:
        assert full.all() and row_storage(sc, full) > cap
        assert not rows[0].any() and level == ctx.efficiency_floor()
        assert out.y.all()
        hit = state.candidate(0, full)
        assert evaluate_with_rates(sc, hit.total, hit.neighbor, out.lam,
                                   out.fshare).objective < objs[-1]
        assert np.array_equal(state.x, half)
