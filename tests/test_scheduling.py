"""Projected gradient descent: projections, line search, descent, feasibility."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cecreuse import (CacheAssignment, EmptyVector, GeneratorParams, Infeasible,
                      LineSearchExhausted, MalformedInput, PgdParams,
                      SchedulingState, backtrack, compute_hit_rates,
                      evaluate_objective, generate_scenario, greedy_cache,
                      initial_feasible_point, project_decisions,
                      project_simplex, solve_scheduling, validate)
from cecreuse import delay, scheduling
from cecreuse.delay import selected_stability
from cecreuse.scheduling import ALPHA, DELTA_STAB, J_MAX, STEP_BLOCK

from conftest import build_scenario


def simplex_qp_oracle(v):
    """Active-set solution of min ||x - v||^2 over the simplex."""
    n = len(v)
    u = np.sort(v)[::-1]
    best = None
    for j in range(1, n + 1):
        tau = (u[:j].sum() - 1.0) / j
        x = np.maximum(v - tau, 0.0)
        if abs(x.sum() - 1.0) > 1e-9:
            continue
        d = float(((x - v) ** 2).sum())
        if best is None or d < best[0] - 1e-15:
            best = (d, x)
    return best[1]


@pytest.fixture
def symmetric_pair():
    sc = build_scenario((2e9, 2e9), (4e9, 4e9), (0.015, 0.015), ((1.0,), (1.0,)),
                        [(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])])
    return sc, CacheAssignment.zeros(sc)


# -- projection ---------------------------------------------------------------


def test_project_simplex_examples():
    assert project_simplex(np.array([0.3, 0.3, 0.4])) == pytest.approx(
        [0.3, 0.3, 0.4], abs=1e-15)
    assert project_simplex(np.array([1.0, 1.0])) == pytest.approx([0.5, 0.5])
    assert project_simplex(np.array([1.2, -0.2, 0.5])) == pytest.approx(
        [0.85, 0.0, 0.15])
    with pytest.raises(EmptyVector):
        project_simplex(np.array([]))


@pytest.mark.parametrize("v", [[np.nan, 0.5], [1e20], [1e20, 3.0]])
def test_project_simplex_rejects_unresolvable_rows(v):
    # no prefix passes the test in floating point: an error, not a point
    # off the simplex
    with pytest.raises(MalformedInput):
        project_simplex(np.array(v))
    lam = np.vstack([np.full(len(v), 1.0 / len(v)), v])
    with pytest.raises(MalformedInput):
        project_decisions(lam, np.full(lam.shape, 0.5))


def test_project_simplex_against_qp_oracle():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        v = rng.normal(0.0, 2.0, n)
        x = project_simplex(v)
        assert (x >= 0.0).all()
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert x == pytest.approx(simplex_qp_oracle(v), abs=1e-9)
        assert project_simplex(x) == pytest.approx(x, abs=1e-12)


def test_project_decisions_rows_and_columns():
    lam = np.array([[1.2, -0.2, 0.5], [1.0, 1.0, 1.0]])
    fsh = np.array([[1.2, 1.0], [-0.2, 1.0], [0.5, 1.0]])
    lam_p, fsh_p = project_decisions(lam, fsh)
    assert lam_p[0] == pytest.approx([0.85, 0.0, 0.15])
    assert lam_p[1] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert fsh_p[:, 0] == pytest.approx([0.85, 0.0, 0.15])
    assert fsh_p[:, 1] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


# -- line search --------------------------------------------------------------


def scalar_problem(fn, x0, d, blocks=None):
    """Wrap a scalar objective into the batched (lam, fshare) interface: a
    block of steps comes in on a leading axis, the evaluation's
    objectives() holds every step's objective (NaN where ``fn`` gives None)
    and its point(k) the k-th step's.  ``blocks``, when given, collects
    each block's steps."""
    point = (np.array([[x0]]), np.zeros((1, 1)))
    direction = (np.array([[d]]), np.zeros((1, 1)))

    def objective(lam, fsh):
        xs = [float(x) for x in lam[:, 0, 0]]
        if blocks is not None:
            blocks.append(xs)
        values = [fn(x) for x in xs]
        return SimpleNamespace(
            objectives=lambda: np.array([np.nan if v is None else v
                                         for v in values]),
            point=lambda k: SimpleNamespace(objective=values[k]))

    return objective, point, direction


def test_backtrack_full_step_accepted():
    fn = lambda x: (x - 1.0) ** 2
    objective, point, direction = scalar_problem(fn, 0.0, 1.0)
    j, lam, _, res = backtrack(objective, point, direction, fn(0.0), -2.0)
    assert j == 0 and lam[0, 0] == 1.0 and res.objective == 0.0


def test_backtrack_shrinks_overshoot():
    fn = lambda x: (x - 0.2) ** 2
    objective, point, direction = scalar_problem(fn, 0.0, 1.0)
    j, lam, _, _ = backtrack(objective, point, direction, fn(0.0), -0.4)
    # step 1 and 1/2 fail the sufficient-decrease test, 1/4 passes
    assert j == 2 and lam[0, 0] == pytest.approx(0.25)


def test_backtrack_margin_gate_keeps_boundary_distance():
    # points inside the margin evaluate to None, as unstable ones do
    fn = lambda x: (x - 1.0) ** 2 if x <= 0.6 else None
    objective, point, direction = scalar_problem(fn, 0.0, 1.0)

    j, lam, _, _ = backtrack(objective, point, direction, fn(0.0), -2.0)
    assert j == 1 and lam[0, 0] == pytest.approx(0.5) and lam[0, 0] <= 0.6


def test_backtrack_exhaustion():
    blocks = []
    objective, point, direction = scalar_problem(lambda x: None, 0.0, 1.0,
                                                 blocks)
    with pytest.raises(LineSearchExhausted) as err:
        backtrack(objective, point, direction, 1.0, -1.0)
    assert err.value.tried == J_MAX + 1
    # every step 2^-j, j = 0..J_MAX, tabled once, STEP_BLOCK at a time
    assert [len(b) for b in blocks] == [STEP_BLOCK] * 7 + [5]
    assert [x for b in blocks for x in b] == [2.0 ** -j for j in range(J_MAX + 1)]


def test_backtrack_never_accepts_an_increase():
    # an ascent direction (grad_dot > 0) makes Armijo's bound negative, so
    # the first steps' small increases would pass it; only the first step
    # that does not raise the objective is taken
    fn = lambda x: 0.1 * x if x > 0.1 else 0.0
    objective, point, direction = scalar_problem(fn, 0.0, 1.0)
    j, lam, _, res = backtrack(objective, point, direction, fn(0.0), 1.0)
    assert fn(1.0) - fn(0.0) < ALPHA * 1.0 * 1.0   # step 1 passes Armijo
    assert j == 4 and lam[0, 0] == 0.0625 and res.objective == 0.0


# -- descent ------------------------------------------------------------------


def test_solve_scheduling_zero_iterations(symmetric_pair):
    sc, cache = symmetric_pair
    start = SchedulingState(np.array([[0.72, 0.28]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    out, trace = solve_scheduling(sc, compute_hit_rates(sc, cache), start, iters=0)
    assert trace == []
    assert np.array_equal(out.lam, start.lam)
    assert np.array_equal(out.fshare, start.fshare)


def test_solve_scheduling_symmetric_optimum(symmetric_pair):
    sc, cache = symmetric_pair
    start = SchedulingState(np.array([[0.72, 0.28]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    out, trace = solve_scheduling(sc, compute_hit_rates(sc, cache), start,
                                  iters=200)
    assert out.lam[0] == pytest.approx([0.5, 0.5], abs=1e-4)

    objs = [t[1] for t in trace]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    # grid-scan oracle over the routing split at 1e-3 resolution
    best = np.inf
    for l1 in np.arange(0.0, 1.0 + 1e-9, 1e-3):
        s = SchedulingState(np.array([[l1, 1.0 - l1]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
        r = evaluate_objective(sc, cache, s)
        if r.feasible:
            best = min(best, r.objective)
    assert objs[-1] <= best + 1e-9


def test_solve_scheduling_beats_greedy_start():
    for seed in (42, 43, 44):
        sc = generate_scenario(GeneratorParams(seed=seed, num_stations=3,
                                               num_apps=2, k_scale=0.002))
        cache = CacheAssignment.zeros(sc)
        hit = compute_hit_rates(sc, cache)
        start, _ = initial_feasible_point(sc, hit)
        base = evaluate_objective(sc, cache, start).objective
        _, trace = solve_scheduling(sc, hit, start, iters=10)
        assert trace[-1][1] <= base + 1e-15


def test_solve_scheduling_final_state_feasible():
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3,
                                           num_apps=2, k_scale=0.002))
    cache = CacheAssignment.zeros(sc)
    hit = compute_hit_rates(sc, cache)
    out, _ = solve_scheduling(sc, hit, initial_feasible_point(sc, hit)[0], 25)
    assert validate(sc, cache, out) == []


def steps_tabled(j):
    """Line-search steps tabled by an iteration whose trace row reads j
    (J_MAX + 1 when the search was exhausted): every block up to j's."""
    return min(STEP_BLOCK * math.ceil((j + 1) / STEP_BLOCK), J_MAX + 1)


def test_solve_scheduling_builds_one_table_per_point(monkeypatch):
    # one branch table per block of line-search steps plus one for the
    # start; each later iterate, and the flags of the final point, reuse
    # the accepted step's slice of its block's table
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3,
                                           num_apps=2, k_scale=0.002))
    hit = compute_hit_rates(sc, CacheAssignment.zeros(sc))
    start, _ = initial_feasible_point(sc, hit)
    tables, blocks = [], []
    branch_delays, evaluate = delay.branch_delays, scheduling.evaluate_with_rates

    def counted_table(*args):
        tables.append(args)
        return branch_delays(*args)

    def counted_eval(*args, **kwargs):
        if kwargs.get("margin") == DELTA_STAB:
            blocks.append(len(args[3]))   # steps on lam's leading axis
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(delay, "branch_delays", counted_table)
    monkeypatch.setattr(scheduling, "evaluate_with_rates", counted_eval)
    _, trace = solve_scheduling(sc, hit, start, iters=10)
    assert len(trace) == 10
    assert len(tables) == len(blocks) + 1
    assert sum(blocks) == sum(steps_tabled(j) for _, _, j in trace)


def test_descent_tables_each_point_once(monkeypatch):
    # the default 10-iteration descent from the greedy start: every tabled
    # (f, load) point is new, the start's table is the only unbatched one,
    # and an iteration that accepts step j tables every block up to j's.
    # A scenario descends as a stack of one problem, so every table has
    # the problem axis and a block's has the step axis before it
    sc = generate_scenario(GeneratorParams(seed=42))
    cache = greedy_cache(sc)
    hit = compute_hit_rates(sc, cache)
    start, _ = initial_feasible_point(sc, hit)
    calls, points = [], []
    branch_tables = delay.branch_tables

    def counted(sc_, total_hit, lam, fshare):
        t = branch_tables(sc_, total_hit, lam, fshare)
        calls.append(t.f.ndim)
        points.extend((f.tobytes(), load.tobytes())
                      for f, load in zip(t.f, t.load))
        return t

    monkeypatch.setattr(delay, "branch_tables", counted)
    _, trace = solve_scheduling(sc, hit, start, iters=10)
    assert len(trace) == 10
    blocks = sum(math.ceil(steps_tabled(j) / STEP_BLOCK) for _, _, j in trace)
    assert calls == [3] + [4] * blocks
    assert len(points) == len(set(points)) == 1 + sum(
        steps_tabled(j) for _, _, j in trace)


def test_solve_scheduling_stationary_fixed_point(symmetric_pair):
    # a converged point barely moves under a tiny base step
    sc, cache = symmetric_pair
    start = SchedulingState(np.array([[0.72, 0.28]]), np.ones((1, 2)),
                            np.zeros((1, 2), dtype=np.int8))
    hit = compute_hit_rates(sc, cache)
    out, _ = solve_scheduling(sc, hit, start, iters=300)
    again, _ = solve_scheduling(sc, hit, out, iters=5,
                                params=PgdParams(theta0=1e-9))
    assert np.abs(again.lam - out.lam).max() < 1e-6
    assert np.abs(again.fshare - out.fshare).max() < 1e-6


# -- starting point -----------------------------------------------------------


def test_initial_point_homogeneous_uniform(symmetric_pair):
    sc, cache = symmetric_pair
    state, _ = initial_feasible_point(sc, compute_hit_rates(sc, cache))
    assert state.lam[0] == pytest.approx([0.5, 0.5])
    assert validate(sc, cache, state) == []


def test_initial_point_capacity_proportional():
    sc = build_scenario((6e9, 2e9), (4e9, 4e9), (0.015, 0.015), ((1.0,), (1.0,)),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    state, _ = initial_feasible_point(sc, compute_hit_rates(sc, CacheAssignment.zeros(sc)))
    assert state.lam[0] == pytest.approx([0.75, 0.25])


def test_initial_point_overload_infeasible():
    # demand 40 * 4e8 = 1.6e10 cycles/s against 4e9 total capacity
    sc = build_scenario((2e9, 2e9), (4e9, 4e9), (0.015, 0.015),
                        ((20.0,), (20.0,)),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    with pytest.raises(Infeasible):
        initial_feasible_point(sc, compute_hit_rates(sc, CacheAssignment.zeros(sc)))


def test_initial_point_repair_lands_inside_the_margin():
    # an overloaded instance whose repair, aimed exactly at the margin,
    # ended one rounding step outside it and reported Infeasible
    sc = generate_scenario(GeneratorParams(seed=100, num_stations=6, num_apps=4,
                                           k_scale=0.002, workload_factor=2.2))
    cache = CacheAssignment.zeros(sc)
    hit = compute_hit_rates(sc, cache)
    state, _ = initial_feasible_point(sc, hit)
    assert validate(sc, cache, state) == []
    stable, _ = selected_stability(sc, hit.total,
                                   state.lam, state.fshare, state.y,
                                   DELTA_STAB)
    assert stable.all()
