"""Acceptance checks for the full pipeline, one test per criterion.

Each test prints a single PASS/FAIL line so a `-s` run reads as a checklist;
`pytest -v` gives the same verdict per criterion through the test outcome.
Runtime is dominated by the million-task queueing grid (criterion 1), the
200-instance caching audit (criterion 3), and the repetition sweeps
(criteria 6 to 8); the whole module takes a few minutes.
"""

import csv
import json
import time

import numpy as np

from conftest import build_scenario

from cecreuse import (
    CacheAssignment,
    EfficiencyContext,
    GeneratorParams,
    PgdParams,
    QueueSimConfig,
    SchedulingState,
    SweepSpec,
    alternating_solve,
    analytic_mean,
    brute_force_cache_oracle,
    efficiencies_at_solution,
    evaluate_objective,
    generate_scenario,
    project_simplex,
    round_to_binary,
    run_sweep,
    simulate,
    solve_caching_bs,
    solve_greedy,
    theorem3_ratio,
)
from cecreuse import cli
from cecreuse.caching import LEVEL_ACCURACY, _rows_storage, g_of_B, relaxed_objective
from cecreuse.delay import branch_delays, hit_derivative

ALGS = ("proposed", "nor", "greedy", "noc")


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- criterion 1: simulation vs analytic queueing delays -----------------------


def test_criterion_1_queue_model_matches_simulation():
    t0 = time.perf_counter()
    # The analytic search-branch delay must satisfy the mean-value identity
    # built from the first two moments of the mixed service time.
    rng = np.random.Generator(np.random.PCG64(11))
    worst_pk = 0.0
    for _ in range(200):
        f = rng.uniform(5e8, 5e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(1e6, 5e7)
        hit = rng.uniform(0.0, 1.0)
        mu0, mu1 = f / wa, f / (ws + (1.0 - hit) * wa)
        e_t = 1.0 / mu1
        e_t2 = 1.0 / mu1 ** 2 + (1.0 - hit ** 2) / mu0 ** 2
        load = rng.uniform(0.1, 0.9) * mu1
        got = branch_delays(f, load, wa, ws, hit).d1
        ref = e_t + load * e_t2 / (2.0 * (1.0 - load / mu1))
        worst_pk = max(worst_pk, abs(got - ref) / ref)
    assert worst_pk < 1e-12

    # Million-task grid: both service branches, three utilization levels.
    cpu, wa, ws = 2e9, 1e8, 25e6
    worst = 0.0
    idx = 0
    for hit in cli.QUEUE_GRID_HIT:
        mode = "no_cache" if hit == 0.0 else "with_cache"
        for rho in cli.QUEUE_GRID_RHO:
            mean_srv = (wa / cpu if mode == "no_cache"
                        else (ws + (1.0 - hit) * wa) / cpu)
            cfg = QueueSimConfig(arrival_rate=rho / mean_srv, cpu=cpu,
                                 app_workload=wa, search_workload=ws,
                                 hit_rate=hit, mode=mode,
                                 num_tasks=cli.QUEUE_TASKS,
                                 rng_seed=42 * 10000 + idx)
            idx += 1
            sim = simulate(cfg)
            rel = abs(sim.mean_sojourn - analytic_mean(cfg)) / analytic_mean(cfg)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 120.0
    _verdict(1, "queueing validation", ok,
             f"worst rel err {worst:.4f}, {elapsed:.0f}s")


# -- criterion 2: analytic gradient vs finite differences ----------------------


def test_criterion_2_gradient_matches_finite_differences():
    worst = cli._gradient_max_rel_err(42, 100)

    rng = np.random.Generator(np.random.PCG64(12))
    h = 1e-7
    worst_hit = 0.0
    for _ in range(200):
        f = rng.uniform(5e8, 5e9)
        wa = rng.uniform(1e8, 6e8)
        ws = rng.uniform(1e6, 5e7)
        p = rng.uniform(0.05, 0.9)
        # worst-case search-branch service rate in the stencil
        mu_lo = f / (ws + (1.0 - (p - h)) * wa)
        load = rng.uniform(0.1, 0.85) * mu_lo
        got = hit_derivative(load, f, wa, ws, p)

        def d1(ph):
            return float(branch_delays(f, load, wa, ws, ph).d1)

        fd = (d1(p + h) - d1(p - h)) / (2.0 * h)
        worst_hit = max(worst_hit, abs(got - fd) / abs(fd))

    ok = worst < 1e-5 and worst_hit < 1e-6
    _verdict(2, "gradient check", ok,
             f"objective grad {worst:.2e}, hit-rate deriv {worst_hit:.2e}")


# -- criterion 3: caching optimality and rounding bound ------------------------


def _single_station_instance(rng):
    """Small single-station scenario where searching is always worthwhile."""
    k = int(rng.integers(6, 15))
    p = rng.dirichlet(np.ones(k)) * 0.8
    s = rng.uniform(5e4, 2e5, k)
    cap = float(rng.uniform(0.25, 0.75) * s.sum())
    rate = float(rng.uniform(1.0, 4.0))
    scenario = build_scenario((2e9,), (cap,), (float(rng.uniform(0.01, 0.03)),),
                              ((rate,),),
                              [(1.0, 3e8, list(zip(p.tolist(), s.tolist())))],
                              search_workload=1e4)
    return scenario, p, s, cap


def test_criterion_3_caching_solver_certified():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2026))
    checked = 0
    worst_margin = np.inf
    while checked < 200:
        scenario, _, s, cap = _single_station_instance(rng)
        sched = SchedulingState(np.ones((1, 1)), np.ones((1, 1)),
                                np.ones((1, 1), dtype=np.int8))
        zeros = CacheAssignment.zeros(scenario)
        rows, level = solve_caching_bs(scenario, zeros, sched, 0)
        x = rows[0]
        if x.sum() == 0.0:
            continue

        # Optimality certificate of the fractional solution: the storage
        # budget is tight (or slack with every item cached), every fractional
        # efficiency sits on the level, fully cached items are at least as
        # efficient and uncached ones at most, all within the level accuracy.
        ctx = EfficiencyContext(scenario, zeros, sched, 0)
        eff = efficiencies_at_solution(ctx, rows)[0]
        ones = x >= 1.0 - 1e-12
        zers = x <= 1e-12
        frac = ~ones & ~zers
        assert frac.sum() <= 1
        assert (eff[ones] <= level + 1e-9).all()
        assert (eff[zers] >= level - 1e-9).all()
        if frac.any():
            assert abs(float(eff[frac][0]) - level) <= 2e-9
        assert float(x @ s) <= cap + 1e-6
        tight = _rows_storage(
            scenario, g_of_B(ctx, min(0.0, level + 2 * LEVEL_ACCURACY))) >= cap - 1e-6
        unconstrained = _rows_storage(scenario, g_of_B(ctx, 0.0)) <= cap + 1e-6
        assert tight or unconstrained

        # Rounding: the realized share of the cacheable improvement must stay
        # above 1 - s_max * apps / capacity, against both the fractional
        # optimum (search flags frozen) and the exhaustive subset oracle.
        y1 = sched.y
        d0 = evaluate_objective(scenario, zeros, sched, frozen_y=y1).objective
        d_star = relaxed_objective(scenario, zeros, sched, 0, rows, frozen_y=y1)
        rows_bin = round_to_binary(rows)
        d_hat = relaxed_objective(scenario, zeros, sched, 0, rows_bin, frozen_y=y1)
        apps_cached = sum(1 for r in rows if (r > 1e-12).any())
        ratio, bound = theorem3_ratio(d0, d_hat, d_star, float(s.max()),
                                      apps_cached, cap)
        assert ratio >= bound - 1e-12
        worst_margin = min(worst_margin, ratio - bound)

        d0_free = evaluate_objective(scenario, zeros, sched).objective
        d_hat_free = evaluate_objective(
            scenario, zeros.with_station(0, rows_bin), sched).objective
        _, d_oracle = brute_force_cache_oracle(scenario, zeros, sched, 0)
        if d0_free != d_oracle:
            r_o, b_o = theorem3_ratio(d0_free, d_hat_free, d_oracle,
                                      float(s.max()), apps_cached, cap)
            assert r_o >= b_o - 1e-12
            worst_margin = min(worst_margin, r_o - b_o)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 300.0
    _verdict(3, "caching certificates", ok,
             f"{checked} instances, worst ratio margin {worst_margin:.3f}, "
             f"{elapsed:.0f}s")


# -- criterion 4: simplex projection vs QP oracle -------------------------------


def _qp_projection(v):
    """Exact Euclidean projection by scanning active-set sizes."""
    n = v.size
    top = np.sort(v)[::-1]
    csum = np.cumsum(top)
    best, best_d = None, np.inf
    for j in range(1, n + 1):
        tau = (csum[j - 1] - 1.0) / j
        x = np.maximum(v - tau, 0.0)
        if abs(x.sum() - 1.0) > 1e-9:
            continue
        d = float(((x - v) ** 2).sum())
        if d < best_d:
            best, best_d = x, d
    return best


def test_criterion_4_projection_matches_qp_oracle():
    rng = np.random.Generator(np.random.PCG64(13))
    worst = 0.0
    worst_fix = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        v = rng.normal(0.0, float(rng.uniform(0.2, 5.0)), n)
        x = project_simplex(v)
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) <= 1e-12
        ref = _qp_projection(v)
        worst = max(worst, float(np.abs(x - ref).max()))
        worst_fix = max(worst_fix, float(np.abs(project_simplex(x) - x).max()))
    ok = worst < 1e-9 and worst_fix < 1e-12
    _verdict(4, "simplex projection", ok,
             f"oracle gap {worst:.1e}, idempotence gap {worst_fix:.1e}")


# -- criterion 5: solver descent and step-size schedule -------------------------


def _settle_pos(trace, final):
    """Index of the first trace row within 1 percent of the final objective."""
    threshold = final + 0.01 * abs(final)
    for i, row in enumerate(trace):
        if row[3] <= threshold:
            return i
    return len(trace)


def test_criterion_5_descent_and_step_schedule():
    wins = 0
    for seed in range(42, 62):
        scenario = generate_scenario(GeneratorParams(seed=seed))
        rep = alternating_solve(scenario, params=PgdParams(theta0=1.0))
        objs = [row[3] for row in rep.objective_trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:])), seed
        assert rep.final_objective < solve_greedy(scenario).final_objective, seed
        slow = alternating_solve(scenario, params=PgdParams(theta0=0.1))
        if (_settle_pos(rep.objective_trace, rep.final_objective)
                < _settle_pos(slow.objective_trace, slow.final_objective)):
            wins += 1
    ok = wins >= 15
    _verdict(5, "descent and step schedule", ok, f"theta wins {wins}/20")


# -- criteria 6 to 8: comparison sweeps -----------------------------------------


def _median(rows, alg, value, field):
    xs = [row[field] if row["feasible"] else np.inf
          for row in rows if row["algorithm"] == alg and row["value"] == value]
    assert len(xs) == 15
    return float(np.median(xs))


def test_criterion_6_workload_sweep_dominance():
    values = (0.5, 0.75, 1.0, 1.25, 1.5)
    rows = run_sweep(SweepSpec(axis="workload", values=values, repetitions=3),
                     GeneratorParams(seed=42))
    cell = {(r["value"], r["repetition"], r["algorithm"]): r for r in rows}
    dominated = True
    for v in values:
        for rep in range(3):
            prop = cell[(v, rep, "proposed")]
            for rival in ("greedy", "nor"):
                other = cell[(v, rep, rival)]
                if prop["feasible"] and other["feasible"]:
                    dominated &= (prop["total_delay_s"]
                                  <= other["total_delay_s"] + 1e-12)
    isolated = True
    for v in (1.25, 1.5):
        for rep in range(3):
            prop = cell[(v, rep, "proposed")]
            noc = cell[(v, rep, "noc")]
            isolated &= ((not noc["feasible"])
                         or noc["total_delay_s"] >= 5.0 * prop["total_delay_s"])
    ok = dominated and isolated
    _verdict(6, "workload sweep", ok,
             f"dominated={dominated}, isolated-overload={isolated}")


def test_criterion_7_station_scaling():
    values = (5, 10, 15, 20)
    rows = run_sweep(SweepSpec(axis="stations", values=values, repetitions=15),
                     GeneratorParams(seed=42, workload_factor=0.5, num_apps=8))
    noc = [_median(rows, "noc", v, "avg_delay_s") for v in values]
    spread = (max(noc) - min(noc)) / min(noc)
    declines = {}
    for alg in ("proposed", "nor", "greedy"):
        ms = [_median(rows, alg, v, "avg_delay_s") for v in values]
        declines[alg] = all(b <= a + 1e-12 for a, b in zip(ms, ms[1:]))
    ok = spread < 0.10 and all(declines.values())
    _verdict(7, "station scaling", ok,
             f"noc spread {spread:.3f}, declining={declines}")


def test_criterion_8_app_scaling():
    values = (2, 5, 8)
    rows = run_sweep(SweepSpec(axis="apps", values=values, repetitions=15),
                     GeneratorParams(seed=42))
    growth = {}
    monotone = True
    for alg in ALGS:
        ms = [_median(rows, alg, v, "total_delay_s") for v in values]
        monotone &= all(b >= a - 1e-12 for a, b in zip(ms, ms[1:]))
        growth[alg] = ((ms[-1] - ms[0]) / ms[0] if np.isfinite(ms[0])
                       else np.inf)
    slowest = all(growth["proposed"] <= growth[a] for a in ALGS[1:])
    ok = monotone and slowest
    _verdict(8, "app scaling", ok,
             f"monotone={monotone}, growth={ {a: round(g, 3) for a, g in growth.items()} }")


# -- criterion 9: bit-identical reruns through the CLI ---------------------------


def _strip_wall_time(report_path):
    data = json.loads(report_path.read_text())
    data.pop("wall_time_s", None)
    return data


def test_criterion_9_deterministic_reruns(tmp_path):
    gen = []
    for run in range(2):
        path = tmp_path / f"scenario{run}.json"
        assert cli.main(["generate", "--output", str(path), "--seed", "9"]) == 0
        gen.append(path.read_bytes())
    same_gen = gen[0] == gen[1]

    solves = []
    for run in range(2):
        out = tmp_path / f"solve{run}"
        out.mkdir()
        assert cli.main(["solve", "--config", str(tmp_path / "scenario0.json"),
                         "--output", str(out), "--rounds", "3"]) == 0
        solves.append((_strip_wall_time(out / "report.json"),
                       (out / "trace.csv").read_bytes()))
    same_solve = solves[0] == solves[1]

    sweeps = []
    for run in range(2):
        out = tmp_path / f"sweep{run}.csv"
        assert cli.main(["sweep", "--output", str(out), "--axis", "workload",
                         "--values", "0.5", "--reps", "1",
                         "--algorithm", "greedy,nor"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_time_s", None)
        sweeps.append(rows)
    same_sweep = sweeps[0] == sweeps[1]

    ok = same_gen and same_solve and same_sweep
    _verdict(9, "deterministic reruns", ok,
             f"generate={same_gen}, solve={same_solve}, sweep={same_sweep}")
