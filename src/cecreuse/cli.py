"""Command-line interface.

Subcommands: solve (one scenario -> report.json + trace.csv), sweep (axis
sweep -> results CSV), validate-queueing (simulator vs analytic delay grid),
gradient-check (analytic vs central-difference gradients), generate (write a
seeded scenario JSON).  Exit codes: 0 success, 1 infeasible or failed
validation (for solve: no stable start, or a returned decision that
violates a constraint), 2 usage or malformed input.

CEC_REUSE_THREADS sets the number of sweep worker processes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .delay import (branch_delays, evaluate_with_rates, gradient_with_rates,
                    selected_stability)
from .errors import CecReuseError, Infeasible, MalformedInput, UnstableConfig
from .experiments import (AXES, GeneratorParams, SweepSpec,
                          generate_scenario, run_sweep, save_sweep_csv)
from .model import compute_hit_rates, load_scenario, save_scenario
from .queuesim import QueueSimConfig, analytic_mean, simulate
from .scheduling import PgdParams, initial_feasible_point
from .solver import ALGORITHMS, ROUND_CAP, greedy_cache, solve

DEFAULT_VALUES = {"workload": "0.5,0.75,1.0,1.25,1.5",
                  "stations": "5,10,15,20",
                  "apps": "2,5,8"}

QUEUE_GRID_HIT = (0.0, 0.5, 0.9)
QUEUE_GRID_RHO = (0.3, 0.5, 0.8)
QUEUE_TASKS = 10 ** 6
GRADIENT_POINTS = 100
GRADIENT_TOL = 1e-5


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cecreuse",
        description="joint caching, scheduling and CPU allocation for "
                    "collaborative edge computing with computation reuse")
    sub = p.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp):
        sp.add_argument("--rounds", type=int, default=ROUND_CAP)
        sp.add_argument("--theta0", type=float, default=PgdParams().theta0)

    sp = sub.add_parser("solve", help="solve one scenario JSON")
    sp.add_argument("--config", required=True)
    sp.add_argument("--output", default=".")
    sp.add_argument("--algorithm", choices=ALGORITHMS, default="proposed")
    add_solver_flags(sp)

    sp = sub.add_parser("sweep", help="run an axis sweep to CSV")
    sp.add_argument("--output", default="sweep.csv")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--axis", choices=AXES, required=True)
    sp.add_argument("--values", default=None,
                    help="comma-separated axis values")
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--algorithm", default=",".join(ALGORITHMS),
                    help="comma-separated subset of " + ",".join(ALGORITHMS))
    add_solver_flags(sp)

    sp = sub.add_parser("validate-queueing",
                        help="simulator vs analytic delay on a fixed grid")
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("gradient-check",
                        help="analytic gradient vs central differences")
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("generate", help="write a seeded scenario JSON")
    sp.add_argument("--output", default="scenario.json")
    sp.add_argument("--seed", type=int, default=42)
    return p


def _write_trace_csv(trace, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("round,phase,iteration,objective_s\n")
        for rnd, phase, it, obj in trace:
            fh.write(f"{rnd},{phase},{it},{obj!r}\n")


def cmd_solve(args) -> int:
    scenario = load_scenario(args.config)
    rep = solve(scenario, args.algorithm, args.rounds,
                PgdParams(theta0=args.theta0))
    os.makedirs(args.output, exist_ok=True)
    with open(os.path.join(args.output, "report.json"), "w") as fh:
        json.dump(rep.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_trace_csv(rep.objective_trace,
                     os.path.join(args.output, "trace.csv"))
    print(f"{rep.algorithm}: objective {rep.final_objective:.6f} s "
          f"after {rep.rounds_completed} rounds")
    if not rep.feasible:
        print("infeasible: the returned decision violates a constraint",
              file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    values_text = args.values or DEFAULT_VALUES[args.axis]
    parse = float if args.axis == "workload" else int
    try:
        values = tuple(parse(v) for v in values_text.split(","))
    except ValueError as exc:
        raise MalformedInput(f"bad --values for axis {args.axis}: {exc}") from exc
    algorithms = tuple(a for a in args.algorithm.split(",") if a)
    for a in algorithms:
        if a not in ALGORITHMS:
            raise MalformedInput(f"unknown algorithm {a!r}")
    spec = SweepSpec(axis=args.axis, values=values, repetitions=args.reps,
                     algorithms=algorithms, rounds=args.rounds,
                     theta0=args.theta0)
    rows = run_sweep(spec, GeneratorParams(seed=args.seed))
    save_sweep_csv(rows, args.output)
    feasible = sum(r["feasible"] for r in rows)
    print(f"{len(rows)} cells ({feasible} feasible) -> {args.output}")
    return 0


def cmd_validate_queueing(args) -> int:
    cpu, wa, ws = 2e9, 1e8, 25e6
    print("p_hr   rho   simulated   analytic    rel_err  status")
    ok = True
    idx = 0
    for hit in QUEUE_GRID_HIT:
        mode = "no_cache" if hit == 0.0 else "with_cache"
        for rho in QUEUE_GRID_RHO:
            srv = wa if mode == "no_cache" else branch_delays(
                cpu, 0.0, wa, ws, hit).srv1
            cfg = QueueSimConfig(arrival_rate=rho / (srv / cpu), cpu=cpu,
                                 app_workload=wa, search_workload=ws,
                                 hit_rate=hit, mode=mode,
                                 num_tasks=QUEUE_TASKS,
                                 rng_seed=args.seed * 10000 + idx)
            idx += 1
            try:
                sim = simulate(cfg)
            except UnstableConfig:
                print(f"{hit:4.1f}  {rho:4.2f}  UNSTABLE (flagged)")
                ok = False
                continue
            ana = analytic_mean(cfg)
            rel = abs(sim.mean_sojourn - ana) / ana
            passed = rel < 0.02
            ok = ok and passed
            print(f"{hit:4.1f}  {rho:4.2f}  {sim.mean_sojourn:10.6f} "
                  f"{ana:10.6f}  {rel:8.5f}  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def _gradient_max_rel_err(seed: int, points: int) -> float:
    """Max relative error of analytic partials vs central differences.

    Coordinates adjacent to a stability boundary, a routing-mismatch sign
    flip, or an idle (load, cpu) = (0, 0) pair are skipped: the objective
    is not differentiable (or not evaluable) across those.
    """
    h = 1e-7
    worst = 0.0
    made = 0
    attempt = 0
    while made < points:
        gp = GeneratorParams(seed=seed + 1000 + attempt, num_stations=3,
                             num_apps=2, k_scale=0.002)
        attempt += 1
        scenario = generate_scenario(gp)
        hit = compute_hit_rates(scenario, greedy_cache(scenario))
        try:
            sched, _ = initial_feasible_point(scenario, hit)
        except Infeasible:
            continue
        rng = np.random.Generator(np.random.PCG64(seed + attempt))

        def objective(lam, fsh, y):
            return evaluate_with_rates(scenario, hit.total, hit.neighbor,
                                       lam, fsh, y=y).objective

        lam = sched.lam + 0.02 * rng.standard_normal(sched.lam.shape)
        lam = np.clip(lam, 0.0, 1.0)
        fsh = sched.fshare
        y = sched.y
        if objective(lam, fsh, y) is None:
            lam = sched.lam
        res = evaluate_with_rates(scenario, hit.total, hit.neighbor, lam, fsh, y=y)
        base = res.objective
        grad = gradient_with_rates(scenario, res, lam)
        made += 1

        # each queue's slack depends on its own (lam, fshare) only, so one
        # table gives the slack after ten lam steps up (or twenty fshare
        # steps down) at every coordinate
        _, slack_lam = selected_stability(scenario, hit.total, lam + 10 * h,
                                          fsh, y)
        _, slack_fsh = selected_stability(scenario, hit.total, lam,
                                          fsh - 20 * h, y)
        rates = scenario.total_rates

        for a in range(scenario.num_apps):
            for n in range(scenario.num_stations):
                if rates[a] == 0.0 or fsh[a, n] <= 0.0:
                    continue
                if slack_lam[a, n] < 0.0:
                    continue
                mismatch = lam[a, n] * rates[a] - scenario.arrival_rate_matrix[a, n]
                if abs(mismatch) < 10 * h * rates[a]:
                    continue
                lp = lam.copy(); lp[a, n] += h
                lm = lam.copy(); lm[a, n] -= h
                op, om = objective(lp, fsh, y), objective(lm, fsh, y)
                if op is None or om is None:
                    continue
                fd = (op - om) / (2 * h)
                scale = max(abs(fd), abs(grad.dlam[a, n]), 1e-9 * abs(base))
                worst = max(worst, abs(fd - grad.dlam[a, n]) / scale)

                if slack_fsh[a, n] < 0.0:
                    continue
                fp = fsh.copy(); fp[a, n] += h
                fm = fsh.copy(); fm[a, n] -= h
                op, om = objective(lam, fp, y), objective(lam, fm, y)
                if op is None or om is None:
                    continue
                fd = (op - om) / (2 * h)
                scale = max(abs(fd), abs(grad.dfshare[a, n]), 1e-9 * abs(base))
                worst = max(worst, abs(fd - grad.dfshare[a, n]) / scale)
    return worst


def cmd_gradient_check(args) -> int:
    worst = _gradient_max_rel_err(args.seed, GRADIENT_POINTS)
    passed = worst < GRADIENT_TOL
    print(f"max relative gradient error over {GRADIENT_POINTS} points: "
          f"{worst:.3e} ({'PASS' if passed else 'FAIL'})")
    return 0 if passed else 1


def cmd_generate(args) -> int:
    scenario = generate_scenario(GeneratorParams(seed=args.seed))
    save_scenario(scenario, args.output)
    print(f"wrote {args.output} ({scenario.num_stations} stations, "
          f"{scenario.num_apps} apps)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "validate-queueing":
            return cmd_validate_queueing(args)
        if args.command == "gradient-check":
            return cmd_gradient_check(args)
        return cmd_generate(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (MalformedInput, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CecReuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
