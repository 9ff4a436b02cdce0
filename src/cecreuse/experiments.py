"""Seeded scenario generation and the three result sweeps.

Scenarios draw every quantity from its distribution (capacities and
transfer delays per station, catalog size, workload, match probabilities,
result sizes and arrival rates per app).  Every quantity gets its own
sub-stream of one seed, so adding stations or apps extends the draws
without disturbing the ones already made: the first 5 stations of an
N=10 scenario are exactly the stations of the N=5 scenario, and the
first 2 apps of an A=5 scenario are the apps of the A=2 scenario.  That
coupling is what makes the axis sweeps smooth at small repetition counts.

The per-station total arrival mass is drawn as a sum of reference_apps
independent rate draws (the same law as summing i.i.d. per-app rates),
from a stream independent of the actual app count; per-app rates are
rescaled so each station's total equals its drawn target.  Offered load
is therefore constant when sweeping the app count.

App weights are the per-app total arrival rates (times the weight knob),
so the reported objective is the traffic-weighted total delay, i.e. the
expected number of in-flight tasks.  That total scales additively with
the station count, which is what makes "total / N" a meaningful average
when sweeping the number of stations.

Desk-scale defaults: catalog sizes are scaled down by k_scale with match
probabilities scaled up by 1/k_scale (expected hit mass preserved) and
storage capacities scaled by k_scale (storage-to-catalog ratio, hence
caching pressure, preserved); k_scale=1 reproduces the full-size
distributions.  load_scale calibrates the unit workload factor to the
operating point where the qualitative regime contrasts (single-station
saturation under load growth, reuse-vs-caching crossover) appear within
the sweep range {0.5 .. 1.5}.
"""
from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import Infeasible, MalformedInput
from .model import Application, BaseStation, Scenario, TypicalInput
from .scheduling import PgdParams
from .solver import alternating_solve, solve_greedy, solve_noc, solve_nor

SWEEP_HEADER = ("axis", "value", "repetition", "algorithm", "total_delay_s",
                "avg_delay_s", "feasible", "rounds", "wall_time_s")

AXES = ("workload", "stations", "apps")
ALGORITHMS = ("proposed", "greedy", "nor", "noc")


@dataclass(frozen=True)
class GeneratorParams:
    """Distribution bounds with desk-scale and sweep knobs."""
    seed: int = 42
    num_stations: int = 10
    num_apps: int = 5
    compute_lo: float = 2e9          # cycles/s
    compute_hi: float = 8e9
    storage_lo: float = 2e9          # bytes, scaled by k_scale
    storage_hi: float = 8e9
    catalog_lo: int = 10_000         # inputs per app, scaled by k_scale
    catalog_hi: int = 50_000
    workload_lo: float = 2e8         # cycles per task
    workload_hi: float = 6e8
    search_workload: float = 25e6    # cycles
    rate_lo: float = 0.5             # tasks/s per (app, station)
    rate_hi: float = 1.5
    match_lo: float = 1.2e-5         # per input, scaled by 1/k_scale
    match_hi: float = 3.6e-5
    transfer_lo: float = 0.010       # seconds
    transfer_hi: float = 0.030
    size_mean: float = 1e5           # bytes
    size_sd: float = 3e4
    size_min: float = 1e4
    weight: float = 1.0              # multiplier on traffic-volume app weights
    workload_factor: float = 1.0
    load_scale: float = 1.0          # calibration of the unit workload factor
    k_scale: float = 0.01
    reference_apps: int = 5          # app count anchoring per-station totals
    max_match_sum: float = 0.95


@dataclass(frozen=True)
class SweepSpec:
    """One axis sweep: values x repetitions x algorithms."""
    axis: str
    values: tuple
    repetitions: int = 3
    algorithms: tuple = ALGORITHMS
    rounds: int = 10
    caching_iters: int = 10
    scheduling_iters: int = 10
    theta0: float = 1.0


def _check_params(p: GeneratorParams) -> None:
    pairs = [(p.compute_lo, p.compute_hi), (p.storage_lo, p.storage_hi),
             (p.catalog_lo, p.catalog_hi), (p.workload_lo, p.workload_hi),
             (p.rate_lo, p.rate_hi), (p.match_lo, p.match_hi),
             (p.transfer_lo, p.transfer_hi)]
    if any(lo > hi for lo, hi in pairs):
        raise MalformedInput("distribution bounds out of order")
    if p.workload_factor <= 0.0 or p.k_scale <= 0.0 or p.load_scale <= 0.0:
        raise MalformedInput("factors must be positive")
    if p.num_stations < 1 or p.num_apps < 1 or p.reference_apps < 1:
        raise MalformedInput("need at least one station and app")


def generate_scenario(params: GeneratorParams) -> Scenario:
    """Draw a scenario; same params (incl. seed) give an identical scenario."""
    _check_params(params)
    p = params
    ss = np.random.SeedSequence(p.seed)
    st_ss, app_ss, tot_ss = ss.spawn(3)
    # one stream per station-indexed quantity: draws for station n do not
    # move when N changes, so N=5 scenarios are prefixes of N=20 ones
    cap_rng, stor_rng, dt_rng = (np.random.Generator(np.random.PCG64(s))
                                 for s in st_ss.spawn(3))
    tot_rng = np.random.Generator(np.random.PCG64(tot_ss))

    N, A = p.num_stations, p.num_apps
    compute = cap_rng.uniform(p.compute_lo, p.compute_hi, N)
    storage = stor_rng.uniform(p.storage_lo, p.storage_hi, N) * p.k_scale
    transfer = dt_rng.uniform(p.transfer_lo, p.transfer_hi, N)
    # sum of reference_apps i.i.d. rate draws: the same law as total i.i.d.
    # per-app arrivals, but drawn independently of the actual app count
    totals = (tot_rng.uniform(p.rate_lo, p.rate_hi, (N, p.reference_apps))
              .sum(axis=1) * p.workload_factor * p.load_scale)

    workloads = np.empty(A)
    rate_rows = np.empty((A, N))
    inputs: list[tuple[TypicalInput, ...]] = []
    for a_ss in app_ss.spawn(A):
        # per-app sub-streams: catalog draws stay fixed across N, rate
        # draws stay fixed across the catalog size
        cat_rng, rate_rng = (np.random.Generator(np.random.PCG64(s))
                             for s in a_ss.spawn(2))
        a = len(inputs)
        k = max(1, int(round(cat_rng.uniform(p.catalog_lo, p.catalog_hi)
                             * p.k_scale)))
        workloads[a] = cat_rng.uniform(p.workload_lo, p.workload_hi)
        match = cat_rng.uniform(p.match_lo, p.match_hi, k) / p.k_scale
        sizes = np.maximum(cat_rng.normal(p.size_mean, p.size_sd, k), p.size_min)
        rate_rows[a] = rate_rng.uniform(p.rate_lo, p.rate_hi, N)
        total_match = match.sum()
        if total_match > p.max_match_sum:
            match = match * (p.max_match_sum / total_match)
        inputs.append(tuple(TypicalInput(match_prob=float(m),
                                         result_size=float(s))
                            for m, s in zip(match, sizes)))
    rate_rows *= totals / rate_rows.sum(axis=0)

    stations = tuple(
        BaseStation(compute_capacity=float(compute[n]),
                    storage_capacity=float(storage[n]),
                    transfer_delay=float(transfer[n]),
                    arrival_rates=tuple(float(r) for r in rate_rows[:, n]))
        for n in range(N))
    # traffic-volume weights: the objective becomes sum_a R^a D^a, the
    # expected number of in-flight tasks.  It adds across independent
    # stations, so dividing by N gives a per-station average that is
    # scale-free in the station count.
    apps = tuple(
        Application(weight=p.weight * float(rate_rows[a].sum()),
                    mean_workload=float(workloads[a]),
                    typical_inputs=inputs[a])
        for a in range(A))
    return Scenario(stations=stations, apps=apps,
                    search_workload=p.search_workload)


def _cell_params(spec: SweepSpec, params: GeneratorParams, value,
                 rep: int) -> GeneratorParams:
    out = replace(params, seed=params.seed + rep)
    if spec.axis == "workload":
        return replace(out, workload_factor=params.workload_factor * value)
    if spec.axis == "stations":
        return replace(out, num_stations=int(value))
    if spec.axis == "apps":
        return replace(out, num_apps=int(value))
    raise MalformedInput(f"unknown axis {spec.axis!r}")


def _solve_cell(args) -> dict:
    spec, params, value, rep, algorithm = args
    scenario = generate_scenario(_cell_params(spec, params, value, rep))
    pgd = PgdParams(theta0=spec.theta0)
    row = {"axis": spec.axis, "value": value, "repetition": rep,
           "algorithm": algorithm, "total_delay_s": None, "avg_delay_s": None,
           "feasible": False, "rounds": 0, "wall_time_s": 0.0}
    try:
        if algorithm == "proposed":
            rep_ = alternating_solve(scenario, spec.rounds, spec.caching_iters,
                                     spec.scheduling_iters, pgd)
        elif algorithm == "greedy":
            rep_ = solve_greedy(scenario)
        elif algorithm == "nor":
            rep_ = solve_nor(scenario, spec.rounds, spec.caching_iters,
                             spec.scheduling_iters, pgd)
        elif algorithm == "noc":
            rep_ = solve_noc(scenario, spec.rounds, spec.caching_iters,
                             spec.scheduling_iters, pgd)
        else:
            raise MalformedInput(f"unknown algorithm {algorithm!r}")
    except Infeasible:
        return row
    row["total_delay_s"] = rep_.final_objective
    row["avg_delay_s"] = rep_.final_objective / scenario.num_stations
    row["feasible"] = rep_.feasible
    row["rounds"] = rep_.rounds_completed
    row["wall_time_s"] = rep_.wall_time_s
    return row


def run_sweep(spec: SweepSpec, params: GeneratorParams) -> list[dict]:
    """All cells of a sweep, ordered by (value, repetition, algorithm).

    Infeasible cells come back tagged (feasible False, empty delays) rather
    than failing the sweep; a solve whose decision fails model.validate
    keeps its delays with feasible False.  CEC_REUSE_THREADS > 1 runs cells in worker
    processes; the row order does not depend on it.
    """
    if not spec.values:
        raise MalformedInput("sweep needs at least one axis value")
    cells = [(spec, params, value, rep, alg)
             for value in spec.values
             for rep in range(spec.repetitions)
             for alg in spec.algorithms]
    threads = os.environ.get("CEC_REUSE_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError as exc:
        raise MalformedInput(f"CEC_REUSE_THREADS={threads!r} is not an integer") from exc
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_solve_cell, cells))
    return [_solve_cell(c) for c in cells]


def save_sweep_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([
                row["axis"], row["value"], row["repetition"], row["algorithm"],
                "" if row["total_delay_s"] is None else repr(row["total_delay_s"]),
                "" if row["avg_delay_s"] is None else repr(row["avg_delay_s"]),
                "true" if row["feasible"] else "false",
                row["rounds"], repr(row["wall_time_s"]),
            ])


def load_sweep_csv(path: str) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if tuple(reader.fieldnames) != SWEEP_HEADER:
                raise MalformedInput(f"unexpected sweep header {reader.fieldnames}")
            for rec in reader:
                rows.append({
                    "axis": rec["axis"],
                    "value": float(rec["value"]),
                    "repetition": int(rec["repetition"]),
                    "algorithm": rec["algorithm"],
                    "total_delay_s": (None if rec["total_delay_s"] == ""
                                      else float(rec["total_delay_s"])),
                    "avg_delay_s": (None if rec["avg_delay_s"] == ""
                                    else float(rec["avg_delay_s"])),
                    "feasible": rec["feasible"] == "true",
                    "rounds": int(rec["rounds"]),
                    "wall_time_s": float(rec["wall_time_s"]),
                })
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad sweep file {path}: {exc}") from exc
    return rows
