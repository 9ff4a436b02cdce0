"""Seeded scenario generation and the three result sweeps.

Scenarios draw every quantity from its distribution (capacities and
transfer delays per station, catalog size, workload, match probabilities,
result sizes and arrival rates per app).  Every quantity gets its own
sub-stream of one seed, so adding stations or apps extends the draws
without disturbing the ones already made: the first 5 stations of an
N=10 scenario are exactly the stations of the N=5 scenario, and the
first 2 apps of an A=5 scenario are the apps of the A=2 scenario.  That
coupling is what makes the axis sweeps smooth at small repetition counts.

The per-station total arrival mass is drawn as a sum of REFERENCE_APPS
independent rate draws (the same law as summing i.i.d. per-app rates),
from a stream independent of the actual app count; per-app rates are
rescaled so each station's total equals its drawn target.  Offered load
is therefore constant when sweeping the app count.

App weights are the per-app total arrival rates, so the reported
objective is the traffic-weighted total delay, i.e. the expected number
of in-flight tasks.  That total scales additively with the station
count, which is what makes "total / N" a meaningful average when
sweeping the number of stations.

Desk-scale defaults: catalog sizes are scaled down by k_scale with match
probabilities scaled up by 1/k_scale (expected hit mass preserved) and
storage capacities scaled by k_scale (storage-to-catalog ratio, hence
caching pressure, preserved); k_scale=1 reproduces the full-size
distributions.  The distribution bounds are module constants: the sweeps
vary only the seed, the station and app counts, the workload factor and
k_scale.  At workload factor 1 the qualitative regime contrasts
(single-station saturation under load growth, reuse-vs-caching crossover)
appear within the sweep range {0.5 .. 1.5}.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import CecReuseError, MalformedInput
from .model import Application, BaseStation, Scenario
from .scheduling import PgdParams
from .solver import ALGORITHMS, ROUND_CAP, check_rounds, solve

SWEEP_HEADER = ("axis", "value", "repetition", "algorithm", "total_delay_s",
                "avg_delay_s", "feasible", "rounds", "wall_time_s")

AXES = ("workload", "stations", "apps")

COMPUTE_LO, COMPUTE_HI = 2e9, 8e9          # cycles/s
STORAGE_LO, STORAGE_HI = 2e9, 8e9          # bytes, scaled by k_scale
CATALOG_LO, CATALOG_HI = 10_000, 50_000    # inputs per app, scaled by k_scale
WORKLOAD_LO, WORKLOAD_HI = 2e8, 6e8        # cycles per task
SEARCH_WORKLOAD = 25e6                     # cycles
RATE_LO, RATE_HI = 0.5, 1.5                # tasks/s per (app, station)
MATCH_LO, MATCH_HI = 1.2e-5, 3.6e-5        # per input, scaled by 1/k_scale
TRANSFER_LO, TRANSFER_HI = 0.010, 0.030    # seconds
SIZE_MEAN, SIZE_SD, SIZE_MIN = 1e5, 3e4, 1e4   # result bytes
REFERENCE_APPS = 5                         # app count anchoring per-station totals
MAX_MATCH_SUM = 0.95                       # cap on an app's total match probability
MAX_CATALOG = 1_000_000                    # largest per-app catalog, 20x paper scale


@dataclass(frozen=True)
class GeneratorParams:
    """The seed and the sweep knobs; every distribution bound is a constant."""
    seed: int = 42
    num_stations: int = 10
    num_apps: int = 5
    workload_factor: float = 1.0     # multiplier on every arrival rate
    k_scale: float = 0.01            # desk-scale catalog/storage factor


@dataclass(frozen=True)
class SweepSpec:
    """One axis sweep: values x repetitions x algorithms."""
    axis: str
    values: tuple
    repetitions: int = 3
    algorithms: tuple = ALGORITHMS
    rounds: int = ROUND_CAP
    theta0: float = PgdParams().theta0


def _check_params(p: GeneratorParams) -> None:
    # written so that NaN fails every check
    if not (0.0 < p.workload_factor < math.inf and 0.0 < p.k_scale < math.inf):
        raise MalformedInput("workload_factor and k_scale must be positive and finite")
    if CATALOG_HI * p.k_scale > MAX_CATALOG:
        raise MalformedInput(f"k_scale {p.k_scale!r} allows catalogs above "
                             f"{MAX_CATALOG} inputs per app")
    if not all(isinstance(v, (int, np.integer)) and v >= 1
               for v in (p.num_stations, p.num_apps)):
        raise MalformedInput("station and app counts must be integers >= 1")
    if not (isinstance(p.seed, (int, np.integer)) and p.seed >= 0):
        raise MalformedInput(f"seed must be an integer >= 0, got {p.seed!r}")


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
    compute = cap_rng.uniform(COMPUTE_LO, COMPUTE_HI, N)
    storage = stor_rng.uniform(STORAGE_LO, STORAGE_HI, N) * p.k_scale
    transfer = dt_rng.uniform(TRANSFER_LO, TRANSFER_HI, N)
    # sum of REFERENCE_APPS i.i.d. rate draws: the same law as total i.i.d.
    # per-app arrivals, but drawn independently of the actual app count
    totals = (tot_rng.uniform(RATE_LO, RATE_HI, (N, REFERENCE_APPS))
              .sum(axis=1) * p.workload_factor)

    workloads = np.empty(A)
    rate_rows = np.empty((A, N))
    catalogs: list[np.ndarray] = []
    for a_ss in app_ss.spawn(A):
        # per-app sub-streams: catalog draws stay fixed across N, rate
        # draws stay fixed across the catalog size
        cat_rng, rate_rng = (np.random.Generator(np.random.PCG64(s))
                             for s in a_ss.spawn(2))
        a = len(catalogs)
        k = max(1, int(round(cat_rng.uniform(CATALOG_LO, CATALOG_HI)
                             * p.k_scale)))
        workloads[a] = cat_rng.uniform(WORKLOAD_LO, WORKLOAD_HI)
        match = cat_rng.uniform(MATCH_LO, MATCH_HI, k) / p.k_scale
        sizes = np.maximum(cat_rng.normal(SIZE_MEAN, SIZE_SD, k), SIZE_MIN)
        rate_rows[a] = rate_rng.uniform(RATE_LO, RATE_HI, N)
        total_match = match.sum()
        if total_match > MAX_MATCH_SUM:
            match = match * (MAX_MATCH_SUM / total_match)
        catalogs.append(np.column_stack((match, sizes)))
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
        Application(weight=float(rate_rows[a].sum()),
                    mean_workload=float(workloads[a]),
                    typical_inputs=catalogs[a])
        for a in range(A))
    return Scenario(stations=stations, apps=apps,
                    search_workload=SEARCH_WORKLOAD)


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
    row = {"axis": spec.axis, "value": value, "repetition": rep,
           "algorithm": algorithm, "total_delay_s": None, "avg_delay_s": None,
           "feasible": False, "rounds": 0, "wall_time_s": 0.0}
    try:
        rep_ = solve(scenario, algorithm, spec.rounds,
                     PgdParams(theta0=spec.theta0))
    except MalformedInput:
        raise
    except CecReuseError:
        # a solver failure in one cell (infeasible or unstable) leaves
        # that cell infeasible, not the sweep aborted
        return row
    row["total_delay_s"] = rep_.final_objective
    row["avg_delay_s"] = rep_.final_objective / scenario.num_stations
    row["feasible"] = rep_.feasible
    row["rounds"] = rep_.rounds_completed
    row["wall_time_s"] = rep_.wall_time_s
    return row


def check_sweep(spec: SweepSpec, params: GeneratorParams) -> int:
    """Check every setting a cell reads, before any cell runs: axis values,
    repetitions and known algorithms, the round cap and theta0, the
    generator parameters at every value and CEC_REUSE_THREADS; any bad one
    is MalformedInput.  Returns the number of worker processes."""
    if not spec.values:
        raise MalformedInput("sweep needs at least one axis value")
    if not spec.repetitions >= 1:
        raise MalformedInput("sweep needs at least one repetition")
    if not spec.algorithms or not set(spec.algorithms) <= set(ALGORITHMS):
        raise MalformedInput(f"sweep needs algorithms among {', '.join(ALGORITHMS)}"
                             f", got {','.join(spec.algorithms)!r}")
    check_rounds(spec.rounds)
    PgdParams(theta0=spec.theta0)
    for value in spec.values:
        _check_params(_cell_params(spec, params, value, 0))
    threads = os.environ.get("CEC_REUSE_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        raise MalformedInput(f"CEC_REUSE_THREADS={threads!r} is not an integer >= 1")
    return workers


def run_sweep(spec: SweepSpec, params: GeneratorParams) -> list[dict]:
    """All cells of a sweep, ordered by (value, repetition, algorithm).

    Cells whose solve raises a solver error (Infeasible,
    StabilityViolation, ...) come back tagged (feasible False, empty
    delays) rather than failing the sweep; MalformedInput still propagates.
    A solve whose decision fails model.validate keeps its delays with
    feasible False.  CEC_REUSE_THREADS (an integer, at least 1) sets the
    number of worker processes the cells run in; the row order does not
    depend on it.
    """
    workers = check_sweep(spec, params)
    cells = [(spec, params, value, rep, alg)
             for value in spec.values
             for rep in range(spec.repetitions)
             for alg in spec.algorithms]
    if workers > 1 and len(cells) > 1:
        # imported here: it loads multiprocessing and socket, which a
        # single-process run never needs
        from concurrent.futures import ProcessPoolExecutor
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
