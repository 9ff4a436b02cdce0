"""Single-server FCFS queue simulation against the analytic delay forms.

Arrivals are Poisson; service times follow the two-branch model: without
cache searching the service is an exponential workload over the CPU speed
(M/M/1), with searching every task pays the deterministic search workload
and with probability P_hr skips computation entirely (M/G/1 with an atom at
w^s / f).  Waits follow the Lindley recursion, and the mean sojourn is
taken over the post-warmup tasks.  The analytic means and the stability
check come from delay.branch_delays, the formula the solver uses.

RNG: numpy PCG64 seeded through SeedSequence, exponentials via inverse CDF,
draws in the fixed order interarrivals, hit indicators, workloads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay import branch_delays
from .errors import MalformedInput, StabilityViolation, UnstableConfig


@dataclass(frozen=True)
class QueueSimConfig:
    """One (app, station) queue in isolation."""
    arrival_rate: float          # tasks/s
    cpu: float                   # cycles/s
    app_workload: float          # w^a, cycles
    search_workload: float       # w^s, cycles
    hit_rate: float              # P_hr
    mode: str                    # "no_cache" | "with_cache"
    num_tasks: int               # the first 10% are warm-up, not counted
    rng_seed: int = 0


@dataclass(frozen=True)
class SimResult:
    mean_sojourn: float
    tasks_counted: int


def _draw_services(cfg: QueueSimConfig, rng: np.random.Generator,
                   n: int) -> np.ndarray:
    if cfg.mode == "with_cache":
        hits = rng.random(n) < cfg.hit_rate
    else:
        hits = np.zeros(n, dtype=bool)
    workloads = -cfg.app_workload * np.log1p(-rng.random(n))
    if cfg.mode == "no_cache":
        return workloads / cfg.cpu
    cycles = cfg.search_workload + np.where(hits, 0.0, workloads)
    return cycles / cfg.cpu


def _lindley_waits(interarrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """FIFO waits W_i = max(0, W_{i-1} + S_{i-1} - T_i), W_0 = 0, in closed form.

    With U_0 = 0 and U_i = sum_{k<=i} (S_{k-1} - T_k), W_i = U_i - min_{k<=i} U_k.
    ``interarrivals[i]`` is T_i, the gap before arrival i (index 0 unused);
    it is overwritten with U, so the only new array is the result.
    """
    u = interarrivals
    u[0] = 0.0
    np.subtract(services[:-1], u[1:], out=u[1:])
    np.cumsum(u, out=u)
    waits = np.minimum.accumulate(u)
    np.subtract(u, waits, out=waits)
    return waits


def simulate(cfg: QueueSimConfig) -> SimResult:
    """Mean sojourn time over the tasks after the warm-up.

    A zero arrival rate injects a single task whose sojourn is exactly its
    service time (no queueing).
    """
    if cfg.mode not in ("no_cache", "with_cache"):
        raise MalformedInput(f"unknown mode {cfg.mode!r}")
    if not 0.0 <= cfg.hit_rate <= 1.0:
        raise MalformedInput("hit rate outside [0, 1]")
    # written so that NaN fails every check
    if not (0.0 <= cfg.arrival_rate < math.inf and 0.0 < cfg.cpu < math.inf
            and 0.0 < cfg.app_workload < math.inf
            and 0.0 <= cfg.search_workload < math.inf):
        raise MalformedInput("arrival rate, cpu and workloads must be finite; "
                             "cpu and app workload positive, the rest nonnegative")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.rng_seed)))

    if cfg.arrival_rate == 0.0:
        service = float(_draw_services(cfg, rng, 1)[0])
        return SimResult(mean_sojourn=service, tasks_counted=1)

    if not _branch(cfg)[0]:
        raise UnstableConfig("utilization at or above 1")
    if not cfg.num_tasks >= 1:
        raise MalformedInput("need at least one task")

    n = cfg.num_tasks
    interarrivals = -np.log1p(-rng.random(n)) / cfg.arrival_rate
    services = _draw_services(cfg, rng, n)
    sojourns = _lindley_waits(interarrivals, services)
    sojourns += services

    counted = sojourns[n // 10:]
    return SimResult(mean_sojourn=float(counted.mean()),
                     tasks_counted=int(counted.size))


def _branch(cfg: QueueSimConfig) -> tuple[bool, float]:
    """(stable, analytic mean sojourn) of the configured branch."""
    b = branch_delays(cfg.cpu, cfg.arrival_rate, cfg.app_workload,
                      cfg.search_workload, cfg.hit_rate)
    return (b.ok0, b.d0) if cfg.mode == "no_cache" else (b.ok1, b.d1)


def analytic_mean(cfg: QueueSimConfig) -> float:
    """Closed-form mean sojourn for the configured branch."""
    ok, delay = _branch(cfg)
    if not ok:
        raise StabilityViolation(
            f"load {cfg.arrival_rate} at or above the {cfg.mode} service rate")
    return float(delay)
