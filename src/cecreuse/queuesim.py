"""Single-server FCFS queue simulation against the analytic delay forms.

Arrivals are Poisson; service times follow the two-branch model: without
cache searching the service is an exponential workload over the CPU speed
(M/M/1), with searching every task pays the deterministic search workload
and with probability P_hr skips computation entirely (M/G/1 with an atom at
w^s / f).  Waits follow the Lindley recursion, and the mean sojourn is
taken over the post-warmup tasks.  The analytic means and the stability
check come from delay.branch_delays, the formula the solver uses.

RNG: numpy PCG64 seeded through SeedSequence, exponentials via inverse CDF.
The n tasks' draws are three consecutive stretches of that one stream, in
the fixed order interarrivals, hit indicators (with searching only),
workloads; ``Generator.random`` takes one 64-bit output per double, so each
stretch is its own generator, advanced to offset 0, n and n or 2n.

The tasks are simulated in blocks of ``BLOCK``: each block draws into
preallocated buffers and runs the Lindley recursion in closed form, carrying
three values to the next block (U, its running minimum and the last service
time).  The counted sojourns fill one array of n - n//10, the only
allocation that grows with n, and their mean is taken over it whole, so the
result does not depend on the block size, bit for bit.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .delay import branch_delays
from .errors import MalformedInput, StabilityViolation, UnstableConfig

BLOCK = 1 << 15  # tasks per block
# a thousand times the 10**6 tasks the CLI and the benchmark simulate: the
# counted sojourns of this many tasks take 7.2 GB and about 30 s on one core
# of a 2-vCPU host, so a larger count is a mistake, not a request to serve
MAX_TASKS = 10 ** 9


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


def _checked(cfg: QueueSimConfig) -> QueueSimConfig:
    """``cfg`` with its task count and seed as ints and its rates and
    workloads as floats; MalformedInput naming the first field of the wrong
    type or range."""
    if cfg.mode not in ("no_cache", "with_cache"):
        raise MalformedInput(f"unknown mode {cfg.mode!r}")
    fields = {}
    for field in ("num_tasks", "rng_seed"):
        value = getattr(cfg, field)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise MalformedInput(f"{field} must be an integer, "
                                 f"not {type(value).__name__}")
        fields[field] = int(value)
    for field in ("arrival_rate", "cpu", "app_workload", "search_workload",
                  "hit_rate"):
        value = getattr(cfg, field)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise MalformedInput(f"{field} must be a number, "
                                 f"not {type(value).__name__}")
        try:
            fields[field] = float(value)
        except OverflowError:
            raise MalformedInput(f"{field} must be finite") from None
    cfg = replace(cfg, **fields)
    if cfg.rng_seed < 0:
        raise MalformedInput("rng_seed must be nonnegative")
    if cfg.num_tasks > MAX_TASKS:
        raise MalformedInput(f"num_tasks must be at most {MAX_TASKS}")
    if not 0.0 <= cfg.hit_rate <= 1.0:
        raise MalformedInput("hit rate outside [0, 1]")
    # written so that NaN fails every check
    if not (0.0 <= cfg.arrival_rate < math.inf and 0.0 < cfg.cpu < math.inf
            and 0.0 < cfg.app_workload < math.inf
            and 0.0 <= cfg.search_workload < math.inf):
        raise MalformedInput("arrival rate, cpu and workloads must be finite; "
                             "cpu and app workload positive, the rest nonnegative")
    return cfg


def _stream(seq: np.random.SeedSequence, offset: int) -> np.random.Generator:
    """The seed's PCG64 stream from its ``offset``-th 64-bit output on."""
    return np.random.Generator(np.random.PCG64(seq).advance(offset))


def _services(cfg: QueueSimConfig, hit_rng: np.random.Generator,
              work_rng: np.random.Generator, out: np.ndarray,
              hit: np.ndarray) -> None:
    """Fill ``out`` with service times (s): with searching, each task's hit
    indicator from ``hit_rng`` (into the bool buffer ``hit``), then each
    task's exponential workload from ``work_rng``."""
    if cfg.mode == "with_cache":
        hit_rng.random(out=out)
        np.less(out, cfg.hit_rate, out=hit)
    work_rng.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.multiply(out, -cfg.app_workload, out=out)
    if cfg.mode == "with_cache":
        np.copyto(out, 0.0, where=hit)
        np.add(out, cfg.search_workload, out=out)
    np.divide(out, cfg.cpu, out=out)


def _waits(gaps: np.ndarray, services: np.ndarray, carry: tuple | None,
           u: np.ndarray, w: np.ndarray) -> tuple:
    """FIFO waits W_i = max(0, W_{i-1} + S_{i-1} - T_i) of one block of
    tasks, in closed form, into ``w[1:]``; returns the next block's carry.

    With U_i = sum_{k<=i} (S_{k-1} - T_k), W_i = U_i - min_{k<=i} U_k.
    ``gaps[j]`` is T of the block's task j, the gap before its arrival.
    ``carry`` is (U, min U, S) of the task before the block, or None for
    the first block, whose first task finds the queue empty (U_0 = 0).
    ``u`` and ``w`` hold one element more than the block: element 0 holds
    the carried U, then its running minimum, so the sequential ``cumsum``
    and ``minimum.accumulate`` go on from where the last block left off.
    """
    u_prev, min_prev, s_prev = carry or (0.0, 0.0, None)
    u[0] = u_prev
    u[1] = 0.0 if carry is None else s_prev - gaps[0]
    np.subtract(services[:-1], gaps[1:], out=u[2:])
    np.cumsum(u, out=u)
    u[0] = min_prev
    np.minimum.accumulate(u, out=w)
    carry = (u[-1], w[-1], services[-1])
    np.subtract(u, w, out=w)
    return carry


def simulate(cfg: QueueSimConfig) -> SimResult:
    """Mean sojourn time over the tasks after the warm-up.

    A zero arrival rate injects a single task whose sojourn is exactly its
    service time (no queueing).
    """
    cfg = _checked(cfg)
    seq = np.random.SeedSequence(cfg.rng_seed)

    if cfg.arrival_rate == 0.0:
        rng = _stream(seq, 0)
        service = np.empty(1)
        _services(cfg, rng, rng, service, np.empty(1, dtype=bool))
        return SimResult(mean_sojourn=float(service[0]), tasks_counted=1)

    if not _branch(cfg)[0]:
        raise UnstableConfig("utilization at or above 1")
    if not cfg.num_tasks >= 1:
        raise MalformedInput("need at least one task")

    n = cfg.num_tasks
    arrivals = _stream(seq, 0)
    hits = _stream(seq, n)
    works = _stream(seq, 2 * n if cfg.mode == "with_cache" else n)
    skip = n // 10
    counted = np.empty(n - skip)
    size = min(BLOCK, n)
    gaps, services = np.empty(size), np.empty(size)
    hit = np.empty(size, dtype=bool)
    u, w = np.empty(size + 1), np.empty(size + 1)
    carry = None
    for lo in range(0, n, size):
        k = min(size, n - lo)
        t, s = gaps[:k], services[:k]
        arrivals.random(out=t)
        np.negative(t, out=t)
        np.log1p(t, out=t)
        # -log1p(-r) / rate, bit for bit: IEEE division is symmetric in sign
        np.divide(t, -cfg.arrival_rate, out=t)
        _services(cfg, hits, works, s, hit[:k])
        carry = _waits(t, s, carry, u[:k + 1], w[:k + 1])
        first = max(lo, skip)
        if first < lo + k:
            np.add(w[first - lo + 1:k + 1], s[first - lo:],
                   out=counted[first - skip:lo + k - skip])
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
