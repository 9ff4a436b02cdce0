"""Network model: stations, applications, decision containers, feasibility.

Internal units are CPU cycles and cycles/s for work, bytes for storage and
seconds for time.  A scenario holds N base stations and A applications; each
application has a catalog of typical inputs whose results can be cached.

Decision variables:
  cache entries  x[a][n, k] in {0, 1}  result k of app a kept at station n
  search flags   y[a, n] in {0, 1}     station searches its cache for app a
  load fractions lam[a, n] in [0, 1]   share of app a's tasks sent to n
  cpu shares     fshare[a, n] in [0,1] share of station n's CPU given to a
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MalformedInput

# absolute tolerance on the two simplex equality constraints
EQUALITY_TOL = 1e-9
# slack on the [0, 1] ranges of lam and fshare, and of relaxed cache rows
BINARY_TOL = 1e-12


@dataclass(frozen=True)
class TypicalInput:
    """One cacheable result: how often fresh tasks match it, and its size."""

    match_prob: float
    result_size: float  # bytes


@dataclass(frozen=True)
class Application:
    weight: float           # relative importance in the objective
    mean_workload: float    # cycles per full computation
    typical_inputs: tuple[TypicalInput, ...]


@dataclass(frozen=True)
class BaseStation:
    compute_capacity: float        # cycles/s
    storage_capacity: float        # bytes
    transfer_delay: float          # s, one result transfer from a peer
    arrival_rates: tuple[float, ...]  # tasks/s per app


@dataclass(frozen=True)
class Scenario:
    stations: tuple[BaseStation, ...]
    apps: tuple[Application, ...]
    search_workload: float  # cycles to scan a local cache, shared by all apps

    def __post_init__(self):
        # every check is written so that NaN fails it; upper bounds of inf
        # reject infinities
        if not self.stations:
            raise MalformedInput("scenario needs at least one station")
        if not self.apps:
            raise MalformedInput("scenario needs at least one app")
        if not 0.0 <= self.search_workload < math.inf:
            raise MalformedInput("search workload must be finite and nonnegative")
        for n, st in enumerate(self.stations):
            if not 0.0 < st.compute_capacity < math.inf:
                raise MalformedInput(
                    f"station {n}: compute capacity must be finite and positive")
            if not 0.0 <= st.storage_capacity < math.inf:
                raise MalformedInput(
                    f"station {n}: storage capacity must be finite and nonnegative")
            if not 0.0 <= st.transfer_delay < math.inf:
                raise MalformedInput(
                    f"station {n}: transfer delay must be finite and nonnegative")
            if len(st.arrival_rates) != len(self.apps):
                raise DimensionMismatch(
                    f"station {n}: {len(st.arrival_rates)} arrival rates for "
                    f"{len(self.apps)} apps"
                )
            if not all(0.0 <= r < math.inf for r in st.arrival_rates):
                raise MalformedInput(
                    f"station {n}: arrival rates must be finite and nonnegative")
        for a, app in enumerate(self.apps):
            if not 0.0 <= app.weight < math.inf:
                raise MalformedInput(f"app {a}: weight must be finite and nonnegative")
            if not 0.0 < app.mean_workload < math.inf:
                raise MalformedInput(f"app {a}: mean workload must be finite and positive")
            total_p = 0.0
            for k, ti in enumerate(app.typical_inputs):
                if not 0.0 <= ti.match_prob <= 1.0:
                    raise MalformedInput(f"app {a} input {k}: match prob outside [0, 1]")
                if not 0.0 < ti.result_size < math.inf:
                    raise MalformedInput(
                        f"app {a} input {k}: result size must be finite and positive")
                total_p += ti.match_prob
            if total_p > 1.0 + 1e-12:
                raise MalformedInput(f"app {a}: match probabilities sum to {total_p} > 1")

    # -- cached array views ------------------------------------------------

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    @property
    def num_apps(self) -> int:
        return len(self.apps)

    @cached_property
    def compute_capacities(self) -> np.ndarray:
        v = np.array([st.compute_capacity for st in self.stations], dtype=np.float64)
        v.setflags(write=False)
        return v

    @cached_property
    def storage_capacities(self) -> np.ndarray:
        v = np.array([st.storage_capacity for st in self.stations], dtype=np.float64)
        v.setflags(write=False)
        return v

    @cached_property
    def transfer_delays(self) -> np.ndarray:
        v = np.array([st.transfer_delay for st in self.stations], dtype=np.float64)
        v.setflags(write=False)
        return v

    @cached_property
    def arrival_rate_matrix(self) -> np.ndarray:
        """Shape (A, N): tasks/s of app a arriving at station n."""
        v = np.array(
            [[st.arrival_rates[a] for st in self.stations] for a in range(self.num_apps)],
            dtype=np.float64,
        )
        v.setflags(write=False)
        return v

    @cached_property
    def total_rates(self) -> np.ndarray:
        v = self.arrival_rate_matrix.sum(axis=1)
        v.setflags(write=False)
        return v

    @cached_property
    def weights(self) -> np.ndarray:
        v = np.array([app.weight for app in self.apps], dtype=np.float64)
        v.setflags(write=False)
        return v

    @cached_property
    def workloads(self) -> np.ndarray:
        v = np.array([app.mean_workload for app in self.apps], dtype=np.float64)
        v.setflags(write=False)
        return v

    @cached_property
    def match_probs(self) -> tuple[np.ndarray, ...]:
        out = []
        for app in self.apps:
            v = np.array([ti.match_prob for ti in app.typical_inputs], dtype=np.float64)
            v.setflags(write=False)
            out.append(v)
        return tuple(out)

    @cached_property
    def result_sizes(self) -> tuple[np.ndarray, ...]:
        out = []
        for app in self.apps:
            v = np.array([ti.result_size for ti in app.typical_inputs], dtype=np.float64)
            v.setflags(write=False)
            out.append(v)
        return tuple(out)

    @cached_property
    def densities(self) -> tuple[np.ndarray, ...]:
        """Per app, the match probability per byte p/s of every input."""
        out = []
        for p, s in zip(self.match_probs, self.result_sizes):
            v = p / s
            v.setflags(write=False)
            out.append(v)
        return tuple(out)

    @cached_property
    def density_orders(self) -> tuple[np.ndarray, ...]:
        """Per app, input indices by density descending, index ascending."""
        out = []
        for ratio in self.densities:
            v = np.argsort(-ratio, kind="stable")
            v.setflags(write=False)
            out.append(v)
        return tuple(out)

    def catalog_size(self, a: int) -> int:
        return len(self.apps[a].typical_inputs)

    def share_catalogs(self, source: "Scenario", apps: list[int]) -> None:
        """Take the per-input arrays of this scenario's apps from the apps
        ``apps`` of ``source``, whose typical inputs they hold, so that the
        two scenarios keep one copy of them."""
        if len(apps) != self.num_apps or any(
                mine.typical_inputs is not source.apps[a].typical_inputs
                for mine, a in zip(self.apps, apps)):
            raise DimensionMismatch("the apps do not hold the source's inputs")
        for name in ("match_probs", "result_sizes", "densities",
                     "density_orders"):
            self.__dict__[name] = tuple(getattr(source, name)[a] for a in apps)


@dataclass(frozen=True, eq=False)
class ScenarioStack:
    """Scenarios that share their apps' workloads, the search workload and
    their station count, stacked on a leading problem axis.

    It carries the array views the delay formulas read, each with the
    problem axis first, and shares the rest.  The formulas index these with
    ``[..., None, :]``-style broadcasts, so a stack passes where a scenario
    does and evaluates each problem as that problem evaluates alone.
    """

    compute_capacities: np.ndarray    # (S, N)
    transfer_delays: np.ndarray       # (S, N)
    arrival_rate_matrix: np.ndarray   # (S, A, N)
    total_rates: np.ndarray           # (S, A)
    weights: np.ndarray               # (S, A)
    workloads: np.ndarray             # (A,), shared
    search_workload: float            # shared

    @classmethod
    def of(cls, scenarios: list[Scenario]) -> "ScenarioStack":
        first = scenarios[0]
        for sc in scenarios:
            if not (sc.num_stations == first.num_stations
                    and np.array_equal(sc.workloads, first.workloads)
                    and sc.search_workload == first.search_workload):
                raise DimensionMismatch("stacked scenarios must share their "
                                        "workloads and station count")
        return cls(*(np.stack([getattr(sc, name) for sc in scenarios])
                     for name in _STACKED),
                   first.workloads, first.search_workload)

    def __len__(self) -> int:
        return len(self.weights)

    def take(self, idx) -> "ScenarioStack":
        """The stack of the problems at positions ``idx``."""
        return ScenarioStack(*(getattr(self, name)[idx] for name in _STACKED),
                             self.workloads, self.search_workload)


_STACKED = ("compute_capacities", "transfer_delays", "arrival_rate_matrix",
            "total_rates", "weights")


# -- decision containers ---------------------------------------------------


class CacheAssignment:
    """Per-app cache matrices x[a] of shape (N, K_a) with entries 0 or 1.

    Any other entry, NaN and infinities included, is MalformedInput.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: list[np.ndarray]):
        self.entries = [np.asarray(x, dtype=np.float64) for x in entries]
        for a, x in enumerate(self.entries):
            if x.ndim != 2:
                raise DimensionMismatch(f"app {a}: cache matrix must be 2-D")
            # written so that NaN fails it
            if not np.all((x == 0.0) | (x == 1.0)):
                raise MalformedInput(f"app {a}: cache entries not binary")

    @classmethod
    def zeros(cls, scenario: Scenario) -> "CacheAssignment":
        return cls([np.zeros((scenario.num_stations, scenario.catalog_size(a)))
                    for a in range(scenario.num_apps)])

    def with_station(self, n: int,
                     station_rows: list[np.ndarray]) -> "CacheAssignment":
        """New assignment with station n's row replaced in every app matrix."""
        new = [x.copy() for x in self.entries]
        for a, row in enumerate(station_rows):
            if row.shape != (new[a].shape[1],):
                raise DimensionMismatch(f"app {a}: station row has wrong length")
            new[a][n, :] = row
        return CacheAssignment(new)


@dataclass
class SchedulingState:
    """Workload fractions, CPU shares and cache-search flags, all (A, N)."""

    lam: np.ndarray              # load fractions, rows sum to 1 per app
    fshare: np.ndarray           # cpu shares, columns sum to 1 per station
    y: np.ndarray                # search flags in {0, 1}

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=np.float64)
        self.fshare = np.asarray(self.fshare, dtype=np.float64)
        if not (np.isfinite(self.lam).all() and np.isfinite(self.fshare).all()
                and np.isfinite(np.asarray(self.y, dtype=np.float64)).all()):
            raise MalformedInput("lam, fshare and y must be finite")
        self.y = np.asarray(self.y, dtype=np.int8)
        if not (self.lam.shape == self.fshare.shape == self.y.shape):
            raise DimensionMismatch("lam, fshare and y must share the (A, N) shape")

    def copy(self) -> "SchedulingState":
        return SchedulingState(self.lam.copy(), self.fshare.copy(), self.y.copy())

    def cpu_speeds(self, scenario: Scenario) -> np.ndarray:
        """Absolute CPU speed (cycles/s) per (app, station)."""
        return self.fshare * scenario.compute_capacities[None, :]


@dataclass(frozen=True)
class HitRateTable:
    """Hit-rate summary for one cache assignment.

    ``local[a, n]``    probability a task of app a hits station n's own cache
    ``neighbor[a, n]`` probability it misses locally but some peer caches it
    ``total[a]``       probability the result is cached somewhere;
                       total = local + neighbor at every station
    """

    local: np.ndarray
    neighbor: np.ndarray
    total: np.ndarray


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """u @ v for 1-D arrays, summed in one fixed order.

    BLAS splits a long dot product over its threads, so its last bit
    depends on the thread count; einsum's own loop does not.
    """
    return float(np.einsum("i,i->", u, v))


def cached_mass(p: np.ndarray, counts: np.ndarray) -> float:
    """Match probability of the inputs that some station caches, given the
    per-input count (column sum) of one app's cache matrix."""
    return dot(p, (counts > 0.0).astype(np.float64))


def compute_hit_rates(scenario: Scenario, cache: CacheAssignment) -> HitRateTable:
    """Local, neighbor and total hit rates for every (app, station).

    Each station's local rate is dot(row, p) and the total comes from the
    column counts through cached_mass; the caching sweep updates its tables
    with the same two reductions, so both agree bit for bit.  Entries are
    binary, so neighbor = total - local.
    """
    if len(cache.entries) != scenario.num_apps:
        raise DimensionMismatch("cache has wrong number of apps")
    nst = scenario.num_stations
    local = np.zeros((scenario.num_apps, nst))
    total = np.zeros(scenario.num_apps)
    for a in range(scenario.num_apps):
        x = cache.entries[a]
        if x.shape != (nst, scenario.catalog_size(a)):
            raise DimensionMismatch(f"app {a}: cache matrix shape {x.shape}")
        p = scenario.match_probs[a]
        counts = x.sum(axis=0)
        total[a] = cached_mass(p, counts)
        local[a] = [dot(row, p) for row in x]
    neighbor = total[:, None] - local
    local.setflags(write=False)
    neighbor.setflags(write=False)
    total.setflags(write=False)
    return HitRateTable(local=local, neighbor=neighbor, total=total)


def rows_storage(scenario: Scenario, rows: list[np.ndarray]) -> float:
    """Bytes one station's rows (one per app) occupy; fractional entries
    count pro rata."""
    used = 0.0
    for a, row in enumerate(rows):
        used += dot(row, scenario.result_sizes[a])
    return used


def storage_used(scenario: Scenario, cache: CacheAssignment, n: int) -> float:
    """Bytes occupied at station n."""
    return rows_storage(scenario, [x[n] for x in cache.entries])


# -- feasibility -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One violated constraint; ``magnitude`` is in the constraint's units.

    range: the offending value (for cache rows, its largest |x - 0.5|);
    storage: bytes over capacity; workload_sum/cpu_sum: the row or column
    sum minus 1; stability: load E[S] - f of the selected service branch,
    the cycles/s by which the queue is overloaded (0 on the boundary).
    """

    constraint: str          # storage | workload_sum | cpu_sum | stability | range
    app: int | None
    station: int | None
    magnitude: float


def validate(scenario: Scenario, cache: CacheAssignment,
             sched: SchedulingState) -> list[Violation]:
    """All constraint violations of a candidate decision, empty if feasible.

    Checks storage capacities, the two simplex equalities, variable ranges,
    binary flags, and strict queue stability of the selected service branch
    at every queue that is not idle, by the test the objective applies.
    """
    out: list[Violation] = []
    A, N = scenario.num_apps, scenario.num_stations
    if sched.lam.shape != (A, N):
        raise DimensionMismatch("scheduling state has wrong shape")

    for a in range(A):
        x = cache.entries[a]
        # rows written in place after construction are checked again
        bad = (x != 0.0) & (x != 1.0)
        for n in np.unique(np.nonzero(bad)[0]):
            out.append(Violation("range", a, int(n), float(np.max(np.abs(x[n] - 0.5)))))

    for n in range(N):
        used = storage_used(scenario, cache, n)
        cap = scenario.storage_capacities[n]
        if used > cap + 1e-6:  # bytes; sub-byte slack only
            out.append(Violation("storage", None, n, used - cap))

    for arr, lo, hi, tag in ((sched.lam, 0.0, 1.0, "range"), (sched.fshare, 0.0, 1.0, "range")):
        bad = (arr < lo - BINARY_TOL) | (arr > hi + BINARY_TOL)
        for a, n in zip(*np.nonzero(bad)):
            out.append(Violation(tag, int(a), int(n), float(arr[a, n])))
    bad_y = (sched.y != 0) & (sched.y != 1)
    for a, n in zip(*np.nonzero(bad_y)):
        out.append(Violation("range", int(a), int(n), float(sched.y[a, n])))

    row_sums = sched.lam.sum(axis=1)
    for a in range(A):
        if abs(row_sums[a] - 1.0) > EQUALITY_TOL:
            out.append(Violation("workload_sum", a, None, float(row_sums[a] - 1.0)))
    col_sums = sched.fshare.sum(axis=0)
    for n in range(N):
        if abs(col_sums[n] - 1.0) > EQUALITY_TOL:
            out.append(Violation("cpu_sum", None, n, float(col_sums[n] - 1.0)))

    from .delay import selected_stability  # delay imports this module
    stable, slack = selected_stability(scenario,
                                       compute_hit_rates(scenario, cache).total,
                                       sched.lam, sched.fshare, sched.y)
    for a, n in zip(*np.nonzero(~stable)):
        out.append(Violation("stability", int(a), int(n), float(-slack[a, n])))
    return out


# -- JSON schema -----------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "search_workload_cycles": scenario.search_workload,
        "stations": [
            {
                "compute_capacity_hz": st.compute_capacity,
                "storage_capacity_bytes": st.storage_capacity,
                "transfer_delay_s": st.transfer_delay,
                "arrival_rates": list(st.arrival_rates),
            }
            for st in scenario.stations
        ],
        "apps": [
            {
                "weight": app.weight,
                "mean_workload_cycles": app.mean_workload,
                "typical_inputs": [
                    {"match_prob": ti.match_prob, "result_size_bytes": ti.result_size}
                    for ti in app.typical_inputs
                ],
            }
            for app in scenario.apps
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    try:
        stations = tuple(
            BaseStation(
                compute_capacity=float(st["compute_capacity_hz"]),
                storage_capacity=float(st["storage_capacity_bytes"]),
                transfer_delay=float(st["transfer_delay_s"]),
                arrival_rates=tuple(float(r) for r in st["arrival_rates"]),
            )
            for st in data["stations"]
        )
        apps = tuple(
            Application(
                weight=float(app["weight"]),
                mean_workload=float(app["mean_workload_cycles"]),
                typical_inputs=tuple(
                    TypicalInput(
                        match_prob=float(ti["match_prob"]),
                        result_size=float(ti["result_size_bytes"]),
                    )
                    for ti in app["typical_inputs"]
                ),
            )
            for app in data["apps"]
        )
        return Scenario(
            stations=stations,
            apps=apps,
            search_workload=float(data["search_workload_cycles"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad scenario document: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc
    return scenario_from_dict(doc)
