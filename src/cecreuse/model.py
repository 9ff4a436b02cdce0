"""Network model: stations, applications, decision containers, feasibility.

Internal units are CPU cycles and cycles/s for work, bytes for storage and
seconds for time.  A scenario holds N base stations and A applications; each
application has a catalog of typical inputs whose results can be cached,
held as one (K_a, 2) array of match probabilities and result sizes.

The scenario's catalog is flat: app a's inputs are the positions
offsets[a]:offsets[a + 1] of the arrays p (match probabilities) and s
(result sizes), its catalog's two columns.

Decision variables:
  cache entries  x[n, k] in {0, 1}     flat input k kept at station n: one
                                       (N, K) matrix, app a's columns its view
  search flags   y[a, n] in {0, 1}     station searches its cache for app a
  load fractions lam[a, n] in [0, 1]   share of app a's tasks sent to n
  cpu shares     fshare[a, n] in [0,1] share of station n's CPU given to a
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MalformedInput

# absolute tolerance on the two simplex equality constraints
EQUALITY_TOL = 1e-9
# slack on the [0, 1] ranges of lam and fshare, and of relaxed cache rows
BINARY_TOL = 1e-12


@dataclass(frozen=True)
class Application:
    """An app and its catalog.  ``typical_inputs`` is given as any sequence
    of (match_prob, result_size) pairs and held as one read-only (K, 2)
    float64 array: row k is input k's match probability and result size in
    bytes.  Their values are checked by the Scenario, which knows the
    app's index."""

    weight: float           # relative importance in the objective
    mean_workload: float    # cycles per full computation
    typical_inputs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "typical_inputs", _catalog(self.typical_inputs))

    def __eq__(self, other):
        if not isinstance(other, Application):
            return NotImplemented
        return (self.weight == other.weight
                and self.mean_workload == other.mean_workload
                and np.array_equal(self.typical_inputs, other.typical_inputs))


_NOT_PAIRS = "typical inputs must be (match_prob, result_size) pairs"


def _catalog(inputs) -> np.ndarray:
    """``inputs`` as a read-only (K, 2) float64 array; one that is already
    so is taken as it is, and any other array is copied.  Entries are
    checked a column at a time: a str, a bool, None or any other value that
    is not a real number is MalformedInput naming its column, as is a
    sequence whose rows are not pairs."""
    if not (isinstance(inputs, np.ndarray) and inputs.dtype.kind in "fiu"):
        try:
            cells = np.array(inputs, dtype=object)
        except ValueError:  # rows nested to different depths
            raise MalformedInput(_NOT_PAIRS) from None
        if cells.shape == (0,):
            cells = cells.reshape(0, 2)
        if cells.ndim == 2 and cells.shape[1] == 2:
            for column, field in zip(cells.T, ("match_prob", "result_size")):
                _checked_numbers(column, field)
        inputs = cells
    if inputs.ndim != 2 or inputs.shape[1] != 2:
        raise MalformedInput(_NOT_PAIRS)
    if inputs.dtype != np.float64 or inputs.flags.writeable:
        try:
            inputs = _frozen(np.array(inputs, dtype=np.float64))
        except OverflowError:
            raise MalformedInput("typical inputs must be finite") from None
    return inputs


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
        self._check_fields()
        self._check_catalog()

    def _check_fields(self) -> None:
        """The station and app fields, O(N·A): each a real number (see
        _checked_numbers), then in range.  Every range check is written so
        that NaN fails it; upper bounds of inf reject infinities."""
        if not self.stations:
            raise MalformedInput("scenario needs at least one station")
        if not self.apps:
            raise MalformedInput("scenario needs at least one app")
        _checked_numbers([self.search_workload], "search_workload")
        for field in ("compute_capacity", "storage_capacity", "transfer_delay"):
            _checked_numbers([getattr(st, field) for st in self.stations], field)
        _checked_numbers([r for st in self.stations for r in st.arrival_rates],
                         "arrival_rates")
        for field in ("weight", "mean_workload"):
            _checked_numbers([getattr(app, field) for app in self.apps], field)
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
        max_capacity = max(st.compute_capacity for st in self.stations)
        for a, app in enumerate(self.apps):
            if not 0.0 <= app.weight < math.inf:
                raise MalformedInput(f"app {a}: weight must be finite and nonnegative")
            if not 0.0 < app.mean_workload < math.inf:
                raise MalformedInput(f"app {a}: mean workload must be finite and positive")
            # the solver divides capacities by workloads to get service rates
            if not math.isfinite(max_capacity / app.mean_workload):
                raise MalformedInput(
                    f"app {a}: mean_workload_cycles {app.mean_workload!r} is "
                    "too small: the largest compute capacity over it overflows")

    def _check_catalog(self) -> None:
        """Every typical input, O(K), app by app: its first bad input (match
        prob before size; NaN fails), then its match total in input order."""
        for a, (p, s) in enumerate(zip(self.match_probs, self.result_sizes)):
            bad_p = ~((p >= 0.0) & (p <= 1.0))
            bad = bad_p | ~((s > 0.0) & (s < math.inf))
            if bad.any():
                k = int(np.argmax(bad))
                raise MalformedInput(
                    f"app {a} input {k}: match prob outside [0, 1]" if bad_p[k]
                    else f"app {a} input {k}: result size must be finite and positive")
            total_p = float(prefix_sums(p)[-1])
            if total_p > 1.0 + 1e-12:
                raise MalformedInput(f"app {a}: match probabilities sum to {total_p} > 1")

    def isolated(self, n: int) -> "Scenario":
        """Station n alone: the apps with arrivals at n, each weighted by
        its share of arrivals there.  Only these derived fields are checked:
        the catalog arrays are this scenario's, per app, and flat too when
        every app is kept.  Otherwise ``p`` and ``s`` are built lazily, and
        the flat density order is this one's over the kept segments,
        renumbered: a stable sort keeps the relative order of the inputs
        it keeps, and the kept segments keep theirs."""
        rates = self.arrival_rate_matrix[:, n]
        kept = [a for a in range(self.num_apps) if rates[a] > 0.0]
        sub = object.__new__(Scenario)
        sub.__dict__.update(
            stations=(replace(self.stations[n], arrival_rates=tuple(
                float(rates[a]) for a in kept)),),
            apps=tuple(replace(self.apps[a], weight=self.apps[a].weight
                               * (rates[a] / self.total_rates[a])) for a in kept),
            search_workload=self.search_workload)
        sub._check_fields()
        for name in ("density_orders", "sorted_neg_densities", "size_prefixes"):
            sub.__dict__[name] = tuple(getattr(self, name)[a] for a in kept)
        if len(kept) == self.num_apps:
            sub.__dict__.update(p=self.p, s=self.s, density_order=self.density_order)
        else:
            # each kept input's flat position in sub, -1 where dropped
            at = np.full(int(self.offsets[-1]), -1, dtype=np.int32)
            start = 0
            for a in kept:
                lo, hi = self.segments[a]
                at[lo:hi] = np.arange(start, start + hi - lo, dtype=np.int32)
                start += hi - lo
            order = at[self.density_order]
            sub.__dict__["density_order"] = _frozen(order[order >= 0], np.int32)
        return sub

    # -- cached array views ------------------------------------------------

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    @property
    def num_apps(self) -> int:
        return len(self.apps)

    @cached_property
    def compute_capacities(self) -> np.ndarray:
        return _frozen([st.compute_capacity for st in self.stations])

    @cached_property
    def storage_capacities(self) -> np.ndarray:
        return _frozen([st.storage_capacity for st in self.stations])

    @cached_property
    def transfer_delays(self) -> np.ndarray:
        return _frozen([st.transfer_delay for st in self.stations])

    @cached_property
    def arrival_rate_matrix(self) -> np.ndarray:
        """Shape (A, N): tasks/s of app a arriving at station n."""
        return _frozen([[st.arrival_rates[a] for st in self.stations]
                        for a in range(self.num_apps)])

    @cached_property
    def total_rates(self) -> np.ndarray:
        return _frozen(self.arrival_rate_matrix.sum(axis=1))

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen([app.weight for app in self.apps])

    @cached_property
    def workloads(self) -> np.ndarray:
        return _frozen([app.mean_workload for app in self.apps])

    @cached_property
    def offsets(self) -> np.ndarray:
        """Shape (A + 1,): app a's inputs are offsets[a]:offsets[a + 1]."""
        return _frozen(np.cumsum([0] + [len(app.typical_inputs)
                                        for app in self.apps]), np.int64)

    @cached_property
    def p(self) -> np.ndarray:
        """Shape (K,): every input's match probability, app after app."""
        return _frozen(np.concatenate([app.typical_inputs[:, 0] for app in self.apps]))

    @cached_property
    def s(self) -> np.ndarray:
        """Shape (K,): every input's result size in bytes, app after app."""
        return _frozen(np.concatenate([app.typical_inputs[:, 1] for app in self.apps]))

    @cached_property
    def segments(self) -> list[tuple[int, int]]:
        """Per app, offsets[a] and offsets[a + 1] as Python ints."""
        return list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per app, its segment of a flat array over the catalog (views)."""
        return [flat[..., lo:hi] for lo, hi in self.segments]

    @cached_property
    def match_probs(self) -> tuple[np.ndarray, ...]:
        return tuple(self.split(self.p))

    @cached_property
    def result_sizes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.split(self.s))

    @cached_property
    def density_order(self) -> np.ndarray:
        """Every flat input by density p/s descending, position ascending."""
        return self._density_sort[0]

    @cached_property
    def density_orders(self) -> tuple[np.ndarray, ...]:
        """Per app, input indices by density p/s descending, index
        ascending: its inputs in density_order, which keeps their order."""
        return tuple(order for order, _ in self._density_sort[1])

    @cached_property
    def sorted_neg_densities(self) -> tuple[np.ndarray, ...]:
        """Per app, -p/s in density order: ascending, and negated so that
        it can be searched."""
        return tuple(neg for _, neg in self._density_sort[1])

    @cached_property
    def size_prefixes(self) -> tuple[np.ndarray, ...]:
        """Per app, prefix sums of s in density order: entry j sums the
        sizes of its first j inputs there."""
        return tuple(_frozen(prefix_sums(s[order])) for s, order
                     in zip(self.result_sizes, self.density_orders))

    @cached_property
    def _density_sort(self) -> tuple[np.ndarray, list]:
        """density_order, and per app its inputs in it with their -p/s,
        from one division and one stable sort; positions are int32."""
        neg = -(self.p / self.s)
        order = _frozen(np.argsort(neg, kind="stable"), np.int32)
        per_app = []
        for lo, hi in self.segments:
            mine = order[(order >= lo) & (order < hi)]
            per_app.append((_frozen(mine - lo, np.int32), _frozen(neg[mine])))
        return order, per_app

    def catalog_size(self, a: int) -> int:
        return int(self.offsets[a + 1] - self.offsets[a])


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """[0, v0, v0 + v1, ...]: the sequential running sum of ``values``.  A
    sum that overflows is inf, which a caching probe reads as "does not
    fit"."""
    out = np.zeros(len(values) + 1)
    with np.errstate(over="ignore"):
        np.cumsum(values, out=out[1:])
    return out


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only array."""
    v = np.asarray(values, dtype=dtype)
    v.setflags(write=False)
    return v


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
    """One cache matrix x of shape (N, K) over the flat catalog, entries 0
    or 1; app a's inputs are its columns offsets[a]:offsets[a + 1].

    ``entries[a]`` is app a's (N, K_a) view of x, so a write to it lands in
    x.  Any entry but 0 or 1, NaN and infinities included, is
    MalformedInput naming its app.
    """

    __slots__ = ("x", "offsets", "entries")

    def __init__(self, entries: list[np.ndarray]):
        entries = [np.asarray(x, dtype=np.float64) for x in entries]
        if not entries:
            raise DimensionMismatch("a cache needs at least one app matrix")
        for a, x in enumerate(entries):
            if x.ndim != 2 or len(x) != len(entries[0]):
                raise DimensionMismatch(f"app {a}: cache matrix of shape {x.shape} "
                                        "is not 2-D with app 0's station rows")
        self._hold(np.concatenate(entries, axis=1),
                   np.cumsum([0] + [x.shape[1] for x in entries]))

    def _hold(self, x: np.ndarray, offsets: np.ndarray) -> None:
        self.x, self.offsets = x, offsets
        self.entries = np.split(x, offsets[1:-1], axis=1)
        # written so that NaN fails it
        binary = ((x == 0.0) | (x == 1.0)).all(axis=0)
        if not binary.all():
            a = int(np.searchsorted(offsets, np.argmin(binary), "right")) - 1
            raise MalformedInput(f"app {a}: cache entries not binary")

    @classmethod
    def of(cls, x: np.ndarray, offsets: np.ndarray) -> "CacheAssignment":
        """The assignment holding the (N, K) matrix ``x`` itself."""
        (cache := cls.__new__(cls))._hold(x, offsets)
        return cache

    @classmethod
    def zeros(cls, scenario: Scenario) -> "CacheAssignment":
        return cls.of(np.zeros((scenario.num_stations, scenario.offsets[-1])),
                      scenario.offsets)

    def with_station(self, n: int,
                     station_rows: list[np.ndarray]) -> "CacheAssignment":
        """New assignment with station n's row replaced in every app matrix."""
        if [np.shape(r) for r in station_rows] != [x.shape[1:] for x in self.entries]:
            raise DimensionMismatch("station rows do not match the app matrices")
        new = self.x.copy()
        new[n] = np.concatenate(station_rows)
        return CacheAssignment.of(new, self.offsets)


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


def cached_mass(scenario: Scenario, mask: np.ndarray) -> np.ndarray:
    """Per app, the match probability of its inputs in the flat bool
    ``mask``: those that some station caches."""
    return np.array([dot(p, m.astype(np.float64))
                     for p, m in zip(scenario.match_probs, scenario.split(mask))])


def local_hits(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """Shape (A, N): per app, the match probability each row of the (N, K)
    matrix x caches, dot(row, p) over the app's segment."""
    local = np.zeros((scenario.num_apps, len(x)))
    for n, row in enumerate(x):
        local[:, n] = [dot(r, p) for r, p in zip(scenario.split(row),
                                                 scenario.match_probs)]
    return local


def compute_hit_rates(scenario: Scenario, cache: CacheAssignment) -> HitRateTable:
    """Local, neighbor and total hit rates for every (app, station).

    Each station's local rate is dot(row, p) per app and the total comes
    from the mask of positive column counts through cached_mass; the
    caching sweep updates its tables with the same two reductions, so both
    agree bit for bit.
    Entries are binary, so neighbor = total - local.  A cache whose shape
    is not the scenario's is DimensionMismatch naming the first wrong app.
    """
    if len(cache.entries) != scenario.num_apps:
        raise DimensionMismatch("cache has wrong number of apps")
    wrong = ((np.diff(cache.offsets) != np.diff(scenario.offsets))
             | (len(cache.x) != scenario.num_stations))
    if wrong.any():
        a = int(np.argmax(wrong))
        raise DimensionMismatch(f"app {a}: cache matrix shape "
                                f"{cache.entries[a].shape}")
    total = cached_mass(scenario, cache.x.sum(axis=0) > 0.0)
    local = local_hits(scenario, cache.x)
    neighbor = total[:, None] - local
    for v in (local, neighbor, total):
        v.setflags(write=False)
    return HitRateTable(local=local, neighbor=neighbor, total=total)


def row_storage(scenario: Scenario, row: np.ndarray) -> float:
    """Bytes a station's flat row occupies, fractional entries pro rata,
    summed app by app."""
    used = 0.0
    for lo, hi in scenario.segments:
        used += dot(row[lo:hi], scenario.s[lo:hi])
    return used


def rows_storage(scenario: Scenario, rows: list[np.ndarray]) -> float:
    """Bytes one station's rows (one per app) occupy."""
    return row_storage(scenario, np.concatenate(rows))


def storage_used(scenario: Scenario, cache: CacheAssignment, n: int) -> float:
    """Bytes occupied at station n."""
    return row_storage(scenario, cache.x[n])


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
    if sched.lam.shape != (scenario.num_apps, scenario.num_stations):
        raise DimensionMismatch("scheduling state has wrong shape")

    hit_total = compute_hit_rates(scenario, cache).total  # checks the shape
    # rows written in place after construction are checked again
    for a, x in enumerate(cache.entries):
        for n in np.flatnonzero(((x != 0.0) & (x != 1.0)).any(axis=1)):
            out.append(Violation("range", a, int(n), float(np.max(np.abs(x[n] - 0.5)))))

    for n in range(scenario.num_stations):
        used = storage_used(scenario, cache, n)
        cap = scenario.storage_capacities[n]
        if used > cap + 1e-6:  # bytes; sub-byte slack only
            out.append(Violation("storage", None, n, used - cap))

    # y is integer, so its test is y not in {0, 1}
    for arr in (sched.lam, sched.fshare, sched.y):
        bad = (arr < -BINARY_TOL) | (arr > 1.0 + BINARY_TOL)
        for a, n in zip(*np.nonzero(bad)):
            out.append(Violation("range", int(a), int(n), float(arr[a, n])))

    row_err = sched.lam.sum(axis=1) - 1.0
    for a in np.flatnonzero(np.abs(row_err) > EQUALITY_TOL):
        out.append(Violation("workload_sum", int(a), None, float(row_err[a])))
    col_err = sched.fshare.sum(axis=0) - 1.0
    for n in np.flatnonzero(np.abs(col_err) > EQUALITY_TOL):
        out.append(Violation("cpu_sum", None, int(n), float(col_err[n])))

    from .delay import selected_stability  # delay imports this module
    stable, slack = selected_stability(scenario, hit_total, sched.lam,
                                       sched.fshare, sched.y)
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
                    {"match_prob": p, "result_size_bytes": s}
                    for p, s in app.typical_inputs.tolist()
                ],
            }
            for app in scenario.apps
        ],
    }


def _checked_numbers(values: list, field: str) -> list:
    """``values``, each a real number; a string, a bool, None or any other
    value is MalformedInput naming ``field``.  The types are checked as one
    set, so a catalog column is checked without a Python call per
    input."""
    if not set(map(type, values)) <= {int, float}:
        for value in values:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise MalformedInput(f"{field} must be a number, "
                                     f"not {type(value).__name__}")
    return values


def _numbers(values: list, field: str) -> list[float]:
    """JSON numbers as floats (see _checked_numbers)."""
    return list(map(float, _checked_numbers(values, field)))


def _number(doc, key: str) -> float:
    """doc[key], a JSON number, as a float (see _numbers)."""
    return _numbers([doc[key]], key)[0]


def _list(doc, key: str) -> list:
    """doc[key], a JSON list; any other value is MalformedInput naming it."""
    value = doc[key]
    if not isinstance(value, list):
        raise MalformedInput(f"{key} must be a list, not {type(value).__name__}")
    return value


def scenario_from_dict(data: dict) -> Scenario:
    try:
        stations = tuple(
            BaseStation(
                compute_capacity=_number(st, "compute_capacity_hz"),
                storage_capacity=_number(st, "storage_capacity_bytes"),
                transfer_delay=_number(st, "transfer_delay_s"),
                arrival_rates=tuple(_numbers(_list(st, "arrival_rates"),
                                             "arrival_rates")),
            )
            for st in _list(data, "stations")
        )
        apps = tuple(
            Application(
                weight=_number(app, "weight"),
                mean_workload=_number(app, "mean_workload_cycles"),
                typical_inputs=np.column_stack([
                    _numbers([ti[key] for ti in _list(app, "typical_inputs")],
                             key)
                    for key in ("match_prob", "result_size_bytes")]),
            )
            for app in _list(data, "apps")
        )
        return Scenario(
            stations=stations,
            apps=apps,
            search_workload=_number(data, "search_workload_cycles"),
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
