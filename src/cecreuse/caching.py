"""Per-station cache placement via bisection on the storage-efficiency level.

The marginal value of caching result k of app a at station n, per byte, is
its storage efficiency eps(x).  Results already cached at some other station
("replicated") have constant efficiency -(p/s) * phi lam_n y_n D^t_n: a local
copy only saves the transfer on local hits.  Results cached nowhere else
("exclusive") have eps(x) = (p/s) * G(P_hr), where G sums each station's
sensitivity to the app's total hit rate plus the transfer cost its remote
hits would incur.  eps is non-decreasing in x, so for any level B the set
{eps <= B} is a sorted prefix per app with at most one fractional entry, and
the storage used is monotone in B.  Bisecting B until the used storage meets
the capacity solves the relaxed per-station subproblem; rounding the single
fractional entry per app to 0 restores a binary assignment.
"""
from __future__ import annotations

import math

import numpy as np

from .delay import evaluate_objective, evaluate_with_rates, hit_derivative
from .errors import (BracketError, DegenerateInput, DimensionMismatch,
                     Infeasible, MalformedInput, StabilityViolation, TooLarge)
from .model import (BINARY_TOL, CacheAssignment, HitRateTable, Scenario,
                    SchedulingState, cached_mass, compute_hit_rates, dot)
from .model import rows_storage as _rows_storage

# level-bisection accuracy (efficiency units, s/byte)
LEVEL_ACCURACY = 1e-9
# absolute tolerance of the scalar inverse bisection, in x units
INVERSE_TOL = 1e-12
# largest station catalog the exhaustive subset oracle enumerates
ORACLE_MAX_ITEMS = 22


class EfficiencyContext:
    """Frozen view of one station's caching subproblem.

    Holds the scheduling state, the neighbor partition, the p/s-sorted order
    over exclusive inputs with prefix sums, and the constant efficiencies of
    replicated inputs.  All level queries of the solver go through here.

    ``peer_counts`` gives, per app, how many other stations cache each
    input, as the caching sweep keeps them; without it they are counted
    from the cache.
    """

    def __init__(self, scenario: Scenario, cache: CacheAssignment,
                 sched: SchedulingState, station: int,
                 peer_counts: list[np.ndarray] | None = None):
        self.scenario = scenario
        self.station = station
        self.lam = np.ascontiguousarray(sched.lam, dtype=np.float64)
        self.f = np.ascontiguousarray(sched.cpu_speeds(scenario), dtype=np.float64)
        self.yf = np.ascontiguousarray(sched.y, dtype=np.float64)
        self.dt = np.ascontiguousarray(scenario.transfer_delays, dtype=np.float64)
        if peer_counts is None:
            peer_counts = [x.sum(axis=0) - x[station] for x in cache.entries]

        A = scenario.num_apps
        self.exclusive: list[np.ndarray] = []     # sorted by p/s desc, index asc
        self.replicated: list[np.ndarray] = []
        self.exc_p: list[np.ndarray] = []
        self.ratio: list[np.ndarray] = []
        self.prefix_p: list[np.ndarray] = []      # prefix_p[j] = sum of p before j
        self.base_hit: list[float] = []           # hit mass available from peers
        self.rep_eff: list[np.ndarray] = []
        self.active: list[bool] = []              # any phi lam y > 0 anywhere
        self._terms: list[list[tuple] | None] = [None] * A
        self._eff: dict[tuple[int, int, float], float] = {}

        for a in range(A):
            peer = peer_counts[a]
            order = scenario.density_orders[a]
            exc = order[peer[order] <= 0.0]
            rep = np.flatnonzero(peer > 0.0)
            p = scenario.match_probs[a]
            ratio = scenario.densities[a]
            self.exclusive.append(exc)
            self.replicated.append(rep)
            self.exc_p.append(p[exc])
            self.ratio.append(ratio[exc])
            self.prefix_p.append(np.concatenate(([0.0], np.cumsum(p[exc]))))
            self.base_hit.append(float(p[rep].sum()))
            local_c = float(scenario.weights[a] * self.lam[a, station]
                            * self.yf[a, station])
            self.rep_eff.append(-ratio[rep] * (local_c * self.dt[station]))
            self.active.append(bool(np.any(
                scenario.weights[a] * self.lam[a] * self.yf[a] > 0.0)))

    def _searching(self, a: int) -> list[tuple[float, float, float, float]]:
        """(c, dt, load, f) per station where app a searches, in station
        order, with dt = 0 at the station being optimized; built on first
        use."""
        terms = self._terms[a]
        if terms is None:
            sc = self.scenario
            rate = float(sc.total_rates[a])
            weight = float(sc.weights[a])
            terms = []
            for j, (lam, y, f, dt) in enumerate(zip(
                    self.lam[a].tolist(), self.yf[a].tolist(),
                    self.f[a].tolist(), self.dt.tolist())):
                c = weight * lam * y
                if c != 0.0:
                    terms.append((c, 0.0 if j == self.station else dt,
                                  lam * rate, f))
            self._terms[a] = terms
        return terms

    def bracket(self, a: int, hit: float) -> float:
        """G(P_hr): hit-rate sensitivity summed over stations, -inf if unstable.

        Each searching station weighs its sojourn-time derivative plus the
        transfer its remote hits pay; the station being optimized pays no
        transfer on its own hits.
        """
        wa = float(self.scenario.workloads[a])
        ws = self.scenario.search_workload
        hit = float(hit)
        total = 0.0
        for c, dt, load, f in self._searching(a):
            d = hit_derivative(load, f, wa, ws, hit)
            if d == -math.inf:
                return -math.inf
            total = total + c * (d + dt)
        return total

    def exclusive_eff(self, a: int, j: int, xv: float) -> float:
        """eps of the j-th sorted exclusive input with the prefix before it
        fully cached, the suffix after it empty, and its own value xv.

        Memoised per (a, j, xv): the level search asks for the same
        endpoints many times.
        """
        key = (a, j, xv)
        eff = self._eff.get(key)
        if eff is None:
            r = self.ratio[a][j]
            if r == 0.0:
                eff = 0.0
            else:
                hit = self.base_hit[a] + self.prefix_p[a][j] + self.exc_p[a][j] * xv
                eff = r * self.bracket(a, hit)
            self._eff[key] = eff
        return eff

    def efficiency_floor(self) -> float:
        """Level certainly below every finite efficiency, with 1% margin."""
        lo = 0.0
        for a in range(self.scenario.num_apps):
            if not self.active[a]:
                continue
            if len(self.rep_eff[a]):
                lo = min(lo, float(self.rep_eff[a].min()))
            if len(self.exclusive[a]):
                # ratio is sorted descending and nonnegative, so the least of
                # ratio * g sits at one end
                r_hi, r_lo = self.ratio[a][0], self.ratio[a][-1]
                for hit in (self.base_hit[a],
                            self.base_hit[a] + self.prefix_p[a][-1]):
                    g = self.bracket(a, hit)
                    if math.isfinite(g):
                        lo = min(lo, float(r_hi * g), float(r_lo * g))
        return 1.01 * lo if lo < 0.0 else 0.0


def solve_inverse_efficiency(ctx: EfficiencyContext, a: int, j: int,
                             level: float) -> float:
    """Smallest x in [0, 1] with eps(x) = level, by bisection.

    The prefix before sorted position j is fully cached, the suffix empty.
    """
    e0 = ctx.exclusive_eff(a, j, 0.0)
    e1 = ctx.exclusive_eff(a, j, 1.0)
    if e0 > level or e1 < level:
        raise BracketError(f"level {level} outside [{e0}, {e1}]")
    if e0 >= level:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > INVERSE_TOL:
        mid = 0.5 * (lo + hi)
        if ctx.exclusive_eff(a, j, mid) >= level:
            hi = mid
        else:
            lo = mid
    return hi


def _locate_level(ctx: EfficiencyContext, a: int, level: float) -> tuple[int, float]:
    """(m, xm): sorted positions < m get 1, position m gets xm, rest 0.

    m = K0 means the whole exclusive class is cached.  Relies on the
    interleaved efficiency sequence eps_0(0) <= eps_0(1) <= eps_1(0) <= ...
    being non-decreasing wherever it is negative.
    """
    k0 = len(ctx.exclusive[a])
    if ctx.exclusive_eff(a, 0, 0.0) > level:
        return 0, 0.0
    if ctx.exclusive_eff(a, k0 - 1, 1.0) < level:
        return k0, 0.0
    lo, hi = 0, k0 - 1
    # largest position whose empty-value efficiency is still <= level
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ctx.exclusive_eff(a, mid, 0.0) <= level:
            lo = mid
        else:
            hi = mid - 1
    if ctx.exclusive_eff(a, lo, 1.0) < level:
        return lo + 1, 0.0
    return lo, solve_inverse_efficiency(ctx, a, lo, level)


def g_of_B(ctx: EfficiencyContext, level: float) -> list[np.ndarray]:
    """Station rows (one per app) attaining efficiency level `level`.

    Replicated inputs are cached iff their constant efficiency is <= level
    and strictly negative; over the sorted exclusive class a boundary
    position is located by bisection and solved for its fractional value.
    Zero-benefit inputs are never cached.
    """
    rows = []
    for a in range(ctx.scenario.num_apps):
        x = np.zeros(ctx.scenario.catalog_size(a))
        if not ctx.active[a]:
            rows.append(x)
            continue
        re = ctx.rep_eff[a]
        chosen = ctx.replicated[a][(re <= level) & (re < 0.0)]
        x[chosen] = 1.0
        if len(ctx.exclusive[a]):
            m, xm = _locate_level(ctx, a, level)
            x[ctx.exclusive[a][:m]] = 1.0
            if m < len(ctx.exclusive[a]) and xm > 0.0:
                x[ctx.exclusive[a][m]] = xm
        rows.append(x)
    return rows


def solve_caching_bs(scenario: Scenario, cache: CacheAssignment,
                     sched: SchedulingState, station: int,
                     peer_counts: list[np.ndarray] | None = None
                     ) -> tuple[list[np.ndarray], float]:
    """Relaxed cache placement for one station under frozen scheduling.

    Bisects the level B on [floor, 0] against the storage constraint and
    returns the station rows together with the level actually used.  Falls
    back to the last certainly-fitting level if the midpoint overshoots.
    ``peer_counts`` is passed on to EfficiencyContext.
    """
    ctx = EfficiencyContext(scenario, cache, sched, station, peer_counts)
    cap = float(scenario.storage_capacities[station])
    floor = ctx.efficiency_floor()
    if floor == 0.0:
        return [np.zeros(scenario.catalog_size(a))
                for a in range(scenario.num_apps)], 0.0
    b_l, b_r = floor, 0.0
    while b_r - b_l >= LEVEL_ACCURACY:
        b_m = 0.5 * (b_l + b_r)
        if _rows_storage(scenario, g_of_B(ctx, b_m)) < cap:
            b_l = b_m
        else:
            b_r = b_m
    level = 0.5 * (b_l + b_r)
    rows = g_of_B(ctx, level)
    if _rows_storage(scenario, rows) > cap:
        level = b_l
        rows = g_of_B(ctx, level)
    return rows, level


def efficiencies_at_solution(ctx: EfficiencyContext,
                             rows: list[np.ndarray]) -> list[np.ndarray]:
    """Every input's efficiency evaluated at the hit rate the rows induce.

    Ordered by original input index per app; used to check the optimality
    conditions (cached iff efficiency below the level, one fractional entry
    at the level, capacity tight when the level is interior).
    """
    out = []
    for a in range(ctx.scenario.num_apps):
        eff = np.zeros(ctx.scenario.catalog_size(a))
        eff[ctx.replicated[a]] = ctx.rep_eff[a]
        if len(ctx.exclusive[a]):
            hit = ctx.base_hit[a] + dot(ctx.exc_p[a], rows[a][ctx.exclusive[a]])
            g = ctx.bracket(a, hit)
            eff[ctx.exclusive[a]] = ctx.ratio[a] * g
        out.append(eff)
    return out


def round_to_binary(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Drop the (at most one per app) fractional entry to 0."""
    out = []
    for a, row in enumerate(rows):
        frac = (row > BINARY_TOL) & (row < 1.0 - BINARY_TOL)
        if frac.sum() > 1:
            raise MalformedInput(f"app {a}: {int(frac.sum())} fractional entries")
        out.append(np.where(row >= 1.0 - BINARY_TOL, 1.0, 0.0))
    return out


def theorem3_ratio(d_zero: float, d_rounded: float, d_star: float,
                   s_max: float, apps_cached: int,
                   storage_capacity: float) -> tuple[float, float]:
    """Rounding quality (D0-Dhat)/(D0-D*) and its a-priori lower bound."""
    if d_zero == d_star:
        raise DegenerateInput("empty-cache delay equals the relaxed optimum")
    if storage_capacity <= 0.0:
        raise DegenerateInput("bound undefined without storage")
    ratio = (d_zero - d_rounded) / (d_zero - d_star)
    bound = 1.0 - s_max * apps_cached / storage_capacity
    return ratio, bound


class SweepState:
    """A cache with its per-input counts and hit-rate table, kept current
    through station rewrites.

    ``counts[a]`` is the column sum of app a's matrix and ``hit`` equals
    compute_hit_rates(scenario, cache) bit for bit: a candidate's table is
    built in O(A K) from the same reductions, with neighbor = total - local.
    """

    def __init__(self, scenario: Scenario, cache: CacheAssignment):
        self.scenario = scenario
        self.cache = cache
        self.counts = [x.sum(axis=0) for x in cache.entries]
        self.hit = compute_hit_rates(scenario, cache)

    def peer_counts(self, n: int) -> list[np.ndarray]:
        """Per app, how many stations other than n cache each input."""
        return [c - x[n] for c, x in zip(self.counts, self.cache.entries)]

    def candidate(self, n: int, rows: list[np.ndarray]
                  ) -> tuple[list[np.ndarray], HitRateTable]:
        """Counts and hit table of the cache with station n's rows replaced."""
        for a, (x, row) in enumerate(zip(self.cache.entries, rows)):
            if row.shape != (x.shape[1],):
                raise DimensionMismatch(f"app {a}: station row has wrong length")
        counts = [c - x[n] + row
                  for c, x, row in zip(self.counts, self.cache.entries, rows)]
        probs = self.scenario.match_probs
        total = np.array([cached_mass(p, c) for p, c in zip(probs, counts)])
        local = self.hit.local.copy()
        local[:, n] = [dot(row, p) for row, p in zip(rows, probs)]
        return counts, HitRateTable(local, total[:, None] - local, total)

    def accept(self, n: int, rows: list[np.ndarray],
               counts: list[np.ndarray], hit: HitRateTable) -> None:
        """Write station n's rows into the cache with their candidate tables."""
        for x, row in zip(self.cache.entries, rows):
            x[n] = row
        self.counts = counts
        self.hit = hit


def sweep_all_stations(scenario: Scenario, cache: CacheAssignment,
                       sched: SchedulingState, passes: int
                       ) -> tuple[CacheAssignment, SchedulingState, list[float],
                                  HitRateTable]:
    """Station-by-station cache improvement under frozen (lam, fshare).

    Each station solve is rounded and written back only if the objective
    (with search flags refreshed) does not increase, which makes the
    objective non-increasing by construction.  Returns the per-pass
    objective values and the final hit table; stops early once a full pass
    changes nothing.
    """
    cache = cache.copy()
    sched = sched.copy()
    state = SweepState(scenario, cache)
    res = evaluate_with_rates(scenario, state.hit.total, state.hit.neighbor,
                              sched.lam, sched.fshare)
    if not res.feasible:
        raise StabilityViolation("sweep started from an unstable point")
    sched.y = res.y
    obj = res.objective
    pass_objs: list[float] = []
    for _ in range(passes):
        changed = False
        for n in range(scenario.num_stations):
            rows, _level = solve_caching_bs(scenario, cache, sched, n,
                                            state.peer_counts(n))
            rows_bin = round_to_binary(rows)
            if all(np.array_equal(rows_bin[a], cache.entries[a][n])
                   for a in range(scenario.num_apps)):
                continue
            if _rows_storage(scenario, rows_bin) > scenario.storage_capacities[n]:
                continue
            counts, hit = state.candidate(n, rows_bin)
            res2 = evaluate_with_rates(scenario, hit.total, hit.neighbor,
                                       sched.lam, sched.fshare)
            if res2.feasible and res2.objective <= obj:
                state.accept(n, rows_bin, counts, hit)
                sched.y = res2.y
                obj = res2.objective
                changed = True
        pass_objs.append(obj)
        if not changed:
            break
    return cache, sched, pass_objs, state.hit


def relaxed_objective(scenario: Scenario, cache: CacheAssignment,
                      sched: SchedulingState, station: int,
                      rows: list[np.ndarray],
                      frozen_y: np.ndarray | None = None) -> float | None:
    """Objective of a fractional station assignment under the smooth hit model.

    The app hit rate is the peers' mass plus the station's fractional
    exclusive mass (replicated entries add nothing new); neighbor rates
    follow as total minus local.  Coincides with the binary evaluation
    whenever the rows are binary.  frozen_y keeps the given search flags
    instead of re-choosing them per branch delay.
    """
    A = scenario.num_apps
    total = np.zeros(A)
    local = np.zeros((A, scenario.num_stations))
    for a in range(A):
        x = cache.entries[a].copy()
        x[station] = rows[a]
        p = scenario.match_probs[a]
        peer_sum = x.sum(axis=0) - x[station]
        exc = peer_sum <= 0.0
        total[a] = p[~exc].sum() + dot(p[exc], x[station, exc])
        local[a] = [dot(row, p) for row in x]
    neighbor = np.maximum(total[:, None] - local, 0.0)
    res = evaluate_with_rates(scenario, total, neighbor, sched.lam, sched.fshare,
                              y=frozen_y)
    return res.objective


def brute_force_cache_oracle(scenario: Scenario, cache: CacheAssignment,
                             sched: SchedulingState, station: int
                             ) -> tuple[list[np.ndarray], float]:
    """Exhaustive optimum over binary station rows (small instances only).

    Enumerates every subset of the station's candidate entries that fits the
    storage capacity, evaluates the true objective with search flags
    re-chosen, and returns the best rows with their objective.
    """
    items = [(a, k) for a in range(scenario.num_apps)
             for k in range(scenario.catalog_size(a))]
    t = len(items)
    if t > ORACLE_MAX_ITEMS:
        raise TooLarge(f"{t} items exceeds the enumeration cap {ORACLE_MAX_ITEMS}")
    sizes = np.array([scenario.result_sizes[a][k] for a, k in items])
    cap = scenario.storage_capacities[station]

    masks = np.arange(1 << t, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(t)[None, :]) & 1
    fits = np.nonzero(bits @ sizes <= cap)[0]

    best_obj = None
    best_rows = None
    for mask in fits:
        rows = [np.zeros(scenario.catalog_size(a)) for a in range(scenario.num_apps)]
        for pos, (a, k) in enumerate(items):
            if bits[mask, pos]:
                rows[a][k] = 1.0
        cand = cache.with_station(station, rows)
        res = evaluate_objective(scenario, cand, sched)
        if res.feasible and (best_obj is None or res.objective < best_obj):
            best_obj = res.objective
            best_rows = rows
    if best_obj is None:
        raise Infeasible("no stable cache subset exists at this station")
    return best_rows, best_obj
