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

Each bisection probe asks whether the rows at level B use less than the
capacity.  The rows are found in two steps: a position search that gives
each app's prefix length m and says whether entry m is fractional
("pending"), and a bisection for that fraction.  The storage is read from
size prefix sums alone.  The cached set of an app is its density-order
positions before the replicated boundary `end` that are not exclusive,
plus its first m exclusive positions, so its storage is (P[end] - Q[t]) +
Q[m], with P the app's size prefix in density order
(Scenario.size_prefixes), Q its exclusive class's and t the exclusive
positions before end.  A probe's storage sums these over the apps, then
adds w * x for each pending entry of size w and fraction x, both in app
order.  That sum is monotone in each x, since w > 0 and a fixed-order
floating-point sum of non-negative products is monotone in each term, so
the fractions are halved together, one step each, only until the sum at
their brackets' lower ends does not fit or the sum at their upper ends
fits; once no bracket halves, the upper ends are the exact fractions.
Prefix sums that overflow give inf, or NaN (inf - inf), and never fit.

A prefix sum may differ from the dense sum of the same row by a few ulps,
so the dense sum (model.row_storage) guards each row that is written out,
once: solve_caching_bs returns empty rows where its row's dense
storage is over the capacity, and the caching sweep checks a row that
passed its objective test just before it accepts it.

Each efficiency miss sums hit_sensitivity over the app's searching
stations, whose hit-free factors (delay.hit_factors) the context tables on
first use; the hit rate is all that moves between misses.

The level search takes its final level (the midpoint of its last
bracket if its rows use at most the capacity, else the last level a probe
found to fit) by the same rule, and builds that level's row once, from the
fills its probe found there (memoised per context).  The caching sweep
rounds the row's boundary entries without solving their fractions: it
only needs to know whether each is >= 1 - BINARY_TOL.

A station's subproblem depends on the other stations' caches only through
its peer mask, which splits each app's inputs into the two classes.  The
split is kept in compact form (Partition): the exclusive class as int32
positions in the app's density order, with the prefix sums of their match
probabilities.  The replicated class is read from that order: its
efficiency -(p/s) phi lam y D^t does not fall along the whole order, so the
replicated inputs cached at a level are the positions before one boundary
that are not exclusive.  The caching sweep keeps each station's peer mask
and partition while its peer-mask version holds (SweepState.peers).  Its
lam and fshare are frozen, so it tables the load half of its evaluations
and each app's transfer term once per call (delay.load_tables), and each
candidate tables only the hit half of its hit rates.
"""
from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .delay import (evaluate_objective, evaluate_with_rates, hit_factors,
                    hit_sensitivity, load_tables)
from .errors import (DegenerateInput, DimensionMismatch, Infeasible,
                     MalformedInput, StabilityViolation, TooLarge)
from .model import (BINARY_TOL, CacheAssignment, HitRateTable, Scenario,
                    SchedulingState, cached_mass, compute_hit_rates, dot,
                    local_hits, prefix_sums, row_storage)
from .model import rows_storage as _rows_storage

# level-bisection accuracy (efficiency units, s/byte)
LEVEL_ACCURACY = 1e-9
# absolute tolerance of the boundary entry's bisection, in x units
INVERSE_TOL = 1e-12
# largest station catalog the exhaustive subset oracle enumerates
ORACLE_MAX_ITEMS = 22


def peer_hit_mass(p: np.ndarray, mask: np.ndarray) -> float:
    """Match probability of the inputs in the peer mask ``mask``."""
    return float(p[mask].sum())


class Partition(NamedTuple):
    """One station's peer mask in compact form, per app.

    ``exc_pos`` holds the positions, in the app's density order
    (Scenario.density_orders), of its exclusive inputs, those no other
    station caches: ascending, as int32.  ``prefix_p[j]`` sums the match
    probabilities of the first j of them, and ``hit`` is the peer hit mass.
    Every other input is replicated.
    """

    exc_pos: list[np.ndarray]
    prefix_p: list[np.ndarray]
    hit: list[float]

    @classmethod
    def build(cls, scenario: Scenario, mask: np.ndarray) -> "Partition":
        """The partition of the flat peer mask ``mask``: the inputs some
        other station caches."""
        exc_pos, prefix_p, hit = [], [], []
        for p, order, m in zip(scenario.match_probs, scenario.density_orders,
                               scenario.split(mask)):
            pos = np.flatnonzero(~m[order]).astype(np.int32)
            exc_pos.append(pos)
            prefix_p.append(prefix_sums(p[order[pos]]))
            hit.append(peer_hit_mass(p, m))
        return cls(exc_pos, prefix_p, hit)


def _prefix_length(holds: Callable[[int], bool], n: int, guess: int) -> int:
    """Length of the prefix of range(n) on which ``holds`` is true, for a
    ``holds`` that is true on a prefix and false after it.

    Gallops from ``guess`` in steps 1, 2, 4, ... to bracket the end and
    bisects the bracket, so it asks O(log d) questions for a guess d off.
    """
    if guess < n and holds(guess):
        lo = j = guess + 1
        while j < n and holds(j):
            lo, j = j + 1, guess + 2 * (j - guess)
        hi = min(j, n)
    elif guess > 0 and not holds(guess - 1):
        hi, j = guess - 1, guess - 2
        while j >= 0 and not holds(j):
            hi, j = j, guess - 1 - 2 * (guess - 1 - j)
        lo = max(j + 1, 0)
    else:
        return guess
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


class EfficiencyContext:
    """Frozen view of one station's caching subproblem.

    Holds the scheduling state, the station's Partition of each app's
    inputs, and the factor phi lam y D^t that makes a replicated input's
    constant efficiency -(p/s) * factor.  All level queries of the solver go
    through here, and none builds an array as long as a catalog: the
    per-input views (exclusive, replicated, rep_eff) are gathered only when
    read, and an app's exclusive size prefix when a probe first needs it.

    ``peers`` is the station's partition as the caching sweep keeps it
    (SweepState.peers); without it, it is built from the cache.
    """

    def __init__(self, scenario: Scenario, cache: CacheAssignment,
                 sched: SchedulingState, station: int,
                 peers: Partition | None = None):
        self.scenario = scenario
        self.station = station
        self.lam = np.ascontiguousarray(sched.lam, dtype=np.float64)
        self.f = np.ascontiguousarray(sched.cpu_speeds(scenario), dtype=np.float64)
        self.yf = np.ascontiguousarray(sched.y, dtype=np.float64)
        self.dt = np.ascontiguousarray(scenario.transfer_delays, dtype=np.float64)
        if peers is None:
            peers = Partition.build(
                scenario, cache.x.sum(axis=0) - cache.x[station] > 0.0)
        self.order = scenario.density_orders
        self.neg_ratio = scenario.sorted_neg_densities
        self.exc_pos = peers.exc_pos
        self.prefix_p = peers.prefix_p            # prefix_p[j] = sum of p before j
        self.base_hit = peers.hit                 # hit mass available from peers
        # phi lam y per (app, station); an app is active if any is > 0
        c = scenario.weights[:, None] * self.lam * self.yf
        self.active: list[bool] = np.any(c > 0.0, axis=1).tolist()
        self.rep_factor: list[float] = (c[:, station] * self.dt[station]).tolist()
        self.wa: list[float] = scenario.workloads.tolist()
        self.ws: float = scenario.search_workload
        self._terms: list[list[tuple] | None] = [None] * scenario.num_apps
        self._eff: dict[tuple[int, int, float], float] = {}
        self._fills: dict[float, list[_Fill]] = {}
        self._exc_sizes: list[np.ndarray | None] = [None] * scenario.num_apps

    @cached_property
    def exclusive(self) -> list[np.ndarray]:
        """Per app, the exclusive inputs, by p/s descending, index ascending."""
        return [order[pos] for order, pos in zip(self.order, self.exc_pos)]

    @cached_property
    def replicated(self) -> list[np.ndarray]:
        """Per app, the replicated inputs in the same order."""
        return [np.delete(order, pos) for order, pos in zip(self.order, self.exc_pos)]

    @cached_property
    def rep_eff(self) -> list[np.ndarray]:
        """Per app, the replicated inputs' constant efficiencies; they do not
        fall, so the inputs cached at any level are a prefix."""
        return [np.delete(neg, pos) * factor for neg, pos, factor
                in zip(self.neg_ratio, self.exc_pos, self.rep_factor)]

    def exclusive_sizes(self, a: int) -> np.ndarray:
        """Prefix sums of app a's exclusive sizes in density order (Q in the
        module docstring), built on first use."""
        prefix = self._exc_sizes[a]
        if prefix is None:
            prefix = prefix_sums(self.scenario.result_sizes[a][
                self.order[a][self.exc_pos[a]]])
            self._exc_sizes[a] = prefix
        return prefix

    def exclusive_input(self, a: int, j: int) -> int:
        """Flat catalog position of app a's j-th sorted exclusive input."""
        return self.scenario.segments[a][0] + self.order[a].item(self.exc_pos[a].item(j))

    def replicated_end(self, a: int, level: float) -> int:
        """Length of the prefix of app a's density order whose replicated
        efficiency is <= level and < 0: the replicated inputs cached at
        ``level`` are the positions before it that are not exclusive.

        The products are compared exactly; the division only guesses
        where the prefix ends.
        """
        neg, factor = self.neg_ratio[a], self.rep_factor[a]

        def cached(j: int) -> bool:
            eff = neg.item(j) * factor
            return eff <= level and eff < 0.0

        if not (len(neg) and cached(0)):
            return 0    # so factor > 0 below; at 0 every efficiency is -0.0
        guess = int(neg.searchsorted(float(level) / factor, "right"))
        return _prefix_length(cached, len(neg), guess)

    def _searching(self, a: int) -> list[tuple[float, ...]]:
        """(c, dt, *hit_factors) per station where app a searches, in
        station order, with dt = 0 at the station being optimized: what
        bracket reads that does not move with the hit rate; bracket builds
        it on first use."""
        sc = self.scenario
        rate = float(sc.total_rates[a])
        weight = float(sc.weights[a])
        terms = []
        for j, (lam, y, f, dt) in enumerate(zip(
                self.lam[a].tolist(), self.yf[a].tolist(),
                self.f[a].tolist(), self.dt.tolist())):
            c = weight * lam * y
            if c != 0.0:
                terms.append((c, 0.0 if j == self.station else dt)
                             + hit_factors(lam * rate, f, self.wa[a]))
        self._terms[a] = terms
        return terms

    def bracket(self, a: int, hit: float) -> float:
        """G(P_hr): hit-rate sensitivity summed over stations, -inf if unstable.

        Each searching station weighs its sojourn-time derivative
        (delay.hit_derivative) plus the transfer its remote hits pay; the
        station being optimized pays no transfer on its own hits.
        """
        terms = self._terms[a]
        if terms is None:
            terms = self._searching(a)
        return hit_sensitivity(terms, self.wa[a], self.ws, float(hit))

    def exclusive_eff(self, a: int, j: int, xv: float) -> float:
        """eps of the j-th sorted exclusive input with the prefix before it
        fully cached, the suffix after it empty, and its own value xv.

        Memoised per (a, j, xv): the level search asks for the same
        endpoints many times.
        """
        key = (a, j, xv)
        eff = self._eff.get(key)
        if eff is None:
            pos = self.exc_pos[a].item(j)
            r = -self.neg_ratio[a].item(pos)
            if r == 0.0:
                eff = 0.0
            else:
                p = self.scenario.match_probs[a].item(self.order[a].item(pos))
                hit = self.base_hit[a] + self.prefix_p[a].item(j) + p * xv
                eff = r * self.bracket(a, hit)
            self._eff[key] = eff
        return eff

    def efficiency_floor(self) -> float:
        """Level certainly below every finite efficiency, with 1% margin."""
        lo = 0.0
        for a in range(self.scenario.num_apps):
            if not self.active[a]:
                continue
            pos, neg = self.exc_pos[a], self.neg_ratio[a]
            # the least replicated efficiency is the first one
            first = _prefix_length(lambda i: pos.item(i) == i, len(pos), 0)
            if first < len(neg):
                lo = min(lo, neg.item(first) * self.rep_factor[a])
            if len(pos):
                # ratio is sorted descending and nonnegative, so the least of
                # ratio * g sits at one end
                r_hi, r_lo = -neg[pos[0]], -neg[pos[-1]]
                for hit in (self.base_hit[a],
                            self.base_hit[a] + self.prefix_p[a][-1]):
                    g = self.bracket(a, hit)
                    if math.isfinite(g):
                        lo = min(lo, float(r_hi * g), float(r_lo * g))
        return 1.01 * lo if lo < 0.0 else 0.0


def _locate_level(ctx: EfficiencyContext, a: int, level: float) -> tuple[int, bool]:
    """(m, pending): sorted positions < m get 1, position m is fractional
    if pending, the rest get 0.

    The position search only; a pending fraction is the smallest x in
    [0, 1] with eps_m(x) = level, found by _solve_fraction.  m = K0 means
    the whole exclusive class is cached.  Relies on the interleaved
    efficiency sequence eps_0(0) <= eps_0(1) <= eps_1(0) <= ... being
    non-decreasing wherever it is negative.
    """
    k0 = len(ctx.exc_pos[a])
    if ctx.exclusive_eff(a, 0, 0.0) > level:
        return 0, False
    if ctx.exclusive_eff(a, k0 - 1, 1.0) < level:
        return k0, False
    lo, hi = 0, k0 - 1
    # largest position whose empty-value efficiency is still <= level
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ctx.exclusive_eff(a, mid, 0.0) <= level:
            lo = mid
        else:
            hi = mid - 1
    if ctx.exclusive_eff(a, lo, 1.0) < level:
        return lo + 1, False
    # here eps(lo, 0) <= level <= eps(lo, 1)
    if ctx.exclusive_eff(a, lo, 0.0) >= level:
        return lo, False
    return lo, True


def _halvings(ctx: EfficiencyContext, a: int, m: int, level: float):
    """The brackets (x_lo, x_hi) of the bisection for the smallest x in
    (0, 1] with eps_m(x) >= level, one after each halving, down to
    INVERSE_TOL; only asked where eps_m(0) < level <= eps_m(1).  Each
    bracket lies in the one before, so every one holds the final x_hi."""
    x_lo, x_hi = 0.0, 1.0
    while x_hi - x_lo > INVERSE_TOL:
        x_mid = 0.5 * (x_lo + x_hi)
        if ctx.exclusive_eff(a, m, x_mid) >= level:
            x_hi = x_mid
        else:
            x_lo = x_mid
        yield x_lo, x_hi


def _solve_fraction(ctx: EfficiencyContext, a: int, m: int, level: float,
                    stop: float = 0.0) -> float:
    """Smallest x in (0, 1] with eps_m(x) >= level, bisected to INVERSE_TOL
    (_halvings).

    The upper end only falls, so the halving may stop once it is below
    ``stop``: the x returned is then below ``stop`` as the full result is.
    """
    x_hi = 1.0
    for _x_lo, x_hi in _halvings(ctx, a, m, level):
        if x_hi < stop:
            break
    return x_hi


class _Fill(NamedTuple):
    """Where a level fills app a: the positions of its density order
    before ``end`` that are not exclusive, and its first ``m`` exclusive
    positions, of which ``t`` lie before ``end``; exclusive position m is
    fractional if ``pending``."""

    a: int
    end: int
    t: int
    m: int
    pending: bool


def _level_fills(ctx: EfficiencyContext, level: float) -> list[_Fill]:
    """The apps the level fills, those with an entry cached or pending, in
    app order; every other app's segment is zero.

    Replicated inputs are cached iff their constant efficiency is <= level
    and strictly negative: the positions before replicated_end that are
    not exclusive.  Over the sorted exclusive class the boundary position
    comes from _locate_level.  Zero-benefit inputs are never cached.
    Memoised per context and level: the level search builds its final
    level's row from the fills a probe found there.
    """
    fills = ctx._fills.get(level)
    if fills is not None:
        return fills
    fills = []
    for a in range(ctx.scenario.num_apps):
        if not ctx.active[a]:
            continue
        pos = ctx.exc_pos[a]
        end = ctx.replicated_end(a, level)
        m, frac = _locate_level(ctx, a, level) if len(pos) else (0, False)
        t = int(pos.searchsorted(end)) if end else 0
        if end > t or m or frac:
            fills.append(_Fill(a, end, t, m, frac))
    ctx._fills[level] = fills
    return fills


def _level_rows(ctx: EfficiencyContext, level: float
                ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The station's dense flat row at `level` with every pending
    fractional entry left at 0, and the pending (app, sorted position)
    pairs."""
    row = np.zeros(ctx.scenario.offsets[-1])
    pending = []
    for a, end, t, m, frac in _level_fills(ctx, level):
        lo, hi = ctx.scenario.segments[a]
        x = row[lo:hi]
        order, pos = ctx.order[a], ctx.exc_pos[a]
        if end:
            x[order[:end]] = 1.0
        # the exclusive positions before end are pos[:t]; pos[:m] are cached
        if m != t:
            x[order[pos[min(m, t):max(m, t)]]] = float(m > t)
        if frac:
            pending.append((a, m))
    return row, pending


def _fill_fractions(ctx: EfficiencyContext, row: np.ndarray,
                    pending: list[tuple[int, int]], level: float,
                    rounded: bool = False) -> None:
    """Write each pending entry's solved fraction into ``row``, or with
    ``rounded`` that fraction rounded (1 iff >= 1 - BINARY_TOL, halving
    only as long as that is open)."""
    cut = 1.0 - BINARY_TOL
    for a, m in pending:
        x = _solve_fraction(ctx, a, m, level, cut if rounded else 0.0)
        row[ctx.exclusive_input(a, m)] = x >= cut if rounded else x


def g_of_B(ctx: EfficiencyContext, level: float) -> list[np.ndarray]:
    """Station rows (one per app) attaining efficiency level `level`, every
    boundary fraction solved.

    The bisection's probes build no row and solve a fraction only as far
    as their verdict needs (module docstring); the rows returned here are
    always the exact ones.
    """
    row, pending = _level_rows(ctx, level)
    _fill_fractions(ctx, row, pending, level)
    return ctx.scenario.split(row)


def _fits(ctx: EfficiencyContext, level: float, cap: float,
          below: Callable[[float, float], bool] = operator.lt) -> bool:
    """Whether the rows at `level` use ``below`` ``cap`` bytes (less than,
    or with operator.le at most), by their prefix-sum storage with every
    fraction solved: the fractions are halved only until the storage at
    their brackets' ends falls on one side of ``cap`` (module docstring).
    """
    prefixes, s = ctx.scenario.size_prefixes, ctx.scenario.s
    used, sizes, halvings = 0.0, [], []
    for a, end, t, m, frac in _level_fills(ctx, level):
        here = prefixes[a].item(end)
        if t or m:
            exc = ctx.exclusive_sizes(a)
            here = (here - exc.item(t)) + exc.item(m)
        used += here
        if frac:
            sizes.append(s.item(ctx.exclusive_input(a, m)))
            halvings.append(_halvings(ctx, a, m, level))
    ends = [(0.0, 1.0)] * len(sizes)
    while True:
        lower = upper = used
        for w, (x_lo, x_hi) in zip(sizes, ends):
            lower += w * x_lo
            upper += w * x_hi
        if not below(lower, cap):
            return False
        if below(upper, cap):
            return True
        # once no bracket halves, the upper ends are the exact fractions,
        # whose storage was just found not to fit
        steps = [next(h, None) for h in halvings]
        if not any(steps):
            return False
        ends = [e if step is None else step for step, e in zip(steps, ends)]


def solve_caching_bs(scenario: Scenario, cache: CacheAssignment,
                     sched: SchedulingState, station: int
                     ) -> tuple[list[np.ndarray], float]:
    """Relaxed cache placement for one station under frozen scheduling.

    Bisects the level B on [floor, 0] against the storage constraint and
    returns the station rows together with the level actually used.  Falls
    back to the last level a probe found to fit if the midpoint overshoots.
    A floor that is not finite (an overflowed p/s or transfer cost) would
    never let the bisection end, so it is MalformedInput.

    Each probe (_fits) reads the storage from size prefix sums.  The
    final row's dense storage is checked once: where it is over the
    capacity (a prefix sum read a few ulps low, or no probe fit and the
    floor's own row overflows it), the rows returned are empty, at the
    floor level.
    """
    ctx = EfficiencyContext(scenario, cache, sched, station)
    row, level, _cached = _level_search(ctx)
    if row_storage(scenario, row) > scenario.storage_capacities[station]:
        row, level = np.zeros_like(row), ctx.efficiency_floor()
    return scenario.split(row), level


def _level_search(ctx: EfficiencyContext, rounded: bool = False
                  ) -> tuple[np.ndarray, float, int]:
    """solve_caching_bs on a built context, before its dense check: the
    flat row, the level, and the row's count of nonzero entries, read from
    the level's fills rather than the row.  With ``rounded`` (the caching
    sweep) the row's boundary entries are rounded, not solved."""
    scenario, station = ctx.scenario, ctx.station
    cap = float(scenario.storage_capacities[station])
    floor = ctx.efficiency_floor()
    if not math.isfinite(floor):
        raise MalformedInput(f"station {station}: efficiency floor {floor} "
                             "is not finite")
    if floor == 0.0:
        return np.zeros(scenario.offsets[-1]), 0.0, 0
    b_l, b_r = floor, 0.0
    while b_r - b_l >= LEVEL_ACCURACY:
        b_m = 0.5 * (b_l + b_r)
        if b_m == b_l or b_m == b_r:
            break  # adjacent doubles: no level lies between them
        if _fits(ctx, b_m, cap):
            b_l = b_m
        else:
            b_r = b_m
    level = 0.5 * (b_l + b_r)
    if not _fits(ctx, level, cap, operator.le):
        level = b_l
    row, pending = _level_rows(ctx, level)
    _fill_fractions(ctx, row, pending, level, rounded)
    # per app, end - t replicated and m exclusive entries are 1 (_level_rows),
    # and a pending entry is its fraction
    cached = sum(f.end - f.t + f.m for f in _level_fills(ctx, level)) + sum(
        row.item(ctx.exclusive_input(a, m)) != 0.0 for a, m in pending)
    return row, level, cached


def efficiencies_at_solution(ctx: EfficiencyContext,
                             rows: list[np.ndarray]) -> list[np.ndarray]:
    """Every input's efficiency evaluated at the hit rate the rows induce.

    Ordered by original input index per app; used to check the optimality
    conditions (cached iff efficiency below the level, one fractional entry
    at the level, capacity tight when the level is interior).
    """
    out = []
    for a, p in enumerate(ctx.scenario.match_probs):
        eff = np.zeros(len(p))
        eff[ctx.replicated[a]] = ctx.rep_eff[a]
        exc = ctx.exclusive[a]
        if len(exc):
            g = ctx.bracket(a, ctx.base_hit[a] + dot(p[exc], rows[a][exc]))
            eff[exc] = -ctx.neg_ratio[a][ctx.exc_pos[a]] * g
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


class SweepState(CacheAssignment):
    """A cache that keeps its per-input counts and hit-rate table current
    through the station rewrites ``accept`` writes into it in place.

    ``counts`` is the column sum of the cache matrix and ``hit`` equals
    compute_hit_rates(scenario, self) bit for bit: a candidate's table is
    built in O(K) from the same reductions, with neighbor = total - local.
    It takes over the matrix of the checked cache it is built from.

    ``versions[j]`` numbers station j's peer mask (counts - x[j]) > 0, the
    inputs some other station caches: ``accept`` bumps it exactly when that
    mask flips, so what depends on the mask alone holds while the version
    does.  Each station's mask is kept as bool (one byte per input), with
    its Partition once ``peers`` asks for it, keyed by the version, until
    ``release``.  A candidate's cached mass reads the kept mask, so no
    candidate builds counts: only ``accept`` does, for the accepted row.
    ``cached[n]`` is the number of inputs station n caches.
    """

    def __init__(self, scenario: Scenario, cache: CacheAssignment):
        self.x, self.offsets, self.entries = cache.x, cache.offsets, cache.entries
        self.scenario = scenario
        self.counts = self.x.sum(axis=0)
        # row by row: count_nonzero over an axis copies the matrix as bool
        self.cached = np.array([np.count_nonzero(r) for r in self.x])
        self.hit = compute_hit_rates(scenario, self)
        self.versions = np.zeros(scenario.num_stations, dtype=np.int64)
        # per station: [version, peer mask, partition or None], or None
        self._kept: list[list | None] = [None] * scenario.num_stations

    def _mask_entry(self, n: int) -> list:
        """Station n's kept entry, made again when n's version has moved."""
        kept = self._kept[n]
        if kept is None or kept[0] != self.versions[n]:
            kept = [int(self.versions[n]), self.counts - self.x[n] > 0.0, None]
            self._kept[n] = kept
        return kept

    def peer_mask(self, n: int) -> np.ndarray:
        """Station n's flat peer mask: the inputs some other station caches."""
        return self._mask_entry(n)[1]

    def peers(self, n: int) -> Partition:
        """Station n's partition (EfficiencyContext), built again from its
        peer mask only when n's version has moved."""
        kept = self._mask_entry(n)
        if kept[2] is None:
            kept[2] = Partition.build(self.scenario, kept[1])
        return kept[2]

    def release(self) -> None:
        """Drop the kept masks and partitions; they are built again on
        demand."""
        self._kept = [None] * len(self._kept)

    def candidate(self, n: int, row: np.ndarray) -> HitRateTable:
        """Hit table of the cache with station n's flat row replaced: an
        input is cached somewhere iff it is in n's peer mask or in the row."""
        if row.shape != self.counts.shape:
            raise DimensionMismatch(f"station row of shape {row.shape} is not flat")
        total = cached_mass(self.scenario, self.peer_mask(n) | (row > 0.0))
        local = self.hit.local.copy()
        local[:, n] = local_hits(self.scenario, row[None])[:, 0]
        return HitRateTable(local, total[:, None] - local, total)

    def accept(self, n: int, row: np.ndarray, hit: HitRateTable) -> None:
        """Write station n's flat row in place with its candidate table,
        and bump the version of each other station j whose peer mask
        (counts - x[j]) > 0 flips.  A rewritten input's count moves between
        lo and lo + 1, so j's mask flips there iff x[j] == lo: at lo = 0 no
        other station caches it and every other mask flips, at lo = 1 the
        mask of the one other station that caches it.  Station n's own
        mask does not read its row.  The inputs k the row rewrites are the
        ones it caches or drops, so n caches 2 |row[k] == 1| - |k| more.
        """
        counts = self.counts - self.x[n] + row
        k = np.flatnonzero(self.counts != counts)
        lo = np.minimum(self.counts[k], counts[k])
        flipped = np.full(len(self.versions), bool((lo == 0.0).any()))
        flipped |= (self.x[:, k[lo == 1.0]] == 1.0).any(axis=1)
        flipped[n] = False
        self.cached[n] += 2 * np.count_nonzero(row[k]) - len(k)
        self.x[n] = row
        self.versions += flipped
        self.counts = counts
        self.hit = hit


class _Solved(NamedTuple):
    """A station's last solve in a sweep: its peer-mask version and y, its
    rounded flat row as bool (None if equal to its own or over capacity)
    and the count of accepted rewrites at their last verdict."""

    version: int
    y: np.ndarray
    row: np.ndarray | None
    tested: int


def sweep_all_stations(scenario: Scenario, cache: SweepState,
                       sched: SchedulingState, passes: int
                       ) -> tuple[SweepState, SchedulingState, list[float]]:
    """Station-by-station cache improvement under frozen (lam, fshare).

    Each station solve is rounded and written back only if the objective
    (with search flags refreshed) does not increase, which makes the
    objective non-increasing by construction.  Updates ``cache`` in place
    and returns it with the refreshed scheduling state and the per-pass
    objectives; stops early once a full pass changes nothing.

    A station's subproblem reads its peer mask (which inputs some other
    station caches), lam, fshare and y, never the station's own rows, and
    lam and fshare are frozen here.  So a station is solved again only when
    its peer-mask version (SweepState.versions) or y has moved since its
    last solve; otherwise it keeps that solve's rounded rows, which a solve
    would repeat bit for bit, and goes straight to the accept test.  The
    test is skipped too when those rows are the station's own (or over its
    capacity), or when no rewrite was accepted since their last verdict:
    the cache, its tables, y and the objective are then as they were, so
    the verdict would repeat.  A station's own acceptance leaves its
    version as it was, so it is solved again only if that acceptance moved
    y.  The solve rounds only its boundary entries.  A row's dense storage
    is summed once it has passed the objective test, just before it would
    be accepted, and a row over the capacity is not (module docstring).
    """
    sched = sched.copy()
    # lam and fshare are frozen: every evaluation's load half is this one
    frozen = load_tables(scenario, sched.lam, sched.fshare)
    res = evaluate_with_rates(scenario, cache.hit.total, cache.hit.neighbor,
                              sched.lam, sched.fshare, table=frozen)
    if not res.feasible:
        raise StabilityViolation("sweep started from an unstable point")
    sched.y = res.y
    obj = res.objective
    pass_objs: list[float] = []
    accepted = 0
    last: list[_Solved | None] = [None] * scenario.num_stations
    for _ in range(passes):
        accepted_before = accepted
        for n in range(scenario.num_stations):
            y = sched.y
            version = int(cache.versions[n])
            prev = last[n]
            if (prev is not None and prev.version == version
                    and np.array_equal(prev.y, y)):
                if prev.row is None or prev.tested == accepted:
                    continue
                row = prev.row.astype(np.float64)
                last[n] = prev._replace(tested=accepted)
            else:
                row, _level, cached = _level_search(EfficiencyContext(
                    scenario, cache, sched, n, cache.peers(n)), rounded=True)
                # rows of 0/1 with different counts differ: compared
                # densely only where the counts agree
                if cached == cache.cached[n] and np.array_equal(row, cache.x[n]):
                    last[n] = _Solved(version, y, None, accepted)
                    continue
                last[n] = _Solved(version, y, row.astype(bool), accepted)
            hit = cache.candidate(n, row)
            res2 = evaluate_with_rates(scenario, hit.total, hit.neighbor,
                                       sched.lam, sched.fshare, table=frozen)
            if not (res2.feasible and res2.objective <= obj):
                continue
            # a row over the capacity is not accepted, and not tested again
            if row_storage(scenario, row) <= scenario.storage_capacities[n]:
                cache.accept(n, row, hit)
                sched.y = res2.y
                obj = res2.objective
                accepted += 1
            last[n] = _Solved(version, y, None, accepted)
        pass_objs.append(obj)
        if accepted == accepted_before:
            break
    return cache, sched, pass_objs


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
    row = np.concatenate(rows)
    x = cache.x.copy()
    x[station] = row
    exc = scenario.split(x.sum(axis=0) - row <= 0.0)
    total = np.array([p[~e].sum() + dot(p[e], r[e]) for p, e, r
                      in zip(scenario.match_probs, exc, scenario.split(row))])
    local = local_hits(scenario, x)
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
    t = len(scenario.s)
    if t > ORACLE_MAX_ITEMS:
        raise TooLarge(f"{t} items exceeds the enumeration cap {ORACLE_MAX_ITEMS}")
    cap = scenario.storage_capacities[station]

    masks = np.arange(1 << t, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(t)[None, :]) & 1
    fits = np.nonzero(bits @ scenario.s <= cap)[0]

    best_obj = None
    best_rows = None
    for mask in fits:
        rows = scenario.split(bits[mask].astype(np.float64))
        cand = cache.with_station(station, rows)
        res = evaluate_objective(scenario, cand, sched)
        if res.feasible and (best_obj is None or res.objective < best_obj):
            best_obj = res.objective
            best_rows = rows
    if best_obj is None:
        raise Infeasible("no stable cache subset exists at this station")
    return best_rows, best_obj
