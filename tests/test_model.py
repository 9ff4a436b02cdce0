"""Scenario model: the flat catalog and its per-app views, hit rates,
storage accounting, feasibility, serialization."""
from dataclasses import replace

import numpy as np
import pytest

from cecreuse import (CacheAssignment, DimensionMismatch, GeneratorParams,
                      MalformedInput, SchedulingState, compute_hit_rates,
                      generate_scenario, load_scenario, save_scenario,
                      scenario_from_dict, scenario_to_dict, storage_used,
                      validate)
from cecreuse.model import Scenario, TypicalInput, rows_storage
from cecreuse.solver import greedy_cache, solve_greedy, solve_noc

from conftest import (NON_FINITE_FIELDS, NON_FINITE_IDS, WRONG_TYPE_FIELDS,
                      WRONG_TYPE_IDS, build_scenario, full_cache,
                      mutated_document, uniform_state)


def test_total_arrival_rate_zero_and_identity():
    sc = build_scenario((1e9,), (1e9,), (0.01,), ((0.0,),),
                        [(1.0, 1e8, [(0.1, 1e5)])])
    assert sc.total_rates[0] == 0.0
    sc = build_scenario((1e9,), (1e9,), (0.01,), ((1.5,),),
                        [(1.0, 1e8, [(0.1, 1e5)])])
    assert sc.total_rates[0] == 1.5


def test_total_arrival_rate_sums_over_stations():
    sc = build_scenario((1e9,) * 3, (1e9,) * 3, (0.01,) * 3,
                        ((0.5,), (1.0,), (1.5,)),
                        [(1.0, 1e8, [(0.1, 1e5)])])
    assert sc.total_rates[0] == pytest.approx(3.0)


def test_hit_rates_empty_cache(two_station_one_app):
    rates = compute_hit_rates(two_station_one_app,
                              CacheAssignment.zeros(two_station_one_app))
    assert not rates.local.any()
    assert not rates.neighbor.any()
    assert not rates.total.any()


def test_hit_rates_single_station_full_cache():
    sc = build_scenario((1e9,), (1e9,), (0.01,), ((1.0,),),
                        [(1.0, 1e8, [(0.2, 1e4), (0.3, 1e4)])])
    rates = compute_hit_rates(sc, full_cache(sc))
    assert rates.local[0, 0] == pytest.approx(0.5)
    assert rates.neighbor[0, 0] == 0.0
    assert rates.total[0] == pytest.approx(0.5)


def test_hit_rates_two_station_catalog_split(two_station_one_app):
    # p = (0.2, 0.3, 0.1); station 0 holds items 0 and 2, station 1 items 1, 2
    cache = CacheAssignment([np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])])
    rates = compute_hit_rates(two_station_one_app, cache)
    assert rates.local[0, 0] == pytest.approx(0.3)
    assert rates.neighbor[0, 0] == pytest.approx(0.3)
    assert rates.local[0, 1] == pytest.approx(0.4)
    assert rates.neighbor[0, 1] == pytest.approx(0.2)
    assert rates.total[0] == pytest.approx(0.6)
    # total = local + neighbor at every station for binary caches
    np.testing.assert_allclose(rates.local + rates.neighbor,
                               np.broadcast_to(rates.total[:, None], rates.local.shape),
                               rtol=0, atol=1e-12)


def test_hit_rate_sums_station_independent_random():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 8))
        p = rng.dirichlet(np.ones(k)) * 0.9
        sc = build_scenario((1e9,) * n, (1e9,) * n, (0.01,) * n,
                            tuple((1.0,) for _ in range(n)),
                            [(1.0, 1e8, [(pi, 1e4) for pi in p])])
        cache = CacheAssignment([rng.integers(0, 2, size=(n, k)).astype(float)])
        rates = compute_hit_rates(sc, cache)
        sums = rates.local[0] + rates.neighbor[0]
        np.testing.assert_allclose(sums, rates.total[0], rtol=0, atol=1e-12)


def test_hit_rate_monotone_in_single_entry():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(20):
        n, k = 3, 5
        p = rng.dirichlet(np.ones(k)) * 0.8
        sc = build_scenario((1e9,) * n, (1e9,) * n, (0.01,) * n,
                            tuple((1.0,) for _ in range(n)),
                            [(1.0, 1e8, [(pi, 1e4) for pi in p])])
        x = rng.integers(0, 2, size=(n, k)).astype(float)
        before = compute_hit_rates(sc, CacheAssignment([x])).total[0]
        station, item = int(rng.integers(n)), int(rng.integers(k))
        x2 = x.copy()
        x2[station, item] = 1.0
        after = compute_hit_rates(sc, CacheAssignment([x2])).total[0]
        assert after >= before - 1e-15
        assert after <= p.sum() + 1e-15


def test_storage_used_hand_values():
    sc = build_scenario((1e9,), (1e9,), (0.01,), ((1.0,),),
                        [(1.0, 1e8, [(0.1, 1e6), (0.1, 2e6)])])
    assert storage_used(sc, CacheAssignment.zeros(sc), 0) == 0.0
    one = CacheAssignment([np.array([[1.0, 0.0]])])
    assert storage_used(sc, one, 0) == pytest.approx(1e6)
    assert rows_storage(sc, [np.array([1.0, 0.5])]) == pytest.approx(2e6)


def test_storage_used_linear_in_x():
    sc = build_scenario((1e9,), (1e9,), (0.01,), ((1.0,),),
                        [(1.0, 1e8, [(0.1, 3e5), (0.1, 7e5)])])
    rng = np.random.Generator(np.random.PCG64(9))
    x = rng.random(2)
    used = rows_storage(sc, [x])
    half = rows_storage(sc, [0.5 * x])
    assert half == pytest.approx(0.5 * used, rel=1e-12)


def test_validate_accepts_greedy_state(default_scenario):
    rep = solve_greedy(default_scenario)
    assert validate(default_scenario, rep.cache, rep.sched) == []


def test_validate_reports_row_sum_violation(two_station_one_app):
    sched = SchedulingState(lam=np.array([[0.6, 0.6]]),
                            fshare=np.ones((1, 2)),
                            y=np.zeros((1, 2), dtype=np.int8))
    out = validate(two_station_one_app, CacheAssignment.zeros(two_station_one_app), sched)
    sums = [v for v in out if v.constraint == "workload_sum"]
    assert len(sums) == 1
    assert sums[0].magnitude == pytest.approx(0.2)


def test_validate_reports_stability_boundary():
    # mu0 = f / wa = 2 tasks/s and lam R = 2: the open constraint fails
    sc = build_scenario((2e9,), (1e9,), (0.01,), ((2.0,),),
                        [(1.0, 1e9, [(0.1, 1e5)])])
    sched = SchedulingState(lam=np.ones((1, 1)), fshare=np.ones((1, 1)),
                            y=np.zeros((1, 1), dtype=np.int8))
    out = validate(sc, CacheAssignment.zeros(sc), sched)
    assert any(v.constraint == "stability" for v in out)


def test_validate_reports_storage_overflow():
    sc = build_scenario((1e9,), (1e5,), (0.01,), ((0.1,),),
                        [(1.0, 1e8, [(0.1, 1e5), (0.1, 1e5)])])
    out = validate(sc, full_cache(sc), uniform_state(sc))
    assert any(v.constraint == "storage" for v in out)


def test_scenario_json_roundtrip(tmp_path, default_scenario):
    path = tmp_path / "scenario.json"
    save_scenario(default_scenario, path)
    loaded = load_scenario(path)
    assert loaded == default_scenario


def test_scenario_rejects_bad_inputs():
    good_apps = [(1.0, 1e8, [(0.1, 1e5)])]
    with pytest.raises(MalformedInput):
        build_scenario((0.0,), (1e9,), (0.01,), ((1.0,),), good_apps)
    with pytest.raises(MalformedInput):
        build_scenario((1e9,), (1e9,), (0.01,), ((1.0,),),
                       [(1.0, 1e8, [(0.6, 1e5), (0.6, 1e5)])])
    with pytest.raises(DimensionMismatch):
        build_scenario((1e9,), (1e9,), (0.01,), ((1.0, 1.0),), good_apps)
    with pytest.raises(MalformedInput):
        build_scenario((1e9,), (1e9,), (0.01,), ((1.0,),),
                       [(1.0, -1e8, [(0.1, 1e5)])])


@pytest.mark.parametrize("path,value", NON_FINITE_FIELDS + WRONG_TYPE_FIELDS,
                         ids=NON_FINITE_IDS + WRONG_TYPE_IDS)
def test_scenario_from_dict_rejects_non_finite(two_station_one_app, path, value):
    with pytest.raises(MalformedInput) as got:
        scenario_from_dict(mutated_document(two_station_one_app, path, value))
    if (path, value) in WRONG_TYPE_FIELDS:
        # a value of the wrong type is reported under its field's name
        field = [key for key in path if isinstance(key, str)][-1]
        assert str(got.value).startswith(f"{field} must be a ")


def test_cache_assignment_rejects_out_of_range():
    with pytest.raises(MalformedInput):
        CacheAssignment([np.array([[1.5]])])
    for value in (0.5, 1.0 - 1e-13):
        with pytest.raises(MalformedInput):
            CacheAssignment([np.array([[1.0, value]])])
    with pytest.raises(DimensionMismatch):
        CacheAssignment([np.array([0.5])])
    # the one check over the whole matrix names the app of the bad entry,
    # past an app with an empty catalog
    with pytest.raises(MalformedInput, match="app 2"):
        CacheAssignment([np.zeros((2, 2)), np.zeros((2, 0)),
                         np.array([[1.0], [0.5]])])


def test_cache_is_binary_flag(default_scenario):
    CacheAssignment.zeros(default_scenario)
    with pytest.raises(MalformedInput):
        CacheAssignment([np.array([[0.4]])])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cache_rejects_non_finite_entries(value):
    with pytest.raises(MalformedInput):
        CacheAssignment([np.array([[value, 1.0]])])
    with pytest.raises(MalformedInput):
        CacheAssignment([np.zeros((2, 2)), np.array([[0.0], [value]])])


def test_cache_rejects_mismatched_station_counts():
    # the apps' matrices are one (N, K) matrix, so they share N
    with pytest.raises(DimensionMismatch, match="app 1"):
        CacheAssignment([np.zeros((2, 3)), np.zeros((3, 3))])
    with pytest.raises(DimensionMismatch, match="app 2"):
        CacheAssignment([np.zeros((2, 1)), np.zeros((2, 0)), np.zeros((1, 2))])
    with pytest.raises(DimensionMismatch):
        CacheAssignment([])


def test_entries_are_views_of_the_one_matrix(default_scenario):
    sc = default_scenario
    cache = CacheAssignment.zeros(sc)
    assert cache.x.shape == (sc.num_stations, sc.offsets[-1])
    assert [x.shape for x in cache.entries] == [
        (sc.num_stations, sc.catalog_size(a)) for a in range(sc.num_apps)]
    cache.entries[2][3] = 1.0
    lo, hi = sc.offsets[2], sc.offsets[3]
    assert cache.x[3, lo:hi].all() and cache.x.sum() == hi - lo
    hit = compute_hit_rates(sc, cache)
    assert hit.local[2, 3] == hit.total[2] > 0.0
    assert np.count_nonzero(hit.local) == 1
    assert storage_used(sc, cache, 3) == rows_storage(sc, [x[3] for x in cache.entries])
    # an entry written out of range is caught again by validate
    cache.entries[1][4, 0] = 0.5
    assert [(v.constraint, v.app, v.station) for v in validate(
        sc, cache, solve_greedy(sc).sched) if v.constraint == "range"] == [
            ("range", 1, 4)]


def test_with_station_leaves_its_source_untouched(default_scenario):
    sc = default_scenario
    source = greedy_cache(sc)
    before = source.x.copy()
    rows = [1.0 - x[0] for x in source.entries]
    new = source.with_station(0, rows)
    assert np.array_equal(source.x, before)
    assert np.array_equal(new.x[0], np.concatenate(rows))
    assert np.array_equal(new.x[1:], before[1:])
    assert all(np.shares_memory(x, new.x) for x in new.entries)
    with pytest.raises(DimensionMismatch):
        source.with_station(0, rows[:-1])
    with pytest.raises(DimensionMismatch):
        source.with_station(0, [rows[0][:-1]] + rows[1:])


def assert_flat_catalog(sc):
    """Flat p, s and offsets equal the per-app arrays and the typical
    inputs, and the density orders are each app's own stable argsort."""
    assert sc.offsets.tolist() == np.cumsum(
        [0] + [len(app.typical_inputs) for app in sc.apps]).tolist()
    for a, app in enumerate(sc.apps):
        lo, hi = sc.offsets[a], sc.offsets[a + 1]
        p = [ti.match_prob for ti in app.typical_inputs]
        s = [ti.result_size for ti in app.typical_inputs]
        assert sc.p[lo:hi].tolist() == sc.match_probs[a].tolist() == p
        assert sc.s[lo:hi].tolist() == sc.result_sizes[a].tolist() == s
        neg = -(np.array(p) / np.array(s))
        order = np.argsort(neg, kind="stable")
        assert sc.density_orders[a].tolist() == order.tolist()
        assert sc.sorted_neg_densities[a].tobytes() == neg[order].tobytes()
    assert sc.density_order.tolist() == np.argsort(
        -(sc.p / sc.s), kind="stable").tolist()


def test_flat_catalog_of_a_permuted_scenario():
    # the benchmark relabels a scenario by permuting each app's inputs
    rng = np.random.default_rng(5)
    sc = generate_scenario(GeneratorParams(seed=42, num_apps=4, k_scale=0.002))
    apps = tuple(replace(app, typical_inputs=tuple(
        app.typical_inputs[k] for k in rng.permutation(len(app.typical_inputs))))
        for app in sc.apps)
    permuted = replace(sc, apps=apps)
    assert_flat_catalog(permuted)
    assert not np.array_equal(permuted.p, sc.p)
    assert sorted(permuted.p.tolist()) == sorted(sc.p.tolist())


CACHED = ("compute_capacities", "storage_capacities", "transfer_delays",
          "arrival_rate_matrix", "total_rates", "weights", "workloads",
          "offsets", "p", "s", "density_order")
PER_APP = ("match_probs", "result_sizes", "density_orders",
           "sorted_neg_densities", "size_prefixes")


@pytest.mark.parametrize("kept", [[0, 1, 2], [1, 2], [0, 2], [1]])
def test_flat_catalog_of_single_station_scenarios(kept, monkeypatch):
    # a station's one-station problem takes its catalog arrays from the
    # parent's, which are checked: shared whole when every app is kept,
    # else the kept apps' entries.  Apps without arrivals at the station
    # are dropped.  The catalog is never checked again
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=4,
                                           num_apps=3, k_scale=0.002))
    stations = list(sc.stations)
    stations[1] = replace(stations[1], arrival_rates=tuple(
        r if a in kept else 0.0 for a, r in enumerate(stations[1].arrival_rates)))
    sc = replace(sc, stations=tuple(stations))

    def checked(self):
        raise AssertionError("catalog checked again")

    with monkeypatch.context() as patched:
        patched.setattr(Scenario, "_check_catalog", checked)
        sub = sc.isolated(1)
        solve_noc(sc, 0)
    assert [app.typical_inputs for app in sub.apps] == [
        sc.apps[a].typical_inputs for a in kept]
    assert_flat_catalog(sub)
    every = kept == [0, 1, 2]
    for name in ("p", "s", "density_order"):
        assert (getattr(sub, name) is getattr(sc, name)) == every
    for name in ("density_orders", "sorted_neg_densities", "size_prefixes"):
        for i, a in enumerate(kept):
            assert getattr(sub, name)[i] is getattr(sc, name)[a]
    # every cached array is the one a checked scenario computes itself
    alone = Scenario(stations=sub.stations, apps=sub.apps,
                     search_workload=sub.search_workload)
    for name in CACHED:
        got, want = getattr(sub, name), getattr(alone, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in PER_APP:
        assert [v.tobytes() for v in getattr(sub, name)] == [
            v.tobytes() for v in getattr(alone, name)], name
    assert greedy_cache(alone).x.tobytes() == greedy_cache(sub).x.tobytes()


def test_partial_station_density_order_comes_from_the_parents(monkeypatch):
    # the scenario of test_noc_golden_with_different_app_sets: app 0 has no
    # arrivals at stations 1 and 3.  Their one-station problems take the
    # flat density order from the parent's, filtered to the kept apps and
    # renumbered, which is the stable sort of their own -(p/s); no catalog
    # is sorted again, in them or in NoC's whole solve
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=4,
                                           num_apps=3, k_scale=0.002))
    stations = list(sc.stations)
    for n in (1, 3):
        rates = (0.0,) + stations[n].arrival_rates[1:]
        stations[n] = replace(stations[n], arrival_rates=rates)
    sc = replace(sc, stations=tuple(stations))
    for name in ("density_order", "density_orders", "sorted_neg_densities",
                 "size_prefixes"):
        getattr(sc, name)   # the parent sorts once

    def sorted_again(self):
        raise AssertionError("catalog sorted again")

    with monkeypatch.context() as patched:
        patched.setattr(Scenario, "_density_sort", property(sorted_again))
        subs = [sc.isolated(n) for n in range(4)]
        rep = solve_noc(sc)
        orders = [sub.density_order for sub in subs]
    assert rep.feasible
    for n, (sub, order) in enumerate(zip(subs, orders)):
        assert sub.num_apps == (2 if n in (1, 3) else 3)
        want = np.argsort(-(sub.p / sub.s), kind="stable")
        assert order.dtype == np.int32 and not order.flags.writeable
        assert order.tolist() == want.tolist(), n


def test_each_outside_path_checks_the_catalog_once(monkeypatch):
    # a scenario built from outside input runs the catalog check once and
    # names the first bad input; a station's one-station problem never runs it
    calls = []
    check = Scenario._check_catalog
    monkeypatch.setattr(Scenario, "_check_catalog",
                        lambda self: calls.append(self) or check(self))
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=0.002))
    assert len(calls) == 1 and calls[0] is sc
    for make in (lambda: Scenario(sc.stations, sc.apps, sc.search_workload),
                 lambda: scenario_from_dict(scenario_to_dict(sc)),
                 lambda: replace(sc, search_workload=1.0)):
        calls.clear()
        made = make()
        assert len(calls) == 1 and calls[0] is made
    calls.clear()
    sc.isolated(0)
    assert not calls
    doc = mutated_document(sc, ("apps", 1, "typical_inputs", 3,
                                "result_size_bytes"), 0.0)
    with pytest.raises(MalformedInput, match=r"^app 1 input 3: result size "
                       "must be finite and positive$"):
        scenario_from_dict(doc)
    inputs = sc.apps[0].typical_inputs
    # a Python caller's field that is not a number is named, not converted
    for ti, message in (
            (TypicalInput(1.5, 1.0),
             r"^app 0 input 2: match prob outside \[0, 1\]$"),
            (TypicalInput("0.5", 1.0), r"^match_prob must be a number, not str$"),
            (TypicalInput(True, 1.0), r"^match_prob must be a number, not bool$"),
            (TypicalInput(0.5, None),
             r"^result_size must be a number, not NoneType$")):
        bad = replace(sc.apps[0], typical_inputs=inputs[:2] + (ti,) + inputs[3:])
        with pytest.raises(MalformedInput, match=message):
            replace(sc, apps=(bad,) + sc.apps[1:])


@pytest.mark.parametrize("field", ["lam", "fshare", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scheduling_state_rejects_non_finite_entries(field, value):
    arrays = {"lam": np.full((1, 2), 0.5), "fshare": np.ones((1, 2)),
              "y": np.zeros((1, 2))}
    arrays[field][0, 1] = value
    with pytest.raises(MalformedInput):
        SchedulingState(**arrays)


def test_greedy_cache_respects_storage(default_scenario):
    cache = greedy_cache(default_scenario)
    for n in range(default_scenario.num_stations):
        assert (storage_used(default_scenario, cache, n)
                <= default_scenario.storage_capacities[n])
