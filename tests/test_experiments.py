"""Scenario generation laws and the sweep driver."""
import csv
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cecreuse import (GeneratorParams, Infeasible, LineSearchExhausted,
                      MalformedInput, StabilityViolation, SweepSpec,
                      experiments, generate_scenario, run_sweep,
                      save_sweep_csv, scenario_to_dict, validate)
from cecreuse.experiments import SWEEP_HEADER
from cecreuse.solver import ROUND_CAP, solve

SMALL = GeneratorParams(seed=42, num_stations=3, num_apps=2, k_scale=0.002)


def tiny_spec(**kw):
    base = dict(axis="workload", values=(0.5, 1.0), repetitions=2,
                algorithms=("greedy", "nor"), rounds=2)
    base.update(kw)
    return SweepSpec(**base)


# -- generator ----------------------------------------------------------------


def test_same_seed_same_scenario():
    a = generate_scenario(GeneratorParams(seed=7))
    b = generate_scenario(GeneratorParams(seed=7))
    assert scenario_to_dict(a) == scenario_to_dict(b)
    c = generate_scenario(GeneratorParams(seed=8))
    assert scenario_to_dict(c) != scenario_to_dict(a)


def test_desk_scale_ranges(default_scenario):
    sc = default_scenario
    assert sc.num_stations == 10 and sc.num_apps == 5
    assert sc.search_workload == 25e6
    assert ((2e9 <= sc.compute_capacities) & (sc.compute_capacities <= 8e9)).all()
    assert ((2e7 <= sc.storage_capacities) & (sc.storage_capacities <= 8e7)).all()
    assert ((0.010 <= sc.transfer_delays) & (sc.transfer_delays <= 0.030)).all()
    assert ((2e8 <= sc.workloads) & (sc.workloads <= 6e8)).all()
    for a in range(sc.num_apps):
        k = sc.catalog_size(a)
        assert 100 <= k <= 500
        assert (sc.result_sizes[a] >= 1e4).all()
        assert (sc.match_probs[a] > 0.0).all()
        assert sc.match_probs[a].sum() <= 0.95 + 1e-12


def test_apps_axis_keeps_offered_load():
    totals = []
    for A in (2, 5, 8):
        sc = generate_scenario(GeneratorParams(seed=42, num_apps=A))
        totals.append(sc.arrival_rate_matrix.sum(axis=0))
    assert np.allclose(totals[0], totals[1], atol=1e-9)
    assert np.allclose(totals[1], totals[2], atol=1e-9)


def test_station_draws_are_prefix_coupled():
    small = generate_scenario(GeneratorParams(seed=42, num_stations=5))
    large = generate_scenario(GeneratorParams(seed=42, num_stations=20))
    assert np.array_equal(small.compute_capacities, large.compute_capacities[:5])
    assert np.array_equal(small.storage_capacities, large.storage_capacities[:5])
    assert np.array_equal(small.transfer_delays, large.transfer_delays[:5])
    # app catalogs and workloads do not move with the station count
    assert np.array_equal(small.workloads, large.workloads)
    for a in range(small.num_apps):
        assert np.array_equal(small.match_probs[a], large.match_probs[a])
        assert np.array_equal(small.result_sizes[a], large.result_sizes[a])


def test_app_draws_are_prefix_coupled():
    small = generate_scenario(GeneratorParams(seed=42, num_apps=2))
    large = generate_scenario(GeneratorParams(seed=42, num_apps=5))
    for a in range(2):
        assert small.workloads[a] == large.workloads[a]
        assert np.array_equal(small.match_probs[a], large.match_probs[a])


def test_weights_are_traffic_volumes(default_scenario):
    sc = default_scenario
    for a in range(sc.num_apps):
        assert sc.apps[a].weight == pytest.approx(
            float(sc.arrival_rate_matrix[a].sum()), rel=1e-12)


def test_workload_factor_scales_rates_linearly(default_scenario):
    sc = default_scenario
    half = generate_scenario(GeneratorParams(seed=42, workload_factor=0.5))
    assert half.arrival_rate_matrix == pytest.approx(
        0.5 * sc.arrival_rate_matrix, rel=1e-12)
    assert np.array_equal(half.workloads, sc.workloads)


def test_generator_rejects_bad_params():
    for bad in (dict(workload_factor=0.0), dict(workload_factor=math.nan),
                dict(workload_factor=math.inf), dict(k_scale=-0.01),
                dict(k_scale=math.nan), dict(k_scale=math.inf),
                dict(num_stations=0), dict(num_stations=2.5),
                dict(num_apps=0), dict(num_apps=2.5),
                # a catalog no machine holds: rejected before any draw
                dict(num_stations=1, num_apps=1, k_scale=1e12),
                dict(k_scale=20.001),
                # numpy's SeedSequence takes no negative or fractional seed
                dict(seed=-1), dict(seed=1.5)):
        with pytest.raises(MalformedInput):
            generate_scenario(GeneratorParams(**bad))


# SHA-256 of the sorted-key JSON of a scenario: every sweep and the
# benchmark draw their instances from this generator
@pytest.mark.parametrize("params,digest", [
    (GeneratorParams(seed=42),
     "b6fb2aee175f4679112869432dd6363ae5d2c9ce1a88e5f01692cc2b990e6c22"),
    (GeneratorParams(seed=42, num_stations=20, num_apps=8, workload_factor=0.5),
     "f9aadc5e794835de384151768d88afe25f1ecfe799a3944446cbed01dcb04aff"),
    (SMALL,
     "e55363460cb8a667e09f809dd53e509a80b10d05021177b8c9aab2924be21a32"),
], ids=["default", "N20-A8-w0.5", "N3-A2-k0.002"])
def test_generator_golden_scenarios(params, digest):
    text = json.dumps(scenario_to_dict(generate_scenario(params)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _report_digest(rep):
    """SHA-256 over the trace rows and the cache, lam, fshare and y bytes."""
    h = hashlib.sha256(repr(rep.objective_trace).encode())
    for arr in (*rep.cache.entries, rep.sched.lam, rep.sched.fshare, rep.sched.y):
        h.update(arr.tobytes())
    return h.hexdigest()


# exact solver output per cell: a refactor that claims to keep every
# operation and its order must reproduce these bit for bit
@pytest.mark.parametrize("params,algorithm,rounds,objective,digest", [
    (SMALL, "proposed", ROUND_CAP, "1.3358575562343393",
     "7fa1d49f88c8bd1afa2a7858ef8226f52313c196c68ad4cee36ecf923ebf9d06"),
    (SMALL, "greedy", ROUND_CAP, "1.3529917260591666",
     "1c5e8f06621c605c91eb89858c62873041dde03aa12d80ce621c3f56818b2b69"),
    (SMALL, "nor", ROUND_CAP, "4.198015421778337",
     "b2cfe4621b6224debfd614c82403d5187b4d7262b85f0dfc2e927929103c2795"),
    (SMALL, "noc", ROUND_CAP, "1.5088780566795246",
     "b1a2b67c976ce9815a6f6a8b28d475ea1285d87949857382596b0cb21065827b"),
    (GeneratorParams(seed=42), "proposed", 2, "8.802650261658783",
     "78f7c6e2edd52894657d32e72e694f141eda03811b377f97a8c42d474b3f37c7"),
    # twenty searching stations: the longest level-search bracket sums
    (GeneratorParams(seed=42, num_stations=20, num_apps=8, workload_factor=0.5),
     "proposed", 2, "6.529895200555686",
     "b086314d1c24692e8ed34032854d664aa0318b81c29283371849f9ffdc65d73b"),
    # NoC's stations descend as one stack: ten and twenty at a time, each
    # stopping at its own round
    (GeneratorParams(seed=42), "noc", ROUND_CAP, "35.857474177417465",
     "4f70c51385ee9ab930ed6cdf20a053ddede38ef912a54a7f01b7789392bd4aca"),
    (GeneratorParams(seed=42, num_stations=20, num_apps=8, workload_factor=0.5),
     "noc", ROUND_CAP, "38.35106599083215",
     "71f9adf7d38295f7e6352fbc202f1e3068913cf39de85c4ba6065efea0513cf7"),
], ids=["N3-A2-proposed", "N3-A2-greedy", "N3-A2-nor", "N3-A2-noc",
        "default-proposed-r2", "N20-A8-w0.5-proposed-r2", "default-noc",
        "N20-A8-w0.5-noc"])
def test_solver_golden_cells(params, algorithm, rounds, objective, digest):
    rep = solve(generate_scenario(params), algorithm, rounds)
    assert rep.feasible
    assert repr(rep.final_objective) == objective
    assert _report_digest(rep) == digest


def test_noc_golden_with_different_app_sets():
    # app 0 has no arrivals at stations 1 and 3: those two keep apps 1 and
    # 2 and descend in a stack of their own, apart from stations 0 and 2
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=4,
                                           num_apps=3, k_scale=0.002))
    stations = list(sc.stations)
    for n in (1, 3):
        rates = (0.0,) + stations[n].arrival_rates[1:]
        stations[n] = replace(stations[n], arrival_rates=rates)
    sc = replace(sc, stations=tuple(stations))
    rep = solve(sc, "noc", ROUND_CAP)
    assert repr(rep.final_objective) == "3.8226112861197836"
    assert _report_digest(rep) == (
        "797f6cccadac4d0a8b7fd06a4d021df92db20d8c4b8231572bfa7962b7361e63")
    assert rep.sched.fshare[0, [1, 3]].tolist() == [0.0, 0.0]
    assert rep.feasible and not validate(sc, rep.cache, rep.sched)


# -- sweep driver -------------------------------------------------------------


def test_run_sweep_ordering_and_determinism():
    rows = run_sweep(tiny_spec(), SMALL)
    key = [(r["value"], r["repetition"], r["algorithm"]) for r in rows]
    assert key == [(v, rep, alg) for v in (0.5, 1.0) for rep in (0, 1)
                   for alg in ("greedy", "nor")]
    again = run_sweep(tiny_spec(), SMALL)
    for a, b in zip(rows, again):
        a2 = {k: v for k, v in a.items() if k != "wall_time_s"}
        b2 = {k: v for k, v in b.items() if k != "wall_time_s"}
        assert a2 == b2
    # repetitions use distinct seeds
    greedy = [r for r in rows if r["algorithm"] == "greedy" and r["value"] == 1.0]
    assert greedy[0]["total_delay_s"] != greedy[1]["total_delay_s"]


def test_run_sweep_rejects_empty_values():
    with pytest.raises(MalformedInput):
        run_sweep(tiny_spec(values=()), SMALL)
    with pytest.raises(MalformedInput):
        run_sweep(tiny_spec(axis="bogus", values=(1.0,)), SMALL)


def test_run_sweep_tags_infeasible_cells():
    spec = SweepSpec(axis="workload", values=(1.5,), repetitions=1,
                     algorithms=("noc",))
    row, = run_sweep(spec, GeneratorParams(seed=42))
    assert row["feasible"] is False
    assert row["total_delay_s"] is None and row["avg_delay_s"] is None


@pytest.mark.parametrize("error", [Infeasible, StabilityViolation,
                                   LineSearchExhausted])
def test_run_sweep_tags_failing_cells(monkeypatch, error):
    # one failing cell is tagged infeasible; the other cells still solve
    def failing(scenario, algorithm, *args):
        if algorithm == "nor":
            raise error("solver failed in this cell")
        return solve(scenario, algorithm, *args)

    monkeypatch.setenv("CEC_REUSE_THREADS", "1")
    monkeypatch.setattr(experiments, "solve", failing)
    greedy, nor = run_sweep(tiny_spec(values=(1.0,), repetitions=1), SMALL)
    assert greedy["feasible"] is True and greedy["total_delay_s"] is not None
    assert nor["feasible"] is False
    assert nor["total_delay_s"] is None and nor["avg_delay_s"] is None


def test_run_sweep_propagates_malformed_input(monkeypatch):
    def malformed(*args):
        raise MalformedInput("bad cell")

    monkeypatch.setenv("CEC_REUSE_THREADS", "1")
    monkeypatch.setattr(experiments, "solve", malformed)
    with pytest.raises(MalformedInput):
        run_sweep(tiny_spec(values=(1.0,), repetitions=1), SMALL)


def test_sweep_csv_round_trip(tmp_path):
    spec = SweepSpec(axis="workload", values=(0.5,), repetitions=1,
                     algorithms=("greedy", "noc"), rounds=1)
    rows = run_sweep(spec, SMALL)
    path = tmp_path / "sweep.csv"
    save_sweep_csv(rows, str(path))
    first = path.read_text().splitlines()[0]
    assert first == ",".join(SWEEP_HEADER)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    # every field parses back to the value written: the floats keep
    # their repr precision
    for orig, rec in zip(rows, back):
        assert rec["axis"] == orig["axis"]
        assert float(rec["value"]) == orig["value"]
        assert int(rec["repetition"]) == orig["repetition"]
        assert rec["algorithm"] == orig["algorithm"]
        for k in ("total_delay_s", "avg_delay_s"):
            assert (None if rec[k] == "" else float(rec[k])) == orig[k]
        assert rec["feasible"] == ("true" if orig["feasible"] else "false")
        assert int(rec["rounds"]) == orig["rounds"]
        assert float(rec["wall_time_s"]) == orig["wall_time_s"]
