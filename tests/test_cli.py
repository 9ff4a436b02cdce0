"""End-to-end command-line behavior, driven in-process via cli.main."""
import json
import subprocess
import sys
import warnings

import pytest

from cecreuse import (GeneratorParams, MalformedInput, cli, generate_scenario,
                      load_scenario, save_scenario, scenario_from_dict,
                      scenario_to_dict, solver)
from cecreuse.delay import gradient_with_rates
from cecreuse.model import Violation

from conftest import (NON_FINITE_FIELDS, NON_FINITE_IDS, WRONG_TYPE_FIELDS,
                      WRONG_TYPE_IDS, build_scenario, mutated_document,
                      package_env)


@pytest.fixture
def scenario_json(tmp_path):
    path = tmp_path / "scenario.json"
    assert cli.main(["generate", "--output", str(path), "--seed", "7"]) == 0
    return path


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def test_generate_deterministic_and_loadable(tmp_path, scenario_json):
    sc = load_scenario(str(scenario_json))
    assert sc.num_stations == 10 and sc.num_apps == 5
    other = tmp_path / "again.json"
    assert cli.main(["generate", "--output", str(other), "--seed", "7"]) == 0
    assert other.read_text() == scenario_json.read_text()
    different = tmp_path / "diff.json"
    assert cli.main(["generate", "--output", str(different), "--seed", "8"]) == 0
    assert different.read_text() != scenario_json.read_text()


def test_solve_writes_report_and_trace(tmp_path, scenario_json, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", str(scenario_json),
                     "--output", str(out), "--rounds", "3"])
    assert code == 0
    rep = read_report(out)
    assert rep["algorithm"] == "proposed" and rep["feasible"] is True
    assert rep["final_objective"] > 0.0
    assert {"objective_trace", "cache", "sched", "rounds_completed",
            "wall_time_s"} <= rep.keys()
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "round,phase,iteration,objective_s"
    assert len(lines) == len(rep["objective_trace"]) + 1
    assert "proposed: objective" in capsys.readouterr().out


def test_solve_algorithm_flag(tmp_path, scenario_json):
    out = tmp_path / "greedy"
    assert cli.main(["solve", "--config", str(scenario_json),
                     "--output", str(out), "--algorithm", "greedy"]) == 0
    assert read_report(out)["algorithm"] == "greedy"


def test_solve_deterministic_modulo_wall_time(tmp_path, scenario_json):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["solve", "--config", str(scenario_json),
                         "--output", str(out), "--rounds", "3"]) == 0
        rep = read_report(out)
        rep.pop("wall_time_s")
        outs.append((rep, (out / "trace.csv").read_text()))
    assert outs[0] == outs[1]


def test_solve_report_independent_of_blas_threads(tmp_path):
    # OpenBLAS splits dot products over its threads above 10^4 elements
    sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                           k_scale=1.0))
    assert min(sc.catalog_size(a) for a in range(sc.num_apps)) > 10 ** 4
    config = tmp_path / "scenario.json"
    save_scenario(sc, config)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "cecreuse.cli", "solve",
                        "--config", str(config), "--output", str(out),
                        "--rounds", "1"],
                       env=package_env(OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True,
                       timeout=600)
        lines = (out / "report.json").read_text().splitlines()
        reports.append([ln for ln in lines if '"wall_time_s"' not in ln])
    assert reports[0] == reports[1]


# the relaxed objective and the efficiencies criterion 3 checks, with the
# empty cache so that every input is exclusive and each dot product spans
# a whole catalog of more than 10^4 inputs
ORACLE_SCRIPT = """
import numpy as np
from cecreuse import (CacheAssignment, EfficiencyContext, GeneratorParams,
                      efficiencies_at_solution, generate_scenario, solve_greedy)
from cecreuse.caching import relaxed_objective
sc = generate_scenario(GeneratorParams(seed=42, num_stations=3, num_apps=2,
                                       k_scale=1.0))
sched = solve_greedy(sc).sched
zeros = CacheAssignment.zeros(sc)
rng = np.random.Generator(np.random.PCG64(0))
rows = [rng.uniform(0.0, 1.0, sc.catalog_size(a)) for a in range(sc.num_apps)]
eff = efficiencies_at_solution(EfficiencyContext(sc, zeros, sched, 0), rows)
print(repr(relaxed_objective(sc, zeros, sched, 0, rows)))
print([e.tobytes().hex() for e in eff])
"""


def test_oracles_independent_of_blas_threads():
    outputs = [subprocess.run([sys.executable, "-c", ORACLE_SCRIPT],
                              env=package_env(OPENBLAS_NUM_THREADS=threads), check=True,
                              capture_output=True, text=True, timeout=600).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_solve_missing_config(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_solve_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad)]) == 2


def test_solve_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00x")
    assert cli.main(["solve", "--config", str(bad),
                     "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path,value", NON_FINITE_FIELDS + WRONG_TYPE_FIELDS,
                         ids=NON_FINITE_IDS + WRONG_TYPE_IDS)
def test_solve_rejects_non_finite_config(tmp_path, capsys, two_station_one_app,
                                         path, value):
    # JSON's NaN and Infinity tokens load as floats; they, and values of the
    # wrong JSON type, are malformed input, never a traceback and never
    # "infeasible"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutated_document(two_station_one_app, path, value)))
    assert cli.main(["solve", "--config", str(bad),
                     "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("path,value", [
    (("apps", 0, "typical_inputs", 0, "result_size_bytes"), 5e-324),
    (("stations", 0, "transfer_delay_s"), 1e308),
], ids=["result_size=5e-324", "transfer_delay=1e308"])
def test_solve_rejects_an_infinite_efficiency_floor(tmp_path, capsys, path,
                                                    value):
    # a valid scenario whose p/s or transfer cost overflows: the floor is
    # -inf and the level bisection between it and 0 would never end
    sc = scenario_from_dict(mutated_document(generate_scenario(GeneratorParams(
        seed=42, num_stations=3, num_apps=2, k_scale=0.002)), path, value))
    with pytest.raises(MalformedInput, match="efficiency floor"):
        solver.alternating_solve(sc)
    config = tmp_path / "scenario.json"
    save_scenario(sc, config)
    assert cli.main(["solve", "--config", str(config),
                     "--output", str(tmp_path / "out")]) == 2
    assert "efficiency floor" in capsys.readouterr().err


# NoC's error names the station whose one-station problem failed
GRADIENT_OVERFLOW = ("error: NoC station 0: the objective's gradient "
                     "overflows: the scenario's delays or capacities are too "
                     "large")


@pytest.mark.parametrize("algorithm", solver.ALGORITHMS)
def test_solve_rejects_an_overflowing_start_objective(tmp_path, capsys,
                                                      algorithm):
    # every transfer delay 1.7e308 s: the file is valid, but routing any
    # load away from its arrival station overflows the start objective to
    # inf, which no descent can improve and strict JSON cannot hold
    doc = scenario_to_dict(generate_scenario(GeneratorParams(
        seed=42, num_stations=3, num_apps=2, k_scale=0.002)))
    for station in doc["stations"]:
        station["transfer_delay_s"] = 1.7e308
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config), "--output", str(out),
                     "--algorithm", algorithm]) == 2
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    if algorithm != "noc":
        assert "start objective inf is not finite" in err
    else:
        # NoC solves each station alone, where no transfer is paid, so its
        # start is finite; its first descent step's gradient overflows
        # instead, and the projection of that step would fail
        assert err.startswith(GRADIENT_OVERFLOW)


def test_noc_rejects_an_overflowing_gradient(tmp_path, capsys):
    # station 0's capacity of 1e308 cycles/s overflows the gradient of its
    # single-station descent
    doc = scenario_to_dict(generate_scenario(GeneratorParams(
        seed=42, num_stations=3, num_apps=2, k_scale=0.002)))
    doc["stations"][0]["compute_capacity_hz"] = 1e308
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config), "--output", str(out),
                     "--algorithm", "noc"]) == 2
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith(GRADIENT_OVERFLOW)
    assert "Traceback" not in err


def test_solve_rejects_a_workload_whose_service_rate_overflows(tmp_path,
                                                              capsys):
    # capacity / workload of 1e9 / 1e-300 overflows: the start's load
    # repair would divide by it, so the scenario is malformed and the solve
    # exits 2 before any numpy warning
    doc = scenario_to_dict(generate_scenario(GeneratorParams(seed=1)))
    doc["apps"][0]["mean_workload_cycles"] = 1e-300
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = cli.main(["solve", "--config", str(config), "--output",
                           str(out), "--rounds", "1"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert status == 2
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: app 0: mean_workload_cycles 1e-300")
    assert "Traceback" not in err


def test_solve_exits_1_when_decision_violates_constraints(tmp_path, scenario_json,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(solver, "validate",
                        lambda *a: [Violation("stability", 0, 0, 1.0)])
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(scenario_json),
                     "--output", str(out), "--algorithm", "greedy"]) == 1
    assert read_report(out)["feasible"] is False
    assert "infeasible" in capsys.readouterr().err


def test_solve_infeasible_scenario(tmp_path, capsys):
    sc = build_scenario((2e9,), (4e9,), (0.02,), ((20.0,),),
                        [(1.0, 4e8, [(0.2, 1e5)])])
    path = tmp_path / "overload.json"
    save_scenario(sc, str(path))
    assert cli.main(["solve", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--theta0", "nan"), ("--theta0", "inf"), ("--theta0", "-1"),
    ("--theta0", "0"), ("--rounds", "-3"),
])
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, flag, value):
    config = tmp_path / "scenario.json"
    save_scenario(generate_scenario(GeneratorParams(
        seed=42, num_stations=3, num_apps=2, k_scale=0.002)), config)
    assert cli.main(["solve", "--config", str(config),
                     "--output", str(tmp_path / "out"), flag, value]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["afile", "afile/sub"],
                         ids=["existing-file", "below-a-file"])
def test_solve_rejects_an_output_that_cannot_be_a_directory(
        tmp_path, scenario_json, monkeypatch, capsys, output):
    # the output directory is made before the solve, so a path that cannot
    # be one is a usage error at once, not a traceback after the solve
    (tmp_path / "afile").write_text("kept")

    def never(*args, **kwargs):
        raise AssertionError("solve ran although its output path is bad")

    monkeypatch.setattr(cli, "solve", never)
    assert cli.main(["solve", "--config", str(scenario_json),
                     "--output", str(tmp_path / output), "--rounds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "kept"


@pytest.mark.parametrize("output", ["nodir/x.csv", "adir"],
                         ids=["missing-dir", "directory"])
def test_sweep_rejects_an_output_that_cannot_be_written(
        tmp_path, monkeypatch, capsys, output):
    # the output is probed before the first cell, so a path that cannot be
    # written is a usage error at once, not after the whole sweep
    (tmp_path / "adir").mkdir()

    def never(*args, **kwargs):
        raise AssertionError("the sweep ran although its output path is bad")

    monkeypatch.setattr(cli, "run_sweep", never)
    assert cli.main(["sweep", "--axis", "workload", "--values", "1.0,1.5",
                     "--reps", "1", "--algorithm", "greedy,proposed",
                     "--output", str(tmp_path / output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


def test_sweep_output_probe_keeps_an_existing_file(tmp_path, monkeypatch):
    # the probe opens the output without truncating it; a sweep that fails
    # after the probe leaves the old file as it was
    out = tmp_path / "x.csv"
    out.write_text("kept")

    def failing(*args, **kwargs):
        raise MalformedInput("a cell failed")

    monkeypatch.setattr(cli, "run_sweep", failing)
    assert cli.main(["sweep", "--axis", "workload", "--values", "1.0",
                     "--reps", "1", "--algorithm", "greedy",
                     "--output", str(out)]) == 2
    assert out.read_text() == "kept"


def test_solve_has_no_seed_flag(tmp_path):
    # solve reads its scenario from --config; a seed would set nothing
    config = tmp_path / "scenario.json"
    save_scenario(generate_scenario(GeneratorParams(
        seed=42, num_stations=3, num_apps=2, k_scale=0.002)), config)
    assert cli.main(["solve", "--config", str(config), "--seed", "7",
                     "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_negative_reps(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--axis", "workload", "--values", "0.5",
                     "--reps", "-1", "--algorithm", "greedy",
                     "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_sweep_rejects_empty_algorithm_list(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--axis", "workload", "--values", "0.5",
                     "--algorithm", ",", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "-1"],
    ["sweep", "--axis", "workload", "--seed", "-5"],
    ["validate-queueing", "--seed", "-1"],
    ["gradient-check", "--seed", "-5000"],
], ids=["generate", "sweep", "validate-queueing", "gradient-check"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["bogus"]) == 2


def test_sweep_happy_path(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--axis", "workload", "--values", "0.5",
                     "--reps", "1", "--algorithm", "greedy",
                     "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("axis,value,repetition,algorithm,total_delay_s,"
                        "avg_delay_s,feasible,rounds,wall_time_s")
    assert len(lines) == 2 and lines[1].startswith("workload,0.5,0,greedy,")
    assert "1 cells (1 feasible)" in capsys.readouterr().out


def test_sweep_rejects_unknown_algorithm(tmp_path):
    assert cli.main(["sweep", "--axis", "workload", "--values", "0.5",
                     "--algorithm", "turbo",
                     "--output", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("axis,values,threads", [
    ("workload", "abc", "1"),
    ("stations", "2.5", "1"),
    # only an absent --values falls back to the axis defaults
    ("apps", "", "1"),
    ("workload", "0.5", "two"),
    ("workload", "0.5", "0"),
    ("workload", "0.5", "-2"),
], ids=["workload=abc", "stations=2.5", "apps=empty", "threads=two",
        "threads=0", "threads=-2"])
def test_sweep_rejects_bad_input(tmp_path, monkeypatch, capsys, axis, values,
                                 threads):
    monkeypatch.setenv("CEC_REUSE_THREADS", threads)
    assert cli.main(["sweep", "--axis", axis, "--values", values,
                     "--reps", "1", "--algorithm", "greedy",
                     "--output", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()


def test_validate_queueing_shrunk_grid(monkeypatch, capsys):
    monkeypatch.setattr(cli, "QUEUE_GRID_RHO", (0.3,))
    monkeypatch.setattr(cli, "QUEUE_TASKS", 200_000)
    assert cli.main(["validate-queueing", "--seed", "42"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_queueing_flags_unstable(monkeypatch, capsys):
    monkeypatch.setattr(cli, "QUEUE_GRID_RHO", (0.3, 1.5))
    monkeypatch.setattr(cli, "QUEUE_TASKS", 200_000)
    assert cli.main(["validate-queueing", "--seed", "42"]) == 1
    assert "UNSTABLE" in capsys.readouterr().out


def test_gradient_check_passes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "GRADIENT_POINTS", 20)
    assert cli.main(["gradient-check", "--seed", "42"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradient_check_detects_corruption(monkeypatch, capsys):
    monkeypatch.setattr(cli, "GRADIENT_POINTS", 20)

    def corrupted(*args):
        grad = gradient_with_rates(*args)
        grad.dlam[:] *= 1.001
        grad.dfshare[:] *= 1.001
        return grad

    monkeypatch.setattr(cli, "gradient_with_rates", corrupted)
    assert cli.main(["gradient-check", "--seed", "42"]) == 1
    assert "FAIL" in capsys.readouterr().out
