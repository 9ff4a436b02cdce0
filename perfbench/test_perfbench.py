"""Self-tests of the benchmark: tracer arithmetic, absent entry points, and a
tiny pass over every workload.

    python3 -m pytest perfbench
"""
import json
import math
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

from perfbench import run

run.import_program()

from perfbench import hostspeed, layers, tracer  # noqa: E402  (needs the program path)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_program(monkeypatch):
    """outer -> (middle -> leaf, leaf), each advancing a fake clock."""
    clock = FakeClock()
    mod = types.ModuleType("fake_program")

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        mod.leaf()
        clock.now += 3.0

    def outer():
        clock.now += 10.0
        mod.middle()
        mod.leaf()
        clock.now += 20.0

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    return mod, clock


def test_self_time_is_duration_minus_children(fake_program):
    mod, clock = fake_program
    tr = tracer.Tracer(clock=clock)
    tr.install([tracer.Layer(name, "fake_program", name)
                for name in ("outer", "middle", "leaf")])
    mod.outer()
    tr.uninstall()
    st = tr.stats
    assert (st["outer"].total_s, st["outer"].self_s) == (37.0, 30.0)
    assert (st["middle"].total_s, st["middle"].self_s) == (6.0, 5.0)
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (2, 2.0, 2.0)
    names = [s[0] for s in tr.spans]
    parents = {s[0]: names[s[3]] if s[3] >= 0 else None for s in tr.spans}
    assert parents == {"outer": None, "middle": "outer", "leaf": "outer"}
    assert tr.spans[names.index("middle") + 1][3] == names.index("middle")
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")


def test_exception_closes_span_and_counts(fake_program):
    mod, clock = fake_program

    def boom():
        clock.now += 4.0
        raise ValueError("x")

    mod.boom = boom
    seen = []
    tr = tracer.Tracer(clock=clock)
    tr.install([tracer.Layer("boom", "fake_program", "boom",
                             on_raise=lambda t, exc: seen.append(exc))])
    with pytest.raises(ValueError):
        mod.boom()
    tr.uninstall()
    assert tr.stats["boom"].self_s == 4.0 and len(seen) == 1


def test_absent_entry_points_are_reported_not_fatal():
    tr = tracer.Tracer()
    tr.install([
        tracer.Layer("gone.module", "cecreuse.no_such_module", "f"),
        tracer.Layer("gone.function", "cecreuse.solver", "no_such_function"),
        tracer.Layer("gone.site", "cecreuse.model", "compute_hit_rates",
                     sites=("cecreuse.solver",)),
    ])
    tr.uninstall()
    assert tr.absent == ["gone.module", "gone.function", "gone.site"]
    metrics = layers.layer_metrics(tr, passes=1, wall_s=1.0)
    assert metrics["caching.level_bisection.calls"] == 0
    assert metrics["caching.accept_ratio"] == 0.0


def test_wrappers_are_removed_after_a_traced_pass():
    from cecreuse import _kernels, caching, model
    before = (caching.g_of_B, model.CacheAssignment.with_station,
              _kernels.efficiency_bracket)
    tr = tracer.Tracer()
    tr.install(layers.LAYERS)
    assert caching.g_of_B is not before[0]
    tr.uninstall()
    assert (caching.g_of_B, model.CacheAssignment.with_station,
            _kernels.efficiency_bracket) == before
    assert tr.absent == []


def test_speed_sampler_rescales_to_the_reference_host():
    ref = hostspeed.REF_PROBE_S
    sampler = hostspeed.SpeedSampler()
    sampler.probes = [(0.0, 2 * ref, 2 * ref), (1.0, 4 * ref, 3 * ref)]
    assert sampler.scale() == pytest.approx(1 / 3)
    # only probes wholly inside the window count
    assert sampler.inside(0, 0.5, 1.0 + 4 * ref) == (4 * ref, 3 * ref)
    assert sampler.inside(0, 0.5, 1.0) == (0.0, 0.0)
    assert sampler.inside(1, 0.0, 2.0) == (4 * ref, 3 * ref)


def test_speed_sampler_probes_on_its_timer_and_restores_it():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.SpeedSampler(period_s=0.01)
    with sampler:
        mark = sampler.mark()
        start = time.perf_counter()
        while len(sampler.probes) < 4 and time.perf_counter() - start < 10:
            hostspeed.reference_loop()
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert mark == 1 and len(sampler.probes) >= 4
    wall, cpu = sampler.inside(mark, start, end)
    assert wall == pytest.approx(sum(p[1] for p in sampler.probes[mark:]))
    assert 0 < wall < end - start and cpu > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_pass_emits_every_metric(workload, trace, tmp_path):
    spec = run.load_spec()
    bench = run.Run(workload, seed=3, seconds=0, trace=bool(trace), tiny=True)
    values = bench.execute()
    if workload == "queue_validation":
        # ten thousand tasks are far too few for the 2% tolerance: the
        # check must fire, and count
        assert bench.failed > 0 and values["failed_frac"] > 0
        assert all("relative error" in p for p in bench.problems)
    else:
        assert bench.failed == 0, bench.problems
    line = run.result_line(spec, values, bool(trace), bench.failed == 0,
                           bench.attempted, bench.failed)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    if trace:
        path = tmp_path / "spans.json"
        bench.tracer.write_spans(str(path))
        doc = json.loads(path.read_text())
        assert doc["spans"] and doc["absent"] == []
        assert values["trace.overhead_pct"] > -100.0
    else:
        assert all(values[m["name"]] > 0 for m in wanted)
        if workload == "queue_validation":
            assert values["max_rel_err"] > 0 and values["sim_tasks_per_s"] > 0
        else:
            assert values["objective"] > 0 and values["failed_frac"] == 0.0


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark must exit nonzero, silently."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
