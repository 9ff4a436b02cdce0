"""Solver benchmark: end-to-end timings, output checks and a layer trace.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see workloads.py for the inputs and why they are fixed):

- ``desk_sweep``: five cells of the paper's sweeps at desk scale, each run
  with all four algorithms.  Level bisection and scheduling dominate.
- ``paper_scale``: one ``alternating_solve`` at full catalog size (about
  156k cacheable inputs).  Caching bookkeeping dominates.
- ``queue_validation``: the validate-queueing grid, 9 queues of a million
  tasks.  The Lindley recursion dominates.

The program runs in this process, single-threaded: BLAS, OpenMP and the
sweep workers are pinned to one thread before numpy is imported.  A run
sets up several times (an import in a fresh interpreter, then input
generation and a warm-up over every code path here) and reports the median
as ``setup_s``.  It then repeats passes over the workload's operations
until ``--seconds`` is used up, at least one.  ``wall_s`` and ``cpu_s`` sum
each operation's mean time over the passes, and ``solve_s.p50`` is the
median over every operation of every pass.  Every operation's output is
checked after its pass, outside the timed region, and must repeat exactly
in every pass.

The host's speed drifts by up to a third from run to run as other tenants
come and go (see hostspeed.py), so untraced passes sample it with a fixed
reference loop, and the gated timings are the ``.norm`` ones: rescaled to
a host on which that loop takes ``hostspeed.REF_PROBE_S``.  Every timing,
raw or rescaled, excludes the reference loop's own time.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` one untraced pass is followed by traced
passes and the last line reports the per-layer metrics.  The line before
it is a JSON record with every measured value and the run's environment;
the same record, and in traced runs the spans, are written under
``perfbench/out/``.  ``--workload all`` runs each workload in its own
process and prints every metric by name with its unit.

Exit status: 0 when every check passed, 1 when an output check failed, 2
when the program or the benchmark description cannot be loaded.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("desk_sweep", "paper_scale", "queue_validation")
SETUP_REPEATS = 3
# a timing tail needs at least this many samples beyond it, and is only
# reported from the 75th percentile up
TAIL_SAMPLES = 10
TAIL_MIN_PERCENTILE = 75.0

# Results reported beside the BENCHMARK.json metrics, which every workload
# must report and which may never be zero; these are missing on some
# workloads or legitimately zero.  solve_s.p50 is here too: on desk_sweep
# half the operations (greedy, nor) take under 0.15 s and half (proposed,
# noc) over 0.17 s, so the median falls in the gap between them and its
# quartiles over ten seeds lie 17-25% of it apart (the tail's 29%), past a
# third of the bound.  Each has a unit, a direction and a bound:
# a relative change for timings and the objective, an exact match where it
# is 0, and an absolute limit for max_rel_err.  The raw timings, as
# measured on the host, have none: the host's drift alone spreads them past
# any usable bound.
DETAIL_METRICS = {
    "solve_s.p50.norm": ("s", "lower", 0.25),
    "solve_s.tail.norm": ("s", "lower", 0.25),
    "objective": ("s", "lower", 1e-9),
    "infeasible": ("count", "lower", 0),
    "failed_frac": ("ratio", "lower", 0),
    "sim_tasks_per_s.norm": ("1/s", "higher", 0.25),
    "max_rel_err": ("ratio", "lower", 0.02),
    "wall_s": ("s", "lower", None),
    "cpu_s": ("s", "lower", None),
    "solve_s.p50": ("s", "lower", None),
    "solve_s.tail": ("s", "lower", None),
    "sim_tasks_per_s": ("1/s", "higher", None),
    "host.probe_ms": ("ms", "lower", None),
}


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "CEC_REUSE_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    """Import the package from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import cecreuse
    if not Path(cecreuse.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"cecreuse imported from {cecreuse.__file__}, "
                          f"not from {src}")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import cecreuse; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def per_op_mean(passes: list[dict], key: str) -> list[float]:
    """Each operation's mean time over the passes.

    The host slows an operation in proportion to the share of its time the
    core is contended, and the rescaling divides by the mean probe time, so
    the mean is the estimate it corrects.  In two sets of ten seeds per
    workload the rescaled sums of means spread 4-9% of their median (first
    to third quartile), sums of medians 5-10% and sums of best times 7-20%.
    """
    return [statistics.fmean(col) for col in zip(*(p[key] for p in passes))]


def tail(samples: list[float], scale: float = 1.0) -> dict | None:
    """Highest percentile with TAIL_SAMPLES samples beyond it, times
    ``scale``."""
    n = len(samples)
    percentile = 100.0 * (n - TAIL_SAMPLES) / n
    if percentile < TAIL_MIN_PERCENTILE:
        return None
    return {"value": sorted(samples)[n - TAIL_SAMPLES - 1] * scale,
            "percentile": percentile, "samples": n}


class Run:
    """One workload at one seed: set-up, timed passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool = False):
        from perfbench import workloads
        self.wl = workloads
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.tiny = trace, tiny
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_outcomes: list | None = None

    def setup(self) -> tuple[list, list[float], list[float]]:
        """Import in a fresh interpreter, then build the inputs and warm up
        here; repeated, with the import and in-process times of each."""
        imports, times = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = time.perf_counter()
            ops = self.wl.build(self.workload, self.seed, self.tiny)
            self.wl.warm_up()
            times.append(time.perf_counter() - t0)
        return ops, imports, times

    def one_pass(self, ops, tracer=None, sampler=None) -> dict:
        """Every operation once.  With a ``sampler`` the host's speed is
        probed throughout, and each time excludes the probes it holds."""
        times, cpus, results = [], [], []
        t0 = time.perf_counter()
        if tracer is not None:
            from perfbench.layers import LAYERS
            tracer.install(LAYERS)
        try:
            with sampler or contextlib.nullcontext():
                for op in ops:
                    mark = sampler.mark() if sampler else 0
                    s, c = time.perf_counter(), time.process_time()
                    try:
                        result = op.run()
                    except Exception as exc:  # recorded, the run goes on
                        result = exc
                    e, ce = time.perf_counter(), time.process_time()
                    probe_s, probe_cpu = (sampler.inside(mark, s, e)
                                          if sampler else (0.0, 0.0))
                    times.append(e - s - probe_s)
                    cpus.append(ce - c - probe_cpu)
                    results.append(result)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        self.check_pass(ops, results)
        return {"wall": wall, "times": times, "cpus": cpus, "results": results}

    def check_pass(self, ops, results) -> None:
        outcomes = []
        for op, result in zip(ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                problems = [f"{op.label}: {type(result).__name__}: {result}"]
                outcomes.append(None)
            else:
                problems = self.wl.check(op, result)
                outcomes.append(self.wl.outcome(result))
            if self.first_outcomes is not None and \
                    outcomes[-1] != self.first_outcomes[len(outcomes) - 1]:
                problems.append(f"{op.label}: result changed between passes")
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        if self.first_outcomes is None:
            self.first_outcomes = outcomes

    def passes(self, ops, start: float, tracer=None,
               sampler=None) -> list[dict]:
        """Passes until the next one would end further past the deadline
        than stopping now falls short of it; at least one."""
        done = []
        while True:
            done.append(self.one_pass(ops, tracer, sampler))
            if len(done) > 1:
                # only the first pass's results are read again; keeping
                # the others would grow peak_rss_mb with the pass count
                del done[-1]["results"]
            typical = statistics.median(p["wall"] for p in done)
            if time.perf_counter() - start + typical / 2 > self.seconds:
                return done

    def quality(self, ops, first: dict) -> dict:
        out = {"infeasible": sum(r is self.wl.INFEASIBLE
                                 for r in first["results"])}
        reports = [r for r in first["results"]
                   if hasattr(r, "final_objective")]
        if reports:
            out["objective"] = math.fsum(r.final_objective for r in reports)
        sims = [(op.arg, r) for op, r in zip(ops, first["results"])
                if hasattr(r, "mean_sojourn")]
        if sims:
            out["max_rel_err"] = max(self.wl.rel_err(c, r) for c, r in sims)
        return out

    def execute(self) -> dict:
        load_before = os.getloadavg()
        setup_tracer = None
        if self.trace:
            from perfbench import layers, tracer
            setup_tracer = tracer.Tracer()
            setup_tracer.install(layers.SETUP_LAYERS)
        try:
            ops, import_times, setup_times = self.setup()
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        start = time.perf_counter()
        values: dict = {
            "setup_s": statistics.median(
                i + t for i, t in zip(import_times, setup_times)),
            "setup.import_s": import_times, "setup.inputs_s": setup_times}
        if self.trace:
            untraced = self.one_pass(ops)
            tr = tracer.Tracer()
            done = self.passes(ops, start, tr)
            traced_wall = [p["wall"] for p in done]
            values.update(layers.layer_metrics(tr, len(done), sum(traced_wall)))
            values.update(layers.setup_metrics(setup_tracer, SETUP_REPEATS,
                                               sum(setup_times)))
            traced_s = sum(per_op_mean(done, "times"))
            untraced_s = sum(untraced["times"])
            values["trace.wall_s"] = traced_s
            values["trace.untraced_wall_s"] = untraced_s
            values["trace.overhead_pct"] = 100.0 * (
                traced_s - untraced_s) / untraced_s
            values["trace.absent"] = tr.absent
            values["trace.layers_s"] = {
                k: {"calls": v.calls, "total_s": v.total_s, "self_s": v.self_s}
                for k, v in sorted(tr.stats.items())}
            self.tracer = tr
            first = untraced
        else:
            from perfbench import hostspeed
            sampler = hostspeed.SpeedSampler()
            done = self.passes(ops, start, sampler=sampler)
            first = done[0]
            scale = sampler.scale()
            samples = [t for p in done for t in p["times"]]
            values["wall_s"] = sum(per_op_mean(done, "times"))
            values["cpu_s"] = sum(per_op_mean(done, "cpus"))
            values["solve_s.p50"] = statistics.median(samples)
            values["solve_s.samples"] = len(samples)
            values["solve_s.tail"] = tail(samples)
            for name in ("wall_s", "cpu_s", "solve_s.p50"):
                values[f"{name}.norm"] = values[name] * scale
            values["solve_s.tail.norm"] = tail(samples, scale)
            values["host.probe_ms"] = 1000.0 * sampler.probe_s()
            values["host.probes"] = len(sampler.probes)
            values["host.scale"] = scale
            values["pass_wall_s"] = [p["wall"] for p in done]
            values["op_s"] = {op.label: [p["times"][j] for p in done]
                              for j, op in enumerate(ops)}
            if self.workload == "queue_validation":
                sim_s = sum(samples)
                tasks = sum(op.arg.num_tasks for op in ops) * len(done)
                values["sim_tasks_per_s"] = tasks / sim_s
                values["sim_tasks_per_s.norm"] = tasks / (sim_s * scale)
        values["passes"] = len(done)
        values.update(self.quality(ops, first))
        values["failed_frac"] = self.failed / self.attempted
        values["attempted"] = self.attempted
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["problems"] = self.problems[:20]
        values["env"] = self.environment(load_before)
        return values

    def environment(self, load_before) -> dict:
        import numpy
        try:
            from cecreuse._kernels import IMPL_NAME as kernels
        except ImportError:
            kernels = "absent"
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "nproc": os.cpu_count(), "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "kernels": kernels, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "threads": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "CEC_REUSE_THREADS")},
        }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(spec: dict, values: dict, trace: bool, correct: bool,
                attempted: int, failed: int) -> dict:
    """The last output line: every metric BENCHMARK.json lists for the mode."""
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_one(args, spec: dict) -> int:
    pin_threads()
    import_program()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = run.execute()
    correct = run.failed == 0
    line = result_line(spec, values, bool(args.trace), correct,
                       run.attempted, run.failed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"values": values, "result": line}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.trace:
        run.tracer.write_spans(f"{stem}-spans.json")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(values))
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in a fresh process; prints each metric with its unit."""
    status = 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: v[0] for k, v in DETAIL_METRICS.items()})
    for workload in WORKLOADS:
        for trace in sorted({0, args.trace}):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.seconds * 4 + 600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                status = max(status, 2)
                continue
            status = max(status, proc.returncode)
            values = json.loads(lines[-2])
            print(f"== {workload} (trace {trace}) correct="
                  f"{json.loads(lines[-1])['correct']} "
                  f"attempted={values['attempted']}")
            names = ([m["name"] for m in spec["per_layer"]] if trace else
                     [m["name"] for m in spec["end_to_end"]]
                     + list(DETAIL_METRICS))
            for name in names:
                value = values.get(name)
                if isinstance(value, dict):
                    value = (f"{value['value']:.6g} at p{value['percentile']:.1f}"
                             f" of {value['samples']}")
                elif value is None:
                    value = "n/a"
                print(f"  {name:48s} {value} {units.get(name, '')}")
            if trace:
                print(f"  tracing overhead: {values['trace.wall_s']:.3f} s "
                      f"traced - {values['trace.untraced_wall_s']:.3f} s "
                      f"untraced per pass ({values['trace.overhead_pct']:.1f}%)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(args, spec)
        return run_one(args, spec)
    except (OSError, ImportError, json.JSONDecodeError,
            subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
