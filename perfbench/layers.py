"""The program's layers as the tracer sees them, and the per-layer metrics.

Each entry point is wrapped where its callers look it up: a function
imported by name into another module is wrapped in that module, a method on
its class, a kernel on the ``_kernels`` package.  The solver entry points
the benchmark calls are layers too, so every traced second has an owner.
"""
from __future__ import annotations

import numpy as np
from cecreuse.errors import LineSearchExhausted

from perfbench.tracer import Layer, Tracer


def _stations_rewritten(tracer, args, result):
    before, after = args[1], result[0]
    changed = np.zeros(before.entries[0].shape[0], dtype=bool)
    for x_in, x_out in zip(before.entries, after.entries):
        changed |= np.any(x_in != x_out, axis=1)
    tracer.count("caching.stations_rewritten", int(changed.sum()))


def _with_station_bytes(tracer, args, result):
    tracer.count("model.with_station.bytes",
                 sum(x.nbytes for x in result.entries))


def _iterations(tracer, args, result):
    tracer.count("scheduling.iterations", len(result[1]))


def _backtracks(tracer, args, result):
    tracer.count("scheduling.backtracks", result[0])


def _exhausted(tracer, exc):
    if isinstance(exc, LineSearchExhausted):
        tracer.count("scheduling.line_search_exhausted")


def _tasks(tracer, args, result):
    tracer.count("queuesim.simulate.tasks", args[0].num_tasks)


def _sweep_eval_name(tracer: Tracer) -> str:
    # sweep_all_stations evaluates its starting point once, then each
    # candidate station rewrite
    if tracer.sibling_calls("caching.sweep_eval"):
        return "caching.candidate_eval"
    return "caching.sweep_eval"


SOLVER, CACHING, SCHED, DELAY = ("cecreuse.solver", "cecreuse.caching",
                                 "cecreuse.scheduling", "cecreuse.delay")
KERNELS = "cecreuse._kernels"

LAYERS = (
    # the entry points the benchmark calls: the roots of every operation
    Layer("solver.alternating_solve", SOLVER, "alternating_solve"),
    Layer("solver.solve_greedy", SOLVER, "solve_greedy"),
    Layer("solver.solve_nor", SOLVER, "solve_nor"),
    Layer("solver.solve_noc", SOLVER, "solve_noc"),
    Layer("queuesim.simulate", "cecreuse.queuesim", "simulate",
          on_return=_tasks),
    Layer("solver.greedy_cache", SOLVER, "greedy_cache"),
    Layer("scheduling.initial_feasible_point", SCHED,
          "initial_feasible_point", sites=(SOLVER,)),
    Layer("caching.sweep", CACHING, "sweep_all_stations", sites=(SOLVER,),
          on_return=_stations_rewritten),
    Layer("caching.solve_bs", CACHING, "solve_caching_bs"),
    Layer("caching.context_build", f"{CACHING}:EfficiencyContext", "__init__"),
    Layer("caching.efficiency_floor", f"{CACHING}:EfficiencyContext",
          "efficiency_floor"),
    Layer("caching.level_bisection", CACHING, "g_of_B", keep=False),
    Layer("caching.rounding", CACHING, "round_to_binary"),
    Layer("caching.candidate_eval", DELAY, "evaluate_objective",
          sites=(CACHING,), name_fn=_sweep_eval_name),
    Layer("model.compute_hit_rates", "cecreuse.model", "compute_hit_rates",
          sites=(DELAY, SCHED)),
    Layer("model.with_station", "cecreuse.model:CacheAssignment",
          "with_station", on_return=_with_station_bytes),
    Layer("delay.evaluate_objective", DELAY, "evaluate_objective",
          sites=(SOLVER,)),
    Layer("delay.evaluate_with_rates", DELAY, "evaluate_with_rates",
          sites=(DELAY, SCHED)),
    Layer("delay.gradient_with_rates", DELAY, "gradient_with_rates",
          sites=(SCHED,)),
    Layer("delay.recompute_search_flags", DELAY, "recompute_search_flags",
          sites=(DELAY, SCHED)),
    Layer("scheduling.solve", SCHED, "solve_scheduling", sites=(SOLVER,),
          on_return=_iterations),
    Layer("scheduling.projection", SCHED, "project_decisions"),
    Layer("scheduling.line_search", SCHED, "backtrack",
          on_return=_backtracks, on_raise=_exhausted),
    Layer("kernels.efficiency_bracket", KERNELS, "efficiency_bracket",
          keep=False),
    Layer("kernels.hit_derivative", KERNELS, "hit_derivative",
          sites=(KERNELS, f"{KERNELS}._ref"), keep=False),
    Layer("kernels.queue_waits", KERNELS, "queue_waits"),
)

SETUP_LAYERS = (
    Layer("experiments.generate_scenario", "cecreuse.experiments",
          "generate_scenario"),
)

COUNTERS = ("caching.stations_rewritten", "model.with_station.bytes",
            "scheduling.iterations", "scheduling.backtracks",
            "scheduling.line_search_exhausted", "queuesim.simulate.tasks")


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> dict:
    """Per-pass calls and counters, and self time as a share of ``wall_s``.

    ``wall_s`` is the traced wall time of all ``passes`` together.
    """
    out = {}
    for name in {layer.name for layer in LAYERS} | set(tracer.stats):
        st = tracer.stats.get(name)
        out[f"{name}.calls"] = st.calls / passes if st else 0
        out[f"{name}.self_pct"] = 100.0 * st.self_s / wall_s if st else 0.0
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0) / passes
    solves = out["caching.solve_bs.calls"]
    out["caching.bisection_probes_per_solve"] = (
        out["caching.level_bisection.calls"] / solves if solves else 0.0)
    evals = out["caching.candidate_eval.calls"]
    out["caching.accept_ratio"] = (
        out["caching.stations_rewritten"] / evals if evals else 0.0)
    return out


def setup_metrics(tracer: Tracer, repeats: int, wall_s: float) -> dict:
    """Scenario generation per set-up, and its share of the in-process
    set-up time ``wall_s`` (all ``repeats`` together)."""
    st = tracer.stats.get("experiments.generate_scenario")
    return {
        "experiments.generate_scenario.calls": st.calls / repeats if st else 0,
        "experiments.generate_scenario.setup_pct":
            100.0 * st.self_s / wall_s if st else 0.0,
    }
