"""The benchmark's workloads: inputs built from a seed, operations, checks.

Solver run time depends strongly on the instance: over ten generator seeds
the same 48 desk operations took 23-39 s (quartile spread 21% of the
median), far wider than any bound a regression gate can use.  The
instances are therefore fixed at the generator seed the paper's sweeps and
the acceptance tests start from (42), and the benchmark seed relabels them:
it permutes every app's catalog, which hands the solver different arrays
for the same problem, and it shuffles the order of the operations.  The
queue grid keeps the command-line tool's default streams (its seed 42);
at a million tasks the utilisation-0.8 cells miss the 2% tolerance on
about one stream seed in four through sampling error alone.

Every call into the program goes through a module attribute looked up at
call time, so a traced run sees it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cecreuse import experiments, queuesim, solver
from cecreuse.delay import evaluate_objective
from cecreuse.errors import Infeasible
from cecreuse.model import Scenario, validate

GENERATOR_SEED = 42

# (stations, apps, workload factor): the default scenario, the criterion-7
# scenario, both ends of the load sweep and the smallest station count
DESK_CELLS = ((10, 5, 1.0), (20, 8, 0.5), (10, 5, 0.5), (10, 5, 1.5),
              (5, 5, 1.0))
ALGORITHMS = (("proposed", "alternating_solve"), ("greedy", "solve_greedy"),
              ("nor", "solve_nor"), ("noc", "solve_noc"))

QUEUE_HITS = (0.0, 0.5, 0.9)
QUEUE_RHOS = (0.3, 0.5, 0.8)
QUEUE_TASKS = 10 ** 6
QUEUE_STREAM_SEED = 42
QUEUE_CPU, QUEUE_WA, QUEUE_WS = 2e9, 1e8, 25e6
MAX_REL_ERR = 0.02

INFEASIBLE = "infeasible"


@dataclass
class Op:
    """One timed call: ``getattr(module, func)(arg)``."""

    label: str
    module: object
    func: str
    arg: object

    def run(self):
        try:
            return getattr(self.module, self.func)(self.arg)
        except Infeasible:
            return INFEASIBLE


def permute_catalogs(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """The same problem with every app's typical inputs in a new order."""
    apps = tuple(
        replace(app, typical_inputs=tuple(
            app.typical_inputs[k]
            for k in rng.permutation(len(app.typical_inputs))))
        for app in scenario.apps)
    return replace(scenario, apps=apps)


def warm(scenario: Scenario) -> None:
    """Build the scenario's lazily cached arrays before anything is timed."""
    for name in ("compute_capacities", "storage_capacities", "transfer_delays",
                 "arrival_rate_matrix", "total_rates", "weights", "workloads",
                 "match_probs", "result_sizes"):
        getattr(scenario, name)


def _scenario(params, rng) -> Scenario:
    scenario = permute_catalogs(experiments.generate_scenario(params), rng)
    warm(scenario)
    return scenario


def _solver_ops(cells, rng, k_scale, algorithms=ALGORITHMS) -> list[Op]:
    ops = []
    for n, a, wf in cells:
        params = experiments.GeneratorParams(
            seed=GENERATOR_SEED, num_stations=n, num_apps=a,
            workload_factor=wf, k_scale=k_scale)
        scenario = _scenario(params, rng)
        ops.extend(Op(f"N{n}-A{a}-w{wf}/{alg}", solver, func, scenario)
                   for alg, func in algorithms)
    return ops


def queue_configs(num_tasks: int) -> list[queuesim.QueueSimConfig]:
    """The validate-queueing grid with the command-line tool's streams."""
    out = []
    for hit in QUEUE_HITS:
        mode = "no_cache" if hit == 0.0 else "with_cache"
        for rho in QUEUE_RHOS:
            mean_srv = (QUEUE_WA / QUEUE_CPU if mode == "no_cache"
                        else (QUEUE_WS + (1.0 - hit) * QUEUE_WA) / QUEUE_CPU)
            out.append(queuesim.QueueSimConfig(
                arrival_rate=rho / mean_srv, cpu=QUEUE_CPU,
                app_workload=QUEUE_WA, search_workload=QUEUE_WS,
                hit_rate=hit, mode=mode, num_tasks=num_tasks,
                rng_seed=QUEUE_STREAM_SEED * 10000 + len(out)))
    return out


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """Operations of one workload; ``tiny`` shrinks them for self-tests."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if name == "desk_sweep":
        cells = DESK_CELLS[:2] if tiny else DESK_CELLS
        ops = _solver_ops(cells, rng, 0.002 if tiny else 0.01)
    elif name == "paper_scale":
        ops = _solver_ops(((10, 5, 1.0),), rng, 0.01 if tiny else 1.0,
                          ALGORITHMS[:1])
    elif name == "queue_validation":
        ops = [Op(f"hit{c.hit_rate}-rate{c.arrival_rate:.4g}", queuesim,
                  "simulate", c)
               for c in queue_configs(10 ** 4 if tiny else QUEUE_TASKS)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


def warm_up() -> None:
    """Run every code path once on a minute input."""
    params = experiments.GeneratorParams(seed=GENERATOR_SEED, num_stations=2,
                                         num_apps=2, k_scale=0.002)
    scenario = experiments.generate_scenario(params)
    for _alg, func in ALGORITHMS:
        try:
            getattr(solver, func)(scenario)
        except Infeasible:
            pass
    queuesim.simulate(queue_configs(1000)[-1])


# -- output checks, run outside the timed region ----------------------------


def check(op: Op, result) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    if op.func == "simulate":
        return _check_sim(op.arg, result)
    if result is INFEASIBLE:
        return []
    return _check_report(op, result)


def _check_report(op: Op, rep) -> list[str]:
    problems = []
    if rep.cache is None or rep.sched is None:
        return [f"{op.label}: report without a decision"]
    if rep.final_objective is None or not math.isfinite(rep.final_objective):
        return [f"{op.label}: objective {rep.final_objective}"]
    violations = validate(op.arg, rep.cache, rep.sched)
    if violations:
        problems.append(f"{op.label}: {len(violations)} constraint violations, "
                        f"first {violations[0]}")
    if op.func != "solve_noc":
        res = evaluate_objective(op.arg, rep.cache, rep.sched,
                                 frozen_y=rep.sched.y)
        if res.objective != rep.final_objective:
            problems.append(f"{op.label}: objective {rep.final_objective!r} "
                            f"re-evaluates to {res.objective!r}")
    trace = [row[3] for row in rep.objective_trace]
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append(f"{op.label}: objective trace increases")
    return problems


def _check_sim(cfg, sim) -> list[str]:
    err = rel_err(cfg, sim)
    if not err < MAX_REL_ERR:
        return [f"simulate hit={cfg.hit_rate} rate={cfg.arrival_rate}: "
                f"relative error {err} not below {MAX_REL_ERR}"]
    return []


def rel_err(cfg, sim) -> float:
    analytic = queuesim.analytic_mean(cfg)
    return abs(sim.mean_sojourn - analytic) / analytic


def outcome(result) -> object:
    """What must repeat exactly from pass to pass."""
    if result is INFEASIBLE:
        return INFEASIBLE
    if hasattr(result, "final_objective"):
        return result.final_objective
    return result.mean_sojourn
