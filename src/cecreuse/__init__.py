"""Joint result caching, cache-search control, workload scheduling and CPU
allocation for collaborative edge computing, minimizing weighted mean
response time under M/G/1 queueing."""

from .caching import (EfficiencyContext, brute_force_cache_oracle,
                      efficiencies_at_solution, g_of_B, round_to_binary,
                      solve_caching_bs, sweep_all_stations, theorem3_ratio)
from .delay import (EvalResult, ObjectiveGradient, branch_delays,
                    evaluate_objective)
from .errors import (CecReuseError, DegenerateInput, DimensionMismatch,
                     EmptyVector, Infeasible, LineSearchExhausted,
                     MalformedInput, StabilityViolation, TooLarge,
                     UnstableConfig)
from .experiments import (GeneratorParams, SweepSpec, generate_scenario,
                          run_sweep, save_sweep_csv)
from .model import (Application, BaseStation, CacheAssignment, HitRateTable,
                    Scenario, SchedulingState, TypicalInput,
                    compute_hit_rates, load_scenario, save_scenario,
                    scenario_from_dict, scenario_to_dict, storage_used,
                    validate)
from .queuesim import QueueSimConfig, SimResult, analytic_mean, simulate
from .scheduling import (PgdParams, backtrack, initial_feasible_point,
                         project_decisions, project_simplex, solve_scheduling)
from .solver import (SolveReport, alternating_solve, greedy_cache, solve,
                     solve_greedy, solve_noc, solve_nor)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "TypicalInput", "Application", "BaseStation", "Scenario",
    "CacheAssignment", "SchedulingState", "HitRateTable",
    "compute_hit_rates", "storage_used", "validate",
    "scenario_to_dict", "scenario_from_dict", "save_scenario", "load_scenario",
    # delay
    "EvalResult", "ObjectiveGradient", "branch_delays", "evaluate_objective",
    # caching
    "EfficiencyContext", "g_of_B", "solve_caching_bs",
    "round_to_binary", "theorem3_ratio", "sweep_all_stations",
    "brute_force_cache_oracle", "efficiencies_at_solution",
    # scheduling
    "PgdParams", "project_simplex", "project_decisions", "backtrack",
    "solve_scheduling", "initial_feasible_point",
    # queuesim
    "QueueSimConfig", "SimResult", "simulate", "analytic_mean",
    # solver
    "SolveReport", "greedy_cache", "solve_greedy", "alternating_solve",
    "solve_nor", "solve_noc", "solve",
    # experiments
    "GeneratorParams", "SweepSpec", "generate_scenario", "run_sweep",
    "save_sweep_csv",
    # errors
    "CecReuseError", "MalformedInput", "DimensionMismatch",
    "StabilityViolation", "Infeasible", "DegenerateInput",
    "TooLarge", "UnstableConfig", "LineSearchExhausted", "EmptyVector",
]
