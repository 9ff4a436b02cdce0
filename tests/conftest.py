"""Shared builders and fixtures for the test suite.

Hand-built networks keep the worked examples readable; the seeded default
scenario exercises everything at the scale the solvers are tuned for.
"""
import math
import os

import numpy as np
import pytest

import cecreuse
from cecreuse import (Application, BaseStation, CacheAssignment, GeneratorParams,
                      Scenario, SchedulingState, generate_scenario,
                      scenario_to_dict)

# (location in a scenario document, value) pairs that must be rejected as
# malformed; the locations fit the two_station_one_app fixture
NON_FINITE_FIELDS = [
    (("search_workload_cycles",), math.nan),
    (("search_workload_cycles",), math.inf),
    (("stations", 0, "compute_capacity_hz"), math.nan),
    (("stations", 0, "compute_capacity_hz"), math.inf),
    (("stations", 1, "storage_capacity_bytes"), math.inf),
    (("stations", 1, "storage_capacity_bytes"), -math.inf),
    (("stations", 0, "transfer_delay_s"), math.nan),
    (("stations", 1, "transfer_delay_s"), math.inf),
    (("stations", 1, "arrival_rates", 0), math.nan),
    (("stations", 0, "arrival_rates", 0), math.inf),
    (("apps", 0, "weight"), math.nan),
    (("apps", 0, "weight"), math.inf),
    (("apps", 0, "mean_workload_cycles"), math.nan),
    (("apps", 0, "mean_workload_cycles"), math.inf),
    (("apps", 0, "typical_inputs", 1, "match_prob"), math.nan),
    (("apps", 0, "typical_inputs", 2, "result_size_bytes"), math.nan),
    (("apps", 0, "typical_inputs", 2, "result_size_bytes"), math.inf),
]
# an integer too large for a float, in each of the nine numeric fields
HUGE_INT = 10 ** 400
NON_FINITE_FIELDS += [(path, HUGE_INT) for path in (
    ("search_workload_cycles",),
    ("stations", 0, "compute_capacity_hz"),
    ("stations", 1, "storage_capacity_bytes"),
    ("stations", 0, "transfer_delay_s"),
    ("stations", 1, "arrival_rates", 0),
    ("apps", 0, "weight"),
    ("apps", 0, "mean_workload_cycles"),
    ("apps", 0, "typical_inputs", 1, "match_prob"),
    ("apps", 0, "typical_inputs", 2, "result_size_bytes"),
)]
NON_FINITE_IDS = ["/".join(map(str, path))
                  + ("=10**400" if value == HUGE_INT else f"={value}")
                  for path, value in NON_FINITE_FIELDS]
# (location, value) pairs of the wrong JSON type: a number field holding a
# string or a bool, a list field holding something else.  float() and
# iteration would read each as a number or a list
WRONG_TYPE_FIELDS = [
    (("search_workload_cycles",), "25e6"),
    (("stations", 0, "compute_capacity_hz"), True),
    (("stations", 1, "storage_capacity_bytes"), "4e9"),
    (("stations", 0, "transfer_delay_s"), False),
    (("stations", 1, "arrival_rates", 0), "1.0"),
    (("apps", 0, "weight"), "3.5"),
    (("apps", 0, "weight"), True),
    (("apps", 0, "mean_workload_cycles"), "4e8"),
    (("apps", 0, "typical_inputs", 1, "match_prob"), "0.3"),
    (("apps", 0, "typical_inputs", 2, "result_size_bytes"), True),
    (("stations",), {"0": {}}),
    (("apps",), "apps"),
    (("stations", 0, "arrival_rates"), "12"),
    (("stations", 1, "arrival_rates"), 1.0),
    (("apps", 0, "typical_inputs"), "abc"),
]
WRONG_TYPE_IDS = ["/".join(map(str, path)) + f"={value!r}"
                  for path, value in WRONG_TYPE_FIELDS]


def package_env(**overrides):
    """The environment with this package first on the import path and
    ``overrides`` set, for tests that start a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cecreuse.__file__))
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def mutated_document(scenario, path, value):
    """scenario_to_dict(scenario) with the entry at ``path`` set to ``value``."""
    doc = scenario_to_dict(scenario)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def build_scenario(compute, storage, transfer, rates, apps, search_workload=25e6):
    """Scenario from plain lists.

    rates[n][a] are per-station arrival rates; apps is a list of
    (weight, mean_workload, [(match_prob, result_size), ...]) triples.
    """
    stations = tuple(
        BaseStation(compute_capacity=float(c), storage_capacity=float(s),
                    transfer_delay=float(d), arrival_rates=tuple(float(r) for r in rr))
        for c, s, d, rr in zip(compute, storage, transfer, rates))
    app_objs = tuple(
        Application(weight=float(w), mean_workload=float(wl),
                    typical_inputs=inputs)
        for w, wl, inputs in apps)
    return Scenario(stations=stations, apps=app_objs,
                    search_workload=float(search_workload))


def uniform_state(scenario, y=0):
    """Uniform routing and CPU shares with a constant search flag."""
    A, N = scenario.num_apps, scenario.num_stations
    return SchedulingState(lam=np.full((A, N), 1.0 / N),
                           fshare=np.full((A, N), 1.0 / A),
                           y=np.full((A, N), y, dtype=np.int8))


def full_cache(scenario):
    """Everything cached everywhere (storage permitting is the caller's job)."""
    return CacheAssignment(
        [np.ones((scenario.num_stations, scenario.catalog_size(a)))
         for a in range(scenario.num_apps)])


@pytest.fixture(scope="session")
def default_scenario():
    """Seeded desk-scale default network (10 stations, 5 apps)."""
    return generate_scenario(GeneratorParams(seed=42))


@pytest.fixture
def two_station_one_app():
    """Two identical stations, one app with a three-item catalog."""
    return build_scenario(
        compute=(2e9, 2e9), storage=(4e9, 4e9), transfer=(0.01, 0.02),
        rates=((1.0,), (1.0,)),
        apps=[(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])])


@pytest.fixture
def single_station_app():
    """One station, one app, generous capacity."""
    return build_scenario(
        compute=(2e9,), storage=(4e9,), transfer=(0.02,),
        rates=((2.0,),),
        apps=[(1.0, 4e8, [(0.2, 1e5), (0.3, 1e5), (0.1, 1e5)])])
