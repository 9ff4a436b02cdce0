"""Property tests: the binary cache type, hit-rate identities, report JSON."""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cecreuse import (CacheAssignment, GeneratorParams, Infeasible,
                      MalformedInput, SolveReport, compute_hit_rates,
                      generate_scenario, solver)
from cecreuse.caching import SweepState
from cecreuse.model import dot

from conftest import build_scenario

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])

# mostly exact 0/1, plus any float at all: near misses, NaN, infinities
ENTRY = st.one_of(st.sampled_from([0.0, 1.0]),
                  st.sampled_from([0.5, 1.0 - 1e-13, 1e-300, -0.0, 2.0]),
                  st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def matrices(draw, elements):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    flat = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


@PROPERTY
@given(st.lists(matrices(ENTRY), min_size=1, max_size=3))
def test_cache_accepts_exactly_the_binary_arrays(entries):
    binary = all(v == 0.0 or v == 1.0 for x in entries for v in x.flat)
    if binary:
        cache = CacheAssignment(entries)
        assert all(np.array_equal(a, b) for a, b in zip(cache.entries, entries))
    else:
        with pytest.raises(MalformedInput):
            CacheAssignment(entries)


@st.composite
def scenarios_with_cache(draw):
    """A small hand-sized scenario, a binary cache, and a binary station
    rewrite (station index, one row per app)."""
    n, n_apps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    bits = st.sampled_from([0.0, 1.0])
    apps, entries, rows = [], [], []
    for _ in range(n_apps):
        k = draw(st.integers(1, 6))
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        scale = draw(st.floats(0.0, 0.95)) / max(sum(weights), 1e-9)
        sizes = draw(st.lists(st.floats(1e3, 1e6), min_size=k, max_size=k))
        apps.append((1.0, 1e8, [(min(scale * w, 1.0), s)
                                for w, s in zip(weights, sizes)]))
        flat = draw(st.lists(bits, min_size=n * k, max_size=n * k))
        entries.append(np.array(flat).reshape(n, k))
        rows.append(np.array(draw(st.lists(bits, min_size=k, max_size=k))))
    sc = build_scenario((1e9,) * n, (1e9,) * n, (0.01,) * n,
                        tuple((1.0,) * n_apps for _ in range(n)), apps)
    return sc, CacheAssignment(entries), draw(st.integers(0, n - 1)), rows


@PROPERTY
@given(scenarios_with_cache())
def test_hit_rates_are_ordered_and_split_exactly(case):
    sc, cache, _, _ = case
    hit = compute_hit_rates(sc, cache)
    assert np.array_equal(hit.neighbor, hit.total[:, None] - hit.local)
    for a, p in enumerate(sc.match_probs):
        # every cached set's mass is at most the catalog's, in the same sum
        assert 0.0 <= hit.local[a].min()
        assert hit.local[a].max() <= hit.total[a] <= dot(p, np.ones_like(p))


@PROPERTY
@given(scenarios_with_cache())
def test_sweep_candidate_equals_the_dense_oracle(case):
    sc, cache, n, rows = case
    counts, hit = SweepState(sc, cache).candidate(n, rows)
    rewritten = cache.with_station(n, rows)
    want = compute_hit_rates(sc, rewritten)
    for field in ("local", "neighbor", "total"):
        assert np.array_equal(getattr(hit, field), getattr(want, field))
    for c, x in zip(counts, rewritten.entries):
        assert np.array_equal(c, x.sum(axis=0))


@pytest.mark.parametrize("algorithm", ["alternating_solve", "solve_greedy",
                                       "solve_nor", "solve_noc"])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(seed=st.integers(0, 10_000), stations=st.integers(1, 3),
       apps=st.integers(1, 2))
def test_report_survives_a_json_round_trip(seed, stations, apps, algorithm):
    sc = generate_scenario(GeneratorParams(seed=seed, num_stations=stations,
                                           num_apps=apps, k_scale=0.002))
    kwargs = {} if algorithm == "solve_greedy" else {"rounds": 2}
    try:
        rep = getattr(solver, algorithm)(sc, **kwargs)
    except Infeasible:
        assume(False)
    d = rep.to_dict()
    again = SolveReport.from_dict(json.loads(json.dumps(d))).to_dict()
    assert again == d
