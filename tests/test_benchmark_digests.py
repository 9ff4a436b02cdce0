"""The benchmark's solver operations, pinned to the last bit.

Builds the operations of the ``desk_sweep`` workload at seeds 601 and 1601
and of ``paper_scale`` at seed 601 (41 in all) with perfbench.workloads,
runs each once, and hashes what it returned.  Per operation one SHA-256
covers, in this order, repr(final_objective), repr(objective_trace),
repr(rounds_completed), the cache matrix as float64 bytes and the bytes of
lam, fshare and y; an Infeasible operation hashes b"infeasible".  The
digest of digests is the SHA-256 of the per-operation hex digests joined
in sorted label order, each label f"{workload}/{seed}/{op.label}".

A change that moves results, or the benchmark's operations, by design
records the new pin here with its reason.  About 5 s.
"""
import hashlib
import sys
from pathlib import Path

import numpy as np

try:
    from perfbench import workloads
except ImportError:   # run from outside the repository root
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

RUNS = (("desk_sweep", 601), ("desk_sweep", 1601), ("paper_scale", 601))
DIGEST_OF_DIGESTS = (
    "32b5f31cc4f53fd9e034d7ae8e75886cdb5f41d850c5ab8d53bbab9c49d6b5ff")


def operation_digest(result) -> str:
    """The SHA-256 of one operation's result, as the module docstring
    describes."""
    h = hashlib.sha256()
    if isinstance(result, str):
        assert result == workloads.INFEASIBLE
        h.update(b"infeasible")
        return h.hexdigest()
    for value in (result.final_objective, result.objective_trace,
                  result.rounds_completed):
        h.update(repr(value).encode())
    h.update(np.ascontiguousarray(result.cache.x, dtype=np.float64).tobytes())
    for x in (result.sched.lam, result.sched.fshare, result.sched.y):
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def benchmark_digests() -> dict[str, str]:
    """Each operation's digest by label."""
    return {f"{workload}/{seed}/{op.label}": operation_digest(op.run())
            for workload, seed in RUNS
            for op in workloads.build(workload, seed)}


def digest_of_digests(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(
        digests[label] for label in sorted(digests)).encode()).hexdigest()


def test_benchmark_operations_are_bit_identical():
    digests = benchmark_digests()
    assert len(digests) == 41
    assert digest_of_digests(digests) == DIGEST_OF_DIGESTS
