"""Exception types shared across the solver modules."""


class CecReuseError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(CecReuseError):
    """Input violates a structural precondition (shapes, binary flags, keys)."""


class DimensionMismatch(MalformedInput):
    """Array or container dimensions do not agree with the scenario."""


class StabilityViolation(CecReuseError):
    """A queue is driven at or beyond its service rate."""


class Infeasible(CecReuseError):
    """No feasible decision exists (or none was found by the repair steps)."""


class DegenerateInput(CecReuseError):
    """A ratio or bound is undefined for this input (zero denominator)."""


class TooLarge(CecReuseError):
    """Instance exceeds the size limit of an exhaustive-enumeration oracle."""


class UnstableConfig(CecReuseError):
    """Simulated queue parameters violate the stability condition."""


class LineSearchExhausted(CecReuseError):
    """Backtracking hit the backtrack limit without an acceptable step.

    Nothing in the package raises it: an exhausted line search keeps its
    point and ends that problem's descent.  The class stays because the
    benchmark harness (perfbench/layers.py) imports it."""


class EmptyVector(CecReuseError):
    """Simplex projection of a zero-length vector is undefined."""
