"""Exception types shared across the package.

The CLI maps these onto exit codes: config/input problems exit 2,
HypothesisError exits 3, CapabilityError and QuadratureError exit 4.
"""


class HypothesisError(ValueError):
    """A parameter violates the stated hypothesis of a bound or operation."""


class CapabilityError(ValueError):
    """The request is outside what can be computed with a certified error bound."""


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge within the refinement budget."""
