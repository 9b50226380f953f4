"""Semantic exception hierarchy for nuqmc."""

from __future__ import annotations


class NuqmcError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NuqmcError, ValueError):
    """Input violates a documented contract (domain, shape, schema)."""


class DimensionMismatchError(ValidationError):
    """Operands live on unit cubes of different dimensions."""


class BudgetExceededError(NuqmcError):
    """Exact computation would exceed the configured cell budget.

    Callers should fall back to the randomized lower-bound search.
    """


class UnsupportedMeasureError(NuqmcError):
    """The measure cannot supply the requested evaluation (e.g. a
    star-discrepancy under a signed measure, which has no CDF table)."""


class UnsupportedIntegrandError(NuqmcError):
    """No exact integration rule exists for this integrand/measure pair."""
