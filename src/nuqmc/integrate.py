"""QMC estimators, variation-times-discrepancy error certificates, and
importance sampling.

The certificate asserts ``|sample mean - integral| <= variation * star
discrepancy`` with the variation anchored at 1.  Reference integrals are
only computed for exactly integrable pairs (a discrete measure with any
integrand, or a step grid function with any supported measure), never by
numerical quadrature, so an unsatisfied certificate is conclusive evidence
of a bug rather than of quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import CELL_BUDGET, PointSet, _critical_grids, star_discrepancy
from .errors import DimensionMismatchError, UnsupportedIntegrandError, ValidationError
from .measures import DiscreteMeasure, UniformMeasure, _float, _upper_axis
from .variation import ANCHOR_ONE, STEP, GridFunction, _differences, hk_variation

#: Certificate slack absorbing floating point accumulation.
CERTIFICATE_TOL = 1e-10


@dataclass(frozen=True)
class KHCertificate:
    """A variation-times-discrepancy error bound with the observed error.

    The variation is exact, or a bound the caller vouched for; no
    certificate is made without one of them.
    ``reference_integral`` (and with it ``observed_error`` and
    ``satisfied``) is None when no exact reference is computable.
    """

    estimate: float
    reference_integral: float | None
    observed_error: float | None
    variation: float
    discrepancy: float
    bound: float
    satisfied: bool | None


def _sample(f, points: np.ndarray) -> np.ndarray:
    """``f`` at the rows of ``points``: a grid function evaluated on the
    whole array, a callback one point at a time."""
    if isinstance(f, GridFunction):
        return f.evaluate(points)
    return np.asarray([float(f(x)) for x in points])


def qmc_estimate(f, ps: PointSet) -> float:
    """Sample mean ``(1/N) sum f(x_n)`` of a grid function or callback."""
    return float(np.mean(_sample(f, ps.points)))


def _generalized_cell_masses(m, breakpoints) -> np.ndarray:
    """Masses of the cells tiling the cube along a step function's grid.

    Per axis the cells are ``[g_j, g_{j+1})`` for ``j < m`` plus the
    degenerate slab ``{1}``; every mass is a mixed difference of one-sided
    CDF evaluations, so atoms on cell boundaries land exactly once.
    """
    coords, left = zip(*(_upper_axis(np.asarray(b, dtype=float)) for b in breakpoints))
    table = m._cdf_table(coords, left)(0, coords[0].size, np.empty([c.size for c in coords]),
                                       [np.arange(c.size) for c in coords[1:]])
    return _differences(table)


def integral_under_measure(f: GridFunction, m) -> float:
    """Exact integral of ``f`` with respect to ``m``.

    Supported pairs: any grid function against a discrete measure (a finite
    weighted sum), or a step grid function against a uniform, product, or
    analytic-CDF measure (cell value times cell mass).  A signed measure has
    no CDF table and raises :class:`UnsupportedMeasureError`; any other
    pair raises :class:`UnsupportedIntegrandError`.
    """
    if m.dimension != f.dimension:
        raise DimensionMismatchError("measure and integrand dimensions differ")
    if isinstance(m, DiscreteMeasure):
        return float(np.sum(m.weights * f.evaluate(m.locations)))
    if f.interp != STEP:
        raise UnsupportedIntegrandError(
            "exact integration against a continuous measure needs a step function"
        )
    masses = _generalized_cell_masses(m, f.breakpoints)
    return float(np.sum(f.values * masses))


def kh_certificate(f: GridFunction, ps: PointSet, m,
                   cell_budget: int = CELL_BUDGET) -> KHCertificate:
    """Full error certificate for estimating ``integral f dm`` by the sample
    mean over ``ps``.

    All fields are populated; since the underlying inequality is a theorem,
    ``satisfied`` must come out True for every valid input -- a False here
    indicates an implementation bug, which is the point of the certificate.
    ``cell_budget`` gates the exact star-discrepancy.
    """
    estimate = qmc_estimate(f, ps)
    reference = integral_under_measure(f, m)
    variation = hk_variation(f, ANCHOR_ONE)
    return _certificate(ps, m, cell_budget, estimate, reference, variation)


def _certificate(ps, m, cell_budget, estimate, reference, variation) -> KHCertificate:
    """The certificate of ``estimate`` against ``reference`` (None when no
    exact reference is known): ``bound = variation * D*`` with the exact
    star-discrepancy of ``ps`` under ``m``, satisfied when the observed error
    is at most the bound plus :data:`CERTIFICATE_TOL`.  An infinite or NaN
    estimate, reference, variation or bound proves nothing, so it raises
    :class:`ValidationError` naming the first such factor."""
    disc = star_discrepancy(ps, m, cell_budget).value
    bound = variation * disc
    for name, value in (("estimate", estimate), ("reference_integral", reference),
                        ("variation", variation), ("bound", bound)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"certificate is not finite: {name} = {value}")
    observed = None if reference is None else abs(estimate - reference)
    return KHCertificate(
        estimate=estimate,
        reference_integral=reference,
        observed_error=observed,
        variation=variation,
        discrepancy=disc,
        bound=bound,
        satisfied=None if observed is None else observed <= bound + CERTIFICATE_TOL,
    )


def _step_ratio(f: GridFunction, g: GridFunction) -> GridFunction:
    """``f/g`` for step functions ``f`` and ``g``, as a step function on the
    union of their breakpoints: ``f`` and ``g`` are constant on each of its
    cells, so its value at a cell's lower vertex is ``f/g`` on the whole
    cell.  A pair on one grid is its own union."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("integrand and density dimensions differ")
    grid = [np.union1d(a, b) for a, b in zip(f.breakpoints, g.breakpoints)]

    def at_vertices(h: GridFunction) -> np.ndarray:
        return h.values[np.ix_(*(np.searchsorted(b, u, side="right") - 1
                                 for b, u in zip(h.breakpoints, grid)))]

    density = at_vertices(g)
    if np.any(density <= 0.0):
        raise ValidationError("density must be positive")
    return GridFunction(grid, at_vertices(f) / density, STEP)


def importance_sampling_estimate(
    f,
    g,
    ps: PointSet,
    m_g,
    variation: float | None = None,
    reference_integral: float | None = None,
    cell_budget: int = CELL_BUDGET,
) -> tuple[float, KHCertificate]:
    """Estimate ``integral f dx`` as the sample mean of ``f/g`` over a point
    set equidistributed for the measure with density ``g``.

    When ``f`` and ``g`` are step grid functions the ratio is formed exactly
    on the union of their breakpoints: its variation, the reference integral
    of ``f``, and the certificate are all exact.  Any other pair is
    certified with the caller's ``variation=`` bound, and refused with
    :class:`UnsupportedIntegrandError` without one; its reference integral
    must then be supplied by the caller for the observed error to be
    reported.  A caller's ``variation=`` or ``reference_integral=`` replaces
    the exact one of a step pair too; each is one number, the variation
    ``>= 0``.  ``cell_budget`` gates the exact D*, before the union grid or
    anything else grid-sized is built.
    """
    if variation is not None:
        variation = _float(variation, "variation")
        if variation < 0.0:
            raise ValidationError(f"variation must be >= 0, got {variation}")
    if reference_integral is not None:
        reference_integral = _float(reference_integral, "reference_integral")
    _critical_grids(ps, m_g, cell_budget)
    if all(isinstance(h, GridFunction) and h.interp == STEP for h in (f, g)):
        ratio = _step_ratio(f, g)
        estimate = qmc_estimate(ratio, ps)
        if variation is None:
            variation = hk_variation(ratio, ANCHOR_ONE)
        if reference_integral is None:
            reference_integral = integral_under_measure(f, UniformMeasure(f.dimension))
    elif variation is None:
        raise UnsupportedIntegrandError(
            "no exact variation of f/g unless f and g are both step grid functions; "
            "pass a variation= bound"
        )
    else:
        g_vals = _sample(g, ps.points)
        if np.any(g_vals <= 0.0):
            raise ValidationError("density must be positive at every sample point")
        estimate = float(np.mean(_sample(f, ps.points) / g_vals))
    return estimate, _certificate(ps, m_g, cell_budget, estimate, reference_integral, variation)

