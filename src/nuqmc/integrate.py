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

from dataclasses import dataclass

import numpy as np

from .discrepancy import CELL_BUDGET, PointSet, star_discrepancy
from .errors import UnsupportedIntegrandError, ValidationError
from .measures import DiscreteMeasure, UniformMeasure, _upper_axis
from .variation import ANCHOR_ONE, STEP, GridFunction, hk_variation

#: Certificate slack absorbing floating point accumulation.
CERTIFICATE_TOL = 1e-10


@dataclass(frozen=True)
class KHCertificate:
    """A variation-times-discrepancy error bound with the observed error.

    ``reference_integral`` (and with it ``observed_error`` and
    ``satisfied``) is None when no exact reference is computable;
    ``variation_certified`` is False when the variation is only a sampled
    lower-bound proxy rather than an exact grid variation.
    """

    estimate: float
    reference_integral: float | None
    observed_error: float | None
    variation: float
    discrepancy: float
    bound: float
    satisfied: bool | None
    variation_certified: bool = True


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
    table_of = getattr(m, "_cdf_table", None)
    if table_of is None:
        raise UnsupportedIntegrandError(
            f"no exact cell masses for measure type {type(m).__name__}"
        )
    coords, left = zip(*(_upper_axis(np.asarray(b, dtype=float)) for b in breakpoints))
    table = table_of(coords, left)(0, coords[0].size, np.empty([c.size for c in coords]),
                                   [np.arange(c.size) for c in coords[1:]])
    for s in range(len(coords)):
        table = np.diff(table, axis=s)
    return table


def integral_under_measure(f: GridFunction, m) -> float:
    """Exact integral of ``f`` with respect to ``m``.

    Supported pairs: any grid function against a discrete measure (a finite
    weighted sum), or a step grid function against a uniform, product, or
    analytic-CDF measure (cell value times cell mass).  Anything else raises
    :class:`UnsupportedIntegrandError`.
    """
    if m.dimension != f.dimension:
        raise ValidationError("measure and integrand dimensions differ")
    if isinstance(m, DiscreteMeasure):
        values = f.evaluate(m.support.locations)
        return float(np.sum(m.support.weights * values))
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


def _certificate(ps, m, cell_budget, estimate, reference, variation,
                 variation_certified=True) -> KHCertificate:
    """The certificate of ``estimate`` against ``reference`` (None when no
    exact reference is known): ``bound = variation * D*`` with the exact
    star-discrepancy of ``ps`` under ``m``, satisfied when the observed error
    is at most the bound plus :data:`CERTIFICATE_TOL`."""
    disc = star_discrepancy(ps, m, cell_budget).value
    bound = variation * disc
    observed = None if reference is None else abs(estimate - reference)
    return KHCertificate(
        estimate=estimate,
        reference_integral=reference,
        observed_error=observed,
        variation=variation,
        discrepancy=disc,
        bound=bound,
        satisfied=None if observed is None else observed <= bound + CERTIFICATE_TOL,
        variation_certified=variation_certified,
    )


def _default_proxy_grid(dimension: int, resolution: int = 16) -> tuple[np.ndarray, ...]:
    return tuple(np.linspace(0.0, 1.0, resolution + 1) for _ in range(dimension))


def importance_sampling_estimate(
    f,
    g,
    ps: PointSet,
    m_g,
    variation: float | None = None,
    reference_integral: float | None = None,
    proxy_grid=None,
    cell_budget: int = CELL_BUDGET,
) -> tuple[float, KHCertificate]:
    """Estimate ``integral f dx`` as the sample mean of ``f/g`` over a point
    set equidistributed for the measure with density ``g``.

    When ``f`` and ``g`` are step grid functions on the same grid the ratio
    is formed exactly: its variation, the reference integral of ``f``, and
    the certificate are all exact.  Otherwise the certificate's variation
    is either the caller-supplied bound or the grid variation of ``f/g``
    sampled on ``proxy_grid`` -- a lower-bound proxy, flagged uncertified;
    the reference integral must then be supplied by the caller for the
    observed error to be reported.  ``cell_budget`` gates the exact D*.
    """
    if m_g.dimension != ps.dimension:
        raise ValidationError("measure and point set dimensions differ")

    exact_pair = (
        isinstance(f, GridFunction)
        and isinstance(g, GridFunction)
        and f.interp == STEP
        and g.interp == STEP
        and f.shape == g.shape
        and all(np.array_equal(a, b) for a, b in zip(f.breakpoints, g.breakpoints))
    )

    if exact_pair:
        if np.any(g.values <= 0.0):
            raise ValidationError("density must be positive")
        ratio = f.with_values(f.values / g.values)
        estimate = qmc_estimate(ratio, ps)
        var = hk_variation(ratio, ANCHOR_ONE) if variation is None else float(variation)
        certified = True  # exact grid variation, or a bound the caller vouches for
        if reference_integral is None:
            reference_integral = integral_under_measure(f, UniformMeasure(f.dimension))
    else:
        g_vals = _sample(g, ps.points)
        if np.any(g_vals <= 0.0):
            raise ValidationError("density must be positive at every sample point")
        estimate = float(np.mean(_sample(f, ps.points) / g_vals))
        if variation is not None:
            var = float(variation)
            certified = True
        else:
            grid = proxy_grid if proxy_grid is not None else _default_proxy_grid(ps.dimension)
            mesh = np.meshgrid(*grid, indexing="ij")
            vertices = np.stack([c.reshape(-1) for c in mesh], axis=-1)
            g_vals = _sample(g, vertices)
            zero = np.flatnonzero(g_vals <= 0.0)
            if zero.size:
                vertex = tuple(float(x) for x in vertices[zero[0]])
                raise ValidationError(
                    f"density is {float(g_vals[zero[0]])} at proxy-grid vertex {vertex}; "
                    "pass a proxy_grid= on which it is positive, or a variation= bound"
                )
            ratio_vals = _sample(f, vertices) / g_vals
            sampled = GridFunction(grid, ratio_vals.reshape([len(b) for b in grid]), STEP)
            var = hk_variation(sampled, ANCHOR_ONE)
            certified = False

    return estimate, _certificate(ps, m_g, cell_budget, estimate, reference_integral,
                                  var, certified)
