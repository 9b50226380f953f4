"""Point-set transformations: pseudo-inverse CDFs, the product-measure
transform, the sequential conditional (Rosenblatt) transform in two
dimensions, and the Chelson counterexample harness.

The product transform maps a point set coordinatewise through pseudo-inverse
CDFs; its image discrepancy with respect to the product measure never
exceeds the uniform discrepancy of the input, with equality when every axis
CDF is invertible.  The analogous identity claimed for non-product measures
via the sequential conditional transform is false; the built-in Chelson
fixture (a density taking the value 1/2 above the main diagonal of the unit
square and 3/2 below it) reproduces the failure with exact rational values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrepancy import PointSet, star_discrepancy
from .errors import DimensionMismatchError, ValidationError
from .measures import (
    AnalyticCdfMeasure,
    AxisCdf,
    ProductMeasure,
    UniformMeasure,
    _float,
    _unit,
    _unit_point,
)

#: Bisection tolerance for pseudo-inverses of callback CDFs.
INVERSE_TOL = 1e-14


@dataclass(frozen=True)
class ConditionalCdf2D:
    """A 2-d distribution given by a marginal CDF for the first coordinate
    and a conditional CDF for the second given the first.

    ``marginal(y1)`` and ``conditional(y2, y1)`` must be nondecreasing CDFs
    with value 0 at 0 and 1 at 1 (for every conditioning value).
    Analytic inverses may be supplied; otherwise bisection computes the
    generalized inverse, which maps a plateau to its left edge.
    """

    marginal: Callable[[float], float]
    conditional: Callable[[float, float], float]
    marginal_inverse: Callable[[float], float] | None = None
    conditional_inverse: Callable[[float, float], float] | None = None


def pseudo_inverse(g, y: float) -> float:
    """Generalized inverse ``min{x in [0,1] : G(x) >= y}``.

    ``g`` is an :class:`AxisCdf` (solved exactly on its piecewise data) or a
    nondecreasing callback with ``G(1) = 1`` (solved by bisection to 1e-14).
    Jumps map the whole jump range to the jump location; plateaus map to
    their left edge.
    """
    y = float(_unit(y, "pseudo-inverse argument"))
    if isinstance(g, AxisCdf):
        return g.pseudo_inverse(y)
    if g(0.0) >= y:
        return 0.0
    lo, hi = 0.0, 1.0  # invariant: G(lo) < y <= G(hi)
    while hi - lo > INVERSE_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


def product_transform(ps: PointSet, m: ProductMeasure) -> PointSet:
    """Map every point coordinatewise through the axis pseudo-inverses
    (under a :class:`UniformMeasure` the identity map).

    The image's discrepancy with respect to ``m`` is at most the uniform
    discrepancy of ``ps``, with equality when every axis CDF is invertible.
    """
    if not isinstance(m, ProductMeasure):
        raise ValidationError("product_transform needs a product measure")
    if m.dimension != ps.dimension:
        raise DimensionMismatchError("measure and point set dimensions differ")
    out = np.empty_like(ps.points)
    for s, ax in enumerate(m.axes):
        out[:, s] = ax._pseudo_inverse_at(ps.points[:, s])
    return PointSet(ps.dimension, out)


def conditional_transform_2d(x, cdf: ConditionalCdf2D) -> tuple[float, float]:
    """Sequential inverse transform: ``z1 = G1^{-1}(x1)``, then
    ``z2 = G2^{-1}(x2 | z1)``.

    The second inversion genuinely depends on ``z1``, so the two coordinates
    must be computed in order.
    """
    x = _unit_point(x, 2)
    if cdf.marginal_inverse is not None:
        z1 = float(cdf.marginal_inverse(x[0]))
    else:
        z1 = pseudo_inverse(cdf.marginal, x[0])
    if cdf.conditional_inverse is not None:
        z2 = float(cdf.conditional_inverse(x[1], z1))
    else:
        z2 = pseudo_inverse(lambda t: cdf.conditional(t, z1), x[1])
    return (z1, z2)


def forward_cdf_map(y, cdf) -> tuple[float, ...]:
    """Apply the (conditional) CDFs componentwise:
    ``y -> (G1(y1), G2(y2 | y1))`` for a :class:`ConditionalCdf2D`, or
    ``y -> (G1(y1), ..., Gd(yd))`` for a :class:`ProductMeasure`.

    This is the map whose image of an anchored box is an anchored box only
    in the product case; the conditional case bends boxes into non-boxes,
    which is exactly what breaks the transformed-discrepancy identity.
    """
    if isinstance(cdf, ConditionalCdf2D):
        y = _unit_point(y, 2)
        g1 = float(cdf.marginal(y[0]))
        g2 = float(cdf.conditional(y[1], y[0]))
        return (g1, g2)
    if isinstance(cdf, ProductMeasure):
        y = _unit_point(y, cdf.dimension)
        return tuple(float(ax.value(c)) for ax, c in zip(cdf.axes, y))
    raise ValidationError("forward_cdf_map needs ConditionalCdf2D or ProductMeasure")


# ---------------------------------------------------------------------------
# The Chelson fixture: the density on [0,1]^2 equal to 1/2 where y1 <= y2 and
# 3/2 where y1 > y2.  Everything below is in closed form; the anchored CDF is
# validated against a quadrature oracle in the test suite before being
# trusted as ground truth.
# ---------------------------------------------------------------------------


def chelson_density(y) -> float:
    y = _unit_point(y, 2)
    return 0.5 if y[0] <= y[1] else 1.5


def chelson_cdf(a) -> np.ndarray:
    """Closed-form anchored CDF of the Chelson density, for a ``(k, 2)``
    batch of points (``(k,)`` values) or a single point ``(a1, a2)``.

    Splits at the diagonal: ``a1^2/2 + a1*a2/2`` for ``a1 <= a2`` and
    ``3*a1*a2/2 - a2^2/2`` otherwise.
    """
    a = np.asarray(a, dtype=float)
    a1, a2 = a[..., 0], a[..., 1]
    return np.where(a1 <= a2, 0.5 * a1 * a1 + 0.5 * a1 * a2, 1.5 * a1 * a2 - 0.5 * a2 * a2)


def chelson_marginal(y1: float) -> float:
    return 0.5 * (y1 * y1 + y1)


def chelson_marginal_inverse(x1: float) -> float:
    return 0.5 * (math.sqrt(1.0 + 8.0 * x1) - 1.0)


def chelson_conditional_cdf(y2: float, y1: float) -> float:
    if y1 <= y2:
        return (y2 + 2.0 * y1) / (1.0 + 2.0 * y1)
    return 3.0 * y2 / (1.0 + 2.0 * y1)


def chelson_conditional_inverse(x2: float, y1: float) -> float:
    threshold = 3.0 * y1 / (1.0 + 2.0 * y1)  # conditional CDF at y2 == y1
    if x2 <= threshold:
        return x2 * (1.0 + 2.0 * y1) / 3.0
    return x2 * (1.0 + 2.0 * y1) - 2.0 * y1


def chelson_conditional() -> ConditionalCdf2D:
    """Marginal and conditional CDFs of the Chelson density, with inverses."""
    return ConditionalCdf2D(
        marginal=chelson_marginal,
        conditional=chelson_conditional_cdf,
        marginal_inverse=chelson_marginal_inverse,
        conditional_inverse=chelson_conditional_inverse,
    )


def chelson_measure() -> AnalyticCdfMeasure:
    """The Chelson density as an analytic-CDF measure (continuous)."""
    return AnalyticCdfMeasure(
        dimension=2,
        cdf=chelson_cdf,
        continuous=True,
        label="chelson",
    )


@dataclass(frozen=True)
class TransformIdentityReport:
    """Side-by-side comparison of the transformed point set's discrepancy
    with the original's, plus box-level diagnostics at a probe corner."""

    transformed: PointSet
    mu_discrepancy: float
    uniform_discrepancy: float
    difference: float
    identity_holds: bool
    probe: tuple[float, ...]
    probe_image: tuple[float, ...]
    measure_mass_probe: float
    uniform_mass_probe_image: float
    transformed_in_probe: int
    original_in_probe_image: int


def chelson_identity_check(
    ps: PointSet,
    cdf: ConditionalCdf2D,
    m,
    probe=(1.0, 0.8),
    tol: float = 1e-10,
) -> TransformIdentityReport:
    """Test whether the sequential conditional transform preserves
    discrepancy, i.e. whether the discrepancy of the transformed points
    under ``m`` equals the uniform discrepancy of the originals.

    True for product measures with invertible axes; false in general -- the
    report also compares, at the probe corner ``a``, the box mass
    ``m([0, a])`` against the uniform mass of ``[0, G(a)]`` and the two
    box-indicator counts, which is where the failure shows up.  ``tol``
    must be one finite number ``>= 0``.
    """
    if ps.dimension != 2:
        raise DimensionMismatchError("the conditional transform is two-dimensional")
    tol = _float(tol, "tol")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    images = PointSet(2, [conditional_transform_2d(x, cdf) for x in ps.points])
    left = star_discrepancy(images, m).value
    right = star_discrepancy(ps, UniformMeasure(2)).value

    probe = _unit_point(probe, 2)
    probe_image = forward_cdf_map(probe, cdf)
    mu_mass = m.cdf(probe)
    uniform_mass = float(np.prod(probe_image))
    in_probe = int(np.all(images.points <= probe, axis=1).sum())
    in_image = int(np.all(ps.points <= np.asarray(probe_image), axis=1).sum())

    return TransformIdentityReport(
        transformed=images,
        mu_discrepancy=left,
        uniform_discrepancy=right,
        difference=left - right,
        identity_holds=abs(left - right) <= tol,
        probe=tuple(float(c) for c in probe),
        probe_image=tuple(float(c) for c in probe_image),
        measure_mass_probe=mu_mass,
        uniform_mass_probe_image=uniform_mass,
        transformed_in_probe=in_probe,
        original_in_probe_image=in_image,
    )
