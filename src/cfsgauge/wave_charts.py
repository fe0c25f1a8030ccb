"""Wave charts and distinguished gauges around a regular base point.

Points near a regular correlation operator x can be parametrized by maps
psi from the ambient Hilbert space into the spin space at x ("wave
coordinates"), psi = on_image V^dag + on_complement with on_complement
vanishing on the image V of x, via the realization map psi -> -psi* psi.
That map is invertible only up to composition with unitaries of the spin
inner product; the gauge is fixed by demanding that the component of psi on
the image of x be symmetric with respect to the spin inner product.  Two
constructions of this distinguished section are provided:

* ``symmetric_wave_chart`` follows the polar-decomposition route through the
  two-point kernels, psi = (X^{-1} A_xy X^{-1})^{-1/2} X^{-1} P(x, y) Psi(y);
* ``gaussian_wave_map`` transports the operator-manifold chart coordinates
  (a, b), psi = (sqrt(1 + X^{-1} a), (1 + X^{-1} a)^{-1/2} X^{-1} b).

They coincide on their common domain, which ``charts_coincide_check``
quantifies.  ``build_gauge`` evaluates the chart over a whole point set,
producing a gauge into the spin space of the base point that is unique up to
a single global unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import krein as _krein
from .correlation import (ImageSplit, _adjoint, _frobenius, as_split,
                          hermitize, kernel, wave_evaluation)
from .errors import (NotInvertible, OutOfChartDomain, OutOfConvergenceRadius,
                     TooFarFromBase)
from .krein import RADIUS_SERIES, _refuse, opnorm
from .manifold import ChartCoordinates, chart_inverse

#: bound on ||X^{-1} a|| shared by both wave-chart constructions; it is the
#: radius within which sqrt_near_identity roots 1 + X^{-1} a
CHART_DOMAIN_RADIUS = RADIUS_SERIES
#: relative tolerance when comparing realizations in the orbit test
ORBIT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class WaveChartPoint:
    """Wave coordinates of a point, split along the image of the base.

    ``on_image`` is the 2n x 2n component acting within the spin space of the
    base point; ``on_complement`` (2n x f) vanishes on the image of the base.
    For points of a symmetric wave chart, ``on_image`` is symmetric with
    respect to the spin inner product and invertible.  Both components may
    carry the same leading stack axes, one point per element.
    """

    on_image: np.ndarray
    on_complement: np.ndarray
    base: ImageSplit

    def full_matrix(self) -> np.ndarray:
        """The map from the ambient space into the spin space, 2n x f."""
        return self.on_image @ _adjoint(self.base.basis) + self.on_complement

    @classmethod
    def from_full(cls, full: np.ndarray, base: ImageSplit) -> "WaveChartPoint":
        on_image = full @ base.basis
        return cls(on_image=on_image,
                   on_complement=full - on_image @ _adjoint(base.basis),
                   base=base)


def realize(psi: WaveChartPoint) -> np.ndarray:
    """Realization map psi -> -psi* psi, a Hermitian operator on H.

    With the spin Gram -X this is psi^dag X psi; the wave coordinates of the
    base point realize the base point itself.
    """
    full = psi.full_matrix()
    return hermitize(_adjoint(full) @ psi.base.restricted @ full)


def gauge_orbit_witness(psi: WaveChartPoint, psi_tilde: WaveChartPoint):
    """Unitary connecting two wave-coordinate points on the same orbit.

    If both points realize the same operator, returns the spin-space unitary
    U with psi_tilde = U psi (verified on both components to ``ORBIT_TOL``);
    returns None when the realizations differ or no such unitary exists (for
    stacked points: the stack of unitaries, or None if any element fails).
    Raises NotInvertible when the on-image component cannot be inverted.
    """
    sv = np.linalg.svd(psi.on_image, compute_uv=False)
    _refuse(sv[..., -1] <= 1e-12 * sv[..., 0], NotInvertible,
            "on-image component is singular")
    r1 = realize(psi)
    tol = ORBIT_TOL * np.maximum(1.0, opnorm(r1))
    u = psi_tilde.on_image @ np.linalg.inv(psi.on_image)
    on_orbit = (
        np.all(opnorm(r1 - realize(psi_tilde)) <= tol)
        and psi.base.krein.is_unitary(
            u, ORBIT_TOL * np.maximum(1.0, opnorm(u) ** 2))
        and np.all(opnorm(psi_tilde.on_complement - u @ psi.on_complement)
                   <= tol))
    return u if on_orbit else None


def symmetrize(psi: WaveChartPoint) -> WaveChartPoint:
    """Move a point along its gauge orbit to the symmetric representative.

    Polar-decomposes the on-image component as U S and applies U^{-1} to both
    components; the realization is unchanged and the new on-image component is
    symmetric with respect to the spin inner product.
    """
    space = psi.base.krein
    # U^{-1} = U* is the polar factor of the adjoint of the on-image part
    u_inv, root = _krein.polar(space.adjoint(psi.on_image), psi.on_image,
                               space)
    return WaveChartPoint(on_image=root.sqrt,
                          on_complement=u_inv @ psi.on_complement,
                          base=psi.base)


def connecting_unitary(base: ImageSplit, sp_y: ImageSplit) -> np.ndarray:
    """Spin-space unitary transporting the spin space at y onto the base.

    U = (X^{-1} A_xy X^{-1})^{-1/2} X^{-1} P(x, y), the polar factor of
    T = X^{-1} P(x, y), whose adjoint is T* = P(y, x) X^{-1}.  Satisfies
    U U* = 1 across the two spin inner products.  ``sp_y`` may be a stacked
    split, giving a stack of unitaries.
    """
    inv_x = np.linalg.inv(base.restricted)
    try:
        return _krein.polar(inv_x @ kernel(base, sp_y),
                            kernel(sp_y, base) @ inv_x, base.krein)[0]
    except OutOfConvergenceRadius as exc:
        raise OutOfChartDomain(str(exc)) from exc


def symmetric_wave_chart(y, base: ImageSplit) -> WaveChartPoint:
    """Wave coordinates of y in the symmetric wave chart around the base.

    ``y`` is the operator or its image split, or a stack of them.  The
    on-image component comes out symmetric with respect to the spin inner
    product, and realizing the result returns y.  Raises OutOfChartDomain
    when y leaves the shared domain of the two wave-chart constructions
    (image overlap too small, chart coordinate too large, or square root out
    of its convergence radius).
    """
    return _symmetric_chart(as_split(y, *base.signature), base)[0]


def _symmetric_chart(split_y: ImageSplit, base: ImageSplit):
    """``symmetric_wave_chart`` and the chart coordinates it went through."""
    try:
        coords = chart_inverse(split_y, base)
    except TooFarFromBase as exc:
        raise OutOfChartDomain(str(exc)) from exc
    inv_x = np.linalg.inv(base.restricted)
    _refuse(opnorm(inv_x @ coords.a) > CHART_DOMAIN_RADIUS, OutOfChartDomain,
            "chart coordinate exceeds the shared domain radius")
    full = connecting_unitary(base, split_y) @ wave_evaluation(split_y)
    return WaveChartPoint.from_full(full, base), coords


def gaussian_wave_map(coords: ChartCoordinates,
                      base: ImageSplit) -> WaveChartPoint:
    """Wave coordinates obtained by transporting manifold chart coordinates.

    Returns (sqrt(1 + X^{-1} a), (1 + X^{-1} a)^{-1/2} X^{-1} b); realizing
    the result reproduces the operator the chart assembles from (a, b), and
    the on-image component is symmetric with respect to the spin inner
    product.  Raises OutOfConvergenceRadius if X^{-1} a is too large.
    """
    inv_x = np.linalg.inv(base.restricted)
    argument = np.eye(base.rank, dtype=complex) + inv_x @ coords.a
    result = _krein.sqrt_near_identity(argument, base.krein)
    on_image = result.sqrt
    on_complement = result.inv_sqrt @ inv_x @ coords.b
    return WaveChartPoint(on_image=on_image, on_complement=on_complement,
                          base=base)


@dataclass(frozen=True)
class CoincidenceReport:
    """Largest deviation between the two wave-chart constructions."""

    max_deviation: float


def charts_coincide_check(base: ImageSplit, sample_points) -> CoincidenceReport:
    """Compare the symmetric and transported wave charts on sample operators.

    Both wave-coordinate constructions are evaluated over the whole stack of
    samples (a sequence or stack of operators, or a stacked split) and the
    largest operator norm of their difference (as maps from the ambient
    space) is recorded.  Domain errors propagate.
    """
    split_y = _as_stacked_split(sample_points, base)
    via_polar, coords = _symmetric_chart(split_y, base)
    via_chart = gaussian_wave_map(coords, base)
    return CoincidenceReport(max_deviation=float(np.max(opnorm(
        via_polar.full_matrix() - via_chart.full_matrix()))))


def _as_stacked_split(points, base: ImageSplit) -> ImageSplit:
    """The stacked split of a sequence or stack of points.

    A single operator in a sequence becomes a view with a stack axis, so a
    large one is not copied.
    """
    if not isinstance(points, (ImageSplit, np.ndarray)):
        points = (np.asarray(points[0])[None] if len(points) == 1
                  else np.stack(points))
    return as_split(points, *base.signature)


@dataclass(frozen=True, eq=False)
class GaugeMap:
    """A gauge over a point set: one wave map into a common target per point.

    ``values[i]`` is the 2n x f matrix of the gauge at the i-th point, a map
    into the spin space of ``base`` with its inner product
    ``base.krein.gram``.  ``condition_residuals`` record how well each point
    satisfies the defining condition y = -(value)* (value).
    """

    values: tuple
    base: ImageSplit
    condition_residuals: tuple


def build_gauge(base: ImageSplit, points) -> GaugeMap:
    """Construct the distinguished gauge over a set of operators.

    ``points`` is a sequence or stack of operators, or a stacked split.
    Every value is ``symmetric_wave_chart(y, base)``, a map into the spin
    space of the base point, all taken in one stacked call.  Any other gauge
    over the same points that satisfies the gauge condition is one global
    spin-space unitary times this one.
    """
    split_y = _as_stacked_split(points, base)
    values = symmetric_wave_chart(split_y, base).full_matrix()
    residuals = condition_residual_bound(split_y, values, base.krein.gram)
    return GaugeMap(values=tuple(values), base=base,
                    condition_residuals=tuple(residuals.tolist()))


def condition_residual_bound(split_y: ImageSplit, value: np.ndarray,
                             gram: np.ndarray) -> float:
    """Upper bound on ||y + value^dag gram value|| at O(f^2 r) cost.

    The residual R = y + value^dag gram value lives, up to rounding and the
    discarded spectrum of y, on the span of the image of y and the range of
    value^dag.  With Z an orthonormal basis of that span and P = Z Z^dag,
    R = P R P + (R - P R P), so ||R|| <= ||Z^dag R Z|| + ||R - P R P||_F.
    The last norm splits into ||(1 - P) R||_F and ||Z^dag R (1 - P)||_F,
    both computed directly rather than by subtracting squared norms.  For
    a stacked split and stacked values it returns one bound per element.
    """
    value_h = _adjoint(value)
    residual = split_y.operator + value_h @ gram @ value
    z, _ = np.linalg.qr(np.concatenate([split_y.basis, value_h], axis=-1))
    z_residual = _adjoint(z) @ residual
    core = z_residual @ z
    outside = np.hypot(_frobenius(residual - z @ z_residual),
                       _frobenius(z_residual - core @ _adjoint(z)))
    return opnorm(core) + outside
