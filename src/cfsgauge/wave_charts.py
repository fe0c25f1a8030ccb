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
  two-point kernels, psi = (X^{-1} A_xy X^{-1})^{-1/2} X^{-1} P(x, y) Psi(y),
  whose ``connecting_unitary`` also serves the spinor frame of the sea;
* ``gaussian_wave_map`` transports the operator-manifold chart coordinates
  (a, b), psi = (sqrt(1 + X^{-1} a), (1 + X^{-1} a)^{-1/2} X^{-1} b).

They coincide on their common domain, which ``charts_coincide_check``
quantifies.  ``build_gauge`` evaluates the chart over a whole point set,
producing a gauge into the spin space of the base point that is unique up to
a single global unitary, and its condition residuals from the image splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import krein as _krein
from .correlation import ImageSplit, as_split, frame_form, kernel
from .errors import (NotInvertible, OutOfChartDomain, OutOfConvergenceRadius,
                     TooFarFromBase)
from .krein import _adjoint, _frobenius, _refuse, opnorm
from .manifold import ChartCoordinates, chart_inverse

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


def gauge_orbit_witness(psi: WaveChartPoint, psi_tilde: WaveChartPoint):
    """Unitary connecting two wave-coordinate points on the same orbit.

    If both points realize the same operator, returns the spin-space unitary
    U with psi_tilde = U psi (verified on both components to ``ORBIT_TOL``);
    returns None when the realizations differ or no such unitary exists (for
    stacked points: the stack of unitaries, or None if any element fails).
    Raises NotInvertible when the on-image component cannot be inverted.
    Realizations psi^dag X psi are read on 2r x 2r cores of equal norms: the
    difference by ``frame_form``, ||psi^dag X psi|| as ||R X R^dag||, psi^dag = QR.
    """
    sv = np.linalg.svd(psi.on_image, compute_uv=False)
    _refuse(sv[..., -1] <= 1e-12 * sv[..., 0], NotInvertible,
            "on-image component is singular")
    x, psi_h = psi.base.restricted, _adjoint(psi.full_matrix())
    u = psi_tilde.on_image @ np.linalg.inv(psi.on_image)
    off = (frame_form(psi_h, x, _adjoint(psi_tilde.full_matrix()), -x),
           psi_tilde.on_complement - u @ psi.on_complement)
    def within(tol, unitary_tol):
        return (all(np.all(_krein._norm_bound(r, tol) <= tol) for r in off)
                and psi.base.krein.is_unitary(u, unitary_tol))
    if within(ORBIT_TOL, ORBIT_TOL):   # unscaled first
        return u
    r = np.linalg.qr(psi_h, mode="r")
    on_orbit = within(ORBIT_TOL * np.maximum(1.0, opnorm(r @ x @ _adjoint(r))),
                      ORBIT_TOL * np.maximum(1.0, opnorm(u) ** 2))
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


def connecting_unitary(diagonal, p_xy, p_yx, space: _krein.KreinSpace):
    """Unitary U transporting the spin space at y onto ``space`` at x.

    U = (D^{-1} A_xy D^{-1})^{-1/2} D^{-1} P(x, y), D = P(x, x), is the polar
    factor of T = D^{-1} P(x, y), whose adjoint is T* = P(y, x) D^{-1}, in
    any frame (spin space: D = X; spinors: the sea's P(x, x)).  Returns U and
    the root of T T*; its ``sqrt`` is the symmetric factor.  Stacks broadcast.
    """
    inv_x = np.linalg.inv(diagonal)
    return _krein.polar(inv_x @ p_xy, p_yx @ inv_x, space)


def symmetric_wave_chart(y, base: ImageSplit) -> WaveChartPoint:
    """Wave coordinates of y in the symmetric wave chart around the base.

    ``y`` is the image split of the operator, or a stacked split.  The
    on-image component comes out symmetric with respect to the spin inner
    product, and realizing the result returns y.  Raises OutOfChartDomain
    when y leaves the shared domain of the two wave-chart constructions:
    the image overlap is too small, or 1 + X^{-1} a lies beyond the square
    root's convergence radius.
    """
    return _symmetric_chart(y, base)[0]


def _symmetric_chart(split_y: ImageSplit, base: ImageSplit):
    """``symmetric_wave_chart`` and its chart coordinates.  With O = V^dag V_y,
    the polar root of T T* = X^{-1} O X_y O^dag = 1 + X^{-1} a is the one
    chart-domain gate."""
    try:
        coords = chart_inverse(split_y, base)
        u, _ = connecting_unitary(base.restricted, kernel(base, split_y),
                                  kernel(split_y, base), base.krein)
    except (TooFarFromBase, OutOfConvergenceRadius) as exc:
        raise OutOfChartDomain(str(exc)) from exc
    return WaveChartPoint.from_full(u @ _adjoint(split_y.basis), base), coords


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
    samples (a sequence of image splits, or a stacked split) and the
    largest operator norm of their difference (as maps from the ambient
    space) is recorded.  Domain errors propagate.
    """
    split_y = _as_stacked_split(sample_points, base)
    via_polar, coords = _symmetric_chart(split_y, base)
    via_chart = gaussian_wave_map(coords, base)
    return CoincidenceReport(max_deviation=np.max(opnorm(
        via_polar.full_matrix() - via_chart.full_matrix())))


def _as_stacked_split(points, base: ImageSplit) -> ImageSplit:
    """The stacked split of a sequence of splits, or a stacked split itself.

    The bases, compressions and dropped-norm bounds of a sequence are
    stacked, so no (n, f, f) array is formed.
    """
    if isinstance(points, ImageSplit):
        return as_split(points, *base.signature)
    splits = [as_split(x, *base.signature) for x in points]
    return ImageSplit(*(np.stack([getattr(s, name) for s in splits])
                        for name in ("basis", "restricted", "discarded")),
                      signature=base.signature)


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

    ``points`` is a sequence of image splits, or a stacked split.
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
    """Upper bound on ||y + value^dag gram value|| at O(f r^2) cost.

    With V the image basis of y, X its compression and E = y - V X V^dag
    the part the split dropped, the residual is V X V^dag + value^dag gram
    value + E: ``frame_form`` gives the norm of the first two terms exactly,
    and ||E|| <= ||E||_F <= ``discarded``, the split's bound.  Forming the
    dense residual rounds it by at most gamma_{2r+1} (||X||_F + ``discarded``
    + ||gram||_F ||value||_F^2), which is added too.  For a stacked split and
    stacked values it returns one bound per element.
    """
    core = frame_form(split_y.basis, split_y.restricted, _adjoint(value), gram)
    nu = (2 * split_y.rank + 1) * np.finfo(float).eps / 2
    return opnorm(core) + split_y.discarded + nu / (1.0 - nu) * (
        _frobenius(split_y.restricted) + split_y.discarded
        + _frobenius(gram) * _frobenius(value) ** 2)
