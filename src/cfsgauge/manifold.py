"""Charts and metric geometry on the manifold of fixed-signature operators.

The set of Hermitian f x f operators of rank p+q with exactly p positive and
q negative eigenvalues is a smooth manifold of dimension 2(p+q)f - (p+q)^2.
Around a base point x with image basis V and compression X = V^dag x V,
points are parametrized by a Hermitian block ``a`` on the image and a map
``b`` from H into the image that vanishes on the image, via

    (a, b)  ->  V (X + a) V^dag + V b + b^dag V^dag + b^dag (X + a)^{-1} b,

the block matrix [[X + a, b], [b^dag, b^dag (X + a)^{-1} b]] along H = I + J.
That point is -W^dag G W with W = V^dag + (X + a)^{-1} b and G = -(X + a),
so ``chart_forward`` returns its image split, read from W at O(f r^2).
The Hilbert-Schmidt scalar product induces a Riemannian metric tr(u v) on the
Hermitian tangent matrices; in the chart above the metric is constant to first
order at the base point, which the ``gaussian_check`` report quantifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .correlation import ImageSplit, as_split, hermitize, split_wave_values
from .errors import InvalidSignature, SignatureLost, TooFarFromBase
from .krein import _adjoint, _frobenius, _refuse

#: smallest singular value of the image-overlap block accepted by chart_inverse
MIN_OVERLAP_SV = 0.5
#: central-difference step of chart_jacobian_rank
JACOBIAN_STEP = 1e-5
#: singular values below this fraction of the largest count as zero rank
JACOBIAN_RANK_RTOL = 1e-6
#: base step of the Richardson extrapolation in gaussian_check
RICHARDSON_STEP = 0.05
#: t values at which gaussian_check measures the quartic residual
RESIDUAL_T = (0.1, 0.05, 0.025)


@dataclass(frozen=True, eq=False)
class ChartCoordinates:
    """Coordinates of a point in the chart around ``split``.

    ``a`` is the Hermitian perturbation acting on the image subspace of the
    base point; ``b`` maps H into the image and vanishes on the image.  Both
    may carry the same leading stack axes, one point per element.
    """

    a: np.ndarray
    b: np.ndarray
    split: ImageSplit


def manifold_dim(p: int, q: int, f: int) -> int:
    """Real dimension of the manifold of signature-(p, q) operators."""
    if p < 0 or q < 0 or f < 1 or p + q > f:
        raise InvalidSignature(f"signature ({p}, {q}) incompatible with f = {f}")
    r = p + q
    return 2 * r * f - r * r


def _chart_factor(coords: ChartCoordinates):
    """W = V^dag + (X + a)^{-1} b and X + a, so the point is W^dag (X + a) W.

    Raises SignatureLost when X + a leaves the domain where the signature of
    the base point is guaranteed (inertia changed, or its smallest
    eigenvalue magnitude dropped below half that of X).
    """
    split = coords.split
    p, q = split.signature
    core = hermitize(split.restricted + coords.a)
    core_eigs = np.linalg.eigvalsh(core)
    floor = 0.5 * np.min(np.abs(np.linalg.eigvalsh(split.restricted)), axis=-1)
    _refuse((np.sum(core_eigs > 0.0, axis=-1) != p)
            | (np.sum(core_eigs < 0.0, axis=-1) != q)
            | (np.min(np.abs(core_eigs), axis=-1) <= floor), SignatureLost,
            "X + a does not retain the signature of the base point")
    b = np.asarray(coords.b, dtype=complex)
    return _adjoint(split.basis) + np.linalg.solve(core, b), core


def chart_forward(coords: ChartCoordinates) -> ImageSplit:
    """The image split of the point parametrized by chart coordinates.

    The point V (X + a) V^dag + V b + b^dag V^dag + b^dag (X + a)^{-1} b is
    -W^dag G W with W = V^dag + (X + a)^{-1} b and G = -(X + a), so it is
    split from W at O(f r^2) with no f x f array.  ``coords`` may hold a
    stack of (a, b) around its one base, giving a stacked split.  Raises
    SignatureLost as ``_chart_factor`` does.
    """
    w, core = _chart_factor(coords)
    return split_wave_values(w, -core, *coords.split.signature)


def chart_inverse(y, split: ImageSplit) -> ChartCoordinates:
    """Read off chart coordinates of an operator near the base point.

    ``y`` is the image split of the operator, or a stacked split, giving
    stacked coordinates.  With the overlap O = V^dag V_y,
    a = O X_y O^dag - X and b = O X_y (V_y^dag - O^dag V^dag).  O must be
    safely invertible (smallest singular value >= MIN_OVERLAP_SV), otherwise
    TooFarFromBase is raised.
    """
    p, q = split.signature
    split_y = as_split(y, p, q)
    base_h = _adjoint(split.basis)
    overlap = base_h @ split_y.basis
    smallest = np.linalg.svd(overlap, compute_uv=False)[..., -1]
    _refuse(smallest < MIN_OVERLAP_SV, TooFarFromBase,
            "image overlap has smallest singular value {:.3g} < {}",
            smallest, MIN_OVERLAP_SV)
    moved = overlap @ split_y.restricted
    a = hermitize(moved @ _adjoint(overlap) - split.restricted)
    b = moved @ (_adjoint(split_y.basis) - _adjoint(overlap) @ base_h)
    return ChartCoordinates(a=a, b=b, split=split)


def chart_jacobian_rank(split: ImageSplit) -> int:
    """Numeric rank of the chart differential at the origin.

    Central finite differences over a real parameter basis of (a, b), all
    rendered densely from one stacked ``_chart_factor``: r^2 for a and
    2 r (f - r) for b along an orthonormal basis of the complement of the
    image, the last f - r columns of a complete QR of V, one per real
    dimension.  The rank counts singular values above
    ``JACOBIAN_RANK_RTOL`` times the largest one.
    """
    r, f = split.rank, split.basis.shape[0]
    units = np.eye(r)
    a_dirs = [np.outer(units[i], units[i]) for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        e = np.outer(units[i], units[j])
        a_dirs += [e + e.T, 1j * (e - e.T)]
    # b along e_i (x) (unit * q_j^dag): i outer, complement vector, unit 1, i
    complement = np.linalg.qr(split.basis, mode="complete")[0][:, r:]
    b_dirs = np.einsum("ik,u,jl->ijukl", units, [1.0, 1.0j],
                       _adjoint(complement)).reshape(-1, r, f)
    da = np.concatenate([a_dirs, np.zeros((len(b_dirs), r, r))])
    db = np.concatenate([np.zeros((len(a_dirs), r, f)), b_dirs])
    step = JACOBIAN_STEP
    w, core = _chart_factor(ChartCoordinates(
        a=step * np.concatenate([da, -da]), b=step * np.concatenate([db, -db]),
        split=split))
    both = hermitize(_adjoint(w) @ core @ w)
    diff = (both[:len(da)] - both[len(da):]) / (2.0 * step)
    jac = np.concatenate([diff.real.reshape(len(da), -1),
                          diff.imag.reshape(len(da), -1)], axis=1).T
    sv = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(sv > JACOBIAN_RANK_RTOL * sv[0]))


@dataclass(frozen=True)
class GaussianReport:
    """Quadratic expansion of the squared chart distance along two rays.

    D(t) = d(point(t a, t b), point(t a2, t b2))^2 is fitted as
    c2 t^2 + r(t); ``quadratic_coefficient`` is the measured c2,
    ``predicted_coefficient`` the block-trace value it should equal, and the
    residual r(t) should scale like t^4 (ratios near 16 under halving of t).
    Each field has the stack axes of the directions; ``residuals`` and
    ``residual_ratios`` add a last axis over the t values.
    """

    quadratic_coefficient: np.ndarray
    predicted_coefficient: np.ndarray
    residuals: np.ndarray
    residual_ratios: np.ndarray


def _squared_chart_distance(split: ImageSplit, a1, b1, a2, b2, t):
    """D(t) for each t, computed blockwise so the base point cancels exactly.

    The result has the stack axes of the directions and a last axis over t.
    """
    t = np.asarray(t)[:, None, None]
    a1, b1, a2, b2 = (d[..., None, :, :] for d in (a1, b1, a2, b2))
    lr1 = _adjoint(t * b1) @ np.linalg.solve(split.restricted + t * a1, t * b1)
    lr2 = _adjoint(t * b2) @ np.linalg.solve(split.restricted + t * a2, t * b2)
    return (_frobenius(t * (a1 - a2)) ** 2
            + 2.0 * _frobenius(t * (b1 - b2)) ** 2
            + _frobenius(lr1 - lr2) ** 2)


def gaussian_check(split: ImageSplit, a1, b1, a2, b2) -> GaussianReport:
    """Measure the quadratic coefficient and quartic residual of D(t).

    The directions may carry leading stack axes, one probe per element; all
    t values of all elements are evaluated in one stack.  The measured c2
    comes from Richardson extrapolation of the even part of D(t)/t^2; the
    predicted value is the chart metric g(delta, delta) at the base point,
    delta = (a1 - a2, b1 - b2).  The residuals are taken at ``RESIDUAL_T``.
    """
    a1, b1, a2, b2 = (np.asarray(d, dtype=complex) for d in (a1, b1, a2, b2))
    delta = (a1 - a2, b1 - b2)
    predicted = chart_metric(split, 0.0, np.zeros_like(b1), delta, delta)

    steps = RICHARDSON_STEP / np.array([1.0, 2.0, 4.0])
    d = _squared_chart_distance(split, a1, b1, a2, b2,
                                np.concatenate([steps, -steps, RESIDUAL_T]))
    # D(t)/t^2 even in t: two Richardson stages kill the t^2 and t^4 terms.
    e0, e1, e2 = np.moveaxis((d[..., :3] + d[..., 3:6]) / (2.0 * steps ** 2),
                             -1, 0)
    r1a = (4.0 * e1 - e0) / 3.0
    r1b = (4.0 * e2 - e1) / 3.0
    measured = (16.0 * r1b - r1a) / 15.0

    residuals = (d[..., 6:]
                 - np.multiply.outer(predicted, np.square(RESIDUAL_T)))
    ra, rb = residuals[..., :-1], residuals[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rb != 0.0, ra / rb, np.nan)

    return GaussianReport(quadratic_coefficient=measured,
                          predicted_coefficient=predicted,
                          residuals=residuals, residual_ratios=ratios)


def chart_metric(split: ImageSplit, a, b, dir1, dir2):
    """Pullback of the metric to the chart, evaluated at coordinates (a, b).

    ``dir1`` and ``dir2`` are coordinate directions (da, db); the differential
    of the parametrization is applied analytically and traced against itself.
    Points and directions may carry leading stack axes: a float, or an array
    of them for a stack.
    """
    rb = np.linalg.solve(split.restricted + np.asarray(a, dtype=complex),
                         np.asarray(b, dtype=complex))

    def differential(da, db):
        da, db = np.asarray(da, dtype=complex), np.asarray(db, dtype=complex)
        return da, db, (_adjoint(db) @ rb + _adjoint(rb) @ db
                        - _adjoint(rb) @ da @ rb)

    def trace(u, v):   # tr(u v) over the last two axes
        return np.einsum("...ij,...ji->...", u, v)

    (p1, q1, s1), (p2, q2, s2) = differential(*dir1), differential(*dir2)
    value = np.real(trace(p1, p2) + 2.0 * np.real(trace(_adjoint(q1), q2))
                    + trace(s1, s2))
    return float(value) if value.ndim == 0 else value
