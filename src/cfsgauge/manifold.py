"""Charts and metric geometry on the manifold of fixed-signature operators.

The set of Hermitian f x f operators of rank p+q with exactly p positive and
q negative eigenvalues is a smooth manifold of dimension 2(p+q)f - (p+q)^2.
Around a base point x with image basis V and compression X = V^dag x V,
points are parametrized by a Hermitian block ``a`` on the image and a map
``b`` from H into the image that vanishes on the image, via

    (a, b)  ->  V (X + a) V^dag + V b + b^dag V^dag + b^dag (X + a)^{-1} b,

the block matrix [[X + a, b], [b^dag, b^dag (X + a)^{-1} b]] along H = I + J.
The Hilbert-Schmidt scalar product induces a Riemannian metric tr(u v) on the
Hermitian tangent matrices; in the chart above the metric is constant to first
order at the base point, which the ``gaussian_check`` report quantifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .correlation import (ImageSplit, _adjoint, as_split, complement_basis,
                          hermitize)
from .errors import InvalidSignature, SignatureLost, TooFarFromBase
from .krein import _refuse

#: smallest singular value of the image-overlap block accepted by chart_inverse
MIN_OVERLAP_SV = 0.5
#: central-difference step of chart_jacobian_rank
JACOBIAN_STEP = 1e-5
#: singular values below this fraction of the largest count as zero rank
JACOBIAN_RANK_RTOL = 1e-6
#: base step of the Richardson extrapolation in gaussian_check
RICHARDSON_STEP = 0.05


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


def chart_forward(coords: ChartCoordinates) -> np.ndarray:
    """Assemble the operator parametrized by chart coordinates.

    ``coords`` may hold a stack of (a, b) around its one base, giving a stack
    of operators.  Raises SignatureLost when X + a leaves the domain where the
    signature of the base point is guaranteed (inertia changed, or its
    smallest eigenvalue magnitude dropped below half that of X).
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
    v = split.basis
    vb = v @ b
    m = (v @ core @ _adjoint(v) + vb + _adjoint(vb)
         + _adjoint(b) @ np.linalg.solve(core, b))
    return hermitize(m)


def chart_inverse(y, split: ImageSplit) -> ChartCoordinates:
    """Read off chart coordinates of an operator near the base point.

    ``y`` is the operator or its image split, or a stack of them, giving
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

    Central finite differences over a real parameter basis of (a, b), b along
    a complement basis, all taken in one stacked ``chart_forward``; the rank
    counts singular values above ``JACOBIAN_RANK_RTOL`` times the largest one.
    """
    r, f = split.rank, split.basis.shape[0]
    units = np.eye(r)
    a_dirs = [np.outer(units[i], units[i]) for i in range(r)]
    for i, j in itertools.combinations(range(r), 2):
        e = np.outer(units[i], units[j])
        a_dirs += [e + e.T, 1j * (e - e.T)]
    # b along e_i (x) (unit * row): i outer, complement row, then unit 1, i
    b_dirs = np.einsum("ik,u,jl->ijukl", units, [1.0, 1.0j],
                       _adjoint(complement_basis(split))).reshape(-1, r, f)
    da = np.concatenate([a_dirs, np.zeros((len(b_dirs), r, r))])
    db = np.concatenate([np.zeros((len(a_dirs), r, f)), b_dirs])
    step = JACOBIAN_STEP
    both = chart_forward(ChartCoordinates(a=step * np.concatenate([da, -da]),
                                          b=step * np.concatenate([db, -db]),
                                          split=split))
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
    """

    quadratic_coefficient: float
    predicted_coefficient: float
    residuals: tuple
    residual_ratios: tuple


def _squared_chart_distance(split: ImageSplit, a1, b1, a2, b2, t: float) -> float:
    """D(t) computed blockwise so the base point cancels exactly."""
    x_restricted = split.restricted
    core1 = x_restricted + t * a1
    core2 = x_restricted + t * a2
    lr1 = (t * b1).conj().T @ np.linalg.solve(core1, t * b1)
    lr2 = (t * b2).conj().T @ np.linalg.solve(core2, t * b2)
    du = t * (a1 - a2)
    dc = t * (b1 - b2)
    dl = lr1 - lr2
    return (np.linalg.norm(du, "fro") ** 2
            + 2.0 * np.linalg.norm(dc, "fro") ** 2
            + np.linalg.norm(dl, "fro") ** 2)


def gaussian_check(split: ImageSplit, a1, b1, a2, b2,
                   t_list=(0.1, 0.05, 0.025)) -> GaussianReport:
    """Measure the quadratic coefficient and quartic residual of D(t).

    The measured c2 comes from Richardson extrapolation of the even part of
    D(t)/t^2; the predicted value is the squared Frobenius norm of the
    first-order block [[a1 - a2, b1 - b2], [(b1 - b2)^dag, 0]].
    """
    a1 = np.asarray(a1, dtype=complex)
    b1 = np.asarray(b1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    b2 = np.asarray(b2, dtype=complex)

    predicted = (np.linalg.norm(a1 - a2, "fro") ** 2
                 + 2.0 * np.linalg.norm(b1 - b2, "fro") ** 2)

    def even_part(t: float) -> float:
        dp = _squared_chart_distance(split, a1, b1, a2, b2, t)
        dm = _squared_chart_distance(split, a1, b1, a2, b2, -t)
        return (dp + dm) / (2.0 * t * t)

    t0 = RICHARDSON_STEP
    # D(t)/t^2 even in t: two Richardson stages kill the t^2 and t^4 terms.
    e0, e1, e2 = even_part(t0), even_part(t0 / 2), even_part(t0 / 4)
    r1a = (4.0 * e1 - e0) / 3.0
    r1b = (4.0 * e2 - e1) / 3.0
    measured = (16.0 * r1b - r1a) / 15.0

    residuals = [_squared_chart_distance(split, a1, b1, a2, b2, t)
                 - predicted * t * t for t in t_list]
    ratios = [ra / rb if rb != 0.0 else float("nan")
              for ra, rb in zip(residuals, residuals[1:])]

    return GaussianReport(
        quadratic_coefficient=float(measured),
        predicted_coefficient=float(predicted),
        residuals=tuple(float(r) for r in residuals),
        residual_ratios=tuple(ratios),
    )


def chart_metric(split: ImageSplit, a, b, dir1, dir2) -> float:
    """Pullback of the metric to the chart, evaluated at coordinates (a, b).

    ``dir1`` and ``dir2`` are coordinate directions (da, db); the differential
    of the parametrization is applied analytically and traced against itself.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    core = split.restricted + a
    solve = np.linalg.solve
    rb = solve(core, b)

    def differential(da, db):
        da = np.asarray(da, dtype=complex)
        db = np.asarray(db, dtype=complex)
        lower = db.conj().T @ rb + rb.conj().T @ db - rb.conj().T @ da @ rb
        return da, db, lower

    p1, q1, s1 = differential(*dir1)
    p2, q2, s2 = differential(*dir2)
    value = (np.trace(p1 @ p2)
             + 2.0 * np.real(np.trace(q1.conj().T @ q2))
             + np.trace(s1 @ s2))
    return float(np.real(value))
