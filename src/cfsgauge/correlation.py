"""Correlation operators, spin spaces, wave evaluation and two-point kernels.

A correlation operator x is a Hermitian f x f matrix of rank 2n whose nonzero
spectrum splits into n positive and n negative eigenvalues.  Its image carries
the indefinite spin inner product

    <u | v>_x = - (u, x v)

of signature (n, n), so every such operator spawns a Krein space (the spin
space).  One type, ``ImageSplit``, holds a regular point: the f x r image
basis V and the compression X = V^dag x V, from which the spin space, the
wave evaluation V^dag and the kernel P(x, y) = V_x^dag V_y X_y are all read
at O(f r^2) cost.  Code that needs the orthogonal complement projects off
the image with 1 - V V^dag; only ``manifold.chart_jacobian_rank`` builds a
basis of it, the range basis of that projector.  A dense x is built and
split with no f x f temporary, each pass writing into x or into a row block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotRegular
from .krein import KreinSpace, _frobenius, _frobenius2, _refuse

#: relative threshold separating genuine eigenvalues from numerical zeros
TOL_RANK_FACTOR = 1e-8
BLOCK_ROWS = 32  #: rows per cache-sized block of a dense f x f pass


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part (of each stacked matrix)."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    rows = np.argmax(np.abs(v), axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, rows, axis=-2)
    size = np.hypot(pivot.real, pivot.imag)   # rounds as scalar abs() does
    return v * np.where(size > 0.0, size / np.where(size > 0.0, pivot, 1), 1)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each stacked matrix."""
    return np.swapaxes(a.conj(), -1, -2)


@dataclass(frozen=True, eq=False)
class ImageSplit:
    """A regular point: the image of x and the compression of x onto it.

    ``basis`` holds eigenvectors of the p+q nonzero eigenvalues (descending
    eigenvalue order, phases fixed deterministically) and ``restricted`` the
    compression X = basis^dag x basis, and ``discarded`` the dropped part
    ||x - basis X basis^dag||_F.  ``krein`` is the spin space, the image with
    Gram matrix -X, built on first use.  For a stack of operators every
    field has the same leading stack axes.
    """

    operator: np.ndarray
    basis: np.ndarray
    restricted: np.ndarray
    discarded: np.ndarray
    signature: tuple[int, int]

    @property
    def rank(self) -> int:
        return self.basis.shape[-1]

    @cached_property
    def krein(self) -> KreinSpace:
        return KreinSpace(gram=-self.restricted, signature=self.signature[::-1])


def _range_basis(x: np.ndarray, r: int):
    """Orthonormal f x r basis Q of the dominant column space of each x.

    r steps of Gram-Schmidt with column pivoting: each step takes the column
    of largest remaining norm, orthogonalizes it twice against the basis so
    far and downdates the column norms.  Returns (Q, Q^dag x, ok), ok false
    where a pivot column had nothing left (x has rank below r, or is not
    finite); such an element's Q is meaningless.
    """
    stack, f = x.shape[:-2], x.shape[-1]
    frame = np.zeros((*stack, f, r), dtype=complex)
    rows = np.zeros((*stack, r, f), dtype=complex)
    pairs = (x if x.strides[-1] == x.itemsize else x.copy()).view(float)
    norms2 = np.einsum("...ij,...ij->...j", pairs, pairs)   # no f x f copy
    norms2 = norms2.reshape(*stack, f, 2).sum(axis=-1)
    ok = np.ones(stack, dtype=bool)
    for k in range(r):
        pivot = np.argmax(norms2, axis=-1)[..., None, None]
        v = np.take_along_axis(x, pivot, axis=-1)
        for _ in range(2):
            v = v - frame[..., :k] @ (_adjoint(frame[..., :k]) @ v)
        length = np.linalg.norm(v[..., 0], axis=-1)
        ok &= length > 0.0
        frame[..., k] = v[..., 0] / np.where(ok, length, 1.0)[..., None]
        rows[..., k, :] = (_adjoint(frame[..., k:k + 1]) @ x)[..., 0, :]
        norms2 -= np.abs(rows[..., k, :]) ** 2
    return frame, rows, ok


def _split_from_range(x: np.ndarray, p: int, q: int):
    """Split each x from a rank-(p+q) range basis, where certified.

    With Q from ``_range_basis`` and B = Q^dag x Q, the residual
    rho = ||x - Q B Q^dag||_F bounds how far every eigenvalue of x lies from
    the spectrum of Q B Q^dag (eig(B) and f - r zeros).  If rho is below the
    rank threshold and every |eig(B)| exceeds threshold + rho, then x has
    exactly r eigenvalues above the threshold in magnitude, with the signs of
    eig(B), and the dense route would reach the same verdict.  The threshold
    scales with ||x||, known from max|eig(B)| only to within rho, so both
    bounds take the unfavorable end.  Returns (basis, restricted, rho, found,
    threshold, certified) per element, ``found`` the (p, q) counts.
    """
    frame, rows, ok = _range_basis(x, p + q)
    b = np.where(ok[..., None, None], rows @ frame, 0.0)
    vals, vecs = np.linalg.eigh(hermitize(b))
    # x - Q B Q^dag = (1 - P) x + Q (Q^dag x)(1 - P), orthogonal in Frobenius
    outside2 = np.zeros(x.shape[:-2])
    for top in range(0, x.shape[-2], BLOCK_ROWS):
        part = frame[..., top:top + BLOCK_ROWS, :] @ rows
        np.subtract(x[..., top:top + BLOCK_ROWS, :], part, out=part)
        outside2 += _frobenius2(part)
    rho = np.hypot(np.sqrt(outside2), _frobenius(rows - b @ _adjoint(frame)))
    scale = np.max(np.abs(vals), axis=-1)
    tol_low = TOL_RANK_FACTOR * np.maximum(scale - rho, 1e-300)
    tol_high = TOL_RANK_FACTOR * np.maximum(scale + rho, 1e-300)
    certified = (ok & (rho < tol_low)
                 & (np.min(np.abs(vals), axis=-1) > tol_high + rho))
    basis = _fix_column_phases(frame @ vecs[..., ::-1])
    coeffs = _adjoint(frame) @ basis
    return (basis, hermitize(_adjoint(coeffs) @ b @ coeffs), rho,
            _counts(vals, 0.0), TOL_RANK_FACTOR * np.maximum(scale, 1e-300),
            certified)


def _split_dense(x: np.ndarray, p: int, q: int):
    """Split each x by a full f x f eigendecomposition.

    Returns what ``_split_from_range`` does, every element decided and rho
    the norm of the dropped eigenvalues; the basis is meaningful only where
    ``found`` is (p, q).
    """
    vals, vecs = np.linalg.eigh(hermitize(x))
    tol_rank = TOL_RANK_FACTOR * np.maximum(np.max(np.abs(vals), axis=-1),
                                            1e-300)
    keep = np.abs(vals) > tol_rank[..., None]
    # the kept columns first, in descending eigenvalue order
    order = np.argsort(~keep[..., ::-1], axis=-1, kind="stable")[..., :p + q]
    basis = _fix_column_phases(
        np.take_along_axis(vecs[..., ::-1], order[..., None, :], axis=-1))
    dropped = np.sqrt(np.sum(np.where(keep, 0.0, vals ** 2), axis=-1))
    return (basis, hermitize(_adjoint(basis) @ x @ basis), dropped,
            _counts(vals, tol_rank), tol_rank, np.ones(x.shape[:-2], bool))


def _counts(vals: np.ndarray, tol) -> np.ndarray:
    """(count above +tol, count below -tol) of each stacked spectrum."""
    tol = np.asarray(tol)[..., None]
    return np.stack([np.sum(vals > tol, axis=-1),
                     np.sum(vals < -tol, axis=-1)], axis=-1)


def split_by_image(x: np.ndarray, p: int, q: int) -> ImageSplit:
    """Eigen-split a Hermitian operator of expected signature (p, q).

    ``x`` may be a stack of operators, split element by element.  Raises
    NotRegular when the counts of eigenvalues above +tol / below -tol
    differ from (p, q); every other eigenvalue is discarded as numerically
    zero.  The threshold is ``TOL_RANK_FACTOR`` times ||x||.  The
    image comes from an f x (p+q) range basis at O(f^2 (p+q)) cost; a full
    eigendecomposition runs only for an element whose residual certificate
    cannot decide.
    """
    x = np.asarray(x, dtype=complex)
    # with no range basis every element takes the dense route
    route = _split_from_range if 0 < p + q <= x.shape[-1] else _split_dense
    basis, restricted, discarded, found, tol_rank, done = map(
        np.asarray, route(x, p, q))
    rest = ~done
    if rest.any():   # a 0-d mask indexes a lone x as a stack of one
        dense = _split_dense(x[rest], p, q)
        found[rest], tol_rank[rest] = dense[3], dense[4]
    _refuse(np.any(found != (p, q), axis=-1), NotRegular,
            "expected signature ({}, {}), found ({}, {}) at threshold {:.3g}",
            p, q, found[..., 0], found[..., 1], tol_rank)
    if rest.any():
        basis[rest], restricted[rest], discarded[rest] = dense[:3]
    return ImageSplit(operator=x, basis=basis, restricted=restricted,
                      discarded=discarded, signature=(p, q))


def as_split(x, p: int, q: int) -> ImageSplit:
    """The image split of an operator, or the given split itself."""
    if isinstance(x, ImageSplit):
        if x.signature != (p, q):
            raise NotRegular(f"expected signature ({p}, {q}), found "
                             f"{tuple(x.signature)}")
        return x
    return split_by_image(x, p, q)


def spin_space(x, n: int) -> ImageSplit:
    """The spin space of a regular correlation operator, as its image split.

    ``x`` is the operator or its image split.  Raises NotRegular unless x
    has exactly n eigenvalues above +tol and n below -tol, the rest being
    numerically zero.
    """
    return as_split(x, n, n)


def local_correlation(wave_values: np.ndarray,
                      spinor_gram: np.ndarray) -> np.ndarray:
    """Correlation operator of an ensemble of wave values at one point.

    ``wave_values`` has one column per basis vector of the ensemble (assumed
    orthonormal); entry (i, j) of the result is minus the indefinite inner
    product of values i and j, giving a Hermitian matrix: ``hermitize``'s
    formula, applied in place to one row block and its column block at a time.
    """
    w = np.asarray(wave_values, dtype=complex)
    x = w.conj().T @ np.asarray(spinor_gram, dtype=complex) @ w
    for i in range(0, len(x), BLOCK_ROWS):  # (-a) - b^dag == (-a) + (-b)^dag
        j = i + BLOCK_ROWS
        rows, cols = x[i:j, i:], x[i:, i:j].T.copy()
        x[j:, i:j] = (0.5 * (-cols[:, j - i:] - rows[:, j - i:].conj())).T
        rows[...] = 0.5 * (-rows - cols.conj())
    return x


def wave_evaluation(sp: ImageSplit) -> np.ndarray:
    """Projection onto the spin space, expressed in its basis (2n x f)."""
    return _adjoint(sp.basis).copy()


def kernel(sp_x: ImageSplit, sp_y: ImageSplit) -> np.ndarray:
    """Two-point kernel P(x, y): spin space at y -> spin space at x.

    In the recorded bases this is basis_x^dag y basis_y = (basis_x^dag
    basis_y) X_y, read from the image factors at O(f r^2) cost; equivalently
    the bra/ket sum -Psi(x) Psi(y)* over the ensemble.
    """
    return _adjoint(sp_x.basis) @ sp_y.basis @ sp_y.restricted


def closed_chain(sp_x: ImageSplit, sp_y: ImageSplit) -> np.ndarray:
    """Closed chain A_xy = P(x, y) P(y, x), an endomorphism of S_x.

    Symmetric with respect to the spin inner product at x; its spectrum does
    not depend on the choice of spin bases.
    """
    return kernel(sp_x, sp_y) @ kernel(sp_y, sp_x)
