"""Linear algebra on finite-dimensional indefinite inner product (Krein) spaces.

This bottom layer owns every adjoint the package takes: ``_adjoint`` is the
one conjugate transpose, and ``KreinSpace.adjoint`` the one Krein adjoint.
A Krein space is described here by an invertible Hermitian Gram matrix G of
signature (p, q) in a fixed basis, so that the inner product of two vectors is
u^dag G v.  Adjoints, unitarity and symmetry are always meant with respect to
this indefinite product:

    adjoint:    A* = G^{-1} A^dag G
    unitary:    U^dag G U = G
    symmetric:  A* = A

Matrix square roots are provided only in a neighborhood of the identity, where
the principal branch is unambiguous; this is exactly the regime needed for the
unique polar decomposition A = U S with U unitary and S symmetric close to 1.
Every routine also takes stacks (..., n, n), empty ones included, a space a
stack of Grams of one signature; each element gets every check, and errors
name its stack index.
Norm checks decide by the bound ||a||_2 <= ||a||_F first and take the exact
``opnorm``, from the small Gram and never an SVD, only where it cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotSymmetric, OutOfConvergenceRadius, SingularGram

#: default absolute tolerance for unitarity / symmetry predicates
TOL = 1e-10
#: default tolerance for square-root residuals
TOL_SQRT = 1e-9
#: relative threshold below which the Gram matrix counts as singular
SINGULAR_FACTOR = 1e-12
#: operator-norm radius around 1 inside which the square-root series is trusted
RADIUS_SERIES = 0.8
#: truncation controls for the binomial square-root series
SERIES_MAX_TERMS = 200
SERIES_TERM_TOL = 1e-15


def opnorm(a: np.ndarray):
    """Operator (spectral) norm: a float, or an array of them for a stack.

    Root of the top ``eigvalsh`` eigenvalue of the smaller Gram, a a^dag or
    a^dag a, formed by ``vecdot`` with no copy: for s x k or k x s elements,
    s <= k, within (k + s) s eps of ||a||_2 relative, eps = 2^-52, while the
    squared entries stay normal.  A non-finite element raises LinAlgError.
    """
    # refused before the contraction, where inf x 0 would warn
    _refuse(~np.isfinite(_frobenius(a)), np.linalg.LinAlgError,
            "matrix is not finite")
    rows = a if a.shape[-2] <= a.shape[-1] else np.swapaxes(a, -1, -2)
    gram = np.vecdot(rows[..., :, None, :], rows[..., None, :, :])
    top = np.sqrt(np.linalg.eigvalsh(gram).max(axis=-1, initial=0.0))
    return float(top) if top.ndim == 0 else top


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each stacked matrix."""
    return np.swapaxes(a.conj(), -1, -2)


def _frobenius(a: np.ndarray):
    """Frobenius norm of each stacked matrix: one BLAS dot each, no copy."""
    flat = np.ascontiguousarray(a, np.result_type(a, float)).view(float)
    flat = flat.reshape(*a.shape[:-2], flat.shape[-2] * flat.shape[-1])
    return np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])


def _norm_bound(a: np.ndarray, limit):
    """||a||_F of each element where below ``limit``, else the exact ||a||."""
    bound = np.array(_frobenius(a))
    exact = (bound >= limit) & np.isfinite(bound)  # non-finite: kept
    if exact.any():
        bound[exact] = opnorm(a[exact])
    return bound


def _refuse(bad, error, message: str, *values) -> None:
    """Raise ``error``, formatted with ``values``, where ``bad`` first holds."""
    if np.asarray(bad).any():
        where = tuple(np.argwhere(bad)[0].tolist())
        values = [np.broadcast_to(v, np.shape(bad))[where] for v in values]
        prefix = f"stack element {list(where)}: " if where else ""
        raise error(prefix + message.format(*values))


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """Finite-dimensional indefinite inner product space.

    ``gram`` is the invertible Hermitian matrix of the inner product in the
    working basis, or a stack (..., n, n) of them; ``signature`` counts the
    positive and negative eigenvalues of each.
    """

    gram: np.ndarray
    signature: tuple[int, int]

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        object.__setattr__(self, "gram", g)
        if g.ndim < 2 or g.shape[-2] != g.shape[-1]:
            raise ValueError("gram must be a square matrix")
        _refuse(~np.isfinite(g).all(axis=(-2, -1)), ValueError,
                "gram must be finite")
        eigs = np.linalg.eigvalsh(g)
        # for Hermitian g the singular values are the moduli of the eigenvalues
        scale = np.max(np.abs(eigs), axis=-1)
        limit = TOL * np.maximum(1.0, scale)
        _refuse(_norm_bound(g - _adjoint(g), limit) > limit,
                ValueError, "gram must be Hermitian")
        _refuse(np.min(np.abs(eigs), axis=-1) <= SINGULAR_FACTOR * scale,
                SingularGram, "gram matrix is singular to working precision")
        p, q = np.sum(eigs > 0.0, axis=-1), np.sum(eigs < 0.0, axis=-1)
        _refuse((p != self.signature[0]) | (q != self.signature[1]), ValueError,
                "gram has signature ({}, {}), declared ({}, {})", p, q, *self.signature)

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        """Adjoint with respect to the indefinite product, G^{-1} A^dag G."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != self.gram.shape[-2:]:
            raise ValueError("operator shape does not match the space dimension")
        return np.linalg.solve(self.gram, _adjoint(a) @ self.gram)

    def is_unitary(self, u: np.ndarray, tol: float = TOL) -> bool:
        """Whether U^dag G U = G within ``tol`` (operator norm), for each."""
        u = np.asarray(u, dtype=complex)
        residual = _adjoint(u) @ self.gram @ u - self.gram
        return bool(np.all(_norm_bound(residual, tol) <= tol))


class SqrtResult(NamedTuple):
    """Square root and inverse square root of an operator near the identity.

    ``method`` records which route produced the result: "eig" for the
    eigendecomposition with principal scalar square roots, "series" when the
    truncated binomial series stood in for it (for a stack: for any element).
    """

    sqrt: np.ndarray
    inv_sqrt: np.ndarray
    method: str


def binomial_sqrt_series(delta: np.ndarray, exponent: float) -> np.ndarray:
    """Evaluate (1 + delta)**exponent, exponent +0.5 or -0.5, by its series.

    It converges for ||delta|| < 1 and stops once every element's term has
    Frobenius norm below SERIES_TERM_TOL.  That norm bounds the operator
    norm from above at the cost of one dot product, so the series stops no
    earlier than an operator-norm test would.  It raises
    OutOfConvergenceRadius if that has not happened after SERIES_MAX_TERMS
    terms.
    """
    delta = np.asarray(delta, dtype=complex)
    total = power = np.eye(delta.shape[-1], dtype=complex)
    coeff = 1.0
    for n in range(1, SERIES_MAX_TERMS + 1):
        coeff *= (exponent - (n - 1)) / n
        power = power @ delta
        term = coeff * power
        total = total + term
        large = _frobenius(term) >= SERIES_TERM_TOL
        if not np.any(large):
            return total
    raise OutOfConvergenceRadius(
        f"binomial series not converged after {SERIES_MAX_TERMS} terms for "
        f"{np.count_nonzero(large)} of {np.size(large)} matrices")


def sqrt_near_identity(b: np.ndarray, space: KreinSpace) -> SqrtResult:
    """Square root and inverse square root of a symmetric operator near 1.

    Requires ``b`` to be symmetric with respect to the space's inner product
    and within RADIUS_SERIES of the identity in operator norm.  The primary
    route diagonalizes ``b`` and applies the principal scalar square root; an
    element it does not reproduce to TOL_SQRT (e.g. a defective matrix) takes
    the binomial series instead.
    """
    b = np.asarray(b, dtype=complex)
    delta = b - np.eye(b.shape[-1])
    dist = _norm_bound(delta, RADIUS_SERIES)
    _refuse(~(dist < RADIUS_SERIES), OutOfConvergenceRadius,
            "||B - 1|| = {:.3g} >= allowed radius {:.3g}", dist, RADIUS_SERIES)
    asym = _norm_bound(b - space.adjoint(b), TOL)
    if np.any(asym >= TOL):
        _refuse(asym > TOL * np.maximum(1.0, opnorm(b)), NotSymmetric,
                "||B - B*|| = {:.3g} exceeds tolerance", asym)
    sq, inv, ok = _sqrt_by_eig(b)
    method = "eig" if np.asarray(ok).all() else "series"
    if method == "series":   # b[True] is a stack of one, so a lone b works too
        sq[~ok] = binomial_sqrt_series(delta[~ok], 0.5)
        inv[~ok] = binomial_sqrt_series(delta[~ok], -0.5)
    return SqrtResult(sq, inv, method)


def _sqrt_by_eig(b: np.ndarray):
    """Principal square root via eigendecomposition, and where it is reliable."""
    try:
        vals, vecs = np.linalg.eig(b)
        vecs_inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:   # unreliable for the whole stack
        return np.empty_like(b), np.empty_like(b), np.zeros(b.shape[:-2], bool)
    # ||B - 1|| < 1 keeps the spectrum in the open right half plane, away
    # from the branch cut of the principal root.
    roots = np.sqrt(vals)[..., None, :]
    sq = (vecs * roots) @ vecs_inv
    inv = (vecs * (1.0 / roots)) @ vecs_inv
    worst = np.maximum(_norm_bound(sq @ sq - b, TOL_SQRT),
                       _norm_bound(sq @ inv - np.eye(b.shape[-1]), TOL_SQRT))
    ok = worst <= TOL_SQRT
    if not ok.all():   # the tolerance grows with ||B|| past 1
        ok = worst <= TOL_SQRT * np.maximum(1.0, opnorm(b))
    return sq, inv, ok


def polar(t: np.ndarray, t_adj: np.ndarray,
          space: KreinSpace) -> tuple[np.ndarray, SqrtResult]:
    """Unitary polar factor U = (T T*)^{-1/2} T, and the root of T T*.

    T may map between two spaces, so the caller supplies its adjoint T*;
    ``space`` is the target of T, where T T* acts.  The root's ``sqrt`` is
    the symmetric factor S of T = S U.  Raises OutOfConvergenceRadius when
    T T* is too far from the identity.
    """
    root = sqrt_near_identity(t @ t_adj, space)
    return root.inv_sqrt @ t, root


def polar_decompose(a: np.ndarray,
                    space: KreinSpace) -> tuple[np.ndarray, np.ndarray]:
    """Unique polar decomposition A = U S near the identity.

    U is unitary and S symmetric with respect to the space's inner product,
    with S close to 1: U is the adjoint of the polar factor of A*, and
    S = (A* A)^{1/2} on the principal branch near 1.  Raises
    OutOfConvergenceRadius when A* A is too far from the identity.
    """
    u_adj, root = polar(space.adjoint(a), a, space)
    return space.adjoint(u_adj), root.sqrt
