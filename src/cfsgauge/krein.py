"""Linear algebra on finite-dimensional indefinite inner product (Krein) spaces.

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


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """Finite-dimensional indefinite inner product space.

    Attributes
    ----------
    gram : ndarray
        Invertible Hermitian matrix of the inner product in the working basis.
    signature : (int, int)
        Number of positive and negative eigenvalues of ``gram``.
    """

    gram: np.ndarray
    signature: tuple[int, int]

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        object.__setattr__(self, "gram", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram must be a square matrix")
        scale = opnorm(g)
        if opnorm(g - g.conj().T) > TOL * max(1.0, scale):
            raise ValueError("gram must be Hermitian")
        # for Hermitian g the singular values are the moduli of the eigenvalues
        eigs = np.linalg.eigvalsh(g)
        if np.min(np.abs(eigs)) <= SINGULAR_FACTOR * scale:
            raise SingularGram("gram matrix is singular to working precision")
        p = int(np.sum(eigs > 0.0))
        q = int(np.sum(eigs < 0.0))
        if (p, q) != tuple(self.signature):
            raise ValueError(
                f"gram has signature ({p}, {q}), declared {tuple(self.signature)}"
            )

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        """Adjoint with respect to the indefinite product, G^{-1} A^dag G."""
        a = np.asarray(a, dtype=complex)
        if a.shape != self.gram.shape:
            raise ValueError("operator shape does not match the space dimension")
        return np.linalg.solve(self.gram, a.conj().T @ self.gram)

    def is_unitary(self, u: np.ndarray, tol: float = TOL) -> bool:
        """Whether U^dag G U = G within ``tol`` (operator norm)."""
        u = np.asarray(u, dtype=complex)
        return opnorm(u.conj().T @ self.gram @ u - self.gram) <= tol


class SqrtResult(NamedTuple):
    """Square root and inverse square root of an operator near the identity.

    ``method`` records which route produced the result: "eig" for the
    eigendecomposition with principal scalar square roots, "series" for the
    truncated binomial series fallback (used when the operator could not be
    diagonalized reliably).
    """

    sqrt: np.ndarray
    inv_sqrt: np.ndarray
    method: str


def binomial_sqrt_series(delta: np.ndarray, exponent: float) -> np.ndarray:
    """Evaluate (1 + delta)**exponent by its binomial series.

    ``exponent`` is +0.5 or -0.5.  The series is truncated once the operator
    norm of a term drops below SERIES_TERM_TOL or after SERIES_MAX_TERMS
    terms; it converges absolutely for ||delta|| < 1.
    """
    delta = np.asarray(delta, dtype=complex)
    dim = delta.shape[0]
    total = np.eye(dim, dtype=complex)
    power = np.eye(dim, dtype=complex)
    coeff = 1.0
    for n in range(1, SERIES_MAX_TERMS + 1):
        coeff *= (exponent - (n - 1)) / n
        power = power @ delta
        term = coeff * power
        total += term
        if opnorm(term) < SERIES_TERM_TOL:
            break
    return total


def sqrt_near_identity(b: np.ndarray, space: KreinSpace) -> SqrtResult:
    """Square root and inverse square root of a symmetric operator near 1.

    Requires ``b`` to be symmetric with respect to the space's inner product
    and within RADIUS_SERIES of the identity in operator norm.  The primary
    route diagonalizes ``b`` and applies the principal scalar square root; if
    the eigendecomposition does not reproduce ``b`` to TOL_SQRT (e.g. for a
    defective matrix), the binomial series is used instead and the result is
    flagged as series-only.
    """
    b = np.asarray(b, dtype=complex)
    dim = b.shape[0]
    delta = b - np.eye(dim)
    dist = opnorm(delta)
    if dist >= RADIUS_SERIES:
        raise OutOfConvergenceRadius(
            f"||B - 1|| = {dist:.3g} >= allowed radius {RADIUS_SERIES:.3g}"
        )
    asym = opnorm(b - space.adjoint(b))
    if asym > TOL * max(1.0, opnorm(b)):
        raise NotSymmetric(f"||B - B*|| = {asym:.3g} exceeds tolerance")

    result = _sqrt_by_eig(b)
    if result is not None:
        return result
    sq = binomial_sqrt_series(delta, 0.5)
    inv = binomial_sqrt_series(delta, -0.5)
    return SqrtResult(sqrt=sq, inv_sqrt=inv, method="series")


def _sqrt_by_eig(b: np.ndarray):
    """Principal square root via eigendecomposition; None if unreliable."""
    dim = b.shape[0]
    try:
        vals, vecs = np.linalg.eig(b)
        vecs_inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None
    # ||B - 1|| < 1 keeps the spectrum in the open right half plane, away
    # from the branch cut of the principal root.
    sq = (vecs * np.sqrt(vals)) @ vecs_inv
    inv = (vecs * (1.0 / np.sqrt(vals))) @ vecs_inv
    scale = max(1.0, opnorm(b))
    if opnorm(sq @ sq - b) > TOL_SQRT * scale:
        return None
    if opnorm(sq @ inv - np.eye(dim)) > TOL_SQRT * scale:
        return None
    return SqrtResult(sqrt=sq, inv_sqrt=inv, method="eig")


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
    S = (A* A)^{1/2} on the principal branch near 1.

    Raises OutOfConvergenceRadius when A* A is too far from the identity.
    """
    u_adj, root = polar(space.adjoint(a), a, space)
    return space.adjoint(u_adj), root.sqrt
