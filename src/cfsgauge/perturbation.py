"""Pure-gauge perturbations of the sea ensemble and phase cancellation.

A pure-gauge electromagnetic potential multiplies every wave value at x by
the local phase exp(i Lambda(x)).  The correlation operators are exactly
invariant, the mixed kernel picks up the conjugate phase, and the
distinguished gauge built from the closed chain cancels the phases
altogether.  The operations here act on stacks of 4 x f wave-value
matrices, each at one spacetime point, so the exact phase law applies with
no expansion; a stack of gauge functions or gauge values is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import local_correlation, spin_space
from .dirac_box import (SPINOR_GRAM, DiracBoxConfig, SpacetimePoint,
                        kernel_mode_sum, mixed_kernel, wave_value_matrix)
from .errors import NotDiagonalKernel
from .krein import KreinSpace, _refuse, opnorm, polar

#: the spinor space as a Krein space of signature (2, 2)
SPINOR_KREIN = KreinSpace(gram=SPINOR_GRAM, signature=(2, 2))

#: relative size allowed for non-diagonal components of P(x, x)
DIAGONAL_KERNEL_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class GaugeFunction:
    """Real box-periodic gauge functions as finite Fourier sums.

    ``terms`` has shape (..., T, 6): each row (amplitude, n1, n2, n3, omega,
    phase) contributes amplitude * cos((pi / L) n_vec . x_vec - omega t +
    phase); the spatial frequencies live on the box lattice so the sum is
    2L-periodic.  The leading axes stack functions; a lone function is the
    stack of no dimensions.
    """

    terms: np.ndarray
    L: float

    def __call__(self, point: SpacetimePoint):
        """Value at ``point``: a float, or an array over the stack axes."""
        terms = self.terms
        spatial = (math.pi / self.L) * (terms[..., 1:4] @ point.x_vec)
        argument = spatial - terms[..., 4] * point.t + terms[..., 5]
        return np.sum(terms[..., 0] * np.cos(argument), axis=-1)

    def shifted_to_vanish_at(self, point: SpacetimePoint) -> "GaugeFunction":
        """The same gauge functions minus their values at ``point``.

        Each generates the identical pure-gauge potential; the constant
        offset is itself a lattice term (zero frequency).
        """
        offset = np.zeros((*self.terms.shape[:-2], 1, 6))
        offset[..., 0, 0] = -self(point)
        return GaugeFunction(terms=np.concatenate([self.terms, offset], -2),
                             L=self.L)


def apply_local_phase(waves: np.ndarray, gauge_fn: GaugeFunction,
                      point: SpacetimePoint) -> np.ndarray:
    """Wave values after the local phase transformation of each function."""
    phase = np.exp(1j * gauge_fn(point))[..., None, None]
    return phase * np.asarray(waves, dtype=complex)


def kernel_time_coefficient(diag: np.ndarray):
    """Coefficient alpha of each diagonal kernel of the form alpha gamma^0.

    Raises NotDiagonalKernel when the non-gamma^0 components exceed
    ``DIAGONAL_KERNEL_RTOL`` times |alpha|.
    """
    diag = np.asarray(diag, dtype=complex)
    alpha = np.real(np.trace(SPINOR_GRAM @ diag, axis1=-2, axis2=-1)) / 4.0
    residual = opnorm(diag - alpha[..., None, None] * SPINOR_GRAM)
    _refuse(residual > DIAGONAL_KERNEL_RTOL * np.abs(alpha), NotDiagonalKernel,
            "P(x, x) deviates from alpha gamma^0 by {:.3g} (|alpha| = {:.3g})",
            residual, np.abs(alpha))
    return alpha


def _gauge_factor(waves, perturbed_waves):
    """alpha (..., 1, 1) and ``polar`` of T = P(x, F~(x)) / |alpha|, stacked.

    T* = P(F~(x), x) / |alpha|, so T T* is the mixed closed chain / alpha^2.
    """
    alpha = kernel_time_coefficient(mixed_kernel(waves, waves))[..., None, None]
    scale = np.abs(alpha)
    u, root = polar(mixed_kernel(waves, perturbed_waves) / scale,
                    mixed_kernel(perturbed_waves, waves) / scale, SPINOR_KREIN)
    return alpha, u, root


def perturbed_symmetric_gauge(waves: np.ndarray,
                              perturbed_waves: np.ndarray) -> np.ndarray:
    """Value of the distinguished gauge at x for the perturbed ensemble.

    gamma^0 . A^{-1/2} . P(x, F~(x)) . Psi~(x), where A is the
    mixed closed chain; requires the unperturbed diagonal kernel to be of the
    form alpha gamma^0.  For a pure gauge perturbation the result equals the
    unperturbed gauge value exactly (local phases drop out).
    """
    _, u, _ = _gauge_factor(waves, perturbed_waves)
    return SPINOR_GRAM @ u @ np.asarray(perturbed_waves, dtype=complex)


@dataclass(frozen=True, eq=False)
class BasisWaves:
    """An orthonormal basis of the spin subspace at x, as wave functions.

    ``coeffs`` holds four orthonormal coefficient vectors over the mode basis
    spanning the image of F(x); ``chi`` the spinors gamma^0 u_a(x) / alpha
    that transport the kernel onto the basis waves.
    """

    cfg: DiracBoxConfig
    point: SpacetimePoint
    coeffs: np.ndarray
    chi: np.ndarray
    alpha: float

    def evaluate(self, point: SpacetimePoint) -> np.ndarray:
        """Wave values u_a(point), one column per basis vector."""
        return wave_value_matrix(self.cfg, point) @ self.coeffs

    def kernel_transport(self, point: SpacetimePoint) -> np.ndarray:
        """P(point, x) chi_a, which reproduces u_a(point)."""
        return kernel_mode_sum(self.cfg, point, self.point) @ self.chi


def basis_waves(cfg: DiracBoxConfig, point: SpacetimePoint,
                check_points=(), tol: float = 1e-9) -> BasisWaves:
    """Build the distinguished basis waves of the spin subspace at a point.

    Requires the diagonal kernel at the point to be of the form
    alpha gamma^0 (massless or nearly massless ensemble).  For every point
    in ``check_points`` the kernel-transport identity
    u_a(y) = P(y, x) chi_a is verified to ``tol``.
    """
    waves = wave_value_matrix(cfg, point)
    alpha = kernel_time_coefficient(mixed_kernel(waves, waves))
    correlation = local_correlation(waves, SPINOR_GRAM)
    sp = spin_space(correlation, 2)
    coeffs = sp.basis
    values_at_x = waves @ coeffs
    chi = (1.0 / alpha) * (SPINOR_GRAM @ values_at_x)
    bw = BasisWaves(cfg=cfg, point=point, coeffs=coeffs, chi=chi,
                    alpha=alpha)
    for other in check_points:
        residual = opnorm(bw.kernel_transport(other) - bw.evaluate(other))
        if residual > tol:
            raise ValueError(
                f"kernel transport misses the basis waves at {other} "
                f"(residual {residual:.3g})"
            )
    return bw


def gauged_basis(waves: np.ndarray, perturbed_waves: np.ndarray,
                 coeffs: np.ndarray):
    """Gauge values of the basis waves, by two routes.

    Route one applies the full gauge map to the basis coefficient vectors;
    route two is the closed form gamma^0 . A^{+1/2} . chi_a, which
    involves only the gauge-invariant chain.  Returns (via_gauge, via_chain).
    """
    w = np.asarray(waves, dtype=complex)
    wt = np.asarray(perturbed_waves, dtype=complex)
    alpha, u, root = _gauge_factor(w, wt)
    via_gauge = SPINOR_GRAM @ u @ wt @ np.asarray(coeffs)
    chi = (1.0 / alpha) * (SPINOR_GRAM @ (w @ np.asarray(coeffs)))
    via_chain = SPINOR_GRAM @ (np.abs(alpha) * root.sqrt) @ chi
    return via_gauge, via_chain
