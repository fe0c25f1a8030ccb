"""Pure-gauge perturbations of the sea ensemble and phase cancellation.

A pure-gauge electromagnetic potential multiplies every wave value at x by
the local phase exp(i Lambda(x)).  The correlation operators are exactly
invariant, the mixed kernel picks up the conjugate phase, and the
distinguished gauge built from the closed chain cancels the phases
altogether.  The gauge is the Krein polar decomposition of the 4 x 4
factor B = P(x~, x) P(x, x)^{-1} in the spinor space, by the wave chart's
``connecting_unitary``, so it holds at every mass.  The operations here act
on stacks of 4 x f wave-value matrices, each at one spacetime point, so the
exact phase law applies with no expansion; a stack of gauge functions or
gauge values is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirac_box import (SPINOR_KREIN, DiracBoxConfig, _coordinates,
                        kernel_mode_sum, mixed_kernel, wave_value_matrix)
from .krein import _adjoint, opnorm
from .wave_charts import connecting_unitary


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

    def __call__(self, point):
        """Values over the stack axes, then over the points of a stack."""
        coords = _coordinates(point)
        terms = self.terms if coords.ndim == 1 else self.terms[..., None, :, :]
        spatial = (math.pi / self.L) * (terms[..., 1:4] @ coords[..., 1:, None])
        argument = spatial[..., 0] - terms[..., 4] * coords[..., :1] + terms[..., 5]
        return np.sum(terms[..., 0] * np.cos(argument), axis=-1)

    def shifted_to_vanish_at(self, point: np.ndarray) -> "GaugeFunction":
        """The same gauge functions minus their values at ``point``.

        Each generates the identical pure-gauge potential; the constant
        offset is itself a lattice term (zero frequency).
        """
        offset = np.zeros((*self.terms.shape[:-2], 1, 6))
        offset[..., 0, 0] = -self(point)
        return GaugeFunction(terms=np.concatenate([self.terms, offset], -2),
                             L=self.L)


def apply_local_phase(waves: np.ndarray, gauge_fn: GaugeFunction,
                      point: np.ndarray) -> np.ndarray:
    """Wave values after the local phase transformation of each function."""
    phase = np.exp(1j * gauge_fn(point))[..., None, None]
    return phase * np.asarray(waves, dtype=complex)


def _gauge_factor(waves, perturbed_waves):
    """V^x and S of B = V S, V^x the connecting unitary of the spinor frame.

    B = P(x~, x) P(x, x)^{-1} in the spinor space; V^x B = S.  Raises
    OutOfConvergenceRadius when B^x B is too far from the identity.
    """
    v_adj, root = connecting_unitary(mixed_kernel(waves, waves),
                                     mixed_kernel(waves, perturbed_waves),
                                     mixed_kernel(perturbed_waves, waves),
                                     SPINOR_KREIN)
    return v_adj, root.sqrt


def perturbed_symmetric_gauge(waves: np.ndarray,
                              perturbed_waves: np.ndarray) -> np.ndarray:
    """Value V^x Psi~(x) of the distinguished gauge for the perturbed ensemble.

    V is the Krein-unitary factor of B = P(x~, x) P(x, x)^{-1} = V S, so the
    unperturbed gauge value is Psi(x) itself.  For a pure gauge perturbation
    the result equals the unperturbed gauge value exactly (local phases drop
    out).  With waves at y in place of x~ it is the gauge value at y in the
    spinor frame at x.
    """
    v_adj, _ = _gauge_factor(waves, perturbed_waves)
    return v_adj @ perturbed_waves


@dataclass(frozen=True, eq=False)
class BasisWaves:
    """An orthonormal basis of the spin subspace at x, as wave functions.

    ``coeffs`` holds four orthonormal coefficient vectors over the mode basis
    spanning the image of F(x); ``chi`` the spinors P(x, x)^{-1} u_a(x) that
    transport the kernel onto the basis waves.
    """

    cfg: DiracBoxConfig
    point: np.ndarray
    coeffs: np.ndarray
    chi: np.ndarray

    def evaluate(self, point: np.ndarray) -> np.ndarray:
        """Wave values u_a(point), one column per basis vector."""
        return wave_value_matrix(self.cfg, point) @ self.coeffs

    def kernel_transport(self, point: np.ndarray) -> np.ndarray:
        """P(point, x) chi_a, which reproduces u_a(point)."""
        return kernel_mode_sum(self.cfg, point, self.point) @ self.chi


def basis_waves(cfg: DiracBoxConfig, point: np.ndarray,
                check_points=(), tol: float = 1e-9) -> BasisWaves:
    """Build the distinguished basis waves of the spin subspace at a point.

    The image of F(x) is the span of the rows of Psi(x), so the coefficients
    are the Q factor of Psi(x)^dag = QR.  For every point in ``check_points``
    the kernel-transport identity u_a(y) = P(y, x) chi_a is verified to
    ``tol``.
    """
    waves = wave_value_matrix(cfg, point)
    coeffs, _ = np.linalg.qr(_adjoint(waves))
    chi = np.linalg.solve(mixed_kernel(waves, waves), waves @ coeffs)
    bw = BasisWaves(cfg=cfg, point=point, coeffs=coeffs, chi=chi)
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

    Route one applies the gauge factor V^x to the perturbed basis waves;
    route two is the closed form S u_a(x) = S P(x, x) chi_a, which involves
    only the symmetric factor of B = V S.  They agree because V^x B = S and
    B P(x, x) chi_a = u~_a(x).  Returns (via_gauge, via_chain).
    """
    v_adj, s = _gauge_factor(waves, perturbed_waves)
    return v_adj @ perturbed_waves @ coeffs, s @ waves @ coeffs
