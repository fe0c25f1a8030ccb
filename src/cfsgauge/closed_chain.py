"""Closed-form spectral analysis of the massless closed chain.

A massless two-point kernel has only a vector component and can be written as
slash(u) + i slash(z) with two real Minkowski vectors.  The associated closed
chain

    A = (u^2 + z^2) 1 - i [slash(u), slash(z)]

has two doubly degenerate eigenvalues with explicit spectral projectors, so
the inverse square root entering the distinguished gauge can be evaluated in
closed form.  Two routes are kept side by side: the spectral-calculus
evaluation (the reference) and a fixed coefficient formula in the scalar
invariants whose radicand differs on generic inputs; their deviation is
reported, never patched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dirac_box import GAMMA, minkowski_dot, slash
from .errors import BranchCut, DegenerateChain
from .krein import _refuse, opnorm

#: relative eigenvalue gap below which the chain counts as degenerate
DEGENERACY_RTOL = 1e-8
#: tolerance for deciding whether a complex number sits on the branch cut
BRANCH_CUT_ATOL = 1e-12
#: relative residual above which a matrix counts as not of vector form
VECTOR_FORM_RTOL = 1e-10


def multiset_distance(a, b):
    """Smallest max-distance matching between two equal-size multisets.

    Complex eigenvalue multisets cannot be compared by lexicographic sorting
    (roundoff reorders conjugate pairs), so match over all permutations at
    once.  Along the last axis; a float, or an array of them for a stack.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim < 1:
        raise ValueError("expected two arrays of equal shape")
    perms = np.array(list(itertools.permutations(range(a.shape[-1]))))
    gaps = np.max(np.abs(a[..., None, :] - b[..., perms]), axis=-1)
    best = np.min(gaps, axis=-1)
    return float(best) if best.ndim == 0 else best


@dataclass(frozen=True, eq=False)
class VectorKernel:
    """Kernel of pure vector form: slash(real_vec) + i slash(imag_vec).

    The vectors may carry the same leading stack axes, one kernel per element;
    every function below then returns one result per element.
    """

    real_vec: np.ndarray
    imag_vec: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.real_vec, dtype=float)
        z = np.asarray(self.imag_vec, dtype=float)
        if u.shape[-1:] != (4,) or z.shape != u.shape:
            raise ValueError("vector components must be real 4-vectors")
        object.__setattr__(self, "real_vec", u)
        object.__setattr__(self, "imag_vec", z)

    def kernel_matrix(self) -> np.ndarray:
        return slash(self.real_vec) + 1j * slash(self.imag_vec)


def vector_kernel_from_matrix(m: np.ndarray) -> VectorKernel:
    """Recover the unique (u, z) with m = slash(u) + i slash(z).

    Components follow from the trace pairing tr(m gamma^mu) / 4; raises
    ValueError when m has parts outside the span of the gamma matrices.
    """
    m = np.asarray(m, dtype=complex)
    w = np.array([np.trace(m @ g) / 4.0 for g in GAMMA])
    vk = VectorKernel(real_vec=w.real, imag_vec=w.imag)
    residual = opnorm(vk.kernel_matrix() - m)
    if residual > VECTOR_FORM_RTOL * max(1.0, opnorm(m)):
        raise ValueError(
            f"matrix is not of vector form (residual {residual:.3g})"
        )
    return vk


def _invariants(vk: VectorKernel):
    """u^2, z^2, u z and the root sqrt(u^2 z^2 - (u z)^2), principal branch."""
    u, z = vk.real_vec, vk.imag_vec
    u_sq = minkowski_dot(u, u)
    z_sq = minkowski_dot(z, z)
    uz = minkowski_dot(u, z)
    return u_sq, z_sq, uz, np.sqrt(np.asarray(u_sq * z_sq - uz * uz, complex))


def _commutator(vk: VectorKernel) -> np.ndarray:
    su = slash(vk.real_vec)
    sz = slash(vk.imag_vec)
    return su @ sz - sz @ su


def chain_from_vectors(vk: VectorKernel) -> np.ndarray:
    """Closed chain (u^2 + z^2) 1 - i [slash(u), slash(z)]."""
    u_sq, z_sq, _, _ = _invariants(vk)
    return (np.asarray(u_sq + z_sq)[..., None, None] * np.eye(4)
            - 1j * _commutator(vk))


def chain_eigenvalues(vk: VectorKernel) -> tuple[complex, complex]:
    """The two doubly degenerate eigenvalues of the closed chain.

    u^2 + z^2 +/- 2 sqrt(u^2 z^2 - (u z)^2), principal square root.
    """
    u_sq, z_sq, _, root = _invariants(vk)
    return (u_sq + z_sq + 2.0 * root)[()], (u_sq + z_sq - 2.0 * root)[()]


def _degenerate(lam_plus, lam_minus):
    gap = np.abs(lam_plus - lam_minus)
    return gap <= DEGENERACY_RTOL * (np.abs(lam_plus) + np.abs(lam_minus)
                                     + 1e-30)


def spectral_projectors(vk: VectorKernel) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the two eigenspaces of the closed chain.

    E_+/- = (1 -/+ i [slash(u), slash(z)] / (2 sqrt(u^2 z^2 - (u z)^2))) / 2.
    Raises DegenerateChain when the eigenvalues coincide.
    """
    _refuse(_degenerate(*chain_eigenvalues(vk)), DegenerateChain,
            "closed chain has coinciding eigenvalues")
    return _projectors(vk)


def _projectors(vk: VectorKernel) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_projectors`` unchecked; finite where the root vanishes."""
    root = _invariants(vk)[3]
    root = np.where(root == 0.0, 1.0, root)[..., None, None]
    commutator = _commutator(vk)
    eye = np.eye(4)
    e_plus = 0.5 * (eye - 1j * commutator / (2.0 * root))
    e_minus = 0.5 * (eye + 1j * commutator / (2.0 * root))
    return e_plus, e_minus


def _principal_inv_sqrt(lam):
    lam = np.asarray(lam)
    _refuse((np.abs(lam.imag) <= BRANCH_CUT_ATOL * (np.abs(lam) + 1e-300))
            & (lam.real <= 0.0), BranchCut,
            "eigenvalue {:.6g} lies on the branch cut", lam)
    return 1.0 / np.sqrt(lam)


def spectral_inv_sqrt_kernel(vk: VectorKernel) -> np.ndarray:
    """A^{-1/2} P(x, y) evaluated by the spectral calculus (reference route).

    Scalar chains (coinciding eigenvalues with A proportional to 1, e.g.
    z = 0 or z parallel to u) are handled directly; a degenerate chain with a
    nilpotent part raises DegenerateChain.
    """
    lam_plus, lam_minus = chain_eigenvalues(vk)
    kernel = vk.kernel_matrix()
    degenerate = _degenerate(lam_plus, lam_minus)
    lam = 0.5 * (lam_plus + lam_minus)
    chain = chain_from_vectors(vk)
    _refuse(degenerate & (opnorm(chain - np.asarray(lam)[..., None, None]
                                 * np.eye(4)) > 1e-10 * (np.abs(lam) + 1.0)),
            DegenerateChain, "degenerate closed chain with nilpotent part has "
            "no spectral inverse square root")
    # a scalar chain takes its one eigenvalue on both projectors
    inv_plus = _principal_inv_sqrt(np.where(degenerate, lam, lam_plus))
    inv_minus = _principal_inv_sqrt(np.where(degenerate, lam, lam_minus))
    inv_plus, inv_minus = inv_plus[..., None, None], inv_minus[..., None, None]
    e_plus, e_minus = _projectors(vk)
    return np.where(np.asarray(degenerate)[..., None, None], inv_plus * kernel,
                    (inv_plus * e_plus + inv_minus * e_minus) @ kernel)


def closed_form_inv_sqrt_kernel(vk: VectorKernel) -> np.ndarray:
    """A^{-1/2} P(x, y) as an explicit formula in the scalar invariants.

    Alternative route with coefficients built from u^2, z^2 and u z.  Its
    radicand u^2 z^2 - 2 (u z)^2 and the signs of the i (u z) terms disagree
    with the spectral calculus whenever u z != 0; ``dual_route_inv_sqrt``
    reports that deviation rather than correcting it here.  Raises
    DegenerateChain when the eigenvalue gap vanishes.
    """
    lam_plus, lam_minus = chain_eigenvalues(vk)
    _refuse(_degenerate(lam_plus, lam_minus), DegenerateChain,
            "coefficient formula needs distinct eigenvalues")
    u_sq, z_sq, uz, _ = _invariants(vk)
    sqrt_plus = np.sqrt(lam_plus)
    sqrt_minus = np.sqrt(lam_minus)
    denom = sqrt_plus * sqrt_minus
    c_sum = (sqrt_plus + sqrt_minus) / denom
    c_diff = (sqrt_plus - sqrt_minus) / denom
    radicand = np.sqrt(np.asarray(u_sq * z_sq - 2.0 * uz * uz, complex))
    coeff_u = 0.5 * (c_sum - (z_sq - 1j * uz) / radicand * c_diff)
    coeff_z = 0.5j * (c_sum - (u_sq - 1j * uz) / radicand * c_diff)
    return (coeff_u[..., None, None] * slash(vk.real_vec)
            + coeff_z[..., None, None] * slash(vk.imag_vec))


@dataclass(frozen=True)
class DualRouteResult:
    """How far the two evaluations of A^{-1/2} P disagree.

    ``unitarity_residual`` measures || (spectral route) paired with its
    indefinite adjoint minus 1 ||; the deviation of the coefficient formula
    is reported (nan where it is undefined), not asserted.  Each is a float,
    or an array of them for stacked kernels.
    """

    deviation: float
    unitarity_residual: float


def dual_route_inv_sqrt(vk: VectorKernel) -> DualRouteResult:
    """Evaluate A^{-1/2} P on both routes and report their deviation."""
    spectral = spectral_inv_sqrt_kernel(vk)
    adjoint = GAMMA[0] @ np.swapaxes(spectral.conj(), -1, -2) @ GAMMA[0]
    unitarity = opnorm(spectral @ adjoint - np.eye(4))
    # the formula is undefined on degenerate chains: evaluate it on the rest
    defined = ~_degenerate(*chain_eigenvalues(vk))
    deviation = np.full(np.shape(defined), np.nan)
    closed_form = closed_form_inv_sqrt_kernel(
        VectorKernel(vk.real_vec[defined], vk.imag_vec[defined]))
    deviation[defined] = opnorm(spectral[defined] - closed_form)
    return DualRouteResult(deviation=deviation[()],
                           unitarity_residual=unitarity)


@dataclass(frozen=True)
class ExpansionReport:
    """First-order behavior of g(tau) = gamma^0 A^{-1/2} P under perturbation.

    The base kernel is alpha gamma^0; the real and imaginary vector parts are
    perturbed linearly in tau.  ``coefficient_fd`` is the finite-difference
    first derivative of g at tau = 0 (Richardson-extrapolated), and
    ``coefficient_deviation`` its distance to the predicted value
    -gamma^0 (u1_vec . gamma) + i z1^0 / |alpha|, exact for |alpha| = 1.
    Residuals are || g(tau) - 1 - tau * predicted || and should scale as
    tau^2 (ratios near 4 under halving).
    """

    residuals: tuple
    residual_ratios: tuple
    coefficient_fd: np.ndarray
    coefficient_deviation: float
    antisymmetry_residual: float


def _gauge_factor(alpha: float, real_step, imag_step, tau) -> np.ndarray:
    """g(tau) = gamma^0 A^{-1/2} P, one per entry of ``tau``."""
    tau = np.asarray(tau, dtype=float)[..., None]
    u = np.array([alpha, 0.0, 0.0, 0.0]) + tau * np.asarray(real_step, dtype=float)
    z = tau * np.asarray(imag_step, dtype=float)
    vk = VectorKernel(real_vec=u, imag_vec=z)
    return GAMMA[0] @ spectral_inv_sqrt_kernel(vk)


def unitary_expansion(alpha: float, real_step, imag_step,
                      tau_list=(1e-2, 5e-3, 2.5e-3)) -> ExpansionReport:
    """Expand the gauge factor g(tau) around the diagonal kernel.

    ``real_step`` and ``imag_step`` are the first-order Minkowski vectors of
    the kernel's Hermitian and anti-Hermitian parts.  Only the spatial part
    of ``real_step`` and the time component of ``imag_step`` enter at first
    order; the predicted coefficient is antisymmetric with respect to the
    spinor inner product, making g unitary to this order.  Every g(tau) is
    taken in one stacked evaluation.
    """
    real_step = np.asarray(real_step, dtype=float)
    imag_step = np.asarray(imag_step, dtype=float)
    spatial = (real_step[1] * GAMMA[1] + real_step[2] * GAMMA[2]
               + real_step[3] * GAMMA[3])
    predicted = (-GAMMA[0] @ spatial
                 + 1j * (imag_step[0] / abs(alpha)) * np.eye(4))

    # g at every tau, then at +/- tau_fd / 2 and +/- tau_fd for the
    # Richardson-extrapolated central difference of g at tau = 0
    taus = np.asarray(tau_list, dtype=float)
    tau_fd = min(tau_list)
    steps = (tau_fd / 2.0, tau_fd)
    g = _gauge_factor(alpha, real_step, imag_step,
                      np.concatenate([taus, [steps[0], -steps[0],
                                             steps[1], -steps[1]]]))
    residuals = opnorm(g[:len(taus)] - np.eye(4)
                       - taus[:, None, None] * predicted).tolist()
    ratios = [ra / rb if rb != 0.0 else float("nan")
              for ra, rb in zip(residuals, residuals[1:])]
    near, far = ((g[len(taus) + 2 * k] - g[len(taus) + 2 * k + 1])
                 / (2.0 * t) for k, t in enumerate(steps))
    coeff_fd = (4.0 * near - far) / 3.0

    adjoint = GAMMA[0] @ coeff_fd.conj().T @ GAMMA[0]
    return ExpansionReport(
        residuals=tuple(residuals),
        residual_ratios=tuple(float(r) for r in ratios),
        coefficient_fd=coeff_fd,
        coefficient_deviation=float(opnorm(coeff_fd - predicted)),
        antisymmetry_residual=float(opnorm(adjoint + coeff_fd)),
    )
