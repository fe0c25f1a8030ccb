"""Dirac sea ensembles in a spatial box with periodic boundary conditions.

Negative-energy plane-wave solutions of the Dirac equation on R x [-L, L]^3
below an energy cutoff 1/eps span a finite-dimensional Hilbert space; the
local correlation operators and the two-point kernel of such an ensemble
furnish concrete regular causal-fermion data at spin dimension 2.

Conventions: metric signature (+, -, -, -); gamma matrices in the Dirac
representation; the spinor space carries the indefinite inner product
psi^dag gamma^0 phi of signature (2, 2); momentum modes live on the lattice
(pi/L) Z^3, with frequency sign fixed to -1 (the Dirac sea), so a mode's
four-momentum is k = (-omega, k_vec) with omega = sqrt(|k_vec|^2 + m^2).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .correlation import _fix_column_phases, hermitize, local_correlation
from .errors import EmptyCutoff, TooFewModes, TooManyModes

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_ZERO2 = np.zeros((2, 2), dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

#: Dirac-representation gamma matrices, upper index 0..3
GAMMA = (
    np.block([[_EYE2, _ZERO2], [_ZERO2, -_EYE2]]),
    np.block([[_ZERO2, _SIGMA[0]], [-_SIGMA[0], _ZERO2]]),
    np.block([[_ZERO2, _SIGMA[1]], [-_SIGMA[1], _ZERO2]]),
    np.block([[_ZERO2, _SIGMA[2]], [-_SIGMA[2], _ZERO2]]),
)

#: Gram matrix of the spinor inner product psi^dag gamma^0 phi
SPINOR_GRAM = GAMMA[0]

#: Minkowski metric diag(1, -1, -1, -1)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def mixed_kernel(waves: np.ndarray, perturbed_waves: np.ndarray) -> np.ndarray:
    """Bra-ket kernel -Psi(x) Psi~(y)* of two 4 x f wave-value matrices.

    With waves at x and at y this is the two-point kernel P(x, y); with
    perturbed waves at x it is the mixed kernel of a perturbation, equal to
    exp(-i Lambda(x)) P(x, x) for a pure gauge.  ``mixed_kernel(w, w)`` is
    the diagonal kernel P(x, x) itself.
    """
    w = np.asarray(waves, dtype=complex)
    wt = np.asarray(perturbed_waves, dtype=complex)
    return -(w @ wt.conj().T @ SPINOR_GRAM)


def slash(v) -> np.ndarray:
    """Contraction v_mu gamma^mu = v^0 gamma^0 - v . gamma_spatial (stackable)."""
    v = np.asarray(v)[..., None, None]
    return (v[..., 0, :, :] * GAMMA[0] - v[..., 1, :, :] * GAMMA[1]
            - v[..., 2, :, :] * GAMMA[2] - v[..., 3, :, :] * GAMMA[3])


def minkowski_dot(a, b):
    """Minkowski product a^0 b^0 - a_vec . b_vec (of each stacked pair)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
            - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


#: cap on 2 (2 nmax + 1)^3, the lattice cube's bound on the mode count
MAX_MODES = 1 << 20  # nmax <= 39, f up to ~5e5
#: cap on 16 f^2, the bytes of one dense complex f x f correlation operator
MAX_DENSE_BYTES = 1 << 30  # f <= 8192
#: largest half-length L whose mode normalization 2 pi (2 L)^3 is finite
MAX_L = 0.5 * (sys.float_info.max / (2.0 * math.pi)) ** (1.0 / 3.0)
#: smallest half-length L whose squared lattice step (pi / L)^2 is finite:
#: below it the zero mode's |k|^2 = (pi / L)^2 * 0 is inf * 0 = nan
MIN_LENGTH = math.pi / math.sqrt(sys.float_info.max)
#: smallest positive mass whose square is a normal float: below it the zero
#: mode's omega = sqrt(m^2) loses precision or vanishes
MIN_MASS = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class DiracBoxConfig:
    """Box half-length L, energy cutoff scale eps, and mass m (hbar = c = 1).

    Raises ValueError when L is not in [MIN_LENGTH, MAX_L] or m is neither 0
    nor at least MIN_MASS, and TooManyModes when the lattice may hold over
    MAX_MODES modes.
    """

    L: float
    eps: float
    m: float

    def __post_init__(self):
        if not (MIN_LENGTH <= self.L <= MAX_L):
            raise ValueError(f"box half-length L must lie in [MIN_LENGTH, "
                             f"MAX_L] = [{MIN_LENGTH:.4g}, {MAX_L:.4g}]")
        if not (self.eps > 0.0):
            raise ValueError("cutoff scale eps must be positive")
        if not (self.m == 0.0 or self.m >= MIN_MASS):
            raise ValueError(f"mass m must be 0 or at least "
                             f"MIN_MASS = {MIN_MASS:.4g}")
        _lattice_extent(self)

    def point(self, t: float, x_vec) -> "SpacetimePoint":
        """A spacetime point with spatial components reduced into [-L, L)."""
        return SpacetimePoint.in_box(t, x_vec, self.L)


@dataclass(frozen=True)
class SpacetimePoint:
    """Point (t, x_vec) of the periodically continued box."""

    t: float
    x_vec: tuple

    @classmethod
    def in_box(cls, t: float, x_vec, L: float) -> "SpacetimePoint":
        reduced = tuple(((float(c) + L) % (2.0 * L)) - L for c in x_vec)
        return cls(t=float(t), x_vec=reduced)


@dataclass(frozen=True)
class MomentumMode:
    """One occupied sea state: lattice momentum, frequency, polarization.

    ``n_vec`` are the integer lattice coordinates, ``k_vec = (pi / L) n_vec``
    the physical momentum, ``a`` the polarization index in {1, 2}; every
    mode has negative frequency, as the sea ensemble does.
    """

    n_vec: tuple
    k_vec: tuple
    omega: float
    a: int

    @property
    def four_momentum(self) -> tuple:
        return (-self.omega,) + self.k_vec


def _lattice_extent(cfg: DiracBoxConfig) -> tuple[float, float, int]:
    """Step pi/L, squared cutoff and nmax; TooManyModes past MAX_MODES."""
    step = math.pi / cfg.L
    try:
        cutoff_sq = 1.0 / max(cfg.eps ** 2, 1e-300) - cfg.m ** 2  # no 1 / 0
    except OverflowError:  # eps or m past 1e154: an empty cutoff
        cutoff_sq = 0.0
    nmax = math.floor(min(math.sqrt(max(cutoff_sq, 0.0)) / step, MAX_MODES))
    if 2 * (2 * nmax + 1) ** 3 > MAX_MODES:
        raise TooManyModes(f"a lattice with |n_i| <= {nmax} may hold more "
                           f"than MAX_MODES = {MAX_MODES} modes")
    return step, cutoff_sq, nmax


@functools.lru_cache(maxsize=8)
def _lattice(cfg: DiracBoxConfig) -> tuple[np.ndarray, ...]:
    """Momenta (n, k, omega) of ``momentum_modes``, read-only; no spinors."""
    step, cutoff_sq, nmax = _lattice_extent(cfg)
    if cutoff_sq <= 0.0:
        raise EmptyCutoff("energy cutoff lies below the mass gap")
    n = np.indices((2 * nmax + 1,) * 3).reshape(3, -1).T - nmax
    n_sq = np.sum(n * n, axis=1)
    keep = ((step * step) * n_sq < cutoff_sq) & ((n_sq > 0) | (cfg.m != 0.0))
    if not keep.any():
        raise EmptyCutoff("no lattice momentum lies below the energy cutoff")
    # the cube runs in (n1, n2, n3) order, so sort stably by |n|^2 only
    order = np.argsort(n_sq[keep], kind="stable")
    n, n_sq = n[keep][order], n_sq[keep][order]
    k = step * n
    omega = np.sqrt((step * step) * n_sq + cfg.m ** 2)
    for array in (n, k, omega):
        array.setflags(write=False)
    return n, k, omega


@functools.lru_cache(maxsize=8)
def _sea_table(cfg: DiracBoxConfig) -> tuple[np.ndarray, ...]:
    """``_lattice`` plus the 4 x 2N wave values at the origin, read-only."""
    n, k, omega = _lattice(cfg)
    scale = 1.0 / math.sqrt(2.0 * math.pi * (2.0 * cfg.L) ** 3)
    spin = (scale * _sea_spinor_table(k, omega, cfg.m)).transpose(1, 0, 2)
    spin = spin.reshape(4, -1)
    spin.setflags(write=False)
    return n, k, omega, spin


def mode_count(cfg: DiracBoxConfig) -> int:
    """Number f of sea modes below the cutoff; solves no spinor."""
    return 2 * len(_lattice(cfg)[2])


def momentum_modes(cfg: DiracBoxConfig) -> list[MomentumMode]:
    """All sea modes below the cutoff, in deterministic order.

    Enumerates lattice momenta k in (pi/L) Z^3 with omega(k) < 1/eps (strict)
    and pairs each with the two polarizations; for m = 0 the zero mode is
    excluded.  Ordering is lexicographic in (|k|^2, k1, k2, k3, a).  Raises
    EmptyCutoff when no mode satisfies the bound.
    """
    n, k, omega = _lattice(cfg)
    return [MomentumMode(n_vec=tuple(n_i), k_vec=tuple(k_i), omega=w, a=a)
            for n_i, k_i, w in zip(n.tolist(), k.tolist(), omega.tolist())
            for a in (1, 2)]


def momentum_points(cfg: DiracBoxConfig) -> list[MomentumMode]:
    """One representative mode (a = 1) per occupied lattice momentum."""
    return momentum_modes(cfg)[::2]


def _sea_spinor_table(k: np.ndarray, omega: np.ndarray, m: float) -> np.ndarray:
    """Sea spinors for any m >= 0 from one batched eigh, N x 4 x 2."""
    k = k[..., None, None]
    hamiltonian = GAMMA[0] @ (k[:, 0] * GAMMA[1] + k[:, 1] * GAMMA[2]
                              + k[:, 2] * GAMMA[3]) + m * GAMMA[0]
    vals, vecs = np.linalg.eigh(hermitize(hamiltonian))
    if not np.all(np.abs(vals[:, :2].T + omega) <= 1e-10 * (1.0 + omega)):
        raise ValueError("momentum-space Hamiltonian has unexpected spectrum")
    return _fix_column_phases(vecs[..., :2])


def _phases(k: np.ndarray, omega, point: SpacetimePoint) -> np.ndarray:
    """exp(-i k x) with k x = -omega t - k_vec . x_vec, per momentum."""
    kx = -omega * point.t - sum(k[..., i] * c for i, c in enumerate(point.x_vec))
    return np.exp(-1j * kx)


def wave_value_matrix(cfg: DiracBoxConfig, point: SpacetimePoint) -> np.ndarray:
    """4 x f matrix of all basis wave values at one point.

    Columns follow the mode ordering of ``momentum_modes``.  For every m the
    two spinors of a momentum are the Euclidean-orthonormal negative-energy
    eigenvectors of its Hamiltonian, so the basis is orthonormal in the
    solution scalar product; any other orthonormal basis of the same
    eigenspaces gives a unitarily equivalent ensemble.
    """
    _, k, omega, spin = _sea_table(cfg)
    # phase first: numpy's complex product rounds differently per operand order
    return np.repeat(_phases(k, omega, point), 2) * spin


def build_correlation_map(cfg: DiracBoxConfig, points) -> list[np.ndarray]:
    """Local correlation operators F(x) of the sea ensemble at given points.

    F(x)_ij = -psi_i(x)^dag gamma^0 psi_j(x) over the ordered mode basis;
    every F(x) is Hermitian of rank 4 and signature (2, 2) once at least two
    momenta are occupied.  Raises TooFewModes when dim H < 4 and TooManyModes
    when one dense operator would take over MAX_DENSE_BYTES.
    """
    f = mode_count(cfg)
    if f < 4:
        raise TooFewModes(f"ensemble has only {f} modes, need >= 4")
    if 16 * f * f > MAX_DENSE_BYTES:
        raise TooManyModes(f"a dense correlation operator at f = {f} modes "
                           f"takes over MAX_DENSE_BYTES = {MAX_DENSE_BYTES} B")
    return [local_correlation(wave_value_matrix(cfg, p), SPINOR_GRAM)
            for p in points]


def kernel_mode_sum(cfg: DiracBoxConfig, x: SpacetimePoint,
                    y: SpacetimePoint) -> np.ndarray:
    """Two-point kernel of the sea ensemble as an explicit mode sum.

    (2L)^{-3} sum_k (4 pi omega)^{-1} exp(-i k (x - y)) (kslash + m) over the
    occupied lattice momenta, with k = (-omega, k_vec).  Agrees with the
    bra/ket sum over the basis waves.  Linear in kslash, so it takes three
    contractions of the weights c_k: with omega, with k_vec, and their sum.
    """
    _, k, omega = _lattice(cfg)
    diff = SpacetimePoint(t=x.t - y.t, x_vec=tuple(np.subtract(x.x_vec, y.x_vec)))
    c = _phases(k, omega, diff) / (4.0 * math.pi * omega)
    total = (slash(np.concatenate([[-(c @ omega)], c @ k]))
             + cfg.m * np.sum(c) * np.eye(4))
    return total / (2.0 * cfg.L) ** 3


def kernel_braket_sum(cfg: DiracBoxConfig, x: SpacetimePoint,
                      y: SpacetimePoint) -> np.ndarray:
    """Two-point kernel as -sum over basis waves |psi(x)><psi(y)|."""
    return mixed_kernel(wave_value_matrix(cfg, x), wave_value_matrix(cfg, y))
