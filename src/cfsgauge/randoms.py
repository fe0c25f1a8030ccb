"""Seeded random inputs for property suites and experiment tasks.

All randomness is drawn from an explicit numpy Generator.  Complex matrices
are built from independent standard complex Gaussians (real and imaginary
parts N(0, 1) / sqrt(2)), Hermitian-symmetrized or orthonormalized where
needed, so a fixed seed reproduces every trial bit for bit.
"""

from __future__ import annotations

import numpy as np

from .correlation import complement_basis, hermitize
from .dirac_box import SpacetimePoint
from .manifold import ChartCoordinates
from .perturbation import GaugeFunction

#: range of the eigenvalue moduli of random Gram and correlation operators
SPREAD = (0.5, 2.0)
#: term count, amplitude scale and lattice-mode bound of random gauge functions
GAUGE_TERMS, GAUGE_AMPLITUDE, GAUGE_MAX_MODE = 3, 0.5, 2


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    """Independent standard complex Gaussian entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, dim: int,
                     scale: float = 1.0) -> np.ndarray:
    return scale * hermitize(random_complex(rng, dim, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR with a fixed diagonal phase convention."""
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_gram(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Random invertible Hermitian Gram matrix of signature (p, q)."""
    dim = p + q
    u = random_unitary(rng, dim)
    vals = np.concatenate([rng.uniform(*SPREAD, size=p),
                           -rng.uniform(*SPREAD, size=q)])
    return hermitize((u * vals) @ u.conj().T)


def random_correlation(rng: np.random.Generator, f: int, n: int) -> np.ndarray:
    """Random regular correlation operator: rank 2n, signature (n, n)."""
    basis, _ = np.linalg.qr(random_complex(rng, f, 2 * n))
    vals = np.concatenate([np.sort(rng.uniform(*SPREAD, size=n))[::-1],
                           -np.sort(rng.uniform(*SPREAD, size=n))])
    return hermitize((basis * vals) @ basis.conj().T)


def random_complement_map(rng: np.random.Generator, split, rows: int,
                          scale: float = 1.0) -> np.ndarray:
    """Random rows x f map vanishing on the image of ``split``.

    One rows x (f - r) Gaussian draw, mapped by the complement basis.
    """
    draw = scale * random_complex(rng, rows, split.basis.shape[0] - split.rank)
    return draw @ complement_basis(split).conj().T


def random_chart_coords(rng: np.random.Generator, split,
                        scale: float = 0.1) -> ChartCoordinates:
    """Small random chart coordinates around a base splitting."""
    a = random_hermitian(rng, split.rank, scale=scale)
    b = random_complement_map(rng, split, split.rank, scale=scale)
    return ChartCoordinates(a=a, b=b, split=split)


def random_direction_pair(rng: np.random.Generator, split):
    """Two normalized coordinate directions (a, b) for metric probes."""
    def one():
        a = random_hermitian(rng, split.rank)
        b = random_complement_map(rng, split, split.rank)
        norm = np.sqrt(np.linalg.norm(a, "fro") ** 2
                       + 2.0 * np.linalg.norm(b, "fro") ** 2)
        return a / norm, b / norm
    return one(), one()


def random_gauge_function(rng: np.random.Generator, L: float) -> GaugeFunction:
    """Random real Fourier gauge function on the box lattice."""
    terms = []
    for _ in range(GAUGE_TERMS):
        amp = GAUGE_AMPLITUDE * rng.standard_normal()
        n_vec = tuple(int(v) for v in rng.integers(-GAUGE_MAX_MODE,
                                                   GAUGE_MAX_MODE + 1, size=3))
        omega = rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        terms.append((amp, n_vec, omega, phase))
    return GaugeFunction(terms=tuple(terms), L=L)


def random_box_point(rng: np.random.Generator, L: float):
    """Random spacetime point inside the box, with |t| <= 1."""
    t = float(rng.uniform(-1.0, 1.0))
    x = tuple(float(c) for c in rng.uniform(-L, L, size=3))
    return SpacetimePoint.in_box(t, x, L)
