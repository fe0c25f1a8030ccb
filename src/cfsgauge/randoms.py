"""Seeded random inputs for property suites and experiment tasks.

All randomness is drawn from an explicit numpy Generator.  Complex matrices
are built from independent standard complex Gaussians (real and imaginary
parts N(0, 1) / sqrt(2)), Hermitian-symmetrized, orthonormalized or
projected off an image where needed, so a fixed seed reproduces every trial
bit for bit.  The matrix and gauge-function draws take leading stack
dimensions and fill a whole stack in one call per field: the lone draw is
the stack of no dimensions.
"""

from __future__ import annotations

import numpy as np

from .correlation import ImageSplit, hermitize, split_wave_values
from .dirac_box import DiracBoxConfig
from .krein import _adjoint, _frobenius
from .manifold import ChartCoordinates
from .perturbation import GaugeFunction

#: range of the eigenvalue moduli of random Gram and correlation operators
SPREAD = (0.5, 2.0)
#: term count, amplitude scale and lattice-mode bound of random gauge functions
GAUGE_TERMS, GAUGE_AMPLITUDE, GAUGE_MAX_MODE = 3, 0.5, 2


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    """Independent standard complex Gaussian entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, *shape,
                     scale: float = 1.0) -> np.ndarray:
    """Random Hermitian dim x dim matrices, ``shape`` = (*stack, dim)."""
    return scale * hermitize(random_complex(rng, *shape, shape[-1]))


def random_unitary(rng: np.random.Generator, *shape) -> np.ndarray:
    """Haar-ish unitaries via QR with a fixed diagonal phase convention."""
    q, r = np.linalg.qr(random_complex(rng, *shape, shape[-1]))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_gram(rng: np.random.Generator, p: int, q: int,
                *stack) -> np.ndarray:
    """Random invertible Hermitian Gram matrices of signature (p, q)."""
    u = random_unitary(rng, *stack, p + q)
    vals = np.concatenate([rng.uniform(*SPREAD, size=(*stack, p)),
                           -rng.uniform(*SPREAD, size=(*stack, q))], axis=-1)
    return hermitize((u * vals[..., None, :]) @ _adjoint(u))


def random_correlation(rng: np.random.Generator, f: int,
                       n: int) -> ImageSplit:
    """Image split of a random regular correlation operator of rank 2n.

    The operator is V diag(vals) V^dag = -W^dag G W with orthonormal V,
    W = V^dag and G = -diag(vals), signature (n, n), split from W.
    """
    basis, _ = np.linalg.qr(random_complex(rng, f, 2 * n))
    vals = np.concatenate([np.sort(rng.uniform(*SPREAD, size=n))[::-1],
                           -np.sort(rng.uniform(*SPREAD, size=n))])
    return split_wave_values(_adjoint(basis), -np.diag(vals), n, n)


def random_complement_map(rng: np.random.Generator, split, *shape,
                          scale: float = 1.0) -> np.ndarray:
    """Random rows x f maps vanishing on the image of ``split``.

    ``shape`` is (*stack, rows).  A Gaussian G projected off the image,
    G - (G V) V^dag, is a Gaussian on the complement; a split whose image
    is the whole space has no complement and gets exact zeros.
    """
    v = split.basis
    f = v.shape[0]
    if split.rank == f:
        return np.zeros((*shape, f), dtype=complex)
    draw = scale * random_complex(rng, *shape, f)
    return draw - (draw @ v) @ _adjoint(v)


def random_chart_coords(rng: np.random.Generator, split, *stack,
                        scale: float = 0.1) -> ChartCoordinates:
    """Small random chart coordinates around a base splitting."""
    a = random_hermitian(rng, *stack, split.rank, scale=scale)
    b = random_complement_map(rng, split, *stack, split.rank, scale=scale)
    return ChartCoordinates(a=a, b=b, split=split)


def random_direction_pair(rng: np.random.Generator, split, *stack):
    """Two normalized coordinate directions (a, b) for metric probes."""
    def one():
        a = random_hermitian(rng, *stack, split.rank)
        b = random_complement_map(rng, split, *stack, split.rank)
        norm = np.sqrt(_frobenius(a) ** 2 + 2.0 * _frobenius(b) ** 2)
        return a / norm[..., None, None], b / norm[..., None, None]
    return one(), one()


def random_gauge_function(rng: np.random.Generator, L: float,
                          *stack) -> GaugeFunction:
    """Random real Fourier gauge functions on the box lattice."""
    shape = (*stack, GAUGE_TERMS)
    columns = [GAUGE_AMPLITUDE * rng.standard_normal((*shape, 1)),
               rng.integers(-GAUGE_MAX_MODE, GAUGE_MAX_MODE + 1, (*shape, 3)),
               rng.standard_normal((*shape, 1)),
               rng.uniform(0.0, 2.0 * np.pi, (*shape, 1))]
    return GaugeFunction(terms=np.concatenate(columns, axis=-1), L=L)


def random_box_point(rng: np.random.Generator, box: DiracBoxConfig):
    """Random spacetime point inside the box, with |t| <= 1."""
    t = rng.uniform(-1.0, 1.0)
    return box.point(t, rng.uniform(-box.L, box.L, size=3))
