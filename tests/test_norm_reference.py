"""A 40-digit referee for the relative error bound of ``krein.opnorm``.

Every float64 number is exact in mpmath, and so is each product of two,
so the smaller Gram of a float64 input formed at 40 digits is its exact
Gram to 40 digits; the root of its top ``mpmath.eighe`` eigenvalue is
||a||_2 far beyond float64 precision.
"""

import math

import numpy as np
import pytest
from conftest import opnorm_bound

from cfsgauge.dirac_box import (DiracBoxConfig, mixed_kernel, mode_count,
                                wave_value_matrix)
from cfsgauge.krein import opnorm
from cfsgauge.randoms import random_complex, random_gauge_function

mpmath = pytest.importorskip("mpmath")

BOX = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)


def reference_norm(a):
    """||a||_2 of one float64 matrix, from its Gram at 40 digits."""
    with mpmath.workdps(40):
        rows = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row]
                              for row in a])
        gram = rows * rows.H if rows.rows <= rows.cols else rows.H * rows
        return mpmath.sqrt(max(mpmath.eighe(gram, eigvals_only=True)))


def box_residuals(rng):
    """Mixed kernels of phased box waves less their phase law, at f = 160."""
    lam = random_gauge_function(rng, BOX.L)
    points = [BOX.point(0.1, tuple(rng.uniform(-BOX.L, BOX.L, 3)))
              for _ in range(5)]
    waves = wave_value_matrix(BOX, points)
    phases = lam(points)[:, None, None]
    return (mixed_kernel(waves, np.exp(1j * phases) * waves)
            - np.exp(-1j * phases) * mixed_kernel(waves, waves))


DRAWS = {
    "4x4": lambda rng: random_complex(rng, 5, 4, 4),
    "8x8": lambda rng: random_complex(rng, 5, 8, 8),
    "4x160": lambda rng: random_complex(rng, 5, 4, 160),
    "box": box_residuals,
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("seed", range(3))
def test_opnorm_is_within_its_bound_of_the_exact_norm(draw, seed):
    assert mode_count(BOX) == 160
    a = DRAWS[draw](np.random.default_rng(seed))
    bound = opnorm_bound(a.shape)
    for element, value in zip(a, opnorm(a), strict=True):
        exact = reference_norm(element)
        with mpmath.workdps(40):
            assert exact > 0
            assert abs(mpmath.mpf(float(value)) - exact) <= bound * exact
