"""Shared helpers for the test suite."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg import expm

from cfsgauge.closed_chain import multiset_distance  # noqa: F401 (for tests)
from cfsgauge.randoms import random_complex

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and fast.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None, max_examples=100)
settings.load_profile("tier1")


def random_krein_unitary(rng, space, scale=0.1):
    """Unitary of the indefinite product near 1, exp of an antisymmetric op."""
    m = scale * random_complex(rng, space.dim, space.dim)
    return expm(0.5 * (m - space.adjoint(m)))


def random_krein_symmetric(rng, space, scale=0.1):
    """Symmetric operator of the indefinite product with norm ~ scale."""
    m = scale * random_complex(rng, space.dim, space.dim)
    return 0.5 * (m + space.adjoint(m))


def pytest_configure(config):
    # hypothesis caches source constants under its home directory at
    # collection time; keep that out of the working tree
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture
def decompositions(monkeypatch):
    """Shapes of every eigh / eigvalsh / svd input while the test runs.

    The functions are replaced both on ``numpy.linalg`` and inside its
    implementation module, so the SVD behind ``numpy.linalg.norm(a, 2)`` is
    recorded too.  Tests clear the list to start counting at a later point.
    """
    shapes = []
    modules = [np.linalg]
    if hasattr(np.linalg, "_linalg"):
        modules.append(np.linalg._linalg)
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(tuple(np.shape(a)[-2:]))
            return _original(a, *args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, recorded)
    return shapes
