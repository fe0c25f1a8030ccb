"""Shared helpers for the test suite."""

import itertools

import numpy as np
import pytest


def multiset_distance(a, b) -> float:
    """Smallest max-distance matching between two equal-size multisets.

    Complex eigenvalue multisets cannot be compared by lexicographic sorting
    (roundoff reorders conjugate pairs), so match over permutations.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape and a.ndim == 1
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        d = np.max(np.abs(a - b[list(perm)]))
        best = min(best, d)
    return float(best)


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
