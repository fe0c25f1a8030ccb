"""Shared helpers for the test suite."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg import expm

from cfsgauge import correlation
from cfsgauge.closed_chain import multiset_distance  # noqa: F401 (for tests)
from cfsgauge.correlation import hermitize
from cfsgauge.dirac_box import (SPINOR_GRAM, DiracBoxConfig,
                                build_correlation_map, wave_value_matrix)
from cfsgauge.krein import _adjoint, opnorm
from cfsgauge.manifold import ChartCoordinates
from cfsgauge.randoms import (random_complement_map, random_complex,
                              random_hermitian)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and fast.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None, max_examples=100)
settings.load_profile("tier1")


def local_correlation(w, g):
    """The dense correlation operator -w^dag g w of wave values w, Hermitian
    to the last bit: the reference the wave-value split is checked against."""
    return hermitize(-(np.conjugate(w).T @ g @ w))


def dense_split(x, p, q):
    """The image split of a dense Hermitian x, or of each in a stack, by one
    full f x f ``eigh``: the reference the factor splits are checked against.

    The p + q eigenvalues above ``TOL_RANK_FACTOR`` times ||x|| in magnitude
    are kept (descending, phases fixed as the package fixes them);
    ``discarded`` is the norm of the dropped ones.  Raises NotRegular, as
    the package does, when the counts above +threshold and below -threshold
    are not (p, q).
    """
    x = np.asarray(x, dtype=complex)
    vals, vecs = np.linalg.eigh(hermitize(x))
    tol_rank = correlation.TOL_RANK_FACTOR * np.maximum(
        np.max(np.abs(vals), axis=-1), 1e-300)
    keep = np.abs(vals) > tol_rank[..., None]
    # the kept columns first, in descending eigenvalue order
    order = np.argsort(~keep[..., ::-1], axis=-1, kind="stable")[..., :p + q]
    basis = correlation._fix_column_phases(
        np.take_along_axis(vecs[..., ::-1], order[..., None, :], axis=-1))
    dropped = np.sqrt(np.sum(np.where(keep, 0.0, vals ** 2), axis=-1))
    return correlation._decided_split(
        (basis, hermitize(_adjoint(basis) @ x @ basis), dropped,
         correlation._counts(vals, tol_rank), tol_rank), p, q)


def diagonal_waves(values, f, offset=0):
    """Wave values of diag(values) placed from row ``offset`` on in C^f.

    Row i of w is sqrt|values[i]| e_{offset + i} and g = -diag(sign(values)),
    so -w^dag g w is the diagonal operator; a zero value gives a zero row.
    """
    values = np.asarray(values, dtype=float)
    w = np.sqrt(np.abs(values))[:, None] * np.eye(len(values), f, offset)
    return w, -np.diag(np.sign(values))


def unstack(split):
    """The lone splits of the elements of a stacked split, in order."""
    return [correlation.ImageSplit(basis=basis, restricted=restricted,
                                   discarded=discarded,
                                   signature=split.signature)
            for basis, restricted, discarded in zip(
                split.basis, split.restricted, split.discarded)]


def render(split):
    """The dense operator V X V^dag of an image split, or of each in a stack."""
    return hermitize(split.basis @ split.restricted @ _adjoint(split.basis))


def realize(psi, base):
    """The dense realization psi^dag X psi of a wave-chart point psi around
    ``base``, f x f: the reference the orbit witness's 2r x 2r cores are
    checked against."""
    return hermitize(_adjoint(psi) @ base.restricted @ psi)


def opnorm_bound(shape):
    """The relative error bound (k + s) s eps of ``opnorm`` on s x k or
    k x s elements, s <= k, as its docstring states it."""
    s, k = sorted(shape[-2:])
    return (k + s) * s * np.finfo(float).eps


def dense_correlation_map(cfg, points):
    """The dense box operator F(x) at each point, rendered from its wave values."""
    return [local_correlation(wave_value_matrix(cfg, p), SPINOR_GRAM)
            for p in points]


def box_chart_coords(eps, m, count, seed):
    """``count`` chart coordinates around the box point at the origin.

    L = pi.  Each ||a|| is 0.05 min|eig X|, and each b has rows of about
    that norm, so every point lies well inside the chart domain.
    """
    cfg = DiracBoxConfig(L=np.pi, eps=eps, m=m)
    base = build_correlation_map(cfg, [cfg.point(0.0, (0.0, 0.0, 0.0))])[0]
    rng = np.random.default_rng(seed)
    size = 0.05 * np.min(np.abs(np.linalg.eigvalsh(base.restricted)))
    a = random_hermitian(rng, count, base.rank)
    f = base.basis.shape[0]
    b = random_complement_map(rng, base, count, base.rank,
                              scale=size / np.sqrt(f))
    return ChartCoordinates(a=size * a / opnorm(a)[:, None, None], b=b,
                            split=base)


def random_krein_unitary(rng, space, scale=0.1):
    """Unitary of the indefinite product near 1, exp of an antisymmetric op."""
    m = scale * random_complex(rng, *space.gram.shape[-2:])
    return expm(0.5 * (m - space.adjoint(m)))


def random_krein_symmetric(rng, space, scale=0.1):
    """Symmetric operator of the indefinite product with norm ~ scale."""
    m = scale * random_complex(rng, *space.gram.shape[-2:])
    return 0.5 * (m + space.adjoint(m))


def pytest_configure(config):
    # hypothesis caches source constants under its home directory at
    # collection time; keep that out of the working tree
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


class DecompositionLog(list):
    """The (m, n) shape of each recorded input, in call order.

    ``inputs`` keeps each call's function name and full input shape, so a
    test can count the matrices of a stack; ``clear`` empties both.
    """

    def __init__(self):
        super().__init__()
        self.inputs = []

    def clear(self):
        super().clear()
        self.inputs.clear()


@pytest.fixture
def decompositions(monkeypatch):
    """Shapes of every eigh / eigvalsh / svd input while the test runs.

    The functions are replaced both on ``numpy.linalg`` and inside its
    implementation module, so the SVD behind ``numpy.linalg.norm(a, 2)`` is
    recorded too.  Tests clear the list to start counting at a later point.
    """
    shapes = DecompositionLog()
    modules = [np.linalg]
    if hasattr(np.linalg, "_linalg"):
        modules.append(np.linalg._linalg)
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, _name=name, **kwargs):
            shapes.append(tuple(np.shape(a)[-2:]))
            shapes.inputs.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, recorded)
    return shapes
