"""Correlation operators, spin spaces, kernels and the closed chain."""

import math

import numpy as np
import pytest
from conftest import multiset_distance, random_krein_unitary

from cfsgauge import correlation
from cfsgauge.correlation import (closed_chain, complement_basis, kernel,
                                  local_correlation, spin_space,
                                  split_by_image, wave_evaluation)
from cfsgauge.dirac_box import DiracBoxConfig, build_correlation_map
from cfsgauge.errors import NotRegular
from cfsgauge.krein import opnorm
from cfsgauge.randoms import random_complex, random_correlation
from cfsgauge.wave_charts import WaveChartPoint, realize


def diag_operator(values, f):
    m = np.zeros((f, f), dtype=complex)
    m[:len(values), :len(values)] = np.diag(values)
    return m


class TestLocalCorrelation:
    def test_zero_waves(self):
        w = np.zeros((4, 6))
        np.testing.assert_allclose(local_correlation(w, np.diag([1.0, -1.0, 1.0, -1.0])),
                                   np.zeros((6, 6)))

    def test_single_wave_scalar(self):
        # one basis vector whose value has indefinite square c
        gram = np.diag([1.0, -1.0])
        w = np.array([[2.0], [1.0]])
        c = 2.0 ** 2 - 1.0 ** 2
        np.testing.assert_allclose(local_correlation(w, gram), [[-c]])

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        w = random_complex(rng, 4, 7)
        gram = np.diag([1.0, 1.0, -1.0, -1.0])
        f = local_correlation(w, gram)
        np.testing.assert_allclose(f, f.conj().T)


class TestSpinSpace:
    def test_diagonal_example(self):
        x = diag_operator([1.0, -1.0], 6)
        sp = spin_space(x, 1)
        np.testing.assert_allclose(np.abs(sp.basis[:2, :]), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sp.restricted, np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(sp.krein.gram, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_spin_gram_signature(self):
        x = diag_operator([2.0, 1.0, -1.0, -3.0], 7)
        sp = spin_space(x, 2)
        eigs = np.linalg.eigvalsh(sp.krein.gram)
        assert int(np.sum(eigs > 0)) == 2 and int(np.sum(eigs < 0)) == 2

    def test_singular_rejected(self):
        x = diag_operator([1.0, -1.0, 0.5], 6)   # rank 3 < 4
        with pytest.raises(NotRegular):
            spin_space(x, 2)

    def test_wrong_signature_rejected(self):
        x = diag_operator([1.0, 0.5, -1.0, -0.5], 6)
        with pytest.raises(NotRegular):
            spin_space(x, 1)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(1)
        x = random_correlation(rng, 9, 2)
        sp = spin_space(x, 2)
        np.testing.assert_allclose(sp.basis.conj().T @ sp.basis, np.eye(4),
                                   atol=1e-12)
        np.testing.assert_allclose(complement_basis(sp).conj().T @ sp.basis,
                                   np.zeros((5, 4)), atol=1e-12)

    def test_krein_space_built_on_first_use(self, monkeypatch):
        built = []

        class Counted(correlation.KreinSpace):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(correlation, "KreinSpace", Counted)
        rng = np.random.default_rng(40)
        sp = spin_space(random_correlation(rng, 8, 2), 2)
        closed_chain(sp, sp)
        assert built == []
        np.testing.assert_array_equal(sp.krein.gram, -sp.restricted)
        assert sp.krein is sp.krein
        assert len(built) == 1


def dense_split(x, p, q):
    """Reference split by a full eigendecomposition.

    Returns the image projector and the ascending kept spectrum, or None
    when the eigenvalue counts at threshold 1e-8 ||x|| differ from (p, q).
    """
    vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
    tol = 1e-8 * max(float(np.max(np.abs(vals))), 1e-300)
    if (int(np.sum(vals > tol)), int(np.sum(vals < -tol))) != (p, q):
        return None
    keep = np.abs(vals) > tol
    basis = vecs[:, keep]
    return basis @ basis.conj().T, vals[keep]


def assert_matches_dense(x, p, q):
    """split_by_image reaches the dense verdict, projector and spectrum."""
    reference = dense_split(x, p, q)
    if reference is None:
        with pytest.raises(NotRegular):
            split_by_image(x, p, q)
        return
    projector, spectrum = reference
    split = split_by_image(x, p, q)
    np.testing.assert_allclose(split.basis @ split.basis.conj().T, projector,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(split.restricted), spectrum,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(split.basis.conj().T @ split.basis,
                               np.eye(p + q), rtol=0, atol=1e-12)
    f = x.shape[0]
    complement = complement_basis(split)
    np.testing.assert_allclose(complement.conj().T @ complement,
                               np.eye(f - p - q), rtol=0, atol=1e-12)
    np.testing.assert_allclose(complement.conj().T @ split.basis,
                               np.zeros((f - p - q, p + q)), rtol=0,
                               atol=1e-12)


class TestSplitParity:
    @pytest.mark.parametrize("m", [0.0, 0.3])
    def test_box_operators_use_range_basis(self, m, decompositions):
        # f = 160 modes at m = 0, 162 at m = 0.3 (the zero mode is added)
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=m)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.2, (0.4, -0.8, 1.1)),
                  cfg.point(-1.3, (2.9, 0.05, -3.0))]
        operators = build_correlation_map(cfg, points)
        assert operators[0].shape[0] == (160 if m == 0.0 else 162)
        for x in operators:
            decompositions.clear()
            split = split_by_image(x, 2, 2)
            assert all(min(shape) <= 4 for shape in decompositions)
            assert split.signature == (2, 2)
            assert_matches_dense(x, 2, 2)

    @pytest.mark.parametrize("f", [4, 5, 6, 8, 10, 12])
    def test_random_operators(self, f):
        rng = np.random.default_rng(100 + f)
        for _ in range(30):
            for n in (1, 2):
                if 2 * n > f:
                    continue
                x = random_correlation(rng, f, n)
                for p, q in ((1, 1), (2, 2), (2, 1)):
                    if p + q <= f:
                        assert_matches_dense(x, p, q)

    @pytest.mark.parametrize("f", [4, 7, 12])
    def test_random_full_rank_rejected(self, f):
        rng = np.random.default_rng(200 + f)
        for _ in range(10):
            a = random_complex(rng, f, f)
            assert_matches_dense(a + a.conj().T, 2, 2)

    def test_small_discarded_eigenvalue_certified(self, decompositions):
        x = diag_operator([1.0, -1.0, 0.5, -0.5, 5e-9], 6)
        split = split_by_image(x, 2, 2)
        assert (6, 6) not in decompositions
        assert split.signature == (2, 2)
        assert_matches_dense(x, 2, 2)

    def test_near_threshold_takes_dense_route(self, decompositions):
        # kept 1.5e-8 and discarded 0.8e-8 both lie within the certificate's
        # margin of the threshold 1e-8, so only the dense route decides
        x = diag_operator([1.0, -1.0, -0.5, 1.5e-8, 0.8e-8], 6)
        split = split_by_image(x, 2, 2)
        assert (6, 6) in decompositions
        assert split.signature == (2, 2)
        assert_matches_dense(x, 2, 2)

    def test_certified_wrong_signature_rejected(self, decompositions):
        x = diag_operator([1.0, 0.5, -1.0, 2.0], 6)
        with pytest.raises(NotRegular, match=r"found \(3, 1\)"):
            split_by_image(x, 2, 2)
        assert (6, 6) not in decompositions


class TestWaveEvaluation:
    def test_diagonal_case(self):
        x = diag_operator([1.0, -1.0], 5)
        sp = spin_space(x, 1)
        psi = wave_evaluation(sp)
        np.testing.assert_allclose(np.abs(psi), np.eye(2, 5), atol=1e-12)

    def test_kernel_vector_annihilated(self):
        rng = np.random.default_rng(2)
        x = random_correlation(rng, 8, 2)
        sp = spin_space(x, 2)
        u = complement_basis(sp) @ random_complex(rng, 4)
        np.testing.assert_allclose(wave_evaluation(sp) @ u, np.zeros(4),
                                   atol=1e-12)

    @pytest.mark.parametrize("f", [4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2])
    def test_reconstruction(self, f, n):
        if f < 2 * n:
            pytest.skip("rank exceeds dimension")
        rng = np.random.default_rng(10 * f + n)
        for _ in range(100):
            x = random_correlation(rng, f, n)
            sp = spin_space(x, n)
            # the base point's own wave coordinates Psi realize Psi^dag X Psi
            own = WaveChartPoint.from_full(wave_evaluation(sp), sp)
            assert opnorm(realize(own) - x) <= 1e-10


class TestKernel:
    def test_diagonal_kernel_is_restriction(self):
        rng = np.random.default_rng(3)
        x = random_correlation(rng, 7, 1)
        sp = spin_space(x, 1)
        np.testing.assert_allclose(kernel(sp, sp), sp.restricted, atol=1e-12)

    def test_orthogonal_images_vanish(self):
        x = diag_operator([1.0, -1.0, 0.0, 0.0], 6)
        y = diag_operator([0.0, 0.0, 1.0, -1.0], 6)
        sp_x = spin_space(x, 1)
        sp_y = spin_space(y, 1)
        np.testing.assert_allclose(kernel(sp_x, sp_y), np.zeros((2, 2)),
                                   atol=1e-12)
        np.testing.assert_allclose(closed_chain(sp_x, sp_y), np.zeros((2, 2)),
                                   atol=1e-12)

    def test_reverse_kernel_is_krein_adjoint(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            sp_x = spin_space(random_correlation(rng, 8, 2), 2)
            sp_y = spin_space(random_correlation(rng, 8, 2), 2)
            p_xy = kernel(sp_x, sp_y)
            # adjoint across the spin inner products: G_y^{-1} P^dag G_x
            adjoint = np.linalg.solve(sp_y.krein.gram,
                                      p_xy.conj().T @ sp_x.krein.gram)
            np.testing.assert_allclose(kernel(sp_y, sp_x), adjoint, atol=1e-10)

    @pytest.mark.parametrize("m", [0.0, 0.3])
    def test_factor_kernel_matches_dense_on_box(self, m):
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=m)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.1, (0.1, -0.05, 0.0)),
                  cfg.point(-0.7, (1.3, 0.4, -2.2))]
        operators = build_correlation_map(cfg, points)
        spaces = [spin_space(x, 2) for x in operators]
        for sp_x in spaces:
            for y, sp_y in zip(operators, spaces):
                dense = sp_x.basis.conj().T @ y @ sp_y.basis
                assert opnorm(kernel(sp_x, sp_y) - dense) <= 1e-12 * opnorm(dense)


class TestClosedChain:
    def test_diagonal_chain_is_square(self):
        rng = np.random.default_rng(5)
        x = random_correlation(rng, 6, 2)
        sp = spin_space(x, 2)
        np.testing.assert_allclose(closed_chain(sp, sp),
                                   sp.restricted @ sp.restricted, atol=1e-12)

    def test_krein_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            sp_x = spin_space(random_correlation(rng, 10, 2), 2)
            sp_y = spin_space(random_correlation(rng, 10, 2), 2)
            a = closed_chain(sp_x, sp_y)
            assert opnorm(a - sp_x.krein.adjoint(a)) <= 1e-9

    def test_isospectral_both_orders(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sp_x = spin_space(random_correlation(rng, 9, 2), 2)
            sp_y = spin_space(random_correlation(rng, 9, 2), 2)
            a_xy = np.linalg.eigvals(closed_chain(sp_x, sp_y))
            a_yx = np.linalg.eigvals(closed_chain(sp_y, sp_x))
            assert multiset_distance(a_xy, a_yx) <= 1e-9

    def test_gauge_invariance_under_spin_basis_change(self):
        # replacing the spin basis at y by basis_y U (U unitary for the spin
        # inner product at y) maps P(x, y) -> P(x, y) U, P(y, x) -> U^{-1}
        # P(y, x), preserves the spin Gram at y, and leaves A_xy unchanged
        rng = np.random.default_rng(8)
        sp_x = spin_space(random_correlation(rng, 8, 2), 2)
        sp_y = spin_space(random_correlation(rng, 8, 2), 2)
        u = random_krein_unitary(rng, sp_y.krein, scale=0.2)
        u_inv = sp_y.krein.adjoint(u)

        basis_new = sp_y.basis @ u
        p_new = sp_x.basis.conj().T @ sp_y.operator @ basis_new
        np.testing.assert_allclose(p_new, kernel(sp_x, sp_y) @ u, atol=1e-10)
        gram_new = -(basis_new.conj().T @ sp_y.operator @ basis_new)
        np.testing.assert_allclose(gram_new, sp_y.krein.gram, atol=1e-10)
        p_yx_new = u_inv @ kernel(sp_y, sp_x)
        np.testing.assert_allclose(p_new @ p_yx_new, closed_chain(sp_x, sp_y),
                                   atol=1e-10)
