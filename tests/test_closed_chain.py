"""Closed-form spectral analysis of vector-form kernels."""

import math

import numpy as np
import pytest
from conftest import multiset_distance

from cfsgauge.closed_chain import (VectorKernel, chain_eigenvalues,
                                   chain_from_vectors, dual_route_inv_sqrt,
                                   spectral_inv_sqrt_kernel,
                                   spectral_projectors, unitary_expansion,
                                   vector_kernel_from_matrix)
from cfsgauge.dirac_box import (DiracBoxConfig, kernel_mode_sum,
                                minkowski_dot, slash)
from cfsgauge.errors import BranchCut, DegenerateChain
from cfsgauge.krein import opnorm


def right_half_plane_sample(rng):
    """Vector pair whose chain eigenvalues avoid the branch cut."""
    while True:
        u = np.array([rng.uniform(1.5, 2.5), *(0.4 * rng.standard_normal(3))])
        z = 0.4 * rng.standard_normal(4)
        vk = VectorKernel(real_vec=u, imag_vec=z)
        lam_plus, lam_minus = chain_eigenvalues(vk)
        ok = all(l.real > 0.1 or abs(l.imag) > 0.1 for l in (lam_plus, lam_minus))
        gap = abs(lam_plus - lam_minus)
        if ok and gap > 1e-3 * (abs(lam_plus) + abs(lam_minus)):
            return vk


class TestChainAssembly:
    def test_zero_imag_part_scalar_chain(self):
        u = np.array([1.3, 0.2, -0.4, 0.5])
        vk = VectorKernel(real_vec=u, imag_vec=np.zeros(4))
        u_sq = minkowski_dot(u, u)
        np.testing.assert_allclose(chain_from_vectors(vk), u_sq * np.eye(4),
                                   atol=1e-12)

    def test_orthogonal_unit_pair(self):
        vk = VectorKernel(real_vec=[1, 0, 0, 0], imag_vec=[0, 1, 0, 0])
        a = chain_from_vectors(vk)
        np.testing.assert_allclose(a @ a, -4.0 * np.eye(4), atol=1e-12)
        lam_plus, lam_minus = chain_eigenvalues(vk)
        assert abs(lam_plus - 2j) <= 1e-12
        assert abs(lam_minus + 2j) <= 1e-12

    def test_chain_is_product_of_kernels(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vk = VectorKernel(rng.standard_normal(4), rng.standard_normal(4))
            # the reversed kernel is slash(u) - i slash(z)
            reversed_kernel = slash(vk.real_vec) - 1j * slash(vk.imag_vec)
            product = vk.kernel_matrix() @ reversed_kernel
            assert opnorm(chain_from_vectors(vk) - product) <= 1e-12


class TestEigenvalues:
    def test_zero_imag_part(self):
        u = np.array([0.9, 0.1, 0.0, -0.3])
        vk = VectorKernel(real_vec=u, imag_vec=np.zeros(4))
        lam_plus, lam_minus = chain_eigenvalues(vk)
        u_sq = minkowski_dot(u, u)
        assert abs(lam_plus - u_sq) <= 1e-12
        assert abs(lam_minus - u_sq) <= 1e-12

    def test_against_eigensolver_100_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            vk = VectorKernel(rng.standard_normal(4), rng.standard_normal(4))
            lam_plus, lam_minus = chain_eigenvalues(vk)
            predicted = np.array([lam_plus, lam_plus, lam_minus, lam_minus])
            numeric = np.linalg.eigvals(chain_from_vectors(vk))
            assert multiset_distance(predicted, numeric) <= 1e-9

    def test_gauge_phase_invariance(self):
        # multiplying the kernel by a constant phase leaves the chain alone
        rng = np.random.default_rng(2)
        for _ in range(20):
            vk = VectorKernel(rng.standard_normal(4), rng.standard_normal(4))
            theta = rng.uniform(0, 2 * math.pi)
            rotated = vector_kernel_from_matrix(
                np.exp(1j * theta) * vk.kernel_matrix())
            lam_orig = chain_eigenvalues(vk)
            lam_rot = chain_eigenvalues(rotated)
            assert multiset_distance(np.array(lam_orig), np.array(lam_rot)) <= 1e-9
            assert opnorm(chain_from_vectors(rotated)
                          - chain_from_vectors(vk)) <= 1e-9


class TestProjectors:
    def test_algebra(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vk = right_half_plane_sample(rng)
            e_plus, e_minus = spectral_projectors(vk)
            lam_plus, lam_minus = chain_eigenvalues(vk)
            a = chain_from_vectors(vk)
            eye = np.eye(4)
            assert opnorm(e_plus + e_minus - eye) <= 1e-9
            assert opnorm(e_plus @ e_plus - e_plus) <= 1e-9
            assert opnorm(e_minus @ e_minus - e_minus) <= 1e-9
            assert opnorm(e_plus @ e_minus) <= 1e-9
            assert opnorm(a @ e_plus - lam_plus * e_plus) <= 1e-9
            assert opnorm(a @ e_minus - lam_minus * e_minus) <= 1e-9

    def test_traces_are_two(self):
        rng = np.random.default_rng(4)
        vk = right_half_plane_sample(rng)
        e_plus, e_minus = spectral_projectors(vk)
        assert abs(np.trace(e_plus) - 2.0) <= 1e-10
        assert abs(np.trace(e_minus) - 2.0) <= 1e-10

    def test_spectral_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            vk = right_half_plane_sample(rng)
            e_plus, e_minus = spectral_projectors(vk)
            lam_plus, lam_minus = chain_eigenvalues(vk)
            rebuilt = lam_plus * e_plus + lam_minus * e_minus
            assert opnorm(rebuilt - chain_from_vectors(vk)) <= 1e-9

    def test_degenerate_rejected(self):
        vk = VectorKernel(real_vec=[1.0, 0.2, 0.0, 0.0],
                          imag_vec=[0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateChain):
            spectral_projectors(vk)


class TestInvSqrtKernel:
    def test_scalar_chain_closed_form(self):
        u = np.array([1.5, 0.3, 0.1, -0.2])
        vk = VectorKernel(real_vec=u, imag_vec=np.zeros(4))
        u_sq = minkowski_dot(u, u)
        assert u_sq > 0
        np.testing.assert_allclose(spectral_inv_sqrt_kernel(vk),
                                   slash(u) / math.sqrt(u_sq), atol=1e-12)

    def test_scalar_chain_negative_square_rejected(self):
        vk = VectorKernel(real_vec=[0.1, 1.0, 0.0, 0.0],
                          imag_vec=np.zeros(4))
        with pytest.raises(BranchCut):
            spectral_inv_sqrt_kernel(vk)

    def test_nilpotent_chain_rejected(self):
        # u^2 = 0 and u z = 0: both eigenvalues are -1, but A + 1 != 0
        vk = VectorKernel(real_vec=[1.0, 1.0, 0.0, 0.0],
                          imag_vec=[0.0, 0.0, 1.0, 0.0])
        with pytest.raises(DegenerateChain, match="nilpotent part"):
            spectral_inv_sqrt_kernel(vk)

    def test_nilpotent_element_is_named(self):
        vk = VectorKernel(real_vec=[[2.0, 0.1, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
                          imag_vec=[[0.0, 0.0, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(DegenerateChain, match=r"stack element \[1\]"):
            spectral_inv_sqrt_kernel(vk)

    def test_nan_element_raises(self):
        vk = VectorKernel(real_vec=[[2.0, 0.1, 0.0, 0.0],
                                    [np.nan, 1.0, 0.0, 0.0]],
                          imag_vec=[[0.0, 0.0, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            spectral_inv_sqrt_kernel(vk)

    def test_degeneracy_guard_decomposes_nothing(self, decompositions):
        # distinct chains and a scalar chain are decided without an SVD
        rng = np.random.default_rng(8)
        samples = [right_half_plane_sample(rng) for _ in range(6)]
        u = np.array([s.real_vec for s in samples] + [[1.5, 0.3, 0.1, -0.2]])
        z = np.array([s.imag_vec for s in samples] + [np.zeros(4)])
        spectral_inv_sqrt_kernel(VectorKernel(real_vec=u, imag_vec=z))
        assert not decompositions

    def test_unitarity_of_spectral_route(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vk = right_half_plane_sample(rng)
            result = dual_route_inv_sqrt(vk)
            assert result.unitarity_residual <= 1e-9

    def test_inverse_square_root_property(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            vk = right_half_plane_sample(rng)
            g = spectral_inv_sqrt_kernel(vk)
            # g g* = 1 implies A^{-1/2} P (A^{-1/2} P)* = 1; also check
            # (A^{-1/2})^2 A = 1 through the projector route
            lam_plus, lam_minus = chain_eigenvalues(vk)
            e_plus, e_minus = spectral_projectors(vk)
            inv_sqrt = (e_plus / np.sqrt(lam_plus) + e_minus / np.sqrt(lam_minus))
            a = chain_from_vectors(vk)
            assert opnorm(inv_sqrt @ inv_sqrt @ a - np.eye(4)) <= 1e-9

    def test_dual_route_deviation_reported(self):
        rng = np.random.default_rng(7)
        deviations = []
        for _ in range(20):
            vk = right_half_plane_sample(rng)
            result = dual_route_inv_sqrt(vk)
            assert np.isfinite(result.deviation)
            deviations.append(result.deviation)
        # the fixed coefficient formula differs from the spectral calculus
        # for generic samples; the report must surface that, not hide it
        assert max(deviations) > 1e-6

    def test_scalar_chain_dual_route_marks_formula_undefined(self):
        vk = VectorKernel(real_vec=[1.5, 0.3, 0.1, -0.2],
                          imag_vec=np.zeros(4))
        result = dual_route_inv_sqrt(vk)
        assert math.isnan(result.deviation)
        assert result.unitarity_residual <= 1e-12

    def test_routes_agree_when_vectors_orthogonal(self):
        # with u z = 0 both radicands coincide and the routes agree
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = np.array([rng.uniform(1.5, 2.5), 0.0, 0.0,
                          rng.uniform(-0.3, 0.3)])
            z = np.array([0.0, rng.uniform(-0.5, 0.5),
                          rng.uniform(-0.5, 0.5), 0.0])
            vk = VectorKernel(real_vec=u, imag_vec=z)
            if abs(minkowski_dot(u, z)) > 1e-12:
                continue
            result = dual_route_inv_sqrt(vk)
            assert result.deviation <= 1e-9


class TestVectorDecomposition:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            vk = VectorKernel(rng.standard_normal(4), rng.standard_normal(4))
            back = vector_kernel_from_matrix(vk.kernel_matrix())
            np.testing.assert_allclose(back.real_vec, vk.real_vec, atol=1e-12)
            np.testing.assert_allclose(back.imag_vec, vk.imag_vec, atol=1e-12)

    def test_non_vector_rejected(self):
        m = np.eye(4, dtype=complex)   # scalar part, not vector form
        with pytest.raises(ValueError):
            vector_kernel_from_matrix(m)

    def test_box_kernel_isospectrality(self):
        # massless box kernels are of vector form; the closed-form
        # eigenvalues reproduce the numeric spectrum of their closed chain
        cfg = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)
        x = np.array([0.0, 0.1, -0.3, 0.2])
        for dy in ((0.05, 0.0, 0.02), (0.3, -0.2, 0.1)):
            y = np.array([0.04, *(x[1:] + dy)])
            p_xy = kernel_mode_sum(cfg, x, y)
            vk = vector_kernel_from_matrix(p_xy)
            lam_plus, lam_minus = chain_eigenvalues(vk)
            chain = p_xy @ kernel_mode_sum(cfg, y, x)
            predicted = np.array([lam_plus, lam_plus, lam_minus, lam_minus])
            numeric = np.linalg.eigvals(chain)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert multiset_distance(predicted, numeric) <= 1e-9 * scale


class TestUnitaryExpansion:
    def test_no_perturbation(self):
        report = unitary_expansion(np.zeros(4), np.zeros(4))
        assert all(r <= 1e-12 for r in report.residuals)

    def test_pure_time_imaginary_perturbation(self):
        # only a phase appears: first-order term i z^0
        for z0 in (0.5, 0.25):
            report = unitary_expansion(np.zeros(4), [z0, 0, 0, 0])
            assert report.coefficient_deviation <= 1e-10
            expected = 1j * z0 * np.eye(4)
            assert opnorm(report.coefficient_fd - expected) <= 1e-10

    def test_mixed_perturbation_first_order(self):
        report = unitary_expansion([0.2, 0.3, -0.1, 0.4],
                                   [0.25, -0.3, 0.2, 0.1])
        assert report.coefficient_deviation <= 1e-6
        assert report.antisymmetry_residual <= 1e-6
        for ratio in report.residual_ratios:
            assert 3.0 <= ratio <= 5.0

    def test_only_spatial_real_and_time_imag_enter(self):
        # time component of the real step and spatial components of the
        # imaginary step drop out of the first order
        base = unitary_expansion([0.0, 0.3, -0.1, 0.2], [0.4, 0, 0, 0])
        shifted = unitary_expansion([0.7, 0.3, -0.1, 0.2],
                                    [0.4, 0.5, -0.6, 0.2])
        assert opnorm(base.coefficient_fd - shifted.coefficient_fd) <= 1e-8
