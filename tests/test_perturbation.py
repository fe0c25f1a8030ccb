"""Pure-gauge perturbations: phase laws, cancellation, gauged basis waves."""

import math

import numpy as np
import pytest
from conftest import local_correlation

from cfsgauge.correlation import split_wave_values
from cfsgauge.dirac_box import (SPINOR_GRAM, SPINOR_KREIN, DiracBoxConfig,
                                kernel_mode_sum, wave_value_matrix)
from cfsgauge.krein import opnorm, polar, polar_decompose
from cfsgauge.perturbation import (GaugeFunction, apply_local_phase,
                                   basis_waves, gauged_basis, mixed_kernel,
                                   perturbed_symmetric_gauge)
from cfsgauge.randoms import random_box_point, random_gauge_function

CFG = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)
MASSIVE = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.3)
POINT = np.array([0.2, 0.4, -0.8, 1.1])
#: the gauge function with no terms, Lambda = 0
ZERO = GaugeFunction(terms=np.zeros((0, 6)), L=CFG.L)


def constant(theta):
    """The constant gauge function Lambda = theta: one zero-frequency row."""
    return GaugeFunction(terms=np.array([[theta, 0.0, 0.0, 0.0, 0.0, 0.0]]),
                         L=CFG.L)


def time_coefficient(waves):
    """alpha = tr(gamma^0 P(x, x)) / 4, the gamma^0 part of P(x, x)."""
    return np.real(np.trace(SPINOR_GRAM @ mixed_kernel(waves, waves))) / 4.0


@pytest.fixture(scope="module")
def waves():
    return wave_value_matrix(CFG, POINT)


class TestGaugeFunction:
    def test_periodicity(self):
        rng = np.random.default_rng(0)
        lam = random_gauge_function(rng, CFG.L)
        p1 = np.array([0.3, 0.2, -0.5, 0.7])
        p2 = np.array([0.3, 0.2 + 2 * CFG.L, -0.5 - 2 * CFG.L, 0.7])
        assert abs(lam(p1) - lam(p2)) <= 1e-12

    def test_real_valued(self):
        rng = np.random.default_rng(1)
        lam = random_gauge_function(rng, CFG.L)
        assert isinstance(lam(POINT), float)

    def test_array_of_points_matches_a_list_of_rows(self):
        lam = random_gauge_function(np.random.default_rng(3), CFG.L, 2)
        points = CFG.point([0.3, -0.4, 0.1], [(0.2, -0.5, 0.7),
                                              (1.0, 0.3, -0.2),
                                              (4.0, 0.0, -3.5)])
        values = lam(points)
        assert values.shape == (2, 3)
        np.testing.assert_array_equal(values, lam(list(points)))
        for i, point in enumerate(points):
            np.testing.assert_array_equal(values[:, i], lam(point))

    def test_shift_vanishes_at_point(self):
        rng = np.random.default_rng(2)
        lam = random_gauge_function(rng, CFG.L)
        shifted = lam.shifted_to_vanish_at(POINT)
        assert abs(shifted(POINT)) <= 1e-12
        other = np.array([-0.4, 1.0, 0.3, -0.2])
        assert abs((shifted(other) - lam(other)) + lam(POINT)) <= 1e-12


class TestLocalPhase:
    def test_zero_gauge_function(self, waves):
        assert ZERO(POINT) == 0.0
        np.testing.assert_allclose(apply_local_phase(waves, ZERO, POINT), waves)

    def test_constant_phase(self, waves):
        theta = 0.77
        np.testing.assert_allclose(apply_local_phase(waves, constant(theta),
                                                     POINT),
                                   np.exp(1j * theta) * waves, atol=1e-14)

    def test_first_order_consistency(self, waves):
        # exp(i s Lambda) W = W + i s Lambda W + O(s^2)
        rng = np.random.default_rng(3)
        lam = random_gauge_function(rng, CFG.L)
        value = lam(POINT)
        residuals = []
        for s in (1e-2, 5e-3):
            # scale the amplitude column of every term
            scaled = lam.terms * [s, 1.0, 1.0, 1.0, 1.0, 1.0]
            perturbed = apply_local_phase(
                waves, GaugeFunction(terms=scaled, L=CFG.L), POINT)
            linear = waves + 1j * s * value * waves
            residuals.append(opnorm(perturbed - linear))
        assert 3.5 <= residuals[0] / residuals[1] <= 4.5


def projector(split):
    return split.basis @ split.basis.conj().T


class TestCorrelationInvariance:
    def test_pure_gauge_exact(self, waves):
        rng = np.random.default_rng(4)
        split = split_wave_values(waves, SPINOR_GRAM, 2, 2)
        spectrum = np.linalg.eigvalsh(split.restricted)
        for _ in range(10):
            lam = random_gauge_function(rng, CFG.L)
            perturbed = apply_local_phase(waves, lam, POINT)
            assert opnorm(local_correlation(perturbed, SPINOR_GRAM)
                          - local_correlation(waves, SPINOR_GRAM)) <= 1e-12
            moved = split_wave_values(perturbed, SPINOR_GRAM, 2, 2)
            assert opnorm(projector(moved) - projector(split)) <= 1e-12
            np.testing.assert_allclose(np.linalg.eigvalsh(moved.restricted),
                                       spectrum, rtol=0, atol=1e-12)

    def test_signature_preserved(self, waves):
        rng = np.random.default_rng(5)
        lam = random_gauge_function(rng, CFG.L)
        perturbed = apply_local_phase(waves, lam, POINT)
        vals = np.linalg.eigvalsh(local_correlation(perturbed, SPINOR_GRAM))
        tol = 1e-8 * max(abs(vals))
        assert int(np.sum(vals > tol)) == 2
        assert int(np.sum(vals < -tol)) == 2
        split = split_wave_values(perturbed, SPINOR_GRAM, 2, 2)
        assert split.signature == (2, 2)
        kept = np.linalg.eigvalsh(split.restricted)
        assert int(np.sum(kept > 0)) == 2 and int(np.sum(kept < 0)) == 2


class TestMixedKernel:
    def test_zero_gauge_function(self, waves):
        unchanged = apply_local_phase(waves, ZERO, POINT)
        np.testing.assert_allclose(mixed_kernel(waves, unchanged),
                                   kernel_mode_sum(CFG, POINT, POINT),
                                   atol=1e-14)

    def test_constant_phase(self, waves):
        theta = -1.3
        perturbed = np.exp(1j * theta) * waves
        diagonal = mixed_kernel(waves, waves)
        np.testing.assert_allclose(mixed_kernel(waves, perturbed),
                                   np.exp(-1j * theta) * diagonal, atol=1e-12)

    def test_phase_law_on_grid(self, waves):
        # exact phase law pointwise on a 5 x 5 x 5 spatial grid
        rng = np.random.default_rng(6)
        lam = random_gauge_function(rng, CFG.L)
        axis = np.linspace(-CFG.L, CFG.L, 5, endpoint=False)
        for x1 in axis:
            for x2 in axis:
                for x3 in axis:
                    point = np.array([0.1, x1, x2, x3])
                    w = wave_value_matrix(CFG, point)
                    wt = apply_local_phase(w, lam, point)
                    expected = np.exp(-1j * lam(point)) * mixed_kernel(w, w)
                    assert opnorm(mixed_kernel(w, wt) - expected) <= 1e-10


class TestSymmetricGaugeValue:
    def test_diagonal_coefficient_matches_mode_count(self, waves):
        # at m = 0, P(x, x) = alpha gamma^0 with alpha = -f / (32 pi L^3)
        from cfsgauge.dirac_box import momentum_points
        alpha = time_coefficient(waves)
        expected = -len(momentum_points(CFG)) / (32 * math.pi * CFG.L ** 3)
        assert abs(alpha - expected) <= 1e-12
        assert opnorm(mixed_kernel(waves, waves)
                      - alpha * SPINOR_GRAM) <= 1e-12 * abs(alpha)

    def test_massive_kernel_gauge(self):
        # P(x, x) has a scalar part at m = 1, and the gauge still cancels
        cfg = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=1.0)
        w = wave_value_matrix(cfg, POINT)
        assert opnorm(mixed_kernel(w, w) - time_coefficient(w)
                      * SPINOR_GRAM) > 1e-3 * abs(time_coefficient(w))
        assert opnorm(perturbed_symmetric_gauge(w, w) - w) <= 1e-12 * opnorm(w)
        lam = random_gauge_function(np.random.default_rng(8), cfg.L, 50)
        values = perturbed_symmetric_gauge(w, apply_local_phase(w, lam, POINT))
        assert np.max(opnorm(values - w)) <= 1e-9

    @pytest.mark.parametrize("cfg", [CFG, MASSIVE], ids=["m0", "m0.3"])
    def test_unperturbed_value_is_the_wave_value(self, cfg):
        # sign convention: with no perturbation B = 1, so V = 1
        w = wave_value_matrix(cfg, POINT)
        assert opnorm(perturbed_symmetric_gauge(w, w) - w) <= 1e-12 * opnorm(w)

    def test_massless_value_matches_the_time_coefficient_route(self, waves):
        # at m = 0, P(x, x) = alpha gamma^0 with alpha < 0, and the value is
        # -gamma^0 polar(P(x, x~) / |alpha|) Psi~(x)
        alpha = time_coefficient(waves)
        assert alpha < 0.0
        lam = random_gauge_function(np.random.default_rng(14), CFG.L, 10)
        perturbed = apply_local_phase(waves, lam, POINT)
        t = mixed_kernel(waves, perturbed) / abs(alpha)
        t_adj = mixed_kernel(perturbed, waves) / abs(alpha)
        u, _ = polar(t, t_adj, SPINOR_KREIN)
        expected = -SPINOR_GRAM @ u @ perturbed
        got = perturbed_symmetric_gauge(waves, perturbed)
        assert np.max(opnorm(got - expected)) <= 1e-12 * opnorm(waves)

    def test_gauge_factor_is_the_polar_decomposition_of_b(self):
        # V^x and S of B = P(y, x) P(x, x)^{-1} = V S, by krein.polar_decompose
        w = wave_value_matrix(MASSIVE, POINT)
        w_y = wave_value_matrix(MASSIVE, np.array([0.3, 0.5, -0.7, 1.1]))
        b = mixed_kernel(w_y, w) @ np.linalg.inv(mixed_kernel(w, w))
        v, s = polar_decompose(b, SPINOR_KREIN)
        assert opnorm(s - np.eye(4)) > 1e-2
        got = perturbed_symmetric_gauge(w, w_y)
        assert opnorm(got - SPINOR_KREIN.adjoint(v) @ w_y) <= 1e-12 * opnorm(w)
        coeffs = np.linalg.qr(w.conj().T)[0]
        via_gauge, via_chain = gauged_basis(w, w_y, coeffs)
        assert opnorm(via_chain - s @ w @ coeffs) <= 1e-12 * opnorm(w)
        assert opnorm(via_gauge - via_chain) <= 1e-12 * opnorm(w)

    def test_zero_gauge_function_reproduces_unperturbed(self, waves):
        v0 = perturbed_symmetric_gauge(waves, waves)
        v1 = perturbed_symmetric_gauge(
            waves, apply_local_phase(waves, ZERO, POINT))
        assert opnorm(v1 - v0) <= 1e-12

    def test_phase_cancellation_50_gauge_functions(self, waves):
        rng = np.random.default_rng(7)
        v0 = perturbed_symmetric_gauge(waves, waves)
        worst = 0.0
        for _ in range(50):
            lam = random_gauge_function(rng, CFG.L)
            perturbed = apply_local_phase(waves, lam, POINT)
            value = perturbed_symmetric_gauge(waves, perturbed)
            worst = max(worst, opnorm(value - v0))
        assert worst <= 1e-9

    def test_global_phase_invariance(self, waves):
        v0 = perturbed_symmetric_gauge(waves, waves)
        v1 = perturbed_symmetric_gauge(
            waves, apply_local_phase(waves, constant(2.1), POINT))
        assert opnorm(v1 - v0) <= 1e-12


class TestTransformationLedger:
    def test_kernel_phase_and_chain_invariance(self):
        # under W -> exp(i Lambda) W pointwise: the two-point kernel picks up
        # exp(i Lambda(x) - i Lambda(y)), the closed chain stays fixed, and
        # the gauge value at y is unchanged once Lambda(x) = 0
        rng = np.random.default_rng(9)
        x = POINT
        y = np.array([0.25, 0.55, -0.7, 1.2])
        wx = wave_value_matrix(CFG, x)
        wy = wave_value_matrix(CFG, y)
        p_xy = -(wx @ wy.conj().T @ SPINOR_GRAM)
        chain = p_xy @ (-(wy @ wx.conj().T @ SPINOR_GRAM))
        alpha = time_coefficient(wx)

        for _ in range(10):
            lam = random_gauge_function(rng, CFG.L).shifted_to_vanish_at(x)
            wx_t = apply_local_phase(wx, lam, x)
            wy_t = apply_local_phase(wy, lam, y)
            p_xy_t = -(wx_t @ wy_t.conj().T @ SPINOR_GRAM)
            phase = np.exp(1j * (lam(x) - lam(y)))
            assert opnorm(p_xy_t - phase * p_xy) <= 1e-9
            chain_t = p_xy_t @ (-(wy_t @ wx_t.conj().T @ SPINOR_GRAM))
            assert opnorm(chain_t - chain) <= 1e-9

            # gauge value at y (normalized so the base-point phase is zero)
            def gauge_value(pxy, pyx, wy_val):
                normalized = (pxy @ pyx) / (alpha * alpha)
                from cfsgauge.krein import sqrt_near_identity
                inv_sqrt = sqrt_near_identity(
                    normalized, SPINOR_KREIN).inv_sqrt / abs(alpha)
                return SPINOR_GRAM @ inv_sqrt @ pxy @ wy_val

            v0 = gauge_value(p_xy, -(wy @ wx.conj().T @ SPINOR_GRAM), wy)
            v1 = gauge_value(p_xy_t, -(wy_t @ wx_t.conj().T @ SPINOR_GRAM), wy_t)
            assert opnorm(v1 - v0) <= 1e-9


class TestBasisWaves:
    def test_values_at_base_point(self):
        bw = basis_waves(CFG, POINT)
        values = bw.evaluate(POINT)
        transported = kernel_mode_sum(CFG, POINT, POINT) @ bw.chi
        np.testing.assert_allclose(transported, values, atol=1e-12)

    def test_kernel_transport_reproduces_waves(self):
        bw = basis_waves(CFG, POINT)
        rng = np.random.default_rng(10)
        for _ in range(5):
            y = random_box_point(rng, CFG)
            assert opnorm(bw.kernel_transport(y) - bw.evaluate(y)) <= 1e-9

    def test_check_points_verified_at_build_time(self):
        rng = np.random.default_rng(13)
        samples = [random_box_point(rng, CFG) for _ in range(3)]
        basis_waves(CFG, POINT, check_points=samples)   # must not raise

    def test_kernel_transport_in_a_massive_sea(self):
        rng = np.random.default_rng(15)
        samples = [random_box_point(rng, MASSIVE) for _ in range(3)]
        bw = basis_waves(MASSIVE, POINT, check_points=samples, tol=1e-12)
        np.testing.assert_allclose(bw.coeffs.conj().T @ bw.coeffs, np.eye(4),
                                   atol=1e-12)

    def test_coefficients_orthonormal(self):
        bw = basis_waves(CFG, POINT)
        np.testing.assert_allclose(bw.coeffs.conj().T @ bw.coeffs, np.eye(4),
                                   atol=1e-12)

    def test_chi_inverts_diagonal_kernel(self):
        bw = basis_waves(CFG, POINT)
        values = bw.evaluate(POINT)
        p_diag = kernel_mode_sum(CFG, POINT, POINT)
        np.testing.assert_allclose(p_diag @ bw.chi, values, atol=1e-12)


class TestGaugedBasis:
    def test_two_routes_agree_unperturbed(self, waves):
        bw = basis_waves(CFG, POINT)
        via_gauge, via_chain = gauged_basis(waves, waves, bw.coeffs)
        assert opnorm(via_gauge - via_chain) <= 1e-10

    def test_two_routes_agree_pure_gauge(self, waves):
        rng = np.random.default_rng(11)
        bw = basis_waves(CFG, POINT)
        for _ in range(10):
            lam = random_gauge_function(rng, CFG.L)
            perturbed = apply_local_phase(waves, lam, POINT)
            via_gauge, via_chain = gauged_basis(waves, perturbed, bw.coeffs)
            assert opnorm(via_gauge - via_chain) <= 1e-10

    def test_invariant_under_gauge_functions(self, waves):
        rng = np.random.default_rng(12)
        bw = basis_waves(CFG, POINT)
        reference, _ = gauged_basis(waves, waves, bw.coeffs)
        for _ in range(10):
            lam = random_gauge_function(rng, CFG.L)
            perturbed = apply_local_phase(waves, lam, POINT)
            via_gauge, _ = gauged_basis(waves, perturbed, bw.coeffs)
            assert opnorm(via_gauge - reference) <= 1e-10

    def test_one_square_root_per_call(self, waves, monkeypatch):
        import cfsgauge.krein as krein
        import cfsgauge.perturbation as perturbation

        calls = []
        original = krein.sqrt_near_identity

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # count the primitive however the module reaches it
        monkeypatch.setattr(krein, "sqrt_near_identity", counted)
        monkeypatch.setattr(perturbation, "sqrt_near_identity", counted,
                            raising=False)
        rng = np.random.default_rng(13)
        bw = basis_waves(CFG, POINT)
        gauged_basis(waves, waves, bw.coeffs)
        lam = random_gauge_function(rng, CFG.L)
        gauged_basis(waves, apply_local_phase(waves, lam, POINT), bw.coeffs)
        assert len(calls) == 2

    def test_unperturbed_closed_form(self):
        # without perturbation B = 1, so S = 1 and the gauged basis is u_a(x)
        for cfg in (CFG, MASSIVE):
            w = wave_value_matrix(cfg, POINT)
            bw = basis_waves(cfg, POINT)
            _, via_chain = gauged_basis(w, w, bw.coeffs)
            np.testing.assert_allclose(via_chain, w @ bw.coeffs, atol=1e-10)
