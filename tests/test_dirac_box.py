"""Dirac box ensembles: gamma algebra, modes, waves, kernels, regularity."""

import itertools
import math
import time

import numpy as np
import pytest

from cfsgauge.correlation import kernel, spin_space
from cfsgauge.dirac_box import (ETA, GAMMA, MAX_DENSE_BYTES, MAX_L, MAX_MODES,
                                MIN_LENGTH, MIN_MASS, SPINOR_GRAM,
                                DiracBoxConfig, SpacetimePoint,
                                _lattice, _sea_spinor_table, _sea_table,
                                build_correlation_map, kernel_braket_sum,
                                kernel_mode_sum, mode_count, momentum_modes,
                                momentum_points, slash, wave_value_matrix)
from cfsgauge.errors import EmptyCutoff, TooFewModes, TooManyModes
from cfsgauge.krein import opnorm

CFG = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=1.0)
CFG_SMALL = DiracBoxConfig(L=math.pi, eps=1.0 / 1.5, m=1.0)
CFG_MASSLESS = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)


def brute_force_mode_count(cfg) -> int:
    """Independent lattice enumeration oracle (naive triple loop)."""
    step = math.pi / cfg.L
    bound = int(math.ceil(1.0 / (cfg.eps * step))) + 2
    count = 0
    for n1 in range(-bound, bound + 1):
        for n2 in range(-bound, bound + 1):
            for n3 in range(-bound, bound + 1):
                if cfg.m == 0.0 and n1 == n2 == n3 == 0:
                    continue
                k_sq = step * step * (n1 * n1 + n2 * n2 + n3 * n3)
                if math.sqrt(k_sq + cfg.m * cfg.m) < 1.0 / cfg.eps:
                    count += 1
    return 2 * count


def table_spinors(cfg):
    """Each momentum's 4 x 2 block of the sea table, spin-normalized (m > 0).

    The table holds Euclidean-orthonormal spinors; sqrt(omega / m) times
    them have spin norm -1, like the spinors (kslash + m) e_{3,4} normalized
    in the spin inner product.
    """
    _, _, omega, spin = _sea_table(cfg)
    blocks = spin.reshape(4, -1, 2) / reference_scale(cfg)
    return [math.sqrt(w / cfg.m) * blocks[:, i]
            for i, w in enumerate(omega.tolist())]


class TestGammaMatrices:
    def test_clifford_relations(self):
        for i, j in itertools.product(range(4), repeat=2):
            anti = GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i]
            np.testing.assert_allclose(anti, 2.0 * ETA[i, j] * np.eye(4),
                                       atol=1e-14)

    def test_time_gamma_squares_to_identity(self):
        np.testing.assert_allclose(GAMMA[0] @ GAMMA[0], np.eye(4), atol=1e-15)

    def test_hermiticity_pattern(self):
        np.testing.assert_allclose(GAMMA[0], GAMMA[0].conj().T, atol=1e-15)
        for i in (1, 2, 3):
            np.testing.assert_allclose(GAMMA[i], -GAMMA[i].conj().T, atol=1e-15)

    def test_gram_signature(self):
        vals = np.linalg.eigvalsh(SPINOR_GRAM)
        assert int(np.sum(vals > 0)) == 2 and int(np.sum(vals < 0)) == 2


class TestSpacetimePoint:
    def test_reduction_into_box(self):
        p = SpacetimePoint.in_box(0.5, (CFG.L + 0.25, -CFG.L - 0.25, 0.1),
                                  CFG.L)
        assert -CFG.L <= min(p.x_vec) and max(p.x_vec) < CFG.L
        np.testing.assert_allclose(p.x_vec,
                                   (-CFG.L + 0.25, CFG.L - 0.25, 0.1),
                                   atol=1e-12)


class TestMomentumModes:
    def test_reference_count_114(self):
        modes = momentum_modes(CFG)
        assert len(modes) == 114
        assert len(modes) == brute_force_mode_count(CFG)

    def test_massless_excludes_zero_mode(self):
        modes = momentum_modes(CFG_MASSLESS)
        assert all(m.n_vec != (0, 0, 0) for m in modes)
        assert len(modes) == brute_force_mode_count(CFG_MASSLESS)

    def test_cutoff_below_mass_is_empty(self):
        with pytest.raises(EmptyCutoff):
            momentum_modes(DiracBoxConfig(L=math.pi, eps=2.0, m=1.0))

    def test_deterministic_ordering(self):
        modes = momentum_modes(CFG)
        keys = [(sum(c * c for c in m.n_vec),) + m.n_vec + (m.a,)
                for m in modes]
        assert keys == sorted(keys)

    def test_count_monotone_in_cutoff(self):
        counts = []
        for inv_eps in (1.2, 1.5, 2.0, 2.5, 3.0):
            counts.append(len(momentum_modes(
                DiracBoxConfig(L=math.pi, eps=1.0 / inv_eps, m=1.0))))
        assert counts == sorted(counts)

    def test_asymptotic_density(self):
        ratios = []
        for ratio_le in (8.0, 12.0):
            cfg = DiracBoxConfig(L=math.pi, eps=math.pi / ratio_le, m=1.0)
            f = len(momentum_modes(cfg))
            predicted = 8.0 / (3.0 * math.pi ** 2) * ratio_le ** 3
            ratios.append(abs(f / predicted - 1.0))
        assert ratios[0] <= 0.25
        assert ratios[1] < ratios[0]


class TestChiSpinors:
    def test_rest_frame(self):
        rest = [m.n_vec for m in momentum_points(CFG)].index((0, 0, 0))
        chi = table_spinors(CFG)[rest]
        # spans the -1 eigenspace of gamma^0 and has spin norm -1
        np.testing.assert_allclose(GAMMA[0] @ chi, -chi, atol=1e-12)
        for a in range(2):
            val = np.vdot(chi[:, a], SPINOR_GRAM @ chi[:, a])
            np.testing.assert_allclose(val, -1.0, atol=1e-12)

    def test_pseudo_orthonormality_all_modes(self):
        for chi in table_spinors(CFG):
            gram = chi.conj().T @ SPINOR_GRAM @ chi
            np.testing.assert_allclose(gram, -np.eye(2), atol=1e-12)

    def test_momentum_space_dirac_equation(self):
        for mode, chi in zip(momentum_points(CFG)[:10], table_spinors(CFG)):
            residual = (slash(mode.four_momentum) - CFG.m * np.eye(4)) @ chi
            assert opnorm(residual) <= 1e-12

    def test_projector_identity(self):
        for mode, chi in zip(momentum_points(CFG)[:10], table_spinors(CFG)):
            projector = -sum(np.outer(chi[:, a], (SPINOR_GRAM @ chi[:, a]).conj())
                             for a in range(2))
            expected = (slash(mode.four_momentum) + CFG.m * np.eye(4)) / (2 * CFG.m)
            np.testing.assert_allclose(projector, expected, atol=1e-12)



class TestSeaSpinors:
    def test_orthonormal_and_solve_dirac(self):
        for cfg in (CFG, CFG_MASSLESS):
            _, k, omega = _lattice(cfg)
            sea = _sea_spinor_table(k[:8], omega[:8], cfg.m)
            for mode, chi in zip(momentum_points(cfg), sea):
                np.testing.assert_allclose(chi.conj().T @ chi, np.eye(2),
                                           atol=1e-12)
                residual = (slash(mode.four_momentum)
                            - cfg.m * np.eye(4)) @ chi
                assert opnorm(residual) <= 1e-10


class TestTinyMass:
    # m = 1e-16: the spin norm -m / omega of the sea spinors rounds to zero
    CFG_TINY = DiracBoxConfig(L=3.14159, eps=0.4, m=1e-16)
    X = SpacetimePoint(t=0.1, x_vec=(0.2, -0.3, 0.4))
    Y = SpacetimePoint(t=-0.3, x_vec=(1.0, 0.5, -2.0))

    def test_wave_values_finite(self):
        waves = wave_value_matrix(self.CFG_TINY, self.X)
        assert waves.shape == (4, 162) and np.all(np.isfinite(waves))

    def test_point_is_regular(self):
        x = build_correlation_map(self.CFG_TINY, [self.X])[0]
        assert spin_space(x, 2).basis.shape == (162, 4)

    def test_braket_matches_mode_sum(self):
        assert opnorm(kernel_braket_sum(self.CFG_TINY, self.X, self.Y)
                      - kernel_mode_sum(self.CFG_TINY, self.X, self.Y)) <= 1e-10


class TestPlaneWaves:
    def test_spatial_periodicity(self):
        p1 = SpacetimePoint(t=0.3, x_vec=(0.2, -0.4, 1.0))
        p2 = SpacetimePoint(t=0.3, x_vec=(0.2 + 2 * CFG.L, -0.4, 1.0))
        np.testing.assert_allclose(wave_value_matrix(CFG, p1)[:, 7],
                                   wave_value_matrix(CFG, p2)[:, 7],
                                   atol=1e-12)

    def test_phase_evolution(self):
        mode = momentum_modes(CFG)[5]
        x = (0.1, 0.2, 0.3)
        t = 0.7
        at_zero = wave_value_matrix(CFG, SpacetimePoint(t=0.0, x_vec=x))[:, 5]
        at_t = wave_value_matrix(CFG, SpacetimePoint(t=t, x_vec=x))[:, 5]
        np.testing.assert_allclose(at_t, np.exp(1j * mode.omega * t) * at_zero,
                                   atol=1e-12)

    def test_orthonormality_closed_form(self):
        # the box integral of psi_i^dag psi_j vanishes across momenta and
        # leaves 2 pi (2L)^3 S_n^dag S_n on the spinor block S_n of a momentum
        cfg = CFG_SMALL
        spin = _sea_table(cfg)[3]
        volume = (2.0 * cfg.L) ** 3
        for i in range(len(momentum_points(cfg))):
            block = spin[:, 2 * i:2 * i + 2]
            overlap = 2.0 * math.pi * volume * (block.conj().T @ block)
            assert np.max(np.abs(overlap - np.eye(2))) <= 1e-10

    def test_orthonormality_riemann_quadrature(self):
        # uniform spatial grid sums trig polynomials exactly below Nyquist
        cfg = CFG_SMALL
        modes = momentum_modes(cfg)
        max_index = max(abs(c) for m in modes for c in m.n_vec)
        n_grid = 2 * (2 * max_index) + 1
        axis = -cfg.L + 2 * cfg.L * np.arange(n_grid) / n_grid
        t = 0.37
        spin = _sea_table(cfg)[3]
        values = []
        for mode, at_origin in zip(modes, spin.T):
            kx = np.exp(1j * mode.k_vec[0] * axis)
            ky = np.exp(1j * mode.k_vec[1] * axis)
            kz = np.exp(1j * mode.k_vec[2] * axis)
            phase = (np.exp(1j * mode.omega * t)
                     * kx[:, None, None] * ky[None, :, None] * kz[None, None, :])
            vals = phase[..., None] * at_origin[None, None, None, :]
            values.append(vals)
        weight = (2 * cfg.L / n_grid) ** 3
        for i in (0, 3, 7):
            for j in (0, 1, 7, 11):
                integrand = np.sum(values[i].conj() * values[j], axis=-1)
                numeric = 2 * math.pi * weight * integrand.sum()
                expected = 1.0 if i == j else 0.0
                assert abs(numeric - expected) <= 1e-10


class TestCorrelationMap:
    def test_regular_rank_four(self):
        points = [SpacetimePoint(t=0.0, x_vec=(0.0, 0.0, 0.0)),
                  SpacetimePoint(t=0.4, x_vec=(0.5, -0.3, 0.2)),
                  SpacetimePoint(t=-1.0, x_vec=(2.0, 1.0, -2.5))]
        for ops in (build_correlation_map(CFG_SMALL, points),
                    build_correlation_map(CFG_MASSLESS, points)):
            for x in ops:
                sp = spin_space(x, 2)   # raises NotRegular on failure
                assert sp.basis.shape[1] == 4

    def test_translation_invariant_spectra(self):
        points = [SpacetimePoint(t=0.0, x_vec=(0.0, 0.0, 0.0)),
                  SpacetimePoint(t=1.3, x_vec=(-0.7, 0.1, 0.9))]
        ops = build_correlation_map(CFG_SMALL, points)
        spectra = [np.sort(np.linalg.eigvalsh(x))[[0, 1, -2, -1]] for x in ops]
        np.testing.assert_allclose(spectra[0], spectra[1], atol=1e-12)

    def test_dense_operator_too_large(self):
        # f = 16432 would take 4.3 GB per operator
        cfg = DiracBoxConfig(L=math.pi, eps=0.08, m=0.0)
        assert 16 * 968 ** 2 <= MAX_DENSE_BYTES < 16 * 16432 ** 2
        cached = _sea_table.cache_info().currsize
        start = time.perf_counter()
        with pytest.raises(TooManyModes, match="f = 16432"):
            build_correlation_map(cfg, [SpacetimePoint(t=0.0, x_vec=(0, 0, 0))])
        assert time.perf_counter() - start < 1.0
        assert _sea_table.cache_info().currsize == cached

    def test_too_few_modes(self):
        # a single lattice momentum gives f = 2 < 4
        cfg = DiracBoxConfig(L=math.pi, eps=1.0 / 1.05, m=1.0)
        assert len(momentum_modes(cfg)) == 2
        with pytest.raises(TooFewModes):
            build_correlation_map(cfg, [SpacetimePoint(t=0.0, x_vec=(0, 0, 0))])

    def test_matches_local_correlation_of_wave_values(self):
        point = SpacetimePoint(t=0.2, x_vec=(0.3, 0.1, -0.2))
        x = build_correlation_map(CFG_SMALL, [point])[0]
        w = wave_value_matrix(CFG_SMALL, point)
        np.testing.assert_allclose(x, -(w.conj().T @ SPINOR_GRAM @ w),
                                   atol=1e-14)


class TestKernelModeSum:
    def test_two_routes_agree_massive(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = SpacetimePoint(t=rng.uniform(-1, 1),
                               x_vec=tuple(rng.uniform(-math.pi, math.pi, 3)))
            y = SpacetimePoint(t=rng.uniform(-1, 1),
                               x_vec=tuple(rng.uniform(-math.pi, math.pi, 3)))
            assert opnorm(kernel_mode_sum(CFG, x, y)
                          - kernel_braket_sum(CFG, x, y)) <= 1e-10

    def test_two_routes_agree_massless(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = SpacetimePoint(t=rng.uniform(-1, 1),
                               x_vec=tuple(rng.uniform(-math.pi, math.pi, 3)))
            y = SpacetimePoint(t=rng.uniform(-1, 1),
                               x_vec=tuple(rng.uniform(-math.pi, math.pi, 3)))
            assert opnorm(kernel_mode_sum(CFG_MASSLESS, x, y)
                          - kernel_braket_sum(CFG_MASSLESS, x, y)) <= 1e-10

    def test_massless_diagonal_value(self):
        x = SpacetimePoint(t=0.8, x_vec=(0.1, -2.0, 0.5))
        n_points = len(momentum_points(CFG_MASSLESS))
        expected = -n_points / (32.0 * math.pi * CFG_MASSLESS.L ** 3) * GAMMA[0]
        np.testing.assert_allclose(kernel_mode_sum(CFG_MASSLESS, x, x),
                                   expected, atol=1e-10)

    def test_reverse_kernel_is_spinor_adjoint(self):
        x = SpacetimePoint(t=0.1, x_vec=(0.4, 0.2, -0.3))
        y = SpacetimePoint(t=-0.2, x_vec=(0.9, -0.1, 0.0))
        p_xy = kernel_mode_sum(CFG, x, y)
        p_yx = kernel_mode_sum(CFG, y, x)
        np.testing.assert_allclose(p_yx,
                                   GAMMA[0] @ p_xy.conj().T @ GAMMA[0],
                                   atol=1e-12)

    def test_spatial_periodicity(self):
        x = SpacetimePoint(t=0.1, x_vec=(0.4, 0.2, -0.3))
        y1 = SpacetimePoint(t=-0.2, x_vec=(0.9, -0.1, 0.0))
        y2 = SpacetimePoint(t=-0.2, x_vec=(0.9 - 2 * CFG.L, -0.1, 2 * CFG.L))
        np.testing.assert_allclose(kernel_mode_sum(CFG, x, y1),
                                   kernel_mode_sum(CFG, x, y2), atol=1e-12)


class TestSpinSpinorIdentification:
    def test_abstract_kernel_matches_mode_sum(self):
        # the evaluation map aligns the abstract two-point kernel with the
        # explicit mode sum: P_spinor(x, y) = E_x P_abstract(x, y) E_y^{-1}
        cfg = CFG_SMALL
        x = SpacetimePoint(t=0.0, x_vec=(0.2, -0.1, 0.4))
        y = SpacetimePoint(t=0.3, x_vec=(-0.5, 0.3, 0.1))
        ops = build_correlation_map(cfg, [x, y])
        sp_x = spin_space(ops[0], 2)
        sp_y = spin_space(ops[1], 2)
        e_x = wave_value_matrix(cfg, x) @ sp_x.basis
        e_y = wave_value_matrix(cfg, y) @ sp_y.basis
        # Krein isometry: pulls the spinor product back to the spin product
        np.testing.assert_allclose(e_x.conj().T @ SPINOR_GRAM @ e_x,
                                   sp_x.krein.gram, atol=1e-10)
        abstract = kernel(sp_x, sp_y)
        aligned = e_x @ abstract @ np.linalg.inv(e_y)
        assert opnorm(aligned - kernel_mode_sum(cfg, x, y)) <= 1e-8


# f = 160 and f = 162 (the zero mode joins once m > 0)
PARITY_CONFIGS = (DiracBoxConfig(L=math.pi, eps=0.4, m=0.0),
                  DiracBoxConfig(L=math.pi, eps=0.4, m=0.3))
PARITY_POINTS = (SpacetimePoint(t=0.0, x_vec=(0.0, 0.0, 0.0)),
                 SpacetimePoint(t=0.37, x_vec=(0.5, -1.2, 2.9)),
                 SpacetimePoint(t=-1.4, x_vec=(-3.0, 0.25, -0.6)))


def reference_modes(cfg):
    """(n, k, omega, a) per mode from a per-momentum triple loop."""
    step = math.pi / cfg.L
    cutoff_sq = 1.0 / cfg.eps ** 2 - cfg.m ** 2
    nmax = int(math.floor(math.sqrt(cutoff_sq) / step))
    entries = []
    for n in itertools.product(range(-nmax, nmax + 1), repeat=3):
        n_sq = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
        if (cfg.m == 0.0 and n_sq == 0) or (step * step) * n_sq >= cutoff_sq:
            continue
        entries.append((n_sq, n))
    entries.sort()
    return [(n, tuple(step * c for c in n),
             math.sqrt((step * step) * n_sq + cfg.m ** 2), a)
            for n_sq, n in entries for a in (1, 2)]


def reference_spinors(k_vec, omega, m):
    """Normalized sea spinors of one momentum, solved on their own (4 x 2)."""
    hamiltonian = GAMMA[0] @ (k_vec[0] * GAMMA[1] + k_vec[1] * GAMMA[2]
                              + k_vec[2] * GAMMA[3]) + m * GAMMA[0]
    vals, vecs = np.linalg.eigh(0.5 * (hamiltonian + hamiltonian.conj().T))
    np.testing.assert_allclose(vals[:2], -omega, atol=1e-12)
    columns = []
    for col in vecs[:, :2].T:
        pivot = col[np.argmax(np.abs(col))]
        columns.append(col * abs(pivot) / pivot)
    return np.column_stack(columns)


def reference_scale(cfg):
    return 1.0 / math.sqrt(2.0 * math.pi * (2.0 * cfg.L) ** 3)


def reference_waves(cfg, point):
    """Wave values mode by mode, one spinor solve and phase per mode."""
    columns = []
    for n, k, omega, a in reference_modes(cfg):
        kx = -omega * point.t - sum(kc * xc for kc, xc in zip(k, point.x_vec))
        spinor = reference_spinors(k, omega, cfg.m)[:, a - 1]
        columns.append(np.exp(-1j * kx) * reference_scale(cfg) * spinor)
    return np.column_stack(columns)


def reference_kernel(cfg, x, y):
    """The mode sum as one 4 x 4 term per momentum."""
    total = np.zeros((4, 4), dtype=complex)
    for n, k, omega, a in reference_modes(cfg)[::2]:
        kx = (-omega * (x.t - y.t)
              - sum(kc * (xc - yc) for kc, xc, yc in zip(k, x.x_vec, y.x_vec)))
        total += (np.exp(-1j * kx) / (4.0 * math.pi * omega)
                  * (slash((-omega,) + k) + cfg.m * np.eye(4)))
    return total / (2.0 * cfg.L) ** 3


def relative_error(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("cfg", PARITY_CONFIGS, ids=("m0", "m0.3"))
class TestSeaTableParity:
    """The per-config sea table against per-mode loops written out here."""

    def test_modes_match_triple_loop(self, cfg):
        modes = momentum_modes(cfg)
        assert [(m.n_vec, m.k_vec, m.omega, m.a) for m in modes] \
            == reference_modes(cfg)
        assert mode_count(cfg) == len(modes) == (160 if cfg.m == 0 else 162)
        assert momentum_points(cfg) == [m for m in modes if m.a == 1]

    def test_table_spinors_match_per_mode_spinors(self, cfg):
        spin = _sea_table(cfg)[3]
        for i, mode in enumerate(momentum_points(cfg)):
            reference = reference_spinors(mode.k_vec, mode.omega, cfg.m)
            np.testing.assert_allclose(
                spin[:, 2 * i:2 * i + 2], reference_scale(cfg) * reference,
                rtol=0, atol=1e-14 * reference_scale(cfg))

    def test_wave_values_match_per_mode_loop(self, cfg):
        for point in PARITY_POINTS:
            assert relative_error(wave_value_matrix(cfg, point),
                                  reference_waves(cfg, point)) <= 1e-14

    def test_mode_sum_matches_per_mode_loop(self, cfg):
        for x in PARITY_POINTS:
            for y in PARITY_POINTS:
                assert relative_error(kernel_mode_sum(cfg, x, y),
                                      reference_kernel(cfg, x, y)) <= 1e-14


class TestSeaTableCache:
    def test_second_config_use_solves_no_spinor(self, decompositions):
        cfg = PARITY_CONFIGS[0]
        _sea_table.cache_clear()
        wave_value_matrix(cfg, PARITY_POINTS[1])
        assert decompositions == [(4, 4)]   # one batched eigh, 4 x 4 each
        decompositions.clear()
        wave_value_matrix(cfg, PARITY_POINTS[2])
        kernel_mode_sum(cfg, PARITY_POINTS[1], PARITY_POINTS[2])
        build_correlation_map(cfg, PARITY_POINTS[:1])
        momentum_modes(cfg)
        assert decompositions == []

    def test_mode_count_solves_no_spinor(self):
        # counting modes reads the lattice alone, at any m
        cfg = DiracBoxConfig(L=3.14159, eps=0.4, m=1e-16)
        _sea_table.cache_clear()
        assert mode_count(cfg) == len(momentum_modes(cfg)) == 162
        assert _sea_table.cache_info().currsize == 0

    def test_cached_arrays_are_read_only(self):
        table = _sea_table(PARITY_CONFIGS[1])
        for array in table:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            table[3][0, 0] = 0.0
        # callers get fresh arrays they may change
        waves = wave_value_matrix(PARITY_CONFIGS[1], PARITY_POINTS[0])
        waves[0, 0] = 0.0


class TestModeBound:
    @pytest.mark.parametrize("eps", (0.002, 1e-200))
    def test_large_lattice_rejected_before_enumeration(self, eps):
        with pytest.raises(TooManyModes):
            DiracBoxConfig(L=3.14, eps=eps, m=0.0)

    def test_bound_counts_the_lattice_cube(self):
        # nmax = 39 gives 2 * 79^3 <= MAX_MODES < 2 * 81^3 (nmax = 40)
        assert 2 * 79 ** 3 <= MAX_MODES < 2 * 81 ** 3
        DiracBoxConfig(L=math.pi, eps=1.0 / 39.5, m=0.0)
        with pytest.raises(TooManyModes):
            DiracBoxConfig(L=math.pi, eps=1.0 / 40.5, m=0.0)

    def test_largest_sweep_point_allowed(self):
        assert mode_count(DiracBoxConfig(L=math.pi, eps=0.08, m=0.0)) == 16432

    def test_smallest_mass_keeps_the_zero_mode_finite(self):
        # m^2 is still a normal float, so omega = m and 1 / omega are exact
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=MIN_MASS)
        assert mode_count(cfg) == 162
        k = kernel_mode_sum(cfg, cfg.point(0.3, (0.1, 0.2, -0.4)),
                            cfg.point(0.0, (0.0, 0.0, 0.0)))
        assert np.all(np.isfinite(k))
        with pytest.raises(ValueError, match="MIN_MASS"):
            DiracBoxConfig(L=math.pi, eps=0.4, m=0.5 * MIN_MASS)

    @pytest.mark.filterwarnings("error")
    def test_smallest_length_keeps_the_zero_mode(self):
        # (pi / L)^2 is still finite, so the zero mode's |k|^2 is 0, not nan
        for L in (MIN_LENGTH, 1e-100):
            assert mode_count(DiracBoxConfig(L=L, eps=0.4, m=0.5)) == 2
        for L in (0.5 * MIN_LENGTH, 1e-200):
            with pytest.raises(ValueError, match="MIN_LENGTH"):
                DiracBoxConfig(L=L, eps=0.4, m=0.5)

    def test_box_volume_must_be_finite(self):
        with pytest.raises(ValueError, match="MAX_L"):
            DiracBoxConfig(L=1e103, eps=1e102, m=0.0)
        assert mode_count(DiracBoxConfig(L=MAX_L, eps=MAX_L / 10.0, m=0.0)) > 0
