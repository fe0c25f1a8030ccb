"""Wave charts, the realization map, gauge orbits and gauge construction."""

import math

import numpy as np
import pytest
from conftest import random_krein_unitary

from cfsgauge import correlation, wave_charts
from cfsgauge.correlation import spin_space, split_by_image
from cfsgauge.dirac_box import DiracBoxConfig, build_correlation_map
from cfsgauge.errors import NotInvertible, OutOfChartDomain
from cfsgauge.krein import opnorm
from cfsgauge.manifold import ChartCoordinates, chart_forward, chart_inverse
from cfsgauge.randoms import (random_chart_coords, random_complement_map,
                              random_complex, random_correlation)
from cfsgauge.wave_charts import (WaveChartPoint, build_gauge,
                                  charts_coincide_check,
                                  condition_residual_bound, connecting_unitary,
                                  gauge_orbit_witness, gaussian_wave_map,
                                  realize, symmetric_wave_chart, symmetrize)


def perturbed_point(rng, base, scale=0.1):
    """A wave-chart point near (1, 0)."""
    two_n = base.rank
    return WaveChartPoint(
        on_image=np.eye(two_n) + scale * random_complex(rng, two_n, two_n),
        on_complement=random_complement_map(rng, base, two_n, scale=scale),
        base=base,
    )


def nearby_operator(rng, base, scale=0.05):
    return chart_forward(random_chart_coords(rng, base, scale=scale))


class TestRealize:
    def test_identity_point_realizes_base(self):
        rng = np.random.default_rng(0)
        x = random_correlation(rng, 8, 2)
        base = spin_space(x, 2)
        # the wave coordinates (1, 0) of the base point are its evaluation
        identity = WaveChartPoint.from_full(base.basis.conj().T, base)
        np.testing.assert_allclose(realize(identity), x, atol=1e-12)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(1)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(200):
            psi = perturbed_point(rng, base)
            u = random_krein_unitary(rng, base.krein, scale=0.3)
            rotated = WaveChartPoint(on_image=u @ psi.on_image,
                                     on_complement=u @ psi.on_complement,
                                     base=base)
            assert opnorm(realize(rotated) - realize(psi)) <= 1e-9

    def test_signature_of_realization(self):
        rng = np.random.default_rng(2)
        base = spin_space(random_correlation(rng, 9, 2), 2)
        for _ in range(20):
            y = realize(perturbed_point(rng, base, scale=0.05))
            vals = np.linalg.eigvalsh(y)
            tol = 1e-8 * opnorm(y)
            assert int(np.sum(vals > tol)) == 2
            assert int(np.sum(vals < -tol)) == 2

    def test_from_full_round_trip(self):
        rng = np.random.default_rng(25)
        base = spin_space(random_correlation(rng, 9, 2), 2)
        full = random_complex(rng, 4, 9)
        point = WaveChartPoint.from_full(full, base)
        np.testing.assert_allclose(point.full_matrix(), full, rtol=0,
                                   atol=1e-14)
        # the rest of the map vanishes on the image of the base
        np.testing.assert_allclose(point.on_complement @ base.basis,
                                   np.zeros((4, 4)), rtol=0, atol=1e-14)


class TestGaugeOrbitWitness:
    def test_same_point_gives_identity(self):
        rng = np.random.default_rng(3)
        base = spin_space(random_correlation(rng, 7, 1), 1)
        psi = perturbed_point(rng, base)
        u = gauge_orbit_witness(psi, psi)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-10)

    def test_recovers_rotation(self):
        rng = np.random.default_rng(4)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(25):
            psi = perturbed_point(rng, base)
            u0 = random_krein_unitary(rng, base.krein, scale=0.2)
            rotated = WaveChartPoint(on_image=u0 @ psi.on_image,
                                     on_complement=u0 @ psi.on_complement,
                                     base=base)
            u = gauge_orbit_witness(psi, rotated)
            assert u is not None
            assert opnorm(u - u0) <= 1e-9

    def test_different_realization_not_on_orbit(self):
        rng = np.random.default_rng(5)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        psi = perturbed_point(rng, base)
        other = perturbed_point(rng, base)
        assert gauge_orbit_witness(psi, other) is None

    def test_singular_on_image_rejected(self):
        rng = np.random.default_rng(6)
        base = spin_space(random_correlation(rng, 6, 1), 1)
        psi = perturbed_point(rng, base)
        singular = WaveChartPoint(on_image=np.zeros((2, 2)),
                                  on_complement=psi.on_complement,
                                  base=base)
        with pytest.raises(NotInvertible):
            gauge_orbit_witness(singular, psi)


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        rng = np.random.default_rng(7)
        base = spin_space(random_correlation(rng, 7, 1), 1)
        psi = symmetrize(perturbed_point(rng, base))
        again = symmetrize(psi)
        assert opnorm(again.on_image - psi.on_image) <= 1e-9
        assert opnorm(again.on_complement - psi.on_complement) <= 1e-9

    def test_unitary_on_image_becomes_identity(self):
        rng = np.random.default_rng(8)
        base = spin_space(random_correlation(rng, 7, 1), 1)
        u0 = random_krein_unitary(rng, base.krein, scale=0.1)
        psi = WaveChartPoint(on_image=u0,
                             on_complement=random_complement_map(rng, base, 2,
                                                                 scale=0.1),
                             base=base)
        sym = symmetrize(psi)
        assert opnorm(sym.on_image - np.eye(2)) <= 1e-9

    def test_realization_preserved_and_symmetric(self):
        rng = np.random.default_rng(9)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(50):
            psi = perturbed_point(rng, base, scale=0.04)
            sym = symmetrize(psi)
            assert opnorm(realize(sym) - realize(psi)) <= 1e-9
            assert opnorm(sym.on_image
                          - base.krein.adjoint(sym.on_image)) <= 1e-9


class TestSymmetricWaveChart:
    def test_base_point_gives_identity_coordinates(self):
        rng = np.random.default_rng(10)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        phi = symmetric_wave_chart(base.operator, base)
        assert opnorm(phi.on_image - np.eye(4)) <= 1e-9
        assert opnorm(phi.on_complement) <= 1e-9

    def test_realization_and_symmetry(self):
        rng = np.random.default_rng(11)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(50):
            y = nearby_operator(rng, base)
            phi = symmetric_wave_chart(y, base)
            assert opnorm(realize(phi) - y) <= 1e-9
            assert opnorm(phi.on_image
                          - base.krein.adjoint(phi.on_image)) <= 1e-9

    def test_connecting_unitary_is_unitary_across_spaces(self):
        rng = np.random.default_rng(12)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        y = nearby_operator(rng, base)
        sp_y = spin_space(y, 2)
        u = connecting_unitary(base, sp_y)
        # adjoint across the two spin products: S_x -> S_y
        u_star = np.linalg.solve(sp_y.krein.gram, u.conj().T @ base.krein.gram)
        assert opnorm(u @ u_star - np.eye(4)) <= 1e-9
        assert opnorm(u_star @ u - np.eye(4)) <= 1e-9

    def test_chart_inverts_realization_on_symmetric_points(self):
        rng = np.random.default_rng(13)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(20):
            sym = symmetrize(perturbed_point(rng, base, scale=0.05))
            phi = symmetric_wave_chart(realize(sym), base)
            assert opnorm(phi.on_image - sym.on_image) <= 1e-8
            assert opnorm(phi.on_complement - sym.on_complement) <= 1e-8

    def test_far_point_rejected(self):
        base = spin_space(np.diag([1.0, -1.0, 0, 0, 0, 0]).astype(complex), 1)
        far = np.diag([0.0, 0.0, 0.0, 0.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(OutOfChartDomain):
            symmetric_wave_chart(far, base)


class TestGaussianWaveMap:
    def test_origin(self):
        rng = np.random.default_rng(14)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        coords = ChartCoordinates(a=np.zeros((4, 4)), b=np.zeros((4, 8)),
                                  split=base)
        point = gaussian_wave_map(coords, base)
        assert opnorm(point.on_image - np.eye(4)) <= 1e-12
        assert opnorm(point.on_complement) <= 1e-12

    def test_scalar_direction(self):
        rng = np.random.default_rng(15)
        base = spin_space(random_correlation(rng, 6, 1), 1)
        eps = 0.21
        coords = ChartCoordinates(a=eps * base.restricted,
                                  b=np.zeros((2, 6)), split=base)
        point = gaussian_wave_map(coords, base)
        np.testing.assert_allclose(point.on_image, 1.1 * np.eye(2), atol=1e-10)

    def test_realizes_chart_forward(self):
        rng = np.random.default_rng(16)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(50):
            coords = random_chart_coords(rng, base, scale=0.05)
            point = gaussian_wave_map(coords, base)
            assert opnorm(chart_forward(coords) - realize(point)) <= 1e-9
            assert opnorm(point.on_image
                          - base.krein.adjoint(point.on_image)) <= 1e-9


class TestCoincidence:
    def test_base_point_deviation_zero(self):
        rng = np.random.default_rng(17)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        report = charts_coincide_check(base, [base.operator])
        assert report.max_deviation <= 1e-10

    @pytest.mark.parametrize("f", [8, 12])
    def test_random_samples(self, f):
        rng = np.random.default_rng(18 + f)
        x = random_correlation(rng, f, 2)
        base = spin_space(x, 2)
        samples = []
        while len(samples) < 25:
            y = nearby_operator(rng, base, scale=0.04)
            if opnorm(y - x) <= 0.1 * opnorm(x):
                samples.append(y)
        report = charts_coincide_check(base, samples)
        assert report.max_deviation <= 1e-8

    def test_domain_edge_reported(self):
        # larger coordinates: still either coincide or raise a domain error
        rng = np.random.default_rng(19)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        stressed = 0
        for _ in range(10):
            y = nearby_operator(rng, base, scale=0.12)
            try:
                report = charts_coincide_check(base, [y])
            except OutOfChartDomain:
                continue
            stressed += 1
            assert report.max_deviation <= 1e-6
        assert stressed > 0


class TestBuildGauge:
    def test_single_point_identity(self):
        rng = np.random.default_rng(20)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        gauge = build_gauge(base, [base.operator])
        np.testing.assert_allclose(gauge.values[0],
                                   base.basis.conj().T, atol=1e-9)

    def test_gauge_condition_residuals(self):
        rng = np.random.default_rng(21)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        points = [nearby_operator(rng, base) for _ in range(10)]
        gauge = build_gauge(base, points)
        assert max(gauge.condition_residuals) <= 1e-9

    def test_global_unitary_freedom(self):
        rng = np.random.default_rng(22)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        points = [nearby_operator(rng, base) for _ in range(8)]
        u_one = random_krein_unitary(rng, base.krein, scale=0.2)
        u_two = random_krein_unitary(rng, base.krein, scale=0.2)
        gauge = build_gauge(base, points)
        # a Krein unitary applied to the gauge keeps the gauge condition
        for y, value in zip(points, gauge.values):
            for u in (u_one, u_two):
                assert condition_residual_bound(spin_space(y, 2), u @ value,
                                                base.krein.gram) <= 1e-9
        # the two gauges differ by one constant unitary at every point
        connectors = [(u_one @ v) @ np.linalg.pinv(u_two @ v)
                      for v in gauge.values]
        expected = u_one @ base.krein.adjoint(u_two)
        for c in connectors:
            assert opnorm(c - expected) <= 1e-9
        assert max(opnorm(c - connectors[0]) for c in connectors) <= 1e-9

    def test_left_multiplied_unitary_changes_values_not_realization(self):
        rng = np.random.default_rng(23)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        points = [nearby_operator(rng, base) for _ in range(5)]
        u_x = random_krein_unitary(rng, base.krein, scale=0.2)
        g = random_krein_unitary(rng, base.krein, scale=0.2)
        gauge = build_gauge(base, points)
        factor = u_x @ g @ base.krein.adjoint(u_x)
        for y, value in zip(points, gauge.values):
            v1, v2 = u_x @ value, u_x @ g @ value
            assert opnorm(v2 - factor @ v1) <= 1e-9
            assert condition_residual_bound(spin_space(y, 2), v2,
                                            base.krein.gram) <= 1e-9


class TestBoxGauge:
    """The gauge over box points at f = 160, with no dense work per point."""

    @pytest.fixture(scope="class")
    def box(self):
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.1, (0.1, -0.05, 0.0)),
                  cfg.point(-0.05, (0.0, 0.12, 0.08))]
        operators = build_correlation_map(cfg, points)
        return spin_space(operators[0], 2), operators[1:]

    def test_no_dense_decomposition_per_point(self, box, decompositions):
        base, ys = box
        decompositions.clear()
        gauge = build_gauge(base, ys)
        report = charts_coincide_check(base, ys)
        assert decompositions
        # every eigh / svd input is at most (2 rank) wide: no f x f work
        assert max(min(shape) for shape in decompositions) <= 8
        assert max(gauge.condition_residuals) <= 1e-9
        assert report.max_deviation <= 1e-8

    def test_no_complement_basis(self, box, monkeypatch):
        base, ys = box
        f, r = base.basis.shape
        factorized = []
        original_qr = np.linalg.qr

        def recorded(a, mode="reduced"):
            result = original_qr(a, mode=mode)
            factorized.append((mode, result[0].shape))
            return result

        monkeypatch.setattr(np.linalg, "qr", recorded)
        gauge = build_gauge(base, ys)
        charts_coincide_check(base, ys)
        assert factorized
        for mode, shape in factorized:
            assert mode != "complete"
            assert shape[-1] not in (f - r, f)
        assert max(gauge.condition_residuals) <= 1e-9

    def test_each_point_split_once(self, box, monkeypatch):
        base, ys = box
        calls = []

        def counted(x, p, q):
            calls.append(x.shape)
            return split_by_image(x, p, q)

        monkeypatch.setattr(correlation, "split_by_image", counted)
        f = base.basis.shape[0]
        # all points in one stacked split
        build_gauge(base, ys)
        assert calls == [(len(ys), f, f)]
        calls.clear()
        charts_coincide_check(base, ys)
        assert calls == [(len(ys), f, f)]

    def test_coincidence_inverts_each_chart_once(self, box, monkeypatch):
        base, ys = box
        calls = []

        def counted(y, base_split):
            calls.append(y)
            return chart_inverse(y, base_split)

        monkeypatch.setattr(wave_charts, "chart_inverse", counted)
        charts_coincide_check(base, ys)
        # one stacked inversion of the stacked split of all points
        assert len(calls) == 1
        assert calls[0].basis.shape[0] == len(ys)

    def test_residual_bound_covers_dense_norm(self, box):
        base, ys = box
        gauge = build_gauge(base, ys)
        for y, value, bound in zip(ys, gauge.values,
                                   gauge.condition_residuals):
            dense = opnorm(y + value.conj().T @ gauge.base.krein.gram @ value)
            assert dense <= bound * (1.0 + 1e-12)


class TestConditionResidualBound:
    def test_bounds_dense_norm(self):
        # y carries a small full-rank part that the split discards, so the
        # residual has components outside the span of basis_y and value^dag
        rng = np.random.default_rng(30)
        for f in (6, 9, 12):
            for _ in range(20):
                x = random_correlation(rng, f, 2)
                base = spin_space(x, 2)
                h = random_complex(rng, f, f)
                y = x + 1e-10 * opnorm(x) * (h + h.conj().T) / opnorm(h)
                split_y = split_by_image(y, 2, 2)
                for value in (symmetric_wave_chart(split_y, base).full_matrix(),
                              random_complex(rng, 4, f)):
                    dense = opnorm(y + value.conj().T @ base.krein.gram @ value)
                    bound = condition_residual_bound(split_y, value,
                                                     base.krein.gram)
                    assert dense <= bound * (1.0 + 1e-12)

    def test_tight_when_residual_lies_in_the_span(self):
        rng = np.random.default_rng(31)
        base = spin_space(random_correlation(rng, 10, 2), 2)
        y = nearby_operator(rng, base)
        split_y = split_by_image(y, 2, 2)
        value = symmetric_wave_chart(split_y, base).full_matrix()
        h = random_complex(rng, 4, 4)
        shift = split_y.basis @ (h + h.conj().T) @ split_y.basis.conj().T
        shifted = split_by_image(y + shift, 2, 2)
        dense = opnorm(shifted.operator + value.conj().T @ base.krein.gram @ value)
        bound = condition_residual_bound(shifted, value, base.krein.gram)
        assert dense <= bound <= dense + 1e-12
