"""Wave charts, the realization map, gauge orbits and gauge construction."""

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (box_chart_coords, dense_correlation_map, dense_split,
                      diagonal_waves, random_krein_unitary, realize, render,
                      unstack)

from cfsgauge import cli, correlation, manifold, wave_charts
from cfsgauge.correlation import kernel, spin_space, split_wave_values
from cfsgauge.dirac_box import (DiracBoxConfig, build_correlation_map,
                                wave_value_matrix)
from cfsgauge.errors import NotInvertible, OutOfChartDomain
from cfsgauge.krein import _adjoint, opnorm
from cfsgauge.manifold import ChartCoordinates, chart_forward, chart_inverse
from cfsgauge.perturbation import perturbed_symmetric_gauge
from cfsgauge.randoms import (random_chart_coords, random_complement_map,
                              random_complex, random_correlation)
from cfsgauge.wave_charts import (build_gauge, charts_coincide_check,
                                  condition_residual_bound, connecting_unitary,
                                  gauge_orbit_witness, gaussian_wave_map,
                                  symmetric_wave_chart, symmetrize)


def perturbed_point(rng, base, scale=0.1):
    """A wave-chart point near V^dag: on-image part near 1."""
    two_n = base.rank
    on_image = np.eye(two_n) + scale * random_complex(rng, two_n, two_n)
    return (on_image @ _adjoint(base.basis)
            + random_complement_map(rng, base, two_n, scale=scale))


def symmetry_defect(psi, base):
    """||S - S*|| of the on-image part S = psi V."""
    s = psi @ base.basis
    return opnorm(s - base.krein.adjoint(s))


def nearby_operator(rng, base, scale=0.05):
    return chart_forward(random_chart_coords(rng, base, scale=scale))


class TestRealize:
    def test_identity_point_realizes_base(self):
        rng = np.random.default_rng(0)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        # the wave coordinates of the base point are its evaluation V^dag
        np.testing.assert_allclose(realize(_adjoint(base.basis), base),
                                   render(base), atol=1e-12)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(1)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(200):
            psi = perturbed_point(rng, base)
            u = random_krein_unitary(rng, base.krein, scale=0.3)
            assert opnorm(realize(u @ psi, base)
                          - realize(psi, base)) <= 1e-9

    def test_signature_of_realization(self):
        rng = np.random.default_rng(2)
        base = spin_space(random_correlation(rng, 9, 2), 2)
        for _ in range(20):
            y = realize(perturbed_point(rng, base, scale=0.05), base)
            vals = np.linalg.eigvalsh(y)
            tol = 1e-8 * opnorm(y)
            assert int(np.sum(vals > tol)) == 2
            assert int(np.sum(vals < -tol)) == 2

    def test_parts_round_trip(self):
        rng = np.random.default_rng(25)
        base = spin_space(random_correlation(rng, 9, 2), 2)
        on_image = random_complex(rng, 4, 4)
        rest = random_complement_map(rng, base, 4)
        psi = on_image @ _adjoint(base.basis) + rest
        # psi V reads the on-image part, and the rest vanishes on the image
        np.testing.assert_allclose(psi @ base.basis, on_image, rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(psi - on_image @ _adjoint(base.basis),
                                   rest, rtol=0, atol=1e-14)


class TestGaugeOrbitWitness:
    def test_same_point_gives_identity(self):
        rng = np.random.default_rng(3)
        base = spin_space(random_correlation(rng, 7, 1), 1)
        psi = perturbed_point(rng, base)
        u = gauge_orbit_witness(psi, psi, base)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-10)

    def test_recovers_rotation(self):
        rng = np.random.default_rng(4)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(25):
            psi = perturbed_point(rng, base)
            u0 = random_krein_unitary(rng, base.krein, scale=0.2)
            u = gauge_orbit_witness(psi, u0 @ psi, base)
            assert u is not None
            assert opnorm(u - u0) <= 1e-9

    def test_different_realization_not_on_orbit(self):
        rng = np.random.default_rng(5)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        psi = perturbed_point(rng, base)
        other = perturbed_point(rng, base)
        assert gauge_orbit_witness(psi, other, base) is None

    def test_singular_on_image_rejected(self):
        rng = np.random.default_rng(6)
        base = spin_space(random_correlation(rng, 6, 1), 1)
        psi = perturbed_point(rng, base)
        # psi V of the rest alone is rounding noise near 1e-17, not zero
        singular = psi - psi @ base.basis @ _adjoint(base.basis)
        with pytest.raises(NotInvertible):
            gauge_orbit_witness(singular, psi, base)

    def test_rank_deficient_on_image_rejected(self):
        rng = np.random.default_rng(6)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        psi = perturbed_point(rng, base)
        on_image = random_complex(rng, 4, 3) @ random_complex(rng, 3, 4)
        deficient = (on_image @ _adjoint(base.basis)
                     + random_complement_map(rng, base, 4))
        with pytest.raises(NotInvertible):
            gauge_orbit_witness(deficient, psi, base)

    @staticmethod
    def cayley_pair(rng, base):
        """A point around the base and its Cayley-rotated copy."""
        psi = ((np.eye(4) + 0.05 * random_complex(rng, 4, 4))
               @ _adjoint(base.basis)
               + random_complement_map(rng, base, 4, scale=0.05))
        m = 0.2 * random_complex(rng, 4, 4)
        half = 0.25 * (m - base.krein.adjoint(m))
        u0 = np.linalg.solve(np.eye(4) - half, np.eye(4) + half)
        return psi, u0 @ psi, u0

    def test_renders_no_dense_operator(self, decompositions):
        # one f x f complex array at f = 1024 takes 16.8 MB
        rng = np.random.default_rng(61)
        base = random_correlation(rng, 1024, 2)
        psi, rotated, u0 = self.cayley_pair(rng, base)
        decompositions.clear()
        tracemalloc.start()
        try:
            u = gauge_orbit_witness(psi, rotated, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert opnorm(u - u0) <= 1e-12
        assert decompositions
        assert max(max(shape) for shape in decompositions) <= 2 * 4

    def test_verdict_agrees_with_dense_realizations(self):
        rng = np.random.default_rng(62)
        verdicts = []
        for _ in range(10):
            base = random_correlation(rng, 8, 2)
            psi, rotated, _ = self.cayley_pair(rng, base)
            other, _, _ = self.cayley_pair(rng, base)
            for tilde in [other] + [
                    rotated + noise * random_complement_map(rng, base, 4)
                    for noise in (0.0, 1e-12, 1e-6)]:
                dense = opnorm(realize(psi, base) - realize(tilde, base))
                verdicts.append(dense <= wave_charts.ORBIT_TOL)
                assert (gauge_orbit_witness(psi, tilde, base) is not None) \
                    == verdicts[-1]
        assert sum(verdicts) == 20   # the exact and the 1e-12 rotations


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        rng = np.random.default_rng(7)
        base = spin_space(random_correlation(rng, 7, 1), 1)
        psi = symmetrize(perturbed_point(rng, base), base)
        again = symmetrize(psi, base)
        assert opnorm(again - psi) <= 1e-9

    def test_unitary_on_image_becomes_identity(self):
        rng = np.random.default_rng(8)
        base = spin_space(random_correlation(rng, 7, 1), 1)
        u0 = random_krein_unitary(rng, base.krein, scale=0.1)
        psi = u0 @ _adjoint(base.basis) + random_complement_map(rng, base, 2,
                                                                scale=0.1)
        sym = symmetrize(psi, base)
        assert opnorm(sym @ base.basis - np.eye(2)) <= 1e-9

    def test_realization_preserved_and_symmetric(self):
        rng = np.random.default_rng(9)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(50):
            psi = perturbed_point(rng, base, scale=0.04)
            sym = symmetrize(psi, base)
            assert opnorm(realize(sym, base) - realize(psi, base)) <= 1e-9
            assert symmetry_defect(sym, base) <= 1e-9


class TestSymmetricWaveChart:
    def test_base_point_gives_identity_coordinates(self):
        rng = np.random.default_rng(10)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        phi = symmetric_wave_chart(base, base)
        assert opnorm(phi @ base.basis - np.eye(4)) <= 1e-9
        assert opnorm(phi - _adjoint(base.basis)) <= 1e-9

    def test_realization_and_symmetry(self):
        rng = np.random.default_rng(11)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(50):
            y = nearby_operator(rng, base)
            phi = symmetric_wave_chart(y, base)
            assert opnorm(realize(phi, base) - render(y)) <= 1e-9
            assert symmetry_defect(phi, base) <= 1e-9

    def test_connecting_unitary_is_unitary_across_spaces(self):
        rng = np.random.default_rng(12)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        sp_y = spin_space(nearby_operator(rng, base), 2)
        u, _ = connecting_unitary(base.restricted, kernel(base, sp_y),
                                  kernel(sp_y, base), base.krein)
        # adjoint across the two spin products: S_x -> S_y
        u_star = np.linalg.solve(sp_y.krein.gram, u.conj().T @ base.krein.gram)
        assert opnorm(u @ u_star - np.eye(4)) <= 1e-9
        assert opnorm(u_star @ u - np.eye(4)) <= 1e-9

    def test_chart_inverts_realization_on_symmetric_points(self):
        rng = np.random.default_rng(13)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(20):
            sym = symmetrize(perturbed_point(rng, base, scale=0.05), base)
            # realize(sym) = -W^dag G W with W = sym, G = -X
            phi = symmetric_wave_chart(split_wave_values(
                sym, -base.restricted, 2, 2), base)
            assert opnorm(phi - sym) <= 1e-8

    def test_far_point_rejected(self):
        base = split_wave_values(*diagonal_waves([1.0, -1.0], 6), 1, 1)
        far = split_wave_values(*diagonal_waves([1.0, -1.0], 6, 4), 1, 1)
        with pytest.raises(OutOfChartDomain):
            symmetric_wave_chart(far, base)


class TestGaussianWaveMap:
    def test_origin(self):
        rng = np.random.default_rng(14)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        coords = ChartCoordinates(a=np.zeros((4, 4)), b=np.zeros((4, 8)),
                                  split=base)
        point = gaussian_wave_map(coords, base)
        assert opnorm(point @ base.basis - np.eye(4)) <= 1e-12
        assert opnorm(point - _adjoint(base.basis)) <= 1e-12

    def test_scalar_direction(self):
        rng = np.random.default_rng(15)
        base = spin_space(random_correlation(rng, 6, 1), 1)
        eps = 0.21
        coords = ChartCoordinates(a=eps * base.restricted,
                                  b=np.zeros((2, 6)), split=base)
        point = gaussian_wave_map(coords, base)
        np.testing.assert_allclose(point @ base.basis, 1.1 * np.eye(2),
                                   atol=1e-10)

    def test_realizes_chart_forward(self):
        rng = np.random.default_rng(16)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        for _ in range(50):
            coords = random_chart_coords(rng, base, scale=0.05)
            point = gaussian_wave_map(coords, base)
            assert opnorm(render(chart_forward(coords))
                          - realize(point, base)) <= 1e-9
            assert symmetry_defect(point, base) <= 1e-9


class TestCoincidence:
    def test_base_point_deviation_zero(self):
        rng = np.random.default_rng(17)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        report = charts_coincide_check(base, [base])
        assert report.max_deviation <= 1e-10

    @pytest.mark.parametrize("f", [8, 12])
    def test_random_samples(self, f):
        rng = np.random.default_rng(18 + f)
        base = spin_space(random_correlation(rng, f, 2), 2)
        x = render(base)
        samples = []
        while len(samples) < 25:
            y = nearby_operator(rng, base, scale=0.04)
            if opnorm(render(y) - x) <= 0.1 * opnorm(x):
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
        gauge = build_gauge(base, [base])
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
        """The base split, the dense F of the other points and their splits."""
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.1, (0.1, -0.05, 0.0)),
                  cfg.point(-0.05, (0.0, 0.12, 0.08))]
        splits = build_correlation_map(cfg, points)
        return (splits[0], dense_correlation_map(cfg, points[1:]),
                splits[1:])

    def test_no_dense_decomposition_per_point(self, box, decompositions):
        base, _, ys = box
        decompositions.clear()
        gauge = build_gauge(base, ys)
        report = charts_coincide_check(base, ys)
        assert decompositions
        # every eigh / svd input is at most (2 rank) wide: no f x f work
        assert max(min(shape) for shape in decompositions) <= 8
        assert max(gauge.condition_residuals) <= 1e-9
        assert report.max_deviation <= 1e-8

    def test_no_complement_basis(self, box, monkeypatch, tmp_path):
        base, _, ys = box
        f, r = base.basis.shape
        factorized = []
        original_qr = np.linalg.qr

        def recorded(a, mode="reduced"):
            result = original_qr(a, mode=mode)
            # the width of Q, or of the input where only R is formed
            factorized.append((mode, np.shape(a) if mode == "r"
                               else result[0].shape))
            return result

        monkeypatch.setattr(np.linalg, "qr", recorded)
        gauge = build_gauge(base, ys)
        charts_coincide_check(base, ys)
        assert factorized
        for mode, shape in factorized:
            assert mode != "complete"
            assert shape[-1] not in (f - r, f)
        assert max(gauge.condition_residuals) <= 1e-9
        # a whole example run draws and splits each block in one stack, so
        # the count of QRs does not grow with it; the only complete ones
        # are the f x f complements of the three Jacobian ranks
        factorized.clear()
        config = Path(__file__).resolve().parents[1] / "configs/example.json"
        assert cli.main(["run", str(config), "--out", str(tmp_path)]) == 0
        assert 0 < len(factorized) <= 45
        assert [shape for mode, shape in factorized if mode == "complete"] == [
            (4, 4), (8, 8), (12, 12)]

    def test_each_point_split_once(self, box, monkeypatch):
        base, _, splits = box
        calls = []

        def counted(w, g, p, q):
            calls.append(np.shape(w))
            return split_wave_values(w, g, p, q)

        for module in (correlation, manifold):
            monkeypatch.setattr(module, "split_wave_values", counted)
        # box points are splits already: the gauge and the check split
        # nothing more, and stack the sequence with no (n, f, f) array
        build_gauge(base, splits)
        charts_coincide_check(base, splits)
        assert calls == []
        # chart points are split once, as one stack from their factors
        f = base.basis.shape[0]
        ys = manifold.chart_forward(random_chart_coords(
            np.random.default_rng(24), base, 3, scale=1e-4))
        assert calls == [(3, 4, f)]
        build_gauge(base, ys)
        charts_coincide_check(base, ys)
        assert calls == [(3, 4, f)]

    def test_coincidence_inverts_each_chart_once(self, box, monkeypatch):
        base, _, ys = box
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
        base, ys, splits = box
        gauge = build_gauge(base, splits)
        for y, value, bound in zip(ys, gauge.values,
                                   gauge.condition_residuals):
            dense = opnorm(y + value.conj().T @ gauge.base.krein.gram @ value)
            assert dense <= bound * (1.0 + 1e-12)


class TestGaugeMemory:
    """A gauge over a sequence of points copies no (n, f, f) stack."""

    @pytest.mark.parametrize("source", ["splits"])   # box points' splits
    def test_three_point_gauge_peak(self, source):
        cfg = DiracBoxConfig(L=math.pi, eps=0.2, m=0.0)
        base = spin_space(build_correlation_map(
            cfg, [cfg.point(0.0, (0.0, 0.0, 0.0))])[0], 2)
        points = [cfg.point(0.1, (0.1, -0.05, 0.0)),
                  cfg.point(-0.05, (0.0, 0.12, 0.08)),
                  cfg.point(0.08, (-0.1, 0.0, 0.1))]
        ys = build_correlation_map(cfg, points)
        f = base.basis.shape[0]
        assert f == 968
        tracemalloc.start()
        try:
            gauge = build_gauge(base, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(gauge.condition_residuals) <= 1e-9
        assert peak < 0.25 * 16 * f * f

    def test_chart_round_trip_and_gauge_at_f16434(self):
        # ten chart points split from their factors, read back and gauged:
        # one dense f x f render would take 4.3 GB
        coords = box_chart_coords(0.08, 0.3, 10, seed=16434)
        base = coords.split
        assert base.basis.shape[0] == 16434

        def run():
            ys = chart_forward(coords)
            return chart_inverse(ys, base), build_gauge(base, ys)

        tracemalloc.start()
        try:
            back, gauge = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100e6
        best = math.inf
        for _ in range(2):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        assert best < 0.5
        assert np.max(opnorm(back.a - coords.a)) <= 1e-12
        assert np.max(opnorm(back.b - coords.b)) <= 1e-12
        assert max(gauge.condition_residuals) <= (
            cli.DEFAULT_TOLERANCES["gauge_condition"])


class TestConditionResidualBound:
    def test_bounds_dense_norm(self):
        # y carries a small full-rank part that the split discards, so the
        # residual has components outside the span of basis_y and value^dag
        rng = np.random.default_rng(30)
        for f in (6, 9, 12):
            for _ in range(20):
                base = spin_space(random_correlation(rng, f, 2), 2)
                x = render(base)
                h = random_complex(rng, f, f)
                y = x + 1e-10 * opnorm(x) * (h + h.conj().T) / opnorm(h)
                split_y = dense_split(y, 2, 2)
                for value in (symmetric_wave_chart(split_y, base),
                              random_complex(rng, 4, f)):
                    dense = opnorm(y + value.conj().T @ base.krein.gram @ value)
                    bound = condition_residual_bound(split_y, value,
                                                     base.krein.gram)
                    assert dense <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("m", [0.0, 0.3])
    def test_bounds_computed_dense_norm_on_box_grid(self, m):
        # seeded box points within 0.12 of the base at f = 160 / 162: the
        # dense residual is rounding alone, of the size of the exact bound,
        # so it holds only with the allowance for forming y + value^dag G value
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=m)
        base = spin_space(build_correlation_map(
            cfg, [cfg.point(0.0, (0.0, 0.0, 0.0))])[0], 2)
        deltas = np.random.default_rng(40 + int(10 * m)).uniform(
            -0.12, 0.12, size=(12, 4))
        points = [cfg.point(d[0], tuple(d[1:])) for d in deltas]
        ys = dense_correlation_map(cfg, points)
        gauge = build_gauge(base, build_correlation_map(cfg, points))
        for y, value, bound in zip(ys, gauge.values,
                                   gauge.condition_residuals):
            assert opnorm(y + value.conj().T @ base.krein.gram @ value) <= bound

    def test_tight_when_residual_lies_in_the_span(self):
        rng = np.random.default_rng(31)
        base = spin_space(random_correlation(rng, 10, 2), 2)
        split_y = nearby_operator(rng, base)
        value = symmetric_wave_chart(split_y, base)
        # a Hermitian shift on the image below half of min |eig X_y| moves
        # no eigenvalue across zero, so the signature is kept
        h = random_complex(rng, 4, 4)
        h = (h + h.conj().T) / opnorm(h + h.conj().T)
        size = 0.4 * np.min(np.abs(np.linalg.eigvalsh(split_y.restricted)))
        shifted = split_wave_values(split_y.basis.conj().T,
                                    -(split_y.restricted + size * h), 2, 2)
        dense = opnorm(render(shifted)
                       + value.conj().T @ base.krein.gram @ value)
        bound = condition_residual_bound(shifted, value, base.krein.gram)
        assert dense <= bound <= dense + 1e-12

    def test_reads_only_the_split(self):
        rng = np.random.default_rng(32)
        base = spin_space(random_correlation(rng, 10, 2), 2)
        split_y = chart_forward(random_chart_coords(rng, base, 3, scale=0.05))
        values = symmetric_wave_chart(split_y, base)
        bound = condition_residual_bound(split_y, values, base.krein.gram)
        # the same fields restacked from the lone splits: the same bounds
        restacked = wave_charts._as_stacked_split(unstack(split_y), base)
        np.testing.assert_array_equal(
            condition_residual_bound(restacked, values, base.krein.gram),
            bound)


class TestSpinorFrameBridge:
    """The dense wave chart and the spinor-frame gauge are one map.

    iota_x = W(x) V_x maps the spin space at x onto the spinors, so
    iota_x psi_dense(y) is the gauge value V^x W(y) of the spinor frame.
    The box spectra are doubly degenerate, so bases are never compared.
    """

    @pytest.fixture(scope="class", params=[(0.4, 0.0), (0.4, 0.3),
                                           (0.2, 0.0), (0.2, 0.3)],
                    ids=["f160", "f162", "f968", "f970"])
    def sea(self, request):
        eps, m = request.param
        cfg = DiracBoxConfig(L=math.pi, eps=eps, m=m)
        config = Path(__file__).resolve().parents[1] / "configs/example.json"
        # the example's points[0] (the base) and points[1], and one more
        points = [cfg.point(p.t, p.x_vec)
                  for p in cli.load_config(config).points[:2]]
        points.append(cfg.point(0.25, (0.45, -0.75, 1.15)))
        splits = build_correlation_map(cfg, points)
        waves = wave_value_matrix(cfg, points)
        return splits[0], splits[1:], waves

    def test_dense_chart_equals_spinor_gauge(self, sea):
        base, ys, waves = sea
        iota = waves[0] @ base.basis
        for y, w_y in zip(ys, waves[1:]):
            dense = iota @ symmetric_wave_chart(y, base)
            spinor = perturbed_symmetric_gauge(waves[0], w_y)
            assert opnorm(dense - spinor) <= 1e-12 * opnorm(spinor)

    def test_residual_bound_makes_no_dense_array(self, sea):
        base, ys, _ = sea
        split_y = wave_charts._as_stacked_split(ys, base)   # a stack of two
        values = symmetric_wave_chart(split_y, base)
        tracemalloc.start()
        try:
            condition_residual_bound(split_y, values, base.krein.gram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        f = base.basis.shape[0]
        # one f x f complex array would take 16 f^2 bytes
        assert peak < min(16 * f * f, 1 << 20)
