"""Charts on the fixed-signature operator manifold and its metric."""

from pathlib import Path

import numpy as np
import pytest
from conftest import (box_chart_coords, dense_split, diagonal_waves, render,
                      unstack)

from cfsgauge.cli import load_config, run_experiment
from cfsgauge.correlation import split_wave_values
from cfsgauge.errors import InvalidSignature, SignatureLost, TooFarFromBase
from cfsgauge.krein import _adjoint, opnorm
from cfsgauge.manifold import (ChartCoordinates, chart_forward, chart_inverse,
                               chart_jacobian_rank, chart_metric,
                               gaussian_check, manifold_dim)
from cfsgauge.randoms import (random_chart_coords, random_complex,
                              random_direction_pair, random_hermitian)


def random_split(rng, f, p, q):
    """Random base point of signature (p, q) with its image splitting."""
    basis, _ = np.linalg.qr(random_complex(rng, f, p + q))
    vals = np.concatenate([np.sort(rng.uniform(0.5, 2.0, size=p))[::-1],
                           -np.sort(rng.uniform(0.5, 2.0, size=q))])
    return split_wave_values(basis.conj().T, -np.diag(vals), p, q)


class TestManifoldDim:
    @pytest.mark.parametrize("p,q,f,expected", [
        (2, 2, 8, 48),
        (1, 1, 2, 4),
        (1, 1, 4, 12),
        (2, 2, 12, 80),
    ])
    def test_formula(self, p, q, f, expected):
        assert manifold_dim(p, q, f) == expected

    def test_invalid(self):
        with pytest.raises(InvalidSignature):
            manifold_dim(3, 2, 4)


class TestChartForward:
    def test_origin_is_base(self):
        rng = np.random.default_rng(0)
        split = random_split(rng, 7, 1, 2)
        coords = ChartCoordinates(a=np.zeros((3, 3)), b=np.zeros((3, 7)),
                                  split=split)
        np.testing.assert_allclose(render(chart_forward(coords)),
                                   render(split), atol=1e-12)

    def test_pure_a_block(self):
        rng = np.random.default_rng(1)
        split = random_split(rng, 6, 1, 1)
        a = random_hermitian(rng, 2, scale=0.05)
        coords = ChartCoordinates(a=a, b=np.zeros((2, 6)), split=split)
        expected = render(split) + split.basis @ a @ split.basis.conj().T
        np.testing.assert_allclose(render(chart_forward(coords)), expected,
                                   atol=1e-12)

    @pytest.mark.parametrize("p,q,f", [(1, 1, 6), (2, 2, 8)])
    def test_rank_and_signature_preserved(self, p, q, f):
        rng = np.random.default_rng(10 + p + f)
        split = random_split(rng, f, p, q)
        for _ in range(25):
            m = render(chart_forward(random_chart_coords(rng, split,
                                                         scale=0.05)))
            vals = np.linalg.eigvalsh(m)
            tol = 1e-8 * opnorm(m)
            assert int(np.sum(vals > tol)) == p
            assert int(np.sum(vals < -tol)) == q
            assert int(np.sum(np.abs(vals) <= tol)) == f - p - q

    def test_signature_loss_rejected(self):
        rng = np.random.default_rng(2)
        split = random_split(rng, 6, 1, 1)
        # push the positive eigenvalue far negative
        a = -10.0 * np.eye(2)
        with pytest.raises(SignatureLost):
            chart_forward(ChartCoordinates(a=a, b=np.zeros((2, 6)), split=split))


class TestChartInverse:
    def test_base_maps_to_origin(self):
        rng = np.random.default_rng(3)
        split = random_split(rng, 8, 2, 2)
        coords = chart_inverse(split, split)
        assert opnorm(coords.a) <= 1e-10
        assert opnorm(coords.b) <= 1e-10

    @pytest.mark.parametrize("p,q,f", [(1, 1, 6), (2, 2, 8), (2, 2, 12)])
    def test_roundtrip(self, p, q, f):
        rng = np.random.default_rng(100 + f + p)
        split = random_split(rng, f, p, q)
        for _ in range(100):
            coords = random_chart_coords(rng, split, scale=0.05)
            y = chart_forward(coords)
            back = chart_inverse(y, split)
            assert opnorm(back.a - coords.a) <= 1e-9
            assert opnorm(back.b - coords.b) <= 1e-9

    def test_forward_of_inverse_reproduces_operator(self):
        rng = np.random.default_rng(4)
        split = random_split(rng, 9, 2, 2)
        y = chart_forward(random_chart_coords(rng, split, scale=0.08))
        coords = chart_inverse(y, split)
        np.testing.assert_allclose(render(chart_forward(coords)), render(y),
                                   atol=1e-10)

    def test_orthogonal_image_rejected(self):
        split = split_wave_values(*diagonal_waves([1.0, -1.0], 6), 1, 1)
        y = split_wave_values(*diagonal_waves([1.0, -1.0], 6, 2), 1, 1)
        with pytest.raises(TooFarFromBase):
            chart_inverse(y, split)

    def test_full_rank_operator_has_empty_coupling_block(self):
        # p + q = f: the complement is zero-dimensional and the chart
        # reduces to Hermitian perturbations of the compressed operator
        rng = np.random.default_rng(12)
        split = random_split(rng, 4, 2, 2)
        coords = random_chart_coords(rng, split, scale=0.05)
        assert not np.any(coords.b)
        back = chart_inverse(chart_forward(coords), split)
        assert opnorm(back.a - coords.a) <= 1e-9
        assert chart_jacobian_rank(split) == manifold_dim(2, 2, 4)


class TestJacobianRank:
    @pytest.mark.parametrize("p,q,f", [(1, 1, 4), (2, 2, 8), (2, 2, 12)])
    def test_rank_matches_dimension_formula(self, p, q, f):
        rng = np.random.default_rng(1000 + f)
        split = random_split(rng, f, p, q)
        assert chart_jacobian_rank(split) == manifold_dim(p, q, f)

    @pytest.mark.parametrize("p,q,f", [(1, 1, 4), (2, 2, 4), (2, 2, 12)])
    def test_one_direction_per_dimension(self, p, q, f, decompositions):
        # one Jacobian column per direction; the rank's SVD comes last
        split = random_split(np.random.default_rng(2000 + f), f, p, q)
        decompositions.clear()
        chart_jacobian_rank(split)
        assert decompositions[-1][1] == manifold_dim(p, q, f)


class TestGaussianCheck:
    def test_equal_directions_vanish(self):
        rng = np.random.default_rng(7)
        split = random_split(rng, 6, 1, 1)
        (a, b), _ = random_direction_pair(rng, split)
        report = gaussian_check(split, a, b, a, b)
        assert report.predicted_coefficient == 0.0
        assert all(abs(r) <= 1e-30 for r in report.residuals)

    def test_quadratic_coefficient_against_zero_direction(self):
        # second direction zero: c2 = tr(a^2) + 2 tr(b^dag b)
        rng = np.random.default_rng(8)
        split = random_split(rng, 7, 2, 1)
        (a, b), _ = random_direction_pair(rng, split)
        report = gaussian_check(split, a, b, 0 * a, 0 * b)
        predicted = float(np.real(np.trace(a @ a)) + 2 * np.real(np.trace(b.conj().T @ b)))
        assert abs(report.predicted_coefficient - predicted) <= 1e-12
        assert abs(report.quadratic_coefficient - predicted) <= 1e-8 * max(1.0, abs(predicted))

    def test_residual_scales_like_t4(self):
        rng = np.random.default_rng(9)
        split = random_split(rng, 8, 2, 2)
        checked = 0
        for _ in range(20):
            (a1, b1), (a2, b2) = random_direction_pair(rng, split)
            report = gaussian_check(split, a1, b1, a2, b2)
            rel = abs(report.quadratic_coefficient - report.predicted_coefficient)
            assert rel <= 1e-8 * max(1.0, report.predicted_coefficient)
            for ratio in report.residual_ratios:
                assert 12.0 <= ratio <= 20.0
            checked += 1
        assert checked == 20


class TestMetricInChart:
    def test_first_derivative_vanishes_at_origin(self):
        # central differences of a metric component along a coordinate ray
        # must decay like step^2 because the first derivative is zero
        rng = np.random.default_rng(10)
        split = random_split(rng, 7, 2, 2)
        for _ in range(10):
            (a0, b0), _ = random_direction_pair(rng, split)
            dir1, dir2 = random_direction_pair(rng, split)

            def component(t):
                return chart_metric(split, t * a0, t * b0, dir1, dir2)

            step = 0.02
            cd_big = (component(step) - component(-step)) / (2 * step)
            cd_small = (component(step / 2) - component(-step / 2)) / step
            assert abs(cd_small) <= max(0.3 * abs(cd_big), 1e-11)

    def test_metric_at_origin_matches_block_trace(self):
        rng = np.random.default_rng(11)
        split = random_split(rng, 6, 1, 1)
        dir1, dir2 = random_direction_pair(rng, split)
        value = chart_metric(split, 0 * dir1[0], 0 * dir1[1], dir1, dir2)
        expected = float(np.real(np.trace(dir1[0] @ dir2[0]))
                         + 2 * np.real(np.trace(dir1[1].conj().T @ dir2[1])))
        assert abs(value - expected) <= 1e-12


def projector(split):
    return split.basis @ _adjoint(split.basis)


class TestChartFactor:
    """A chart point is split from its factor W, with no f x f array."""

    @pytest.mark.parametrize("eps, f", [(0.4, 162), (0.2, 970)],
                             ids=["f162", "f970"])
    def test_split_matches_dense_split_of_the_formula(self, eps, f):
        coords = box_chart_coords(eps, 0.3, 3, seed=f)
        base = coords.split
        assert base.basis.shape[0] == f
        v = base.basis
        for a, b, y in zip(coords.a, coords.b, unstack(chart_forward(coords))):
            # V (X + a) V^dag + V b + b^dag V^dag + b^dag (X + a)^{-1} b
            core = base.restricted + a
            dense = dense_split(v @ core @ _adjoint(v) + v @ b + _adjoint(v @ b)
                                + _adjoint(b) @ np.linalg.solve(core, b), 2, 2)
            np.testing.assert_allclose(projector(y), projector(dense), rtol=0,
                                       atol=1e-14)
            spectrum = np.linalg.eigvalsh(dense.restricted)
            np.testing.assert_allclose(np.linalg.eigvalsh(y.restricted),
                                       spectrum, rtol=0,
                                       atol=1e-14 * np.max(np.abs(spectrum)))

    def test_no_wide_eigh(self, decompositions, tmp_path):
        # a whole example run and a 10-point round trip at f = 970: every
        # eigh / eigvalsh input is at most 2 r = 8 wide
        config = Path(__file__).resolve().parents[1] / "configs/example.json"
        assert run_experiment(load_config(config), tmp_path) == 0
        coords = box_chart_coords(0.2, 0.3, 10, seed=970)
        back = chart_inverse(chart_forward(coords), coords.split)
        assert opnorm(back.a - coords.a).max() <= 1e-12
        assert opnorm(back.b - coords.b).max() <= 1e-12
        widths = [max(shape[-2:]) for name, shape in decompositions.inputs
                  if name in ("eigh", "eigvalsh")]
        assert widths and max(widths) <= 8
