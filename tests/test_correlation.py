"""Correlation operators, spin spaces, kernels and the closed chain."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import (dense_correlation_map, dense_split, diagonal_waves,
                      local_correlation, multiset_distance,
                      random_krein_unitary, realize, render)

from cfsgauge import correlation
from cfsgauge.correlation import (closed_chain, kernel, spin_space,
                                  split_wave_values)
from cfsgauge.dirac_box import (SPINOR_GRAM, DiracBoxConfig,
                                build_correlation_map, wave_value_matrix)
from cfsgauge.errors import NotRegular
from cfsgauge.krein import _adjoint, opnorm
from cfsgauge.randoms import random_complex, random_correlation
from cfsgauge.wave_charts import (WaveChartPoint, build_gauge,
                                  charts_coincide_check)


def diag_operator(values, f):
    m = np.zeros((f, f), dtype=complex)
    m[:len(values), :len(values)] = np.diag(values)
    return m


def diag_split(values, f, p, q, offset=0):
    """The split of a diagonal operator, from its wave values."""
    return split_wave_values(*diagonal_waves(values, f, offset), p, q)


class TestLocalCorrelation:
    """The correlation operator -W^dag G W at one point, split from W."""

    def test_zero_waves(self):
        w = np.zeros((4, 6))
        with pytest.raises(NotRegular, match=r"found \(0, 0\)"):
            split_wave_values(w, np.diag([1.0, -1.0, 1.0, -1.0]), 2, 2)

    def test_single_wave_scalar(self):
        # one basis vector whose value has indefinite square c: x = [[-c]]
        gram = np.diag([1.0, -1.0])
        w = np.array([[2.0], [1.0]])
        c = 2.0 ** 2 - 1.0 ** 2
        with pytest.raises(NotRegular, match=(
                r"expected signature \(1, 1\), found \(0, 1\) at "
                r"threshold 3e-08$")):
            split_wave_values(w, gram, 1, 1)
        split = split_wave_values([[np.sqrt(c)]], [[1.0]], 0, 1)
        np.testing.assert_allclose(split.restricted, [[-c]], rtol=1e-15)

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        w = random_complex(rng, 4, 7)
        gram = np.diag([1.0, 1.0, -1.0, -1.0])
        split = split_wave_values(w, gram, 2, 2)
        np.testing.assert_array_equal(split.restricted,
                                      split.restricted.conj().T)
        kept = split.basis @ split.restricted @ split.basis.conj().T
        np.testing.assert_allclose(kept, local_correlation(w, gram),
                                   rtol=0, atol=1e-14)


class TestSpinSpace:
    def test_diagonal_example(self):
        sp = spin_space(diag_split([1.0, -1.0], 6, 1, 1), 1)
        np.testing.assert_allclose(np.abs(sp.basis[:2, :]), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sp.restricted, np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(sp.krein.gram, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_spin_gram_signature(self):
        sp = spin_space(diag_split([2.0, 1.0, -1.0, -3.0], 7, 2, 2), 2)
        eigs = np.linalg.eigvalsh(sp.krein.gram)
        assert int(np.sum(eigs > 0)) == 2 and int(np.sum(eigs < 0)) == 2

    def test_singular_rejected(self):
        with pytest.raises(NotRegular, match=r"found \(2, 1\)"):   # rank 3 < 4
            spin_space(diag_split([1.0, -1.0, 0.5, 0.0], 6, 2, 2), 2)

    def test_wrong_signature_rejected(self):
        sp = diag_split([1.0, 0.5, -1.0, -0.5], 6, 2, 2)
        with pytest.raises(NotRegular, match=r"expected signature \(1, 1\), "
                           r"found \(2, 2\)"):
            spin_space(sp, 1)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(1)
        x = random_correlation(rng, 9, 2)
        sp = spin_space(x, 2)
        np.testing.assert_allclose(sp.basis.conj().T @ sp.basis, np.eye(4),
                                   atol=1e-12)
        complement = np.eye(9) - sp.basis @ sp.basis.conj().T
        np.testing.assert_allclose(complement @ sp.basis, np.zeros((9, 4)),
                                   atol=1e-12)
        assert abs(np.trace(complement) - 5) <= 1e-12

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


def assert_matches_dense(w, g, p, q):
    """split_wave_values reaches the verdict, projector and spectrum of the
    dense split of the rendered operator -w^dag g w."""
    try:
        reference = dense_split(local_correlation(w, g), p, q)
    except NotRegular:
        with pytest.raises(NotRegular):
            split_wave_values(w, g, p, q)
        return
    split = split_wave_values(w, g, p, q)
    np.testing.assert_allclose(split.basis @ split.basis.conj().T,
                               reference.basis @ reference.basis.conj().T,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(split.restricted),
                               np.linalg.eigvalsh(reference.restricted),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(split.basis.conj().T @ split.basis,
                               np.eye(p + q), rtol=0, atol=1e-12)
    f = w.shape[-1]
    complement = np.eye(f) - split.basis @ split.basis.conj().T
    np.testing.assert_allclose(complement @ complement, complement, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(complement @ split.basis,
                               np.zeros((f, p + q)), rtol=0, atol=1e-12)


def box_split(cfg, point, x, from_waves):
    """The split of the box operator x at a point: from its wave values by
    ``split_wave_values``, or from x itself by the dense reference."""
    if from_waves:
        return split_wave_values(wave_value_matrix(cfg, point), SPINOR_GRAM,
                                 2, 2)
    return dense_split(x, 2, 2)


#: box masses, each split from the wave values (ids as before) and from the
#: plain dense operator by the reference
WAVES_OR_PLAIN = pytest.mark.parametrize(
    "m, from_waves", [(0.0, True), (0.3, True), (0.0, False), (0.3, False)],
    ids=["0.0", "0.3", "0.0-plain", "0.3-plain"])


class TestSplitParity:
    @pytest.mark.parametrize("m", [0.0, 0.3], ids=["0.0", "0.3"])
    def test_box_operators_use_range_basis(self, m, decompositions):
        # f = 160 modes at m = 0, 162 at m = 0.3 (the zero mode is added);
        # each point is split from its wave values with no f x f eigh
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=m)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.2, (0.4, -0.8, 1.1)),
                  cfg.point(-1.3, (2.9, 0.05, -3.0))]
        waves = wave_value_matrix(cfg, points)
        assert waves.shape[-1] == (160 if m == 0.0 else 162)
        for w in waves:
            decompositions.clear()
            split = split_wave_values(w, SPINOR_GRAM, 2, 2)
            assert all(min(shape) <= 4 for shape in decompositions)
            assert split.signature == (2, 2)
            assert_matches_dense(w, SPINOR_GRAM, 2, 2)

    @pytest.mark.parametrize("f", [4, 5, 6, 8, 10, 12])
    def test_random_operators(self, f):
        rng = np.random.default_rng(100 + f)
        for _ in range(30):
            for n in (1, 2):
                if 2 * n > f:
                    continue
                w = random_complex(rng, 2 * n, f)
                g = np.diag(rng.uniform(0.5, 2.0, size=2 * n)
                            * np.repeat([1.0, -1.0], n))
                for p, q in ((1, 1), (2, 2), (2, 1)):
                    if p + q <= f:
                        assert_matches_dense(w, g, p, q)

    @pytest.mark.parametrize("f", [4, 7, 12])
    def test_random_full_rank_rejected(self, f):
        # f rows of full rank, signature (3, f - 3): refused at (2, 2)
        rng = np.random.default_rng(200 + f)
        g = np.diag([-1.0] * 3 + [1.0] * (f - 3))
        for _ in range(10):
            w = random_complex(rng, f, f)
            with pytest.raises(NotRegular):
                split_wave_values(w, g, 2, 2)
            assert_matches_dense(w, g, 2, 2)

    def test_small_discarded_eigenvalue_certified(self):
        # the dense split drops 5e-9 below the threshold 1e-8 and keeps the
        # image of the four other eigenvalues, the factor split's image
        x = diag_operator([1.0, -1.0, 0.5, -0.5, 5e-9], 6)
        reference = dense_split(x, 2, 2)
        split = diag_split([1.0, -1.0, 0.5, -0.5], 6, 2, 2)
        assert reference.discarded == pytest.approx(5e-9, rel=1e-12)
        np.testing.assert_allclose(render(split), render(reference), rtol=0,
                                   atol=1e-15)
        assert_matches_dense(*diagonal_waves([1.0, -1.0, 0.5, -0.5], 6), 2, 2)

    def test_certified_wrong_signature_rejected(self):
        with pytest.raises(NotRegular, match=r"found \(3, 1\)"):
            diag_split([1.0, 0.5, -1.0, 2.0], 6, 2, 2)


def dense_discarded(split, x):
    """||x - V X V^dag||_F of a split, computed from the dense operator."""
    kept = split.basis @ split.restricted @ split.basis.conj().T
    return np.linalg.norm(x - kept)


class TestDiscarded:
    """``ImageSplit.discarded`` bounds the Frobenius norm of what the split
    drops: exactly that norm for the dense reference."""

    def test_range_route_certificate(self):
        # the factor split's bound covers the dense residual of the rendered
        # operator and stays at rounding level, at every scale of w
        rng = np.random.default_rng(60)
        gram = np.diag([1.0, 1.0, -1.0, -1.0])
        for f in (6, 9, 12):
            for size in (1e-3, 1.0, 1e3):
                w = size * random_complex(rng, 4, f)
                x = local_correlation(w, gram)
                split = split_wave_values(w, gram, 2, 2)
                assert dense_discarded(split, x) <= split.discarded
                assert split.discarded <= 1e-13 * np.linalg.norm(x)

    @WAVES_OR_PLAIN
    def test_box_operators(self, m, from_waves):
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=m)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.2, (0.4, -0.8, 1.1))]
        for point, x in zip(points, dense_correlation_map(cfg, points)):
            split = box_split(cfg, point, x, from_waves)
            assert abs(split.discarded - dense_discarded(split, x)) <= (
                1e-13 * np.linalg.norm(x))

    def test_dense_route_drops_the_small_eigenvalue(self):
        # kept 1.5e-8 and discarded 0.8e-8 straddle the threshold 1e-8: the
        # dense reference drops the smaller, and the factor split of the
        # four kept eigenvalues decides the same image at the same threshold
        x = diag_operator([1.0, -1.0, -0.5, 1.5e-8, 0.8e-8], 6)
        split = dense_split(x, 2, 2)
        assert split.discarded == pytest.approx(0.8e-8, rel=1e-12)
        assert split.discarded == pytest.approx(dense_discarded(split, x),
                                                rel=1e-6)
        factor = diag_split([1.0, -1.0, -0.5, 1.5e-8], 6, 2, 2)
        np.testing.assert_allclose(render(factor), render(split), rtol=0,
                                   atol=1e-15)


def traced_peak(call):
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=[(0.4, 0.0), (0.4, 0.3),
                                        (0.2, 0.0), (0.2, 0.3)],
                ids=["f160", "f162", "f968", "f970"])
def box(request):
    """Config, three points and their dense F at f = 160/162/968/970."""
    eps, m = request.param
    cfg = DiracBoxConfig(L=math.pi, eps=eps, m=m)
    points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
              cfg.point(0.1, (0.1, -0.05, 0.0)),
              cfg.point(-0.05, (0.0, 0.12, 0.08))]
    return cfg, points, dense_correlation_map(cfg, points)


@pytest.fixture(scope="module")
def dense_splits(box):
    """The dense reference split of each F of ``box``: one f x f eigh each,
    shared by the tests of a module."""
    return [dense_split(x, 2, 2) for x in box[2]]


class TestFactorRoute:
    """A box F given by its wave values W is split from W, not from F."""

    def test_agrees_with_dense_split(self, box, dense_splits):
        cfg, points, _ = box
        for w, dense in zip(wave_value_matrix(cfg, points), dense_splits):
            split = split_wave_values(w, SPINOR_GRAM, 2, 2)
            spectrum = np.linalg.eigvalsh(dense.restricted)
            np.testing.assert_allclose(split.basis @ split.basis.conj().T,
                                       dense.basis @ dense.basis.conj().T,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.eigvalsh(split.restricted),
                                       spectrum, rtol=0,
                                       atol=1e-12 * np.max(np.abs(spectrum)))
            # a wrong signature of the right rank is decided from W
            for p, q in ((3, 1), (1, 3)):
                with pytest.raises(NotRegular, match=r"found \(2, 2\)"):
                    split_wave_values(w, SPINOR_GRAM, p, q)

    def test_discarded_bounds_the_dense_residual(self, box):
        cfg, points, operators = box
        for w, x in zip(wave_value_matrix(cfg, points), operators):
            split = split_wave_values(w, SPINOR_GRAM, 2, 2)
            dense = dense_discarded(split, x)
            assert dense <= split.discarded <= 50 * dense

    def test_wrong_rank_still_rejected(self, box):
        cfg, points, operators = box
        with pytest.raises(NotRegular):
            dense_split(operators[1], 1, 1)
        with pytest.raises(NotRegular):
            split_wave_values(wave_value_matrix(cfg, points[1]), SPINOR_GRAM,
                              1, 1)


def rank_three_waves(eps=0.4):
    """Wave values whose last row repeats the third: rank 3 (f = 160 at
    eps = 0.4)."""
    cfg = DiracBoxConfig(L=math.pi, eps=eps, m=0.0)
    w = wave_value_matrix(cfg, cfg.point(0.1, (0.1, -0.05, 0.0)))
    w[3] = w[2]
    return w


class TestVerdictFromFactor:
    """Every W is decided from its factor: no f x f array, any verdict."""

    @pytest.mark.parametrize("eps, f", [(0.4, 160), (0.08, 16432)],
                             ids=["f160", "f16432"])
    def test_rank_three_refused(self, eps, f, decompositions):
        w = rank_three_waves(eps)
        assert w.shape == (4, f)

        def split():
            with pytest.raises(NotRegular, match=(
                    r"expected signature \(2, 2\), found \(1, 2\) at "
                    r"threshold")):
                split_wave_values(w, SPINOR_GRAM, 2, 2)
        assert traced_peak(split) < 16 * f * f / 4
        assert decompositions and all(max(shape) <= 8
                                      for shape in decompositions)

    def test_threshold_on_an_eigenvalue_is_undecided(self, monkeypatch):
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
        w = wave_value_matrix(cfg, cfg.point(0.1, (0.1, -0.05, 0.0)))
        size = np.abs(np.linalg.eigvalsh(
            split_wave_values(w, SPINOR_GRAM, 2, 2).restricted))
        monkeypatch.setattr(correlation, "TOL_RANK_FACTOR",
                            size.min() / size.max())
        with pytest.raises(NotRegular, match=(
                r"^signature undecided at threshold \S+ within the rounding "
                r"bound \S+$")):
            split_wave_values(w, SPINOR_GRAM, 2, 2)

    @pytest.mark.parametrize("rows", [3, 5])
    def test_rows_other_than_p_plus_q_refused(self, rows, decompositions):
        rng = np.random.default_rng(rows)
        w = random_complex(rng, rows, 160)
        gram = np.diag([1.0, -1.0, 1.0, -1.0, 1.0][:rows])
        with pytest.raises(NotRegular, match=(
                rf"^expected p \+ q = 4 rows of wave values, found {rows}$")):
            split_wave_values(w, gram, 2, 2)
        assert not decompositions


class TestNoDensePass:
    """Nothing on the wave-value route renders an f x f array."""

    def test_gauge_renders_no_dense_operator(self, box, dense_splits,
                                             decompositions):
        cfg, points, _ = box
        base = dense_splits[0]
        f = base.basis.shape[0]
        decompositions.clear()
        splits = build_correlation_map(cfg, points)
        for split in splits:
            assert split.signature == (2, 2)
        for ys, dense in ((splits[1:2], dense_splits[1:2]),
                          (splits[1:], dense_splits[1:])):
            gauge = build_gauge(base, ys)
            assert max(gauge.condition_residuals) <= 1e-9
            for value, same in zip(gauge.values,
                                   build_gauge(base, dense).values):
                assert opnorm(value - same) <= 1e-12 * opnorm(same)
            deviation = charts_coincide_check(base, ys).max_deviation
            assert deviation <= 1e-8
        assert (f, f) not in decompositions

    @pytest.mark.parametrize("m", [0.0, 0.3])
    def test_split_peak_stays_small(self, m):
        cfg = DiracBoxConfig(L=math.pi, eps=0.2, m=m)
        w = wave_value_matrix(cfg, cfg.point(0.1, (0.1, -0.05, 0.0)))
        assert w.shape[1] >= 968
        assert traced_peak(lambda: split_wave_values(w, SPINOR_GRAM, 2, 2)) < 1e6


class TestHermitize:
    def test_bit_identical_to_the_whole_array_formula(self):
        rng = np.random.default_rng(70)
        for a in (random_complex(rng, 7, 7), random_complex(rng, 3, 5, 5),
                  rng.standard_normal((6, 6))):
            reference = 0.5 * (a + np.swapaxes(a.conj(), -1, -2))
            out = correlation.hermitize(a)
            assert out.dtype == reference.dtype
            np.testing.assert_array_equal(out.view(np.uint64),
                                          reference.view(np.uint64))


class TestWaveEvaluation:
    def test_diagonal_case(self):
        sp = spin_space(diag_split([1.0, -1.0], 5, 1, 1), 1)
        psi = _adjoint(sp.basis)
        np.testing.assert_allclose(np.abs(psi), np.eye(2, 5), atol=1e-12)

    def test_kernel_vector_annihilated(self):
        rng = np.random.default_rng(2)
        x = random_correlation(rng, 8, 2)
        sp = spin_space(x, 2)
        u = (np.eye(8) - sp.basis @ sp.basis.conj().T) @ random_complex(rng, 8)
        np.testing.assert_allclose(_adjoint(sp.basis) @ u, np.zeros(4),
                                   atol=1e-12)

    @pytest.mark.parametrize("f", [4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2])
    def test_reconstruction(self, f, n):
        if f < 2 * n:
            pytest.skip("rank exceeds dimension")
        rng = np.random.default_rng(10 * f + n)
        for _ in range(100):
            sp = spin_space(random_correlation(rng, f, n), n)
            # the base point's own wave coordinates Psi realize Psi^dag X Psi
            own = WaveChartPoint.from_full(_adjoint(sp.basis), sp)
            assert opnorm(realize(own) - render(sp)) <= 1e-10


class TestKernel:
    def test_diagonal_kernel_is_restriction(self):
        rng = np.random.default_rng(3)
        x = random_correlation(rng, 7, 1)
        sp = spin_space(x, 1)
        np.testing.assert_allclose(kernel(sp, sp), sp.restricted, atol=1e-12)

    def test_orthogonal_images_vanish(self):
        sp_x = spin_space(diag_split([1.0, -1.0], 6, 1, 1), 1)
        sp_y = spin_space(diag_split([1.0, -1.0], 6, 1, 1, offset=2), 1)
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
        operators = dense_correlation_map(cfg, points)
        spaces = build_correlation_map(cfg, points)
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
        y = render(sp_y)
        p_new = sp_x.basis.conj().T @ y @ basis_new
        np.testing.assert_allclose(p_new, kernel(sp_x, sp_y) @ u, atol=1e-10)
        gram_new = -(basis_new.conj().T @ y @ basis_new)
        np.testing.assert_allclose(gram_new, sp_y.krein.gram, atol=1e-10)
        p_yx_new = u_inv @ kernel(sp_y, sp_x)
        np.testing.assert_allclose(p_new @ p_yx_new, closed_chain(sp_x, sp_y),
                                   atol=1e-10)
