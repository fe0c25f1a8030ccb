"""Krein-space adjoints, square roots and the unique polar decomposition."""

import tracemalloc

import numpy as np
import pytest
from conftest import (opnorm_bound, random_krein_symmetric,
                      random_krein_unitary)
from hypothesis import given
from hypothesis import strategies as st

from cfsgauge import krein
from cfsgauge.errors import NotSymmetric, OutOfConvergenceRadius, SingularGram
from cfsgauge.krein import (RADIUS_SERIES, SERIES_MAX_TERMS, TOL, KreinSpace,
                            binomial_sqrt_series, opnorm, polar,
                            polar_decompose, sqrt_near_identity)
from cfsgauge.randoms import random_complex, random_gram, random_unitary

MINKOWSKI_2 = KreinSpace(gram=np.diag([1.0, -1.0]), signature=(1, 1))


def asymmetry(space, s):
    """Distance of S from its indefinite adjoint, ||S - S*||."""
    return opnorm(s - space.adjoint(s))


class TestKreinSpace:
    def test_signature_must_match(self):
        with pytest.raises(ValueError):
            KreinSpace(gram=np.diag([1.0, 1.0]), signature=(1, 1))

    def test_singular_gram_rejected(self):
        with pytest.raises(SingularGram):
            KreinSpace(gram=np.diag([1.0, 0.0]), signature=(1, 0))


class TestAdjoint:
    def test_identity(self):
        eye = np.eye(2)
        np.testing.assert_allclose(MINKOWSKI_2.adjoint(eye), eye)

    def test_hand_computed_2x2(self):
        # diag(1,-1)^{-1} [[0,0],[1,0]] diag(1,-1), multiplied by hand
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(MINKOWSKI_2.adjoint(a), expected, atol=1e-15)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2)])
    def test_involution_and_antihomomorphism(self, p, q):
        rng = np.random.default_rng(100 * p + q)
        for _ in range(200):
            space = KreinSpace(gram=random_gram(rng, p, q), signature=(p, q))
            a = random_complex(rng, p + q, p + q)
            b = random_complex(rng, p + q, p + q)
            scale = max(1.0, opnorm(a), opnorm(b))
            assert opnorm(space.adjoint(space.adjoint(a)) - a) <= 1e-10 * scale
            assert opnorm(space.adjoint(a @ b)
                          - space.adjoint(b) @ space.adjoint(a)) <= 1e-10 * scale**2


class TestPredicates:
    def test_identity_unitary_and_symmetric(self):
        assert MINKOWSKI_2.is_unitary(np.eye(2))
        assert asymmetry(MINKOWSKI_2, np.eye(2)) <= TOL

    def test_diagonal_phases_are_unitary(self):
        for theta, phi in [(0.3, -1.2), (2.0, 0.0), (-0.7, 3.1)]:
            u = np.diag([np.exp(1j * theta), np.exp(1j * phi)])
            assert MINKOWSKI_2.is_unitary(u)

    def test_boost_is_unitary(self):
        for t in (0.5, -1.3, 2.0):
            c, s = np.cosh(t), np.sinh(t)
            u = np.array([[c, s], [s, c]])
            assert MINKOWSKI_2.is_unitary(u)
            # a boost is not unitary for the definite product
            assert opnorm(u.conj().T @ u - np.eye(2)) > 1e-3

    def test_multiple_of_i_not_symmetric(self):
        assert asymmetry(MINKOWSKI_2, 1j * np.eye(2)) > TOL

    def test_pseudo_hermitian_pattern_symmetric(self):
        # [[a, b], [-conj(b), d]] with real a, d
        for a, b, d in [(1.0, 0.3 + 0.4j, -2.0), (0.0, 1.0j, 5.0)]:
            s = np.array([[a, b], [-np.conj(b), d]])
            assert asymmetry(MINKOWSKI_2, s) <= TOL


class TestSqrtNearIdentity:
    def test_identity(self):
        res = sqrt_near_identity(np.eye(2), MINKOWSKI_2)
        np.testing.assert_allclose(res.sqrt, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(res.inv_sqrt, np.eye(2), atol=1e-14)

    def test_scalar_multiple(self):
        res = sqrt_near_identity(1.21 * np.eye(2), MINKOWSKI_2)
        np.testing.assert_allclose(res.sqrt, 1.1 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(res.inv_sqrt, np.eye(2) / 1.1, atol=1e-12)

    def test_residuals_random_perturbation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            space = KreinSpace(gram=random_gram(rng, 1, 1), signature=(1, 1))
            b = np.eye(2) + random_krein_symmetric(rng, space, scale=0.05)
            res = sqrt_near_identity(b, space)
            assert opnorm(res.sqrt @ res.sqrt - b) <= 1e-9
            assert opnorm(res.sqrt @ res.inv_sqrt - np.eye(2)) <= 1e-9
            assert asymmetry(space, res.sqrt) <= 1e-9
            assert asymmetry(space, res.inv_sqrt) <= 1e-9

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2)])
    def test_series_agrees_with_diagonalization(self, p, q):
        rng = np.random.default_rng(200 + p + q)
        dim = p + q
        for _ in range(50):
            space = KreinSpace(gram=random_gram(rng, p, q), signature=(p, q))
            delta = random_krein_symmetric(rng, space, scale=0.1)
            delta *= 0.3 / max(opnorm(delta), 0.3)
            b = np.eye(dim) + delta
            res = sqrt_near_identity(b, space)
            assert res.method == "eig"
            series = binomial_sqrt_series(delta, 0.5)
            series_inv = binomial_sqrt_series(delta, -0.5)
            assert opnorm(res.sqrt - series) <= 1e-9
            assert opnorm(res.inv_sqrt - series_inv) <= 1e-9

    def test_out_of_radius_rejected(self):
        with pytest.raises(OutOfConvergenceRadius):
            sqrt_near_identity(2.0 * np.eye(2), MINKOWSKI_2)

    def test_asymmetric_rejected(self):
        b = np.eye(2) + np.array([[0.0, 0.1], [0.0, 0.0]])
        with pytest.raises(NotSymmetric):
            sqrt_near_identity(b, MINKOWSKI_2)

    def test_series_handles_defective_input(self):
        # nilpotent perturbation of 1 is symmetric for gram [[0,1],[1,0]]
        # and not diagonalizable; the series route still squares correctly
        space = KreinSpace(gram=np.array([[0.0, 1.0], [1.0, 0.0]]),
                           signature=(1, 1))
        b = np.array([[1.0, 0.0], [0.3, 1.0]])
        assert asymmetry(space, b) <= TOL
        res = sqrt_near_identity(b, space)
        assert res.method == "series"
        assert opnorm(res.sqrt @ res.sqrt - b) <= 1e-9
        assert opnorm(res.sqrt @ res.inv_sqrt - np.eye(2)) <= 1e-9


class TestPolarDecomposition:
    def test_identity(self):
        u, s = polar_decompose(np.eye(2), MINKOWSKI_2)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-14)

    def test_unitary_input(self):
        rng = np.random.default_rng(8)
        w = random_krein_unitary(rng, MINKOWSKI_2, scale=0.1)
        u, s = polar_decompose(w, MINKOWSKI_2)
        assert opnorm(s - np.eye(2)) <= 1e-10
        assert opnorm(u - w) <= 1e-10

    def test_symmetric_positive_input(self):
        rng = np.random.default_rng(9)
        s_in = np.eye(2) + random_krein_symmetric(rng, MINKOWSKI_2, scale=0.1)
        u, s = polar_decompose(s_in, MINKOWSKI_2)
        assert opnorm(u - np.eye(2)) <= 1e-9
        assert opnorm(s - s_in) <= 1e-9

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2)])
    def test_residual_and_uniqueness(self, p, q):
        rng = np.random.default_rng(50 + 10 * p + q)
        dim = p + q
        for _ in range(200):
            space = KreinSpace(gram=random_gram(rng, p, q), signature=(p, q))
            delta = random_complex(rng, dim, dim)
            delta *= 0.2 * rng.uniform(0.2, 1.0) / opnorm(delta)
            a = np.eye(dim) + delta
            u, s = polar_decompose(a, space)
            assert opnorm(a - u @ s) <= 1e-8
            assert space.is_unitary(u, tol=1e-9)
            assert asymmetry(space, s) <= 1e-9
            assert opnorm(s - np.eye(dim)) < 0.8
            # re-decomposing the product reproduces the factors
            u2, s2 = polar_decompose(u @ s, space)
            assert opnorm(u2 - u) <= 1e-8
            assert opnorm(s2 - s) <= 1e-8

    def test_far_from_identity_rejected(self):
        with pytest.raises(OutOfConvergenceRadius):
            polar_decompose(3.0 * np.eye(2), MINKOWSKI_2)


def _signatures():
    """(p, q) with 1 <= p + q <= 4."""
    return st.integers(1, 4).flatmap(
        lambda dim: st.tuples(st.integers(0, dim), st.just(dim))).map(
        lambda pd: (pd[0], pd[1] - pd[0]))


class TestPolar:
    @given(signature=_signatures(), seed=st.integers(0, 2**32 - 1),
           entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
           size=st.floats(0.0, 1.0))
    def test_factors_near_identity(self, signature, seed, entries, size):
        p, q = signature
        dim = p + q
        space = KreinSpace(gram=random_gram(np.random.default_rng(seed), p, q),
                           signature=(p, q))
        values = np.array(entries[:2 * dim * dim])
        delta = (values[::2] + 1j * values[1::2]).reshape(dim, dim)
        # ||delta||, ||delta*|| <= 0.3 keep T T* and T* T inside radius 0.8
        largest = max(opnorm(delta), opnorm(space.adjoint(delta)))
        if largest > 0.0:
            delta *= 0.3 * size / largest
        t = np.eye(dim) + delta
        u, root = polar(t, space.adjoint(t), space)
        s = root.sqrt
        assert opnorm(u.conj().T @ space.gram @ u - space.gram) <= 1e-9
        assert opnorm(s - space.adjoint(s)) <= 1e-9
        assert opnorm(s @ u - t) <= 1e-9
        u_right, s_right = polar_decompose(t, space)
        assert opnorm(u_right @ s_right - t) <= 1e-9
        assert opnorm(u_right - u) <= 1e-9

    def test_known_factors(self):
        rng = np.random.default_rng(21)
        space = KreinSpace(gram=random_gram(rng, 2, 2), signature=(2, 2))
        w = random_krein_unitary(rng, space, scale=0.1)
        s_in = np.eye(4) + random_krein_symmetric(rng, space, scale=0.1)
        t = s_in @ w
        u, root = polar(t, space.adjoint(t), space)
        assert opnorm(u - w) <= 1e-9
        assert opnorm(root.sqrt - s_in) <= 1e-9
        # the root is exactly the square-root primitive's result on T T*
        reference = sqrt_near_identity(t @ space.adjoint(t), space)
        np.testing.assert_array_equal(root.sqrt, reference.sqrt)
        assert root.method == reference.method

    def test_far_from_unitary_rejected(self):
        with pytest.raises(OutOfConvergenceRadius):
            polar(3.0 * np.eye(2), 3.0 * np.eye(2), MINKOWSKI_2)


class TestBinomialSeries:
    def test_scalar_against_numpy(self):
        for x in (-0.4, -0.1, 0.0, 0.2, 0.6):
            delta = np.array([[x]])
            np.testing.assert_allclose(
                binomial_sqrt_series(delta, 0.5)[0, 0], np.sqrt(1 + x),
                atol=1e-14)
            np.testing.assert_allclose(
                binomial_sqrt_series(delta, -0.5)[0, 0], 1 / np.sqrt(1 + x),
                atol=1e-14)

    def test_matrix_square(self):
        rng = np.random.default_rng(4)
        m = random_unitary(rng, 3)
        delta = (m * [0.3, -0.2, 0.1]) @ m.conj().T
        sq = binomial_sqrt_series(delta, 0.5)
        np.testing.assert_allclose(sq @ sq, np.eye(3) + delta, atol=1e-13)

    @pytest.mark.parametrize("size,exponent", [(1.5, 0.5), (0.97, -0.5)])
    def test_unconverged_series_raises(self, size, exponent):
        # at 1.5 the partial sums diverge (-9.9e30 after the last term); at
        # 0.97 they converge too slowly to meet the stop test in time
        with pytest.raises(OutOfConvergenceRadius,
                           match=f"after {SERIES_MAX_TERMS} terms for 1 of 1"):
            binomial_sqrt_series(size * np.eye(2), exponent)

    def test_one_diverging_element_fails_the_stack(self):
        deltas = np.array([0.3 * np.eye(2), 1.5 * np.eye(2), -0.2 * np.eye(2)])
        with pytest.raises(OutOfConvergenceRadius, match="1 of 3 matrices"):
            binomial_sqrt_series(deltas, 0.5)


class TestOpnorm:
    @pytest.mark.parametrize("shape", [(4, 0), (0, 0), (0, 4)])
    def test_empty_map_has_norm_zero(self, shape):
        value = opnorm(np.zeros(shape))
        assert value == 0.0 and type(value) is float
        np.testing.assert_array_equal(opnorm(np.zeros((3,) + shape)), np.zeros(3))

    def test_matrix_gives_float_equal_to_numpy_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            for a in (random_complex(rng, 4, 4), rng.standard_normal((4, 4))):
                value = opnorm(a)
                assert type(value) is float
                assert abs(value - np.linalg.norm(a, 2)) <= (
                    opnorm_bound(a.shape) * value)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (4, 160), (160, 4),
                                       (60, 4, 4936)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_agrees_with_numpy_norm_within_the_bound(self, shape, dtype):
        rng = np.random.default_rng(32)
        *stack, m, n = shape

        def draw(*dims):
            z = random_complex(rng, *dims)
            return z if dtype is complex else z.real.copy()

        for a in (draw(*shape), draw(*stack, m, 1) @ draw(*stack, 1, n)):
            for scale in (1e-100, 1.0, 1e100):
                value, want = opnorm(scale * a), np.linalg.norm(scale * a, 2,
                                                                axis=(-2, -1))
                assert np.all(np.abs(value - want)
                              <= opnorm_bound(shape) * want)

    def test_wide_stack_is_decomposed_without_a_copy(self):
        a = random_complex(np.random.default_rng(8), 50, 4, 4936)
        tracemalloc.start()
        try:
            value = opnorm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a[0].nbytes
        assert value.shape == (50,)


class TestCertificates:
    """Frobenius-certified norms decide as the exact operator norm does."""

    SPINOR = KreinSpace(gram=np.diag([1.0, 1.0, -1.0, -1.0]),
                        signature=(2, 2))

    @staticmethod
    def mixed_ranks(rng, count, m, n):
        """Rank-1 (||.||_2 = ||.||_F) and full-rank elements, spread scales."""
        full = random_complex(rng, count, m, n)
        rank_one = (random_complex(rng, count, m, 1)
                    @ random_complex(rng, count, 1, n))
        pick = rng.random(count) < 0.5
        scales = np.exp(rng.uniform(-1.0, 1.0, count))[:, None, None]
        return scales * np.where(pick[:, None, None], rank_one, full)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (4, 160)])
    @pytest.mark.parametrize("seed", range(5))
    def test_max_equals_the_plain_maximum(self, shape, seed):
        # a report maximum np.max(opnorm(stack)) is that of the lone norms
        a = self.mixed_ranks(np.random.default_rng(seed), 30, *shape)
        value = np.max(opnorm(a))
        assert value == max(opnorm(x) for x in a)
        assert np.max(opnorm(a.reshape(5, 6, *shape))) == value

    @pytest.mark.filterwarnings("error")
    def test_empty_and_non_finite_stacks_take_the_plain_call(self):
        with pytest.raises(ValueError):   # no maximum of no norms
            np.max(opnorm(np.zeros((0, 4, 4))))
        np.testing.assert_array_equal(opnorm(np.zeros((3, 4, 0))), np.zeros(3))
        a = random_complex(np.random.default_rng(7), 5, 4, 4)
        for value in (np.inf, -np.inf, np.nan):   # no NaN norm: all raise
            a[2, 1, 1] = value
            with pytest.raises(np.linalg.LinAlgError,
                               match=r"stack element \[2\]: .* not finite"):
                np.max(opnorm(a))
            with pytest.raises(np.linalg.LinAlgError):
                opnorm(a[2])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_element_is_out_of_the_radius(self, value):
        b = np.eye(4) + 0.1 * random_complex(np.random.default_rng(10),
                                             3, 4, 4)
        b[1, 0, 3] = value
        with pytest.raises(OutOfConvergenceRadius,
                           match=r"^stack element \[1\]: \|\|B - 1\|\| = "):
            sqrt_near_identity(b, self.SPINOR)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_gram_is_refused(self, value):
        gram = np.array([np.diag([1.0, 1.0, -1.0, -1.0])] * 3)
        gram[1, 2, 2] = value
        with pytest.raises(ValueError,
                           match=r"^stack element \[1\]: gram must be finite"):
            KreinSpace(gram=gram, signature=(2, 2))

    def test_radius_is_the_operator_norm(self):
        # ||B - 1||_2 = 0.7 < 0.8 < ||B - 1||_F = 1.4
        b = np.eye(4) + 0.7 * np.diag([1.0, 1.0, -1.0, -1.0])
        assert asymmetry(self.SPINOR, b) == 0.0
        root = sqrt_near_identity(b, self.SPINOR)
        np.testing.assert_allclose(root.sqrt @ root.sqrt, b, atol=1e-14)
        assert root.method == "eig"

    def test_radius_refusal_keeps_the_exact_norm(self):
        b = np.eye(4) + RADIUS_SERIES * np.diag([1.0, 1.0, -1.0, -1.0])
        with pytest.raises(OutOfConvergenceRadius,
                           match=r"\|\|B - 1\|\| = 0\.8 >= allowed radius"):
            sqrt_near_identity(b, self.SPINOR)

    def test_asymmetry_refusal_keeps_the_exact_norm(self):
        # ||B - B*||_2 = 0.1 and ||B - B*||_F = 0.1 sqrt(2)
        b = np.eye(2) + np.array([[0.0, 0.1], [0.0, 0.0]])
        with pytest.raises(NotSymmetric, match=r"= 0\.1 exceeds"):
            sqrt_near_identity(b, MINKOWSKI_2)

    def test_hermitian_tolerance_grows_with_the_gram(self):
        # ||g - g^dag|| = 5e-8 lies between TOL and TOL ||g|| = 1e-7
        gram = np.diag([1e3, -1e3]).astype(complex)
        gram[0, 1] = 5e-8
        assert KreinSpace(gram=gram, signature=(1, 1)).gram.shape[-1] == 2
        gram[0, 1] = 2e-7
        with pytest.raises(ValueError, match="Hermitian"):
            KreinSpace(gram=gram, signature=(1, 1))

    @pytest.mark.parametrize("size,accepted", [(1.2e-10, True),
                                               (1.6e-10, False)])
    def test_symmetry_tolerance_grows_with_the_norm(self, size, accepted):
        # ||B - B*|| = size against TOL max(1, ||B||) = 1.5e-10
        b = 1.5 * np.eye(2) + np.array([[0.0, size], [0.0, 0.0]])
        assert asymmetry(MINKOWSKI_2, b) == pytest.approx(size, rel=1e-6)
        if accepted:
            assert sqrt_near_identity(b, MINKOWSKI_2).method == "eig"
        else:
            with pytest.raises(NotSymmetric):
                sqrt_near_identity(b, MINKOWSKI_2)

    @pytest.mark.parametrize("scale,method", [(1.5, "eig"), (1.0, "series")])
    def test_root_tolerance_grows_with_the_norm(self, monkeypatch, scale,
                                                method):
        # an eig root off by 1.2e-9 passes TOL_SQRT max(1, ||B||) at
        # ||B|| = 1.5, not at ||B|| = 1
        vals = np.array([scale + 1.2e-9, scale], dtype=complex)
        monkeypatch.setattr(np.linalg, "eig",
                            lambda b: (vals, np.eye(2, dtype=complex)))
        root = sqrt_near_identity(scale * np.eye(2), MINKOWSKI_2)
        assert root.method == method

    def test_unitarity_past_the_certificate(self):
        # Frobenius residual 1.5 tol, operator-norm residual 0.75 tol
        tol = 1e-6
        u = np.diag([np.sqrt(1.0 + 0.75 * tol)] * 4)
        assert self.SPINOR.is_unitary(u, tol)
        assert not self.SPINOR.is_unitary(u, 0.7 * tol)


def _stack_case(signature, count, seed, size):
    """Stacked and per-element spaces, and T near 1 in each as in TestPolar."""
    p, q = signature
    rng = np.random.default_rng(seed)
    singles = [KreinSpace(gram=random_gram(rng, p, q), signature=(p, q))
               for _ in range(count)]
    ts = []
    for space in singles:
        delta = random_complex(rng, p + q, p + q)
        largest = max(opnorm(delta), opnorm(space.adjoint(delta)))
        ts.append(np.eye(p + q) + delta * (0.3 * size / largest))
    stacked = KreinSpace(gram=np.array([s.gram for s in singles]),
                         signature=(p, q))
    return stacked, singles, np.array(ts)


def assert_matches_loop(stacked, looped, rtol=1e-14):
    """Each stacked element equals the lone result to ``rtol`` relative."""
    for got, want in zip(stacked, looped, strict=True):
        assert opnorm(got - want) <= rtol * max(1.0, opnorm(want))


class TestStacks:
    @given(signature=_signatures(), count=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), size=st.floats(0.0, 1.0))
    def test_stack_matches_loop(self, signature, count, seed, size):
        space, singles, t = _stack_case(signature, count, seed, size)
        t_adj = space.adjoint(t)
        assert_matches_loop(t_adj, [s.adjoint(x) for s, x in zip(singles, t)])
        np.testing.assert_array_equal(opnorm(t), [opnorm(x) for x in t])

        b = t @ t_adj
        root = sqrt_near_identity(b, space)
        lone = [sqrt_near_identity(x, s) for s, x in zip(singles, b)]
        assert root.method == "eig" == lone[0].method
        assert_matches_loop(root.sqrt, [r.sqrt for r in lone])
        assert_matches_loop(root.inv_sqrt, [r.inv_sqrt for r in lone])

        u, root = polar(t, t_adj, space)
        lone = [polar(x, s.adjoint(x), s) for s, x in zip(singles, t)]
        assert_matches_loop(u, [v for v, _ in lone])
        assert_matches_loop(root.sqrt, [r.sqrt for _, r in lone])

        u, s_fac = polar_decompose(t, space)
        lone = [polar_decompose(x, s) for s, x in zip(singles, t)]
        assert_matches_loop(u, [v for v, _ in lone])
        assert_matches_loop(s_fac, [f for _, f in lone])

        for exponent in (0.5, -0.5):
            assert_matches_loop(
                binomial_sqrt_series(b - np.eye(b.shape[-1]), exponent),
                [binomial_sqrt_series(x - np.eye(b.shape[-1]), exponent)
                 for x in b])

    def test_element_outside_radius_is_named(self):
        space = KreinSpace(gram=np.array([np.diag([1.0, -1.0])] * 3),
                           signature=(1, 1))
        b = np.array([np.eye(2), 1.1 * np.eye(2), 2.0 * np.eye(2)])
        with pytest.raises(OutOfConvergenceRadius,
                           match=r"stack element \[2\]"):
            sqrt_near_identity(b, space)

    def test_asymmetric_element_is_named(self):
        space = KreinSpace(gram=np.array([np.diag([1.0, -1.0])] * 3),
                           signature=(1, 1))
        b = np.array([np.eye(2)] * 3)
        b[1, 0, 1] = 0.1
        with pytest.raises(NotSymmetric, match=r"stack element \[1\]"):
            sqrt_near_identity(b, space)

    def test_singular_gram_is_named(self):
        grams = np.array([np.diag([1.0, -1.0]), np.diag([2.0, -1.0]),
                          np.diag([1.0, 0.0])])
        with pytest.raises(SingularGram, match=r"stack element \[2\]"):
            KreinSpace(gram=grams, signature=(1, 1))

    def test_defective_element_alone_takes_the_series(self, monkeypatch):
        # gram [[0,1],[1,0]]: the nilpotent perturbation of 1 is symmetric
        # and not diagonalizable (see test_series_handles_defective_input)
        gram = np.array([[0.0, 1.0], [1.0, 0.0]])
        lone_space = KreinSpace(gram=gram, signature=(1, 1))
        rng = np.random.default_rng(41)
        b = np.array([1.1 * np.eye(2), [[1.0, 0.0], [0.3, 1.0]],
                      np.eye(2) + random_krein_symmetric(rng, lone_space, 0.1)])
        series_inputs = []

        def recorded(delta, exponent, _original=krein.binomial_sqrt_series):
            series_inputs.append(np.shape(delta))
            return _original(delta, exponent)

        monkeypatch.setattr(krein, "binomial_sqrt_series", recorded)
        root = sqrt_near_identity(b, KreinSpace(gram=np.array([gram] * 3),
                                                signature=(1, 1)))
        # only the defective element went through the series, once per sign
        assert series_inputs == [(1, 2, 2), (1, 2, 2)]
        lone = [sqrt_near_identity(x, lone_space) for x in b]
        assert root.method == "series"
        assert [r.method for r in lone] == ["eig", "series", "eig"]
        assert_matches_loop(root.sqrt, [r.sqrt for r in lone])
        assert_matches_loop(root.inv_sqrt, [r.inv_sqrt for r in lone])
