import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bnlab.errors import DimensionError
from bnlab.tensor import (
    HE,
    XAVIER,
    InitScheme,
    SeededRng,
    as_tensor,
    conv2d_backward,
    conv2d_forward,
    conv2d_summand_stats,
    gram_eigenvalues,
    init_tensor,
    matmul,
)

from finite_diff import fd_grad


def conv_bruteforce(x, k):
    """Seven-deep loop over the convolution definition, used as an oracle."""
    b, c, h, w = x.shape
    o = k.shape[0]
    out = np.zeros((b, o, h, w))
    for bb, oo, xx, yy in itertools.product(range(b), range(o), range(h), range(w)):
        acc = 0.0
        for cc in range(c):
            for i in (-1, 0, 1):
                for j in (-1, 0, 1):
                    xi, yj = xx + i, yy + j
                    if 0 <= xi < h and 0 <= yj < w:
                        acc += x[bb, cc, xi, yj] * k[oo, cc, i + 1, j + 1]
        out[bb, oo, xx, yy] = acc
    return out


def summand_bruteforce(up, x):
    """Per-summand reductions computed by materializing every d[b, x, y] term."""
    b, c, h, w = x.shape
    o = up.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    d = np.zeros((b, h, w, o, c, 3, 3))
    for bb, xx, yy in itertools.product(range(b), range(h), range(w)):
        for oo, cc, i, j in itertools.product(range(o), range(c), range(3), range(3)):
            d[bb, xx, yy, oo, cc, i, j] = up[bb, oo, xx, yy] * xp[bb, cc, xx + i, yy + j]
    total = d.sum(axis=(0, 1, 2))
    abs_sum = np.abs(d).sum(axis=(0, 1, 2))
    batch_partial = np.abs(d.sum(axis=(1, 2))).sum(axis=0)
    spatial_partial = np.abs(d.sum(axis=0)).sum(axis=(0, 1))
    return total, abs_sum, batch_partial, spatial_partial


class TestSeededRng:
    def test_same_stream_same_draws(self):
        a = SeededRng(7, 3).generator().normal(size=10)
        b = SeededRng(7, 3).generator().normal(size=10)
        assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(7, 0).generator().normal(size=10)
        b = SeededRng(7, 1).generator().normal(size=10)
        assert not np.allclose(a, b)

    def test_child_streams_distinct(self):
        root = SeededRng(42)
        kids = [root.child(k).generator().normal(size=4) for k in range(8)]
        for a, b in itertools.combinations(kids, 2):
            assert not np.allclose(a, b)


class TestInit:
    def test_xavier_variance(self):
        draws = np.concatenate(
            [init_tensor((50, 50), XAVIER, SeededRng(1, k)).ravel() for k in range(40)]
        )
        assert draws.size == 100_000
        assert abs(draws.var() - 0.02) < 0.05 * 0.02
        assert abs(draws.mean()) < 3 * np.sqrt(0.02 / draws.size) * 10

    def test_he_variance(self):
        draws = np.concatenate(
            [init_tensor((50, 50), HE, SeededRng(2, k)).ravel() for k in range(40)]
        )
        assert abs(draws.var() - 0.04) < 0.05 * 0.04

    def test_gaussian_scale(self):
        t = init_tensor((400, 250), InitScheme("gaussian", scale=0.5), SeededRng(3))
        assert abs(t.std() - 0.5) < 0.01

    def test_conv_fans_include_receptive_field(self):
        # he on [c_out, c_in, 3, 3]: var = 2 / (c_in * 9)
        t = np.concatenate(
            [
                init_tensor((32, 16, 3, 3), HE, SeededRng(4, k)).ravel()
                for k in range(20)
            ]
        )
        assert abs(t.var() - 2.0 / 144.0) < 0.05 * 2.0 / 144.0

    def test_deterministic(self):
        a = init_tensor((5, 5), XAVIER, SeededRng(11, 2))
        b = init_tensor((5, 5), XAVIER, SeededRng(11, 2))
        assert_array_equal(a, b)

    def test_bad_shape(self):
        with pytest.raises(DimensionError):
            init_tensor((5, 0), XAVIER, SeededRng(0))
        with pytest.raises(DimensionError):
            init_tensor((5, 5, 5), XAVIER, SeededRng(0))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            InitScheme("uniform")


class TestMatmul:
    def test_hand_example(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
        assert_array_equal(out, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        a = SeededRng(0).generator().normal(size=(4, 6))
        assert_allclose(matmul(a, np.eye(6)), a, rtol=0, atol=0)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(DimensionError):
            matmul(np.zeros(3), np.zeros((3, 2)))


class TestConvForward:
    def test_identity_kernel(self):
        x = SeededRng(5).generator().normal(size=(2, 3, 4, 4))
        k = np.zeros((3, 3, 3, 3))
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        assert_allclose(conv2d_forward(x, k), x, rtol=0, atol=0)

    def test_ones_kernel_border_counts(self):
        # All-ones input and kernel: each output counts the in-range taps.
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        expect = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        assert_array_equal(conv2d_forward(x, k)[0, 0], expect)

    def test_matches_bruteforce(self):
        gen = SeededRng(9).generator()
        for b, ci, co, h, w in itertools.product(
            (1, 2), (1, 2), (1, 2), (1, 2, 4), (1, 3, 4)
        ):
            x = gen.normal(size=(b, ci, h, w))
            k = gen.normal(size=(co, ci, 3, 3))
            assert_allclose(
                conv2d_forward(x, k), conv_bruteforce(x, k), rtol=1e-12, atol=1e-12
            )

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            conv2d_forward(np.zeros((2, 3, 4)), np.zeros((1, 3, 3, 3)))
        with pytest.raises(DimensionError):
            conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 5, 5)))
        with pytest.raises(DimensionError):
            conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)))

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_identity_kernel_property(self, c, h, w, seed):
        x = SeededRng(seed).generator().normal(size=(1, c, h, w))
        k = np.zeros((c, c, 3, 3))
        k[np.arange(c), np.arange(c), 1, 1] = 1.0
        assert_allclose(conv2d_forward(x, k), x, rtol=0, atol=0)


class TestConvBackward:
    def test_single_summand(self):
        # 1x1 image: only the center tap is in range.
        x = np.full((1, 1, 1, 1), 3.0)
        k = SeededRng(1).generator().normal(size=(1, 1, 3, 3))
        up = np.full((1, 1, 1, 1), 2.0)
        dx, dk = conv2d_backward(up, x, k)
        expect_k = np.zeros((1, 1, 3, 3))
        expect_k[0, 0, 1, 1] = 6.0
        assert_array_equal(dk, expect_k)
        assert_array_equal(dx, np.full((1, 1, 1, 1), 2.0 * k[0, 0, 1, 1]))

    def test_finite_difference(self):
        gen = SeededRng(12).generator()
        shapes = [(2, 2, 3, 3, 4)] + list(
            itertools.product((1, 2), (1, 2), (1, 2), (1, 2, 4), (1, 3, 4))
        )
        for b, ci, co, h, w in shapes:
            x = gen.normal(size=(b, ci, h, w))
            k = gen.normal(size=(co, ci, 3, 3))
            proj = gen.normal(size=(b, co, h, w))

            dx, dk = conv2d_backward(proj, x, k)
            fx = fd_grad(lambda v: float(np.sum(conv2d_forward(v, k) * proj)), x)
            fk = fd_grad(lambda v: float(np.sum(conv2d_forward(x, v) * proj)), k)
            assert_allclose(dx, fx, rtol=1e-6, atol=1e-8)
            assert_allclose(dk, fk, rtol=1e-6, atol=1e-8)

    def test_upstream_shape_checked(self):
        with pytest.raises(DimensionError):
            conv2d_backward(
                np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 5)), np.zeros((2, 2, 3, 3))
            )


class TestSummandStats:
    def test_matches_bruteforce(self):
        gen = SeededRng(21).generator()
        shapes = [(1, 1, 1, 2, 2), (2, 2, 3, 3, 2), (2, 1, 2, 4, 4), (2, 2, 1, 1, 1),
                  (2, 3, 2, 2, 5)]
        for b, ci, co, h, w in shapes:
            x = gen.normal(size=(b, ci, h, w))
            up = gen.normal(size=(b, co, h, w))
            got = conv2d_summand_stats(up, x)
            total, abs_sum, batch_p, spatial_p = summand_bruteforce(up, x)
            assert_allclose(got.total, total, rtol=1e-12, atol=1e-12)
            assert_allclose(got.abs_sum, abs_sum, rtol=1e-12, atol=1e-12)
            assert_allclose(got.batch_partial, batch_p, rtol=1e-12, atol=1e-12)
            assert_allclose(got.spatial_partial, spatial_p, rtol=1e-12, atol=1e-12)

    def test_total_is_kernel_gradient(self):
        gen = SeededRng(22).generator()
        x = gen.normal(size=(2, 2, 4, 4))
        k = gen.normal(size=(3, 2, 3, 3))
        up = gen.normal(size=(2, 3, 4, 4))
        _, dk = conv2d_backward(up, x, k)
        assert_allclose(conv2d_summand_stats(up, x).total, dk, rtol=1e-12, atol=1e-12)

    def test_no_cancellation_when_all_positive(self):
        gen = SeededRng(23).generator()
        x = np.abs(gen.normal(size=(2, 1, 3, 3))) + 0.1
        up = np.abs(gen.normal(size=(2, 2, 3, 3))) + 0.1
        s = conv2d_summand_stats(up, x)
        assert_allclose(s.abs_sum, np.abs(s.total), rtol=1e-12)
        assert_allclose(s.batch_partial, np.abs(s.total), rtol=1e-12)
        assert_allclose(s.spatial_partial, np.abs(s.total), rtol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_triangle_chain(self, seed):
        gen = SeededRng(seed).generator()
        x = gen.normal(size=(2, 2, 3, 3))
        up = gen.normal(size=(2, 2, 3, 3))
        s = conv2d_summand_stats(up, x)
        tol = 1e-12 * np.max(s.abs_sum)
        assert np.all(s.abs_sum >= s.batch_partial - tol)
        assert np.all(s.abs_sum >= s.spatial_partial - tol)
        assert np.all(s.batch_partial >= np.abs(s.total) - tol)
        assert np.all(s.spatial_partial >= np.abs(s.total) - tol)


def charpoly_coeffs(a):
    """Faddeev-LeVerrier recursion; returns monic coefficients, highest first."""
    n = a.shape[0]
    m = np.eye(n)
    coeffs = [1.0]
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs.append(c)
        m = am + c * np.eye(n)
    return np.array(coeffs)


class TestGramEigenvalues:
    def test_two_by_two_hand_case(self):
        # X = [[3, 0], [4, 5]]: X^T X = [[25, 20], [20, 25]], spectrum {5, 45}.
        lam = gram_eigenvalues(np.array([[3.0, 0.0], [4.0, 5.0]]))
        assert_allclose(lam, [5.0, 45.0], rtol=1e-12)

    def test_diagonal(self):
        lam = gram_eigenvalues(np.diag([3.0, -1.0, 0.5]))
        assert_allclose(lam, [0.25, 1.0, 9.0], rtol=1e-13)

    def test_charpoly_oracle(self):
        x = SeededRng(31).generator().normal(size=(5, 5))
        lam = gram_eigenvalues(x)
        roots = np.roots(charpoly_coeffs(x.T @ x))
        assert np.max(np.abs(roots.imag)) < 1e-8
        assert_allclose(lam, np.sort(roots.real), rtol=1e-8)

    def test_frobenius_sum(self):
        x = SeededRng(32).generator().normal(size=(50, 50))
        assert_allclose(gram_eigenvalues(x).sum(), np.sum(x * x), rtol=1e-10)

    def test_ascending_and_nonnegative(self):
        x = SeededRng(33).generator().normal(size=(20, 20))
        x[:, 0] = 0.0  # force a zero singular value
        lam = gram_eigenvalues(x)
        assert np.all(np.diff(lam) >= 0)
        assert np.all(lam >= 0)
        assert lam[0] < 1e-28

    def test_errors(self):
        with pytest.raises(DimensionError):
            gram_eigenvalues(np.zeros((3, 4)))
        bad = np.eye(3)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            gram_eigenvalues(bad)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
        )
    )
    def test_diagonal_property(self, diag):
        lam = gram_eigenvalues(np.diag(diag))
        assert_allclose(lam, np.sort(np.square(diag)), rtol=1e-12, atol=1e-12)


def test_as_tensor_dtype_and_layout():
    t = as_tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float64
    assert t.flags["C_CONTIGUOUS"]
