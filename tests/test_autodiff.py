"""Gradient engine tests: oracles are nested loops and central differences."""

import tracemalloc
import zlib

import numpy as np
import pytest

from masko import autodiff as ad
from masko.errors import ContractError, DimensionError, ParameterError


def matmul_loops(a, b):
    """Independent nested-loop reference product."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def conv2d_loops(x, k, pad):
    """Independent six-nested-loop cross-correlation with zero padding."""
    nb, ci, h, w = x.shape
    co, ci2, kh, kw = k.shape
    assert ci == ci2
    out = np.zeros((nb, co, h, w))
    for b in range(nb):
        for o in range(co):
            for i in range(h):
                for j in range(w):
                    s = 0.0
                    for di in range(kh):
                        for dj in range(kw):
                            ii = i + di - pad
                            jj = j + dj - pad
                            if 0 <= ii < h and 0 <= jj < w:
                                for c in range(ci):
                                    s += x[b, c, ii, jj] * k[o, c, di, dj]
                    out[b, o, i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        tape = ad.Tape()
        a = tape.constant(np.eye(2))
        b = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projection(self):
        tape = ad.Tape()
        a = tape.constant([[1.0, 0.0], [0.0, 0.0]])
        b = tape.constant([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        tape = ad.Tape()
        out = ad.matmul(tape.constant(a), tape.constant(b))
        np.testing.assert_allclose(out.data, matmul_loops(a, b), atol=1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a, b, c = (rng.standard_normal(s) for s in ((3, 4), (4, 5), (5, 2)))
            tape = ad.Tape()
            ta, tb, tc = tape.constant(a), tape.constant(b), tape.constant(c)
            left = ad.matmul(ad.matmul(ta, tb), tc).data
            right = ad.matmul(ta, ad.matmul(tb, tc)).data
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 3, 4))
        b = rng.standard_normal((6, 4, 2))
        tape = ad.Tape()
        out = ad.matmul(tape.constant(a), tape.constant(b)).data
        for i in range(6):
            np.testing.assert_allclose(out[i], matmul_loops(a[i], b[i]), atol=1e-13)

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            ad.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))


class TestSigmoidTemp:
    def test_zero_is_half(self):
        tape = ad.Tape()
        for lam in (0.1, 0.3, 1.0, 5.0):
            assert ad.sigmoid_temp(tape.constant([0.0]), lam).data[0] == 0.5

    def test_point_value(self):
        tape = ad.Tape()
        got = ad.sigmoid_temp(tape.constant([2.0]), 1.0).data[0]
        assert got == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_derivative_at_zero(self):
        # analytic slope at 0 is 1/(4*lam); confirm backward and central diffs
        lam = 0.3
        tape = ad.Tape()
        x = tape.param([0.0])
        y = ad.sigmoid_temp(x, lam).sum()
        tape.backward(y)
        assert x.grad[0] == pytest.approx(1.0 / (4.0 * lam), rel=1e-12)
        h = 1e-6

        def s(v):
            return 1.0 / (1.0 + np.exp(-v / lam))

        fd = (s(h) - s(-h)) / (2 * h)
        assert x.grad[0] == pytest.approx(fd, rel=1e-8)

    def test_bad_temperature(self):
        tape = ad.Tape()
        with pytest.raises(ParameterError):
            ad.sigmoid_temp(tape.constant([1.0]), 0.0)


class TestClamp01:
    @pytest.mark.parametrize("x,expect", [(0.5, 0.5), (-0.1, 0.0), (1.1, 1.0)])
    def test_values(self, x, expect):
        tape = ad.Tape()
        assert ad.clamp01(tape.constant([x])).data[0] == expect

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 3, size=100)
        tape = ad.Tape()
        once = ad.clamp01(tape.constant(x))
        twice = ad.clamp01(once)
        assert np.array_equal(once.data, twice.data)

    def test_gradient_gate(self):
        tape = ad.Tape()
        x = tape.param([-0.5, 0.0, 0.25, 1.0, 1.5])
        y = ad.clamp01(x).sum()
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 0.0, 0.0])


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        tape = ad.Tape()
        out = ad.conv2d(tape.constant(x), tape.constant(k))
        np.testing.assert_array_equal(out.data, x)

    def test_ones_kernel_tap_counts(self):
        x = np.ones((1, 1, 5, 5))
        k = np.ones((1, 1, 3, 3))
        tape = ad.Tape()
        out = ad.conv2d(tape.constant(x), tape.constant(k)).data[0, 0]
        assert out[2, 2] == 9.0
        assert out[0, 2] == 6.0
        assert out[0, 0] == 4.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        tape = ad.Tape()
        out = ad.conv2d(tape.constant(x), tape.constant(k))
        np.testing.assert_allclose(out.data, conv2d_loops(x, k, 1), atol=1e-12)

    @pytest.mark.parametrize(
        "x_shape,k_shape",
        [
            ((2, 1, 8, 8), (16, 1, 3, 3)),  # decoder input conv
            ((2, 16, 8, 8), (16, 16, 3, 3)),  # residual-block conv
            ((2, 16, 8, 8), (1, 16, 3, 3)),  # decoder output conv
            ((2, 1, 6, 6), (4, 1, 3, 3)),
            ((2, 4, 6, 6), (1, 4, 3, 3)),
            ((2, 3, 6, 6), (2, 3, 1, 1)),
            ((2, 3, 7, 7), (2, 3, 5, 5)),
            ((1, 3, 8, 8), (4, 3, 3, 3)),
            ((2, 3, 6, 9), (4, 3, 3, 3)),
        ],
    )
    def test_layer_and_edge_shapes_against_loop_oracle(self, x_shape, k_shape):
        rng = np.random.default_rng(zlib.crc32(repr((x_shape, k_shape)).encode()))
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal(k_shape)
        tape = ad.Tape()
        out = ad.conv2d(tape.constant(x), tape.constant(k))
        np.testing.assert_allclose(out.data, conv2d_loops(x, k, k_shape[2] // 2), atol=1e-12)

    @pytest.mark.parametrize("size", [3, 1])
    @pytest.mark.parametrize("wrt", ["x", "k"])
    def test_gradients_match_central_differences(self, wrt, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal((2, 2, 4, 5))
        k = rng.standard_normal((3, 2, size, size))
        weights = rng.standard_normal((2, 3, 4, 5))

        def f(t):
            tape = t.tape
            xt = t.reshape(x.shape) if wrt == "x" else tape.constant(x)
            kt = t.reshape(k.shape) if wrt == "k" else tape.constant(k)
            return (ad.conv2d(xt, kt) * tape.constant(weights)).sum()

        assert ad.grad_check(f, x if wrt == "x" else k, step=1e-5) < 1e-4

    def test_forward_and_backward_allocate_no_im2col_matrix(self):
        # A 3x3 im2col matrix alone is 9 x.nbytes; the padded-row GEMMs
        # peak at about 6.6 x.nbytes here.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((64, 16, 28, 28))
        k = rng.standard_normal((16, 16, 3, 3))
        tracemalloc.start()
        try:
            tape = ad.Tape()
            xt, kt = tape.param(x), tape.param(k)
            tape.backward(ad.conv2d(xt, kt).sum())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert xt.grad.shape == x.shape and kt.grad.shape == k.shape
        assert peak < 8 * x.nbytes

    def test_channel_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            ad.conv2d(tape.constant(np.zeros((1, 2, 4, 4))), tape.constant(np.zeros((1, 3, 3, 3))))

    def test_unbatched_input_rejected(self):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            ad.conv2d(tape.constant(np.zeros((1, 4, 4))), tape.constant(np.zeros((1, 1, 3, 3))))


class TestBackward:
    def test_sum_gives_ones(self):
        tape = ad.Tape()
        x = tape.param(np.arange(6.0).reshape(2, 3))
        tape.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_affine_sigmoid_matches_central_differences(self):
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal((5, 3))
        b0 = rng.standard_normal(5)
        z0 = rng.standard_normal((3, 1))

        def loss_of(w_arr, b_arr):
            tape = ad.Tape()
            w = tape.param(w_arr)
            b = tape.param(b_arr)
            z = tape.constant(z0)
            y = ad.sigmoid_temp(ad.matmul(w, z) + b.reshape((5, 1)), 0.7).mean()
            return tape, w, b, y

        tape, w, b, y = loss_of(w0, b0)
        tape.backward(y)
        h = 1e-5
        for arr, leaf in ((w0, w), (b0, b)):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                if arr is w0:
                    hi = loss_of(up.reshape(arr.shape), b0)[3].item()
                    lo = loss_of(dn.reshape(arr.shape), b0)[3].item()
                else:
                    hi = loss_of(w0, up)[3].item()
                    lo = loss_of(w0, dn)[3].item()
                numeric = (hi - lo) / (2 * h)
                rel = abs(leaf.grad.reshape(-1)[i] - numeric) / max(1e-8, abs(numeric))
                assert rel < 1e-4

    def test_unused_parameter_grad_is_zero(self):
        tape = ad.Tape()
        x = tape.param([1.0, 2.0])
        unused = tape.param([3.0])
        tape.backward(x.sum())
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.param([1.0, 2.0])
        with pytest.raises(ContractError):
            tape.backward(x)

    def test_second_backward_on_a_tape_is_rejected(self):
        tape = ad.Tape()
        x = tape.param([1.0, 2.0])
        loss = (x * x).sum()
        tape.backward(loss)
        with pytest.raises(ContractError, match="already"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_gradient_linearity(self):
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(8)

        def grads(combine):
            tape = ad.Tape()
            x = tape.param(x0)
            l1 = ad.sigmoid_temp(x, 1.0).sum()
            l2 = (x * x).mean()
            tape.backward(l1 + l2 if combine else l1)
            if not combine:
                g1 = x.grad.copy()
                tape2 = ad.Tape()
                x2 = tape2.param(x0)
                tape2.backward((x2 * x2).mean())
                return g1 + x2.grad
            return x.grad

        np.testing.assert_allclose(grads(True), grads(False), atol=1e-12)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        err = ad.grad_check(lambda t: (t * t).sum(), np.array([3.0]))
        assert err < 1e-8

    @pytest.mark.parametrize(
        "name,fn,domain",
        [
            ("add", lambda t: (t + t.tape.constant(np.full(6, 0.7))).sum(), (-2, 2)),
            ("sub", lambda t: (t - 1.3).mean(), (-2, 2)),
            ("mul", lambda t: (t * t.tape.constant(np.linspace(0.5, 2, 6))).sum(), (-2, 2)),
            ("div", lambda t: (1.0 / t).sum(), (0.5, 2)),
            ("matmul", lambda t: ad.matmul(t.reshape((2, 3)), t.reshape((3, 2))).sum(), (-1, 1)),
            ("transpose", lambda t: (ad.transpose(t.reshape((2, 3))) * 2.0).sum(), (-1, 1)),
            ("sigmoid", lambda t: ad.sigmoid_temp(t, 0.4).sum(), (-2, 2)),
            ("clamp01", lambda t: ad.clamp01(t).sum(), (0.1, 0.9)),
            ("leaky_relu", lambda t: ad.leaky_relu(t, 0.2).sum(), (0.2, 2)),
            ("softplus", lambda t: ad.softplus(t).sum(), (-2, 2)),
            ("exp", lambda t: ad.exp(t).sum(), (-1, 1)),
            ("log", lambda t: ad.log(t).sum(), (0.5, 3)),
            ("sqrt", lambda t: ad.sqrt(t).sum(), (0.5, 3)),
            ("normal_cdf", lambda t: ad.normal_cdf(t).sum(), (-2, 2)),
            ("mean", lambda t: (t * t).mean(), (-2, 2)),
            ("sum_axis", lambda t: (t.reshape((2, 3)).sum(axis=1) * 3.0).sum(), (-2, 2)),
            ("conv", lambda t: ad.conv2d(
                t.tape.constant(np.linspace(-1, 1, 32).reshape(1, 2, 4, 4)),
                t.reshape((1, 2, 3, 3)),
            ).sum(), (-1, 1)),
            ("reshape", lambda t: (t.reshape((3, 2)) * 1.5).sum(), (-2, 2)),
        ],
    )
    def test_every_primitive_on_random_inputs(self, name, fn, domain):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        size = 18 if name == "conv" else 6
        for _ in range(10):
            theta = rng.uniform(domain[0], domain[1], size=size)
            assert ad.grad_check(fn, theta, step=1e-5) < 1e-4

    def test_rejects_bad_step(self):
        with pytest.raises(ParameterError):
            ad.grad_check(lambda t: t.sum(), np.array([1.0]), step=0.0)
