"""Gradient engine tests: oracles are nested loops and central differences."""

import operator
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from scipy import special
from scipy.linalg.blas import dgemm

from masko import autodiff as ad
from masko.errors import ContractError, DimensionError, ParameterError

from oracles import grad_check, ndtr_cephes


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


def cm(a):
    """Swap the two leading axes: (B, C, H, W) <-> channel-major (C, B, H, W)."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


def generic_layer(x, k, bias, slope=None, skip=None):
    """The generic op chain a fused conv2d layer replaces: conv2d, + bias, leaky_relu / + skip."""
    out = ad.conv2d(x, k) + bias.reshape((bias.shape[0], 1, 1, 1))
    if slope is not None:
        out = ad.leaky_relu(out, slope)
    if skip is not None:
        out = skip + out
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

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            ad.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))
        with pytest.raises(DimensionError):  # 2-D operands only
            ad.matmul(tape.constant(np.zeros((6, 3, 4))), tape.constant(np.zeros((6, 4, 2))))


def run_leaves(op, arrays, g):
    """Output of ``op`` on ``arrays`` bound as leaves, and every leaf's
    gradient for the output gradient ``g``."""
    tape = ad.Tape()
    t = {name: tape.param(a) for name, a in arrays.items()}
    out = op(**t)
    tape.backward((out * tape.constant(g)).sum())
    return out.data, {name: leaf.grad for name, leaf in t.items()}


def assert_same_bits(fused, chain):
    (out, grads), (chain_out, chain_grads) = fused, chain
    assert out.tobytes() == chain_out.tobytes()
    for name, grad in grads.items():
        assert grad.tobytes() == chain_grads[name].tobytes(), name


# (rows, batch) of the mask-path arrays: a decoder output and a hidden layer
# at B=128, one column, and a strided view.
ELEMENTWISE_CASES = [(784, 128, False), (256, 128, False), (784, 1, False), (784, 128, True)]


def elementwise_array(rng, rows, nb, strided, low=-1.0, high=1.0):
    if strided:
        return rng.uniform(low, high, size=(rows, 2 * nb))[:, ::2]
    return rng.uniform(low, high, size=(rows, nb))


class TestMatmulBias:
    """``matmul(a, b, bias)``: the GEMM output plus a bias column, one record."""

    @pytest.mark.parametrize(
        "m,k,nb,strided",
        [
            (784, 256, 128, False),  # MLP output layer
            (256, 784, 128, False),  # MLP first layer
            (256, 784, 1, False),
            (256, 784, 128, True),
        ],
    )
    def test_equals_matmul_reshape_add_bit_for_bit(self, m, k, nb, strided):
        rng = np.random.default_rng(zlib.crc32(repr((m, k, nb, strided)).encode()))
        a = rng.standard_normal((k, m)).T if strided else rng.standard_normal((m, k))
        b = rng.standard_normal((k, 2 * nb))[:, ::2] if strided else rng.standard_normal((k, nb))
        assert a.flags.c_contiguous != strided and b.flags.c_contiguous != strided
        arrays = {"a": a, "b": b, "bias": rng.standard_normal(m)}
        g = rng.standard_normal((m, nb))
        fused = run_leaves(ad.matmul, arrays, g)
        chain = run_leaves(lambda a, b, bias: ad.matmul(a, b) + bias.reshape((m, 1)), arrays, g)
        assert_same_bits(fused, chain)

    @pytest.mark.parametrize("wrt", ["a", "b", "bias"])
    def test_gradients_match_central_differences(self, wrt):
        rng = np.random.default_rng(zlib.crc32(f"matmul-bias/{wrt}".encode()))
        arrays = {name: rng.standard_normal(shape) for name, shape in [("a", (3, 4)), ("b", (4, 5)), ("bias", 3)]}
        weights = rng.standard_normal((3, 5))

        def f(t):
            tape = t.tape
            x = {name: t.reshape(a.shape) if name == wrt else tape.constant(a) for name, a in arrays.items()}
            return (ad.matmul(x["a"], x["b"], x["bias"]) * tape.constant(weights)).sum()

        assert grad_check(f, arrays[wrt], step=1e-5) < 1e-4

    @pytest.mark.parametrize("bias_shape", [(2,), (4,), (3, 1), (1, 3), ()])
    def test_bias_not_one_per_output_row_rejected(self, bias_shape):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            ad.matmul(*(tape.constant(np.zeros(shape)) for shape in [(3, 4), (4, 5), bias_shape]))


class TestAffineClamp01:
    """``clamp01(x, scale, shift)``: the stretch's mul, add and clamp in one record."""

    @pytest.mark.parametrize("rows,nb,strided", ELEMENTWISE_CASES)
    def test_equals_mul_add_clamp_bit_for_bit(self, rows, nb, strided):
        rng = np.random.default_rng(zlib.crc32(repr(("clamp", rows, nb, strided)).encode()))
        x = elementwise_array(rng, rows, nb, strided, 0.0, 1.0)
        x[:8, 0] = [0.0, 1.0, -0.0, 1.0 / 12.0, 11.0 / 12.0, 0.5, 1e-300, 1 - 2**-53]
        g = rng.standard_normal((rows, nb))
        scale, shift = 1.2, -0.1  # the default stretch, eta - gamma and gamma
        fused = run_leaves(lambda x: ad.clamp01(x, scale, shift), {"x": x}, g)
        chain = run_leaves(lambda x: ad.clamp01(x * scale + shift), {"x": x}, g)
        assert_same_bits(fused, chain)
        assert fused[0].min() == 0.0 and fused[0].max() == 1.0  # both clipped ends are reached

    def test_gradient_matches_central_differences(self):
        # Inputs whose stretched values keep clear of the kinks at 0 and 1.
        weights = np.linspace(-1.0, 2.0, 6)
        theta = np.array([0.2, 0.35, 0.5, 0.65, 0.8, 0.1])
        assert grad_check(lambda t: (ad.clamp01(t, 1.2, -0.1) * t.tape.constant(weights)).sum(), theta) < 1e-6

    def test_defaults_turn_negative_zero_positive(self):
        out = ad.clamp01(ad.Tape().constant([-0.0, 0.0])).data
        assert not np.signbit(out).any()


class TestSigmoidTempBackward:
    @pytest.mark.parametrize("rows,nb,strided", ELEMENTWISE_CASES)
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_equals_the_one_expression_rule_bit_for_bit(self, rows, nb, strided, lam):
        rng = np.random.default_rng(zlib.crc32(repr(("sigmoid", rows, nb, strided, lam)).encode()))
        x = elementwise_array(rng, rows, nb, strided, -3.0, 3.0)
        g = rng.standard_normal((rows, nb))
        out, grads = run_leaves(lambda x: ad.sigmoid_temp(x, lam), {"x": x}, g)
        assert grads["x"].tobytes() == (g * out * (1.0 - out) / lam).tobytes()


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


def ulps(got, ref):
    """Units in the last place between two non-negative float64 arrays."""
    assert not (np.signbit(got).any() or np.signbit(ref).any())
    return np.abs(got.view(np.int64) - ref.view(np.int64))


class TestScipySpecialInNumpy:
    """``_ndtr`` and ``_expit`` replace scipy.special's ndtr and expit.  They
    run scipy's formulas in the same order of rounding, but on numpy's exp,
    whose last bit differs from the C library's for about 4% of doubles; at
    most 4 ulps of the result follow from that (measured on 4e6 draws)."""

    ULPS = 4

    def test_transcription_is_scipys_ndtr_bit_for_bit(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.uniform(-40.0, 40.0, 70_000), rng.standard_normal(30_000) * 3.0])
        got = np.array([ndtr_cephes(v) for v in x.tolist()])
        assert got.tobytes() == special.ndtr(x).tobytes()

    def test_vectorised_is_the_transcription_on_numpys_exp(self):
        x = np.random.default_rng(24).uniform(-40.0, 40.0, 20_000)
        want = np.array([ndtr_cephes(v, lambda t: float(np.exp(t))) for v in x.tolist()])
        assert ad._ndtr(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "low,high",  # |x|/sqrt(2) below 1 (erf T/U), from 1 to 8 (erfc P/Q), from 8 on (R/S, then 0)
        [(-1.4142, 1.4142), (1.4143, 11.313), (-11.313, -1.4143), (11.314, 40.0), (-40.0, -11.314)],
    )
    def test_ndtr_within_ulps_of_scipy(self, low, high):
        x = np.random.default_rng(zlib.crc32(repr((low, high)).encode())).uniform(low, high, 200_000)
        assert ulps(ad._ndtr(x), special.ndtr(x)).max() <= self.ULPS

    def test_ndtr_special_values_as_scipys(self):
        edges = [np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * ad._MAXLOG)]
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308, 38.5, -38.5]
                     + [s * np.nextafter(e, t) for e in edges for t in (0.0, 99.0) for s in (1.0, -1.0)])
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error")
            got = ad._ndtr(x)
            zero = ad._ndtr(np.array(0.0))
        assert zero.shape == () and zero == 0.5
        np.testing.assert_array_equal(got, special.ndtr(x))

    @pytest.mark.parametrize("lam", [1.0, 0.3])
    @pytest.mark.parametrize("bound", [40.0, 800.0])
    def test_expit_within_ulps_of_scipy(self, lam, bound):
        x = np.random.default_rng(zlib.crc32(repr((lam, bound)).encode())).uniform(-bound, bound, 200_000)
        x[:8] = [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, -746.0, -1e300]
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error")
            got = ad._expit(x, lam)
        with np.errstate(over="ignore"):
            want = special.expit(x / lam)
        assert ulps(got, want).max() <= self.ULPS
        assert np.isnan(ad._expit(np.array([np.nan]), lam)).all()


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
        out = ad.conv2d(tape.constant(cm(x)), tape.constant(k))
        np.testing.assert_allclose(cm(out.data), conv2d_loops(x, k, 1), atol=1e-12)

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
        out = ad.conv2d(tape.constant(cm(x)), tape.constant(k))
        np.testing.assert_allclose(cm(out.data), conv2d_loops(x, k, k_shape[2] // 2), atol=1e-12)

    @pytest.mark.parametrize(
        "x_shape,k_shape",
        [
            ((16, 1, 28, 28), (16, 1, 3, 3)),  # input conv: K = 1 GEMMs, one-row GEMMs backward
            ((5, 16, 28, 28), (16, 16, 3, 3)),  # residual-block conv
            ((5, 16, 28, 28), (1, 16, 3, 3)),  # output conv: one-row GEMMs, K = 1 GEMMs backward
            ((5, 4, 28, 28), (4, 4, 3, 3)),  # a width no workload runs
        ],
    )
    def test_panels_equal_one_piece_accumulation(self, x_shape, k_shape):
        # The padded rows span several panels and end in a short one; the
        # panels must not move a bit against full-width per-offset GEMMs
        # over channel-major padded rows, summed in numpy.  A one-row
        # product is scipy's dgemm, which conv2d calls at every width and
        # which rounds a C_out = 1 sum in its own order.  The kernel
        # gradient sums each offset's products over the same panels.
        nb, _, h, w = x_shape
        wp, n = w + 2, nb * (h + 2) * (w + 2)
        assert n > ad.PANEL and n % ad.PANEL != 0

        def padded(a):
            rows = np.zeros((a.shape[1], n + 2 * (wp + 1)))
            rows[:, :n].reshape(-1, nb, h + 2, wp)[:, :, 1:-1, 1:-1] = cm(a)
            return rows

        def one_piece(x, k):
            rows = padded(x)
            product = np.matmul if k.shape[0] > 1 else lambda kk, r: dgemm(1.0, kk, r)
            taps = [(di * wp + dj, k[:, :, di, dj]) for di in range(3) for dj in range(3)]
            acc = product(taps[0][1], rows[:, taps[0][0] : taps[0][0] + n])
            for s, kk in taps[1:]:
                acc += product(kk, rows[:, s : s + n])
            grid = acc.reshape(k.shape[0], nb, h + 2, w + 2)[:, :, :h, :w]
            return grid.transpose(1, 0, 2, 3)

        def kernel_grad(x, g):
            # Each offset's products over PANEL rows at a time, added in
            # order, on pixel-major operands as conv2d makes them.
            x_rows, g_rows = padded(x).T.copy(), padded(g).T[wp + 1 : wp + 1 + n].copy()
            gk = np.empty(k.shape)
            for a in range(0, n, ad.PANEL):
                b = min(a + ad.PANEL, n)
                for di in range(3):
                    for dj in range(3):
                        s = di * wp + dj
                        term = g_rows[a:b].T @ x_rows[s + a : s + b]
                        gk[:, :, di, dj] = term if a == 0 else gk[:, :, di, dj] + term
            return gk

        rng = np.random.default_rng(zlib.crc32(repr((x_shape, k_shape)).encode()))
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal(k_shape)
        g = rng.standard_normal((nb, k_shape[0], h, w))
        tape = ad.Tape()
        xt, kt = tape.param(cm(x)), tape.param(k)
        out = ad.conv2d(xt, kt)
        tape.backward((out * tape.constant(cm(g))).sum())
        assert np.array_equal(cm(out.data), one_piece(x, k))
        flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        assert np.array_equal(cm(xt.grad), one_piece(g, flipped))
        assert kt.grad.tobytes() == kernel_grad(x, g).tobytes()

    @pytest.mark.parametrize("size", [3, 1])
    @pytest.mark.parametrize("wrt", ["x", "k"])
    def test_gradients_match_central_differences(self, wrt, size):
        rng = np.random.default_rng(size)
        x = cm(rng.standard_normal((2, 2, 4, 5)))
        k = rng.standard_normal((3, 2, size, size))
        weights = cm(rng.standard_normal((2, 3, 4, 5)))

        def f(t):
            tape = t.tape
            xt = t.reshape(x.shape) if wrt == "x" else tape.constant(x)
            kt = t.reshape(k.shape) if wrt == "k" else tape.constant(k)
            return (ad.conv2d(xt, kt) * tape.constant(weights)).sum()

        assert grad_check(f, x if wrt == "x" else k, step=1e-5) < 1e-4

    def test_panelled_kernel_gradient_matches_central_differences(self):
        # 8 channels on both sides take the kernel gradient in panels; the
        # 3 x 30 x 30 = 2,700 padded rows make one full panel and a short one.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 3, 28, 28))
        k = rng.standard_normal((8, 8, 3, 3))
        weights = rng.standard_normal((8, 3, 28, 28))
        assert ad.PANEL < 3 * 30 * 30 < 2 * ad.PANEL

        def f(t):
            return (ad.conv2d(t.tape.constant(x), t.reshape(k.shape)) * t.tape.constant(weights)).sum()

        assert grad_check(f, k, step=1e-5, max_coords=12) < 1e-6

    def test_forward_and_backward_allocate_no_im2col_matrix(self):
        # A 3x3 im2col matrix alone is 9 x.nbytes; the padded-row GEMMs
        # peak at about 5.7 x.nbytes here.  The first conv2d imports
        # scipy's BLAS, whose allocations are not the op's.
        rng = np.random.default_rng(6)
        x = cm(rng.standard_normal((64, 16, 28, 28)))
        k = rng.standard_normal((16, 16, 3, 3))
        ad.conv2d(ad.Tape().constant(x[:, :1]), ad.Tape().constant(k))
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
            ad.conv2d(tape.constant(np.zeros((2, 1, 4, 4))), tape.constant(np.zeros((1, 3, 3, 3))))

    def test_unbatched_input_rejected(self):
        tape = ad.Tape()
        with pytest.raises(DimensionError):
            ad.conv2d(tape.constant(np.zeros((1, 4, 4))), tape.constant(np.zeros((1, 1, 3, 3))))


class TestConv2dLayer:
    """conv2d with its epilogue: ``skip + leaky(conv(x, k) + bias)`` as one op."""

    @pytest.mark.parametrize(
        "x_shape,k_shape,epilogue",
        [
            ((16, 5, 28, 28), (16, 16, 3, 3), "slope"),  # residual block, first conv
            ((16, 5, 28, 28), (16, 16, 3, 3), "skip"),  # residual block, second conv
            ((16, 5, 28, 28), (16, 16, 3, 3), "neither"),
            ((1, 16, 28, 28), (16, 1, 3, 3), "slope"),  # decoder input conv
            ((16, 5, 28, 28), (1, 16, 3, 3), "neither"),  # decoder output conv
        ],
    )
    def test_equals_generic_chain_bit_for_bit(self, x_shape, k_shape, epilogue):
        # Several panels ending in a short one, so every panel's epilogue runs.
        _, nb, h, w = x_shape
        assert nb * (h + 2) * (w + 2) > ad.PANEL and nb * (h + 2) * (w + 2) % ad.PANEL != 0
        rng = np.random.default_rng(zlib.crc32(repr((x_shape, k_shape, epilogue)).encode()))
        co = k_shape[0]
        arrays = {
            "x": rng.standard_normal(x_shape),
            "k": rng.standard_normal(k_shape),
            "bias": rng.standard_normal(co),
            "skip": rng.standard_normal((co, nb, h, w)),
        }
        g = rng.standard_normal((co, nb, h, w))
        slope = 0.2 if epilogue == "slope" else None

        def run(layer):
            tape = ad.Tape()
            t = {name: tape.param(a) for name, a in arrays.items()}
            skip = t["skip"] if epilogue == "skip" else None
            out = layer(t["x"], t["k"], t["bias"], slope=slope, skip=skip)
            tape.backward((out * tape.constant(g)).sum())
            return out.data, {name: leaf.grad for name, leaf in t.items()}

        fused, fused_grads = run(ad.conv2d)
        chain, chain_grads = run(generic_layer)
        assert np.array_equal(fused, chain)
        for name in arrays:
            assert np.array_equal(fused_grads[name], chain_grads[name]), name

    @pytest.mark.parametrize(
        "epilogue,wrt",
        [("slope", "x"), ("slope", "k"), ("slope", "bias"),
         ("skip", "x"), ("skip", "k"), ("skip", "bias"), ("skip", "skip")],
    )
    def test_gradients_match_central_differences(self, epilogue, wrt):
        rng = np.random.default_rng(zlib.crc32(f"{epilogue}/{wrt}".encode()))
        arrays = {
            "x": rng.standard_normal((2, 2, 4, 5)),
            "k": rng.standard_normal((3, 2, 3, 3)),
            "bias": rng.standard_normal(3),
            "skip": rng.standard_normal((3, 2, 4, 5)),
        }
        weights = rng.standard_normal((3, 2, 4, 5))

        def f(t):
            tape = t.tape
            b = {name: t.reshape(a.shape) if name == wrt else tape.constant(a) for name, a in arrays.items()}
            if epilogue == "slope":
                out = ad.conv2d(b["x"], b["k"], b["bias"], slope=0.2)
            else:
                out = ad.conv2d(b["x"], b["k"], b["bias"], skip=b["skip"])
            return (out * tape.constant(weights)).sum()

        assert grad_check(f, arrays[wrt], step=1e-5) < 1e-4

    def layer_args(self, tape, co=3, bias_shape=None, skip_shape=None):
        x = tape.constant(np.zeros((2, 1, 4, 4)))
        k = tape.constant(np.zeros((co, 2, 3, 3)))
        bias = tape.constant(np.zeros(bias_shape or (co,)))
        skip = tape.constant(np.zeros(skip_shape or (co, 1, 4, 4)))
        return x, k, bias, skip

    def test_slope_with_skip_rejected(self):
        x, k, bias, skip = self.layer_args(ad.Tape())
        with pytest.raises(ContractError):
            ad.conv2d(x, k, bias, slope=0.2, skip=skip)

    @pytest.mark.parametrize("bias_shape", [(2,), (4,), (3, 1), (1, 3, 1, 1)])
    def test_bias_not_one_per_output_channel_rejected(self, bias_shape):
        x, k, bias, _ = self.layer_args(ad.Tape(), bias_shape=bias_shape)
        with pytest.raises(DimensionError):
            ad.conv2d(x, k, bias)

    @pytest.mark.parametrize("skip_shape", [(3, 1, 4, 5), (1, 3, 4, 4), (3, 2, 4, 4), (3, 16)])
    def test_skip_shaped_unlike_output_rejected(self, skip_shape):
        x, k, bias, skip = self.layer_args(ad.Tape(), skip_shape=skip_shape)
        with pytest.raises(DimensionError):
            ad.conv2d(x, k, bias, skip=skip)

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_slope_outside_open_unit_interval_rejected(self, slope):
        x, k, bias, _ = self.layer_args(ad.Tape())
        with pytest.raises(ParameterError):
            ad.conv2d(x, k, bias, slope=slope)


def compact(t):
    """Identity op that hands on contiguous copies, forward and backward."""
    return t.tape.record(np.ascontiguousarray(t.data), (t,), lambda g, needs: (np.ascontiguousarray(g),))


def foreign_view(a, pad, halo):
    """``a`` as the interior view of pixel-major padded rows whose halo holds ``halo``."""
    c, nb, h, w = a.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.full((nb * hp * wp + 2 * pad * (wp + 1), c), halo)
    view = rows[: nb * hp * wp].reshape(nb, hp, wp, c)[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)
    view[...] = a
    assert ad._resident_rows(view, pad) is rows  # laid out as conv2d's own outputs
    return view


class TestConv2dResident:
    """Outputs and input gradients stay in zero-halo padded rows between layers."""

    def test_chain_fed_its_own_outputs_equals_chain_fed_copies(self):
        # A conv_resnet-like chain: 1 -> 4 (slope), 4 -> 4 (slope), 4 -> 4
        # (skip), 4 -> 1.  B=5 at 28x28 spans two panels, the last one short.
        nb, h, w = 5, 28, 28
        rng = np.random.default_rng(15)
        arrays = {"x": rng.standard_normal((1, nb, h, w))}
        for name, (co, ci) in {"1": (4, 1), "2": (4, 4), "3": (4, 4), "4": (1, 4)}.items():
            arrays[f"k{name}"] = rng.standard_normal((co, ci, 3, 3))
            arrays[f"b{name}"] = rng.standard_normal(co)
        g = rng.standard_normal((1, nb, h, w))

        def run(hand_on):
            tape = ad.Tape()
            t = {name: tape.param(a) for name, a in arrays.items()}
            c = ad.conv2d(t["x"], t["k1"], t["b1"], slope=0.2)
            a = ad.conv2d(hand_on(c), t["k2"], t["b2"], slope=0.2)
            c = ad.conv2d(hand_on(a), t["k3"], t["b3"], skip=hand_on(c))
            out = ad.conv2d(hand_on(c), t["k4"], t["b4"])
            tape.backward((out * tape.constant(g)).sum())
            return c.data, out.data, {name: leaf.grad for name, leaf in t.items()}

        c, resident, resident_grads = run(lambda t: t)
        assert ad._pad_rows(c, 1) is c.base  # handed on without a copy
        _, copied, copied_grads = run(compact)
        assert np.array_equal(resident, copied)
        for name in arrays:
            assert np.array_equal(resident_grads[name], copied_grads[name]), name

    @pytest.mark.parametrize("halo", [1.0, float("nan")])
    def test_foreign_interior_view_with_nonzero_halo_matches_oracle(self, halo):
        # A view laid out like a conv2d output but with a halo that is not
        # all +0.0 bits: as the input it must be padded afresh, and as the
        # skip its halo must not reach the output.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        skip = rng.standard_normal((2, 4, 8, 8))
        tape = ad.Tape()
        out = ad.conv2d(
            tape.constant(foreign_view(cm(x), 1, halo)),
            tape.constant(k),
            tape.constant(np.zeros(4)),
            skip=tape.constant(foreign_view(cm(skip), 1, halo)),
        )
        np.testing.assert_allclose(cm(out.data), conv2d_loops(x, k, 1) + skip, atol=1e-12)
        contiguous = ad.conv2d(
            tape.constant(cm(x)), tape.constant(k), tape.constant(np.zeros(4)), skip=tape.constant(cm(skip))
        )
        assert np.array_equal(out.data, contiguous.data)

    def test_two_resident_gradients_add_as_their_buffers(self):
        # A block input's input gradient and skip gradient are both interior
        # views of zero-halo rows: their sum is the same bits as the sum of
        # the views, and the next conv2d reads it without a copy.
        rng = np.random.default_rng(17)
        tape = ad.Tape()
        k = tape.constant(rng.standard_normal((4, 3, 3, 3)))
        a, b = (ad.conv2d(tape.constant(rng.standard_normal((3, 2, 8, 8))), k).data for _ in range(2))
        total = ad._sum_grads(a, b)
        assert total.tobytes() == (a + b).tobytes()
        assert ad._pad_rows(total, 1) is total.base

    @pytest.mark.parametrize("halo", [1.0, float("nan")])
    def test_sum_with_a_nonzero_halo_is_copied_before_use(self, halo):
        # Laid out like a resident gradient, so the buffers are added, but
        # the halo is not +0.0: the consumer's conv2d pads the sum afresh.
        rng = np.random.default_rng(18)
        tape = ad.Tape()
        x, k = rng.standard_normal((3, 2, 8, 8)), rng.standard_normal((4, 3, 3, 3))
        a = ad.conv2d(tape.constant(x), tape.constant(k)).data
        b = foreign_view(rng.standard_normal((4, 2, 8, 8)), 1, halo)
        total = ad._sum_grads(a, b)
        assert total.base.shape == a.base.shape
        assert total.tobytes() == (a + b).tobytes()
        rows = ad._pad_rows(total, 1)
        assert rows is not total.base
        assert np.array_equal(ad._interior(rows, 2, 8, 8, 1), a + b)

    def test_negative_zero_halo_is_copied(self):
        # -0.0 equals 0.0 but is not the +0.0 of a copied pad: with a zero
        # input, kernel signs that make every product at the corner -0.0
        # against the -0.0 halo, the corner's sign bit tells them apart.
        x = np.zeros((1, 1, 4, 4))
        k = -np.ones((1, 1, 3, 3))
        k[0, 0, 0, :] = k[0, 0, :, 0] = 1.0  # the taps that read the halo at (0, 0)
        tape = ad.Tape()
        trusted = ad.conv2d(tape.constant(foreign_view(x, 1, -0.0)), tape.constant(k)).data
        copied = ad.conv2d(tape.constant(x), tape.constant(k)).data
        assert not np.signbit(copied[0, 0, 0, 0])
        assert np.array_equal(np.signbit(trusted), np.signbit(copied))


# Each broadcasting op's operator, which is also its numpy forward, and the
# numpy expressions of its two operand gradients before ``_unbroadcast``.
BINARY_EXPRESSIONS = {
    "add": (operator.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (operator.sub, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (operator.mul, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (operator.truediv, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


def assert_bytes(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBroadcastingBinaryOps:
    # An operand is a leaf of a shape, a constant of a shape, or a Python float.
    @pytest.mark.parametrize("name", BINARY_EXPRESSIONS)
    @pytest.mark.parametrize(
        "a_kind,a_shape,b_kind,b_shape",
        [
            ("param", (5, 1), "param", (5, 4)),
            ("param", (5, 4), "param", (5, 1)),
            ("param", (), "param", (5, 4)),
            ("param", (5, 4), "param", ()),
            ("float", (), "param", (5, 4)),  # __rsub__, __rmul__, __rtruediv__
            ("param", (5, 4), "float", ()),
            ("const", (5, 1), "param", (5, 4)),
            ("param", (5, 4), "const", (5, 1)),
        ],
    )
    def test_forward_and_gradient_bytes(self, name, a_kind, a_shape, b_kind, b_shape):
        fn, grad_a, grad_b = BINARY_EXPRESSIONS[name]
        rng = np.random.default_rng(25)
        a0, b0 = rng.uniform(0.5, 2.0, a_shape), rng.uniform(0.5, 2.0, b_shape)
        g = rng.standard_normal(np.broadcast_shapes(a_shape, b_shape))
        tape = ad.Tape()
        bind = {"param": tape.param, "const": tape.constant, "float": float}
        a, b = bind[a_kind](a0), bind[b_kind](b0)
        # Tensor has no __radd__: the program never writes number + tensor.
        out = ad.add(a, b) if name == "add" and a_kind == "float" else fn(a, b)
        tape.backward((out * tape.constant(g)).sum())
        assert_bytes(out.data, fn(a0, b0))
        for x, kind, grad, shape in ((a, a_kind, grad_a, a_shape), (b, b_kind, grad_b, b_shape)):
            if kind == "param":
                assert_bytes(x.grad, ad._unbroadcast(grad(g, a0, b0), shape))
            elif kind == "const":
                assert x.grad is None


class TestTranspose:
    def test_forward_is_a_view_and_the_gradient_a_contiguous_copy(self):
        tape = ad.Tape()
        x = tape.param(np.arange(6.0).reshape(2, 3))
        y = ad.transpose(x)
        assert np.shares_memory(y.data, x.data)
        weights = np.arange(6.0).reshape(3, 2)
        tape.backward((y * weights).sum())
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, weights.T)


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

    def test_record_is_dropped_by_the_next_backward(self):
        # A tape's record and its tensors refer to each other; the next
        # tape's backward drops the record, and gradients stay readable.
        first, second = ad.Tape(), ad.Tape()
        x = first.param([1.0, 2.0])
        first.backward((x * x).sum())
        assert first._ops and first._leaves
        y = second.param([3.0])
        second.backward((y * y).sum())
        assert not first._ops and not first._leaves
        assert second._ops and second._leaves
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
        err = grad_check(lambda t: (t * t).sum(), np.array([3.0]))
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
                t.tape.constant(cm(np.linspace(-1, 1, 32).reshape(1, 2, 4, 4))),
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
            assert grad_check(fn, theta, step=1e-5) < 1e-4

    def test_rejects_bad_step(self):
        with pytest.raises(ParameterError):
            grad_check(lambda t: t.sum(), np.array([1.0]), step=0.0)
