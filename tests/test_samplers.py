"""Sampler forward passes, initialization statistics, checkpoint format."""

import io
import math

import numpy as np
import pytest

from masko import autodiff as ad
from masko import checkpoint as ck
from masko import samplers as sp
from masko.distributions import StretchConfig
from masko.errors import ConfigError, FormatError
from masko.rng import stream
from masko.training import TrainConfig, init_run

from oracles import grad_check, init_sampler

CFG = StretchConfig(gamma=-0.1, eta=1.1)


def forward_mean(kind, params, noise):
    tape = ad.Tape()
    out = sp.sampler_forward(tape, params, noise, CFG)
    return out.stretched.data.mean()


class TestVanillaForward:
    def test_saturated_positive_bias(self):
        p = sp.SamplerParams("vanilla", {"w": np.zeros((9, 2)), "b": np.full(9, 50.0)}, 0.3, 3, 2)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, np.zeros((2, 1)), CFG)
        np.testing.assert_array_equal(out.stretched.data, 1.0)

    def test_saturated_negative_bias(self):
        p = sp.SamplerParams("vanilla", {"w": np.zeros((9, 2)), "b": np.full(9, -50.0)}, 0.3, 3, 2)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, np.zeros((2, 1)), CFG)
        np.testing.assert_array_equal(out.stretched.data, 0.0)

    def test_gradcheck_stretched_mean(self):
        rng = np.random.default_rng(0)
        n, d = 3, 4
        z0 = rng.standard_normal((d, 2)) * 0.1
        b0 = rng.uniform(-0.2, 0.2, n * n)
        w0 = rng.uniform(-0.1, 0.1, size=n * n * d)
        p = sp.SamplerParams("vanilla", {"w": w0.reshape((n * n, d)), "b": b0}, 0.3, n, d)

        def f(w_leaf):
            leaves = {"w": w_leaf.reshape((n * n, d)), "b": w_leaf.tape.param(b0)}
            # small draws keep every stretched value interior
            return sp.sampler_forward(w_leaf.tape, p, z0, CFG, leaves=leaves).stretched.mean()

        assert grad_check(f, w0, max_coords=24) < 1e-4

    def test_reproducible_forward(self):
        p = init_sampler("vanilla", n=4, d=8, seed=3)
        z = stream(3, 1).standard_normal((8, 5))
        a = forward_mean("vanilla", p, z)
        b = forward_mean("vanilla", p, z)
        assert a == b

    def test_pre_sigmoid_moments(self):
        # coordinate i of W z + b has mean b_i and variance sum_j W_ij^2
        rng = np.random.default_rng(1)
        p = init_sampler("vanilla", n=3, d=16, seed=5)
        w, b = p.arrays["w"], p.arrays["b"]
        b[:] = rng.uniform(-0.5, 0.5, 9)
        n_draws = 100_000
        z = rng.standard_normal((16, n_draws))
        pre = w @ z + b[:, None]
        target_var = (w**2).sum(axis=1)
        for i in range(9):
            se_mean = math.sqrt(target_var[i] / n_draws)
            assert abs(pre[i].mean() - b[i]) < 3 * se_mean
            se_var = target_var[i] * math.sqrt(2.0 / n_draws)
            assert abs(pre[i].var() - target_var[i]) < 3 * se_var


class TestHypernetForward:
    def test_degenerate_network_constant_mask(self):
        p = init_sampler("hypernet", n=3, d=4, k=8, seed=0)
        for arr in p.arrays.values():
            arr[:] = 0
        beta = 0.7
        p.arrays["fb.b2"][:] = beta
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, np.random.default_rng(0).standard_normal((4, 3)), CFG)
        np.testing.assert_allclose(out.soft.data, 1 / (1 + math.exp(-beta / p.lam)), rtol=1e-14)

    def test_distinct_draws_give_distinct_maps(self):
        p = init_sampler("hypernet", n=3, d=4, k=8, seed=1)
        tape = ad.Tape()
        z = np.random.default_rng(1).standard_normal((4, 2))
        out = sp.sampler_forward(tape, p, z, CFG)
        b_z, row_norm = (t.data for t in out.law)  # one column per draw: b_z and the row norms of W_z
        assert b_z.shape == row_norm.shape == (9, 2)
        assert not np.allclose(row_norm[:, 0], row_norm[:, 1])
        assert not np.allclose(b_z[:, 0], b_z[:, 1])

    @pytest.mark.parametrize("n,d,k,nb", [(3, 4, 8, 1), (3, 4, 8, 7), (8, 4, 8, 64), (28, 16, 32, 64)])
    def test_training_mask_is_sigmoid_of_pre_activation(self, n, d, k, nb):
        # training, calibration and collapse share one contraction, bit for bit
        p = init_sampler("hypernet", n=n, d=d, k=k, seed=12)
        z = np.random.default_rng(12).standard_normal((d, nb))
        soft = sp.sampler_forward(ad.Tape(), p, z, CFG).soft.data
        tape = ad.Tape()
        np.testing.assert_array_equal(soft, ad.sigmoid_temp(tape.constant(sp.hypernet_pre(p, z)), p.lam).data)

    def test_conditionally_deterministic(self):
        p = init_sampler("hypernet", n=3, d=4, k=8, seed=2)
        z = np.random.default_rng(2).standard_normal((4, 1))
        a = forward_mean("hypernet", p, z)
        b = forward_mean("hypernet", p, z)
        assert a == b

    def test_contraction_alone_carries_no_law(self):
        # without the row norm there is no scale, and a law whose scale is
        # None would read as the concrete kind's unit logistic
        p = init_sampler("hypernet", n=3, d=4, k=8, seed=2)
        tape = ad.Tape()
        leaves = {name: tape.constant(arr) for name, arr in p.arrays.items()}
        z = tape.constant(np.random.default_rng(2).standard_normal((4, 3)))
        pre, law = sp._hypernet_pre(leaves, z, norm=False)
        assert law is None
        np.testing.assert_array_equal(pre.data, sp._hypernet_pre(leaves, z)[0].data)

    def test_gradcheck_every_weight_tensor(self):
        n, d, k = 2, 3, 4
        p = init_sampler("hypernet", n=n, d=d, k=k, seed=3)
        # shrink weights so stretched values stay off the clamp boundaries
        for name, arr in p.arrays.items():
            if ".w" in name:
                arr *= 0.3
        z0 = np.random.default_rng(3).standard_normal((d, 2)) * 0.5
        base = p.arrays
        for name in base:

            def f(leaf, name=name):
                tape = leaf.tape
                leaves = {nm: tape.param(arr) for nm, arr in base.items()}
                leaves[name] = leaf.reshape(base[name].shape)
                return sp.sampler_forward(tape, p, z0, CFG, leaves=leaves).stretched.mean()

            err = grad_check(f, base[name].reshape(-1), max_coords=12)
            assert err < 1e-4, name

    @pytest.mark.parametrize("n,d,k,nb", [(3, 4, 8, 7), (8, 4, 8, 64), (5, 3, 4, 130), (28, 16, 32, 256)])
    def test_pre_activation_is_pixels_by_draws(self, n, d, k, nb):
        p = init_sampler("hypernet", n=n, d=d, k=k, seed=11)
        z = np.random.default_rng(11).standard_normal((d, nb))
        a = p.arrays

        def hidden(prefix, x):
            h = a[f"{prefix}.w1"] @ x + a[f"{prefix}.b1"][:, None]
            return np.where(h > 0, h, 0.2 * h)

        def affine2(prefix, x):
            return a[f"{prefix}.w2"] @ hidden(prefix, x) + a[f"{prefix}.b2"][:, None]

        r = affine2("rep", z)
        # sum_d W_z[:, d] z[d] in one piece: one GEMM over the Khatri-Rao product of z and F_W's hidden layer
        kr = (z[:, None, :] * hidden("fw", r)[None, :, :]).reshape((d * k, nb))
        wz_z = a["fw.w2"].reshape((n * n, d * k)) @ kr + a["fw.b2"].reshape((n * n, d)) @ z
        pre = sp.hypernet_pre(p, z)
        assert pre.shape == (n * n, nb)
        np.testing.assert_array_equal(pre, wz_z + affine2("fb", r))


def generic_head(w2, b2, h, z):
    """Oracle: the generic op chain over F = w2 @ h + b2 that the hypernet
    head replaces, in one piece; its norm and all gradients are the head's."""
    d, nb = z.shape
    w_z = (ad.matmul(w2, h) + b2.reshape((b2.size, 1))).reshape((w2.shape[0] // d, d, nb))
    return (w_z * w2.tape.constant(z.reshape((1, d, nb)))).sum(axis=1), ad.sqrt((w_z * w_z).sum(axis=1))


def khatri_rao_contraction(w2, b2, h, z):
    """Oracle: the head's contraction as generic ops, one GEMM over the
    column-wise Khatri-Rao product of the draws z (d, B) and h (k, B)."""
    (d, nb), k = z.shape, h.shape[0]
    m, zt = w2.shape[0] // d, w2.tape.constant(z)
    kr = (zt.reshape((d, 1, nb)) * h.reshape((1, k, nb))).reshape((d * k, nb))
    return ad.matmul(w2.reshape((m, d * k)), kr) + ad.matmul(b2.reshape((m, d)), zt)


def head_inputs(m, d, k, nb, seed):
    rng = np.random.default_rng(seed)
    w2, b2 = rng.uniform(-0.3, 0.3, (m * d, k)), rng.uniform(-0.1, 0.1, m * d)
    return w2, b2, rng.standard_normal((k, nb)), rng.standard_normal((d, nb)), rng.standard_normal((2, m, nb))


def head_loss(head, reach, w2, b2, h, z, weights):
    """sum(c * u) and/or sum(norm * v) over the head's two outputs."""
    c, norm = head(w2, b2, h, z)
    terms = {"contraction": (c * weights[0]).sum(), "norm": (norm * weights[1]).sum()}
    loss = terms["contraction"] + terms["norm"] if reach == "both" else terms[reach]
    return loss, c, norm


class TestHypernetHead:
    @pytest.mark.parametrize("wrt", [0, 1, 2])
    @pytest.mark.parametrize("reach", ["contraction", "norm", "both"])
    def test_gradients_match_central_differences(self, wrt, reach):
        args = list(head_inputs(5, 3, 4, 6, seed=wrt))
        weights = args.pop()

        def f(leaf):
            ins = [leaf.tape.constant(a) for a in args[:3]]
            ins[wrt] = leaf.reshape(args[wrt].shape)
            return head_loss(sp._hypernet_head, reach, *ins, args[3], weights)[0]

        assert grad_check(f, args[wrt].reshape(-1)) < 1e-6

    # 784 and 729 pixels are not a multiple of the 64- and 126-pixel blocks
    @pytest.mark.parametrize("m,nb", [(784, 128), (729, 65)])
    @pytest.mark.parametrize("reach", ["contraction", "norm", "both"])
    def test_equals_generic_chain_bit_for_bit(self, m, nb, reach):
        *arrays, z, weights = head_inputs(m, 16, 32, nb, seed=nb)
        got = []
        for head in (sp._hypernet_head, generic_head):
            tape = ad.Tape()
            leaves = [tape.param(a) for a in arrays]
            loss, c, norm = head_loss(head, reach, *leaves, z, weights)
            tape.backward(loss)
            got.append([c.data, norm.data] + [leaf.grad for leaf in leaves])
        tape = ad.Tape()
        got[1][0] = khatri_rao_contraction(*(tape.constant(a) for a in arrays), z).data
        for mine, oracle in zip(*got):
            np.testing.assert_array_equal(mine, oracle)

    @pytest.mark.parametrize("m,nb", [(784, 128), (729, 65)])
    def test_contraction_matches_blocked_f(self, m, nb):
        # the Khatri-Rao sum order against sum_d F[:, d] z[d] over 64-pixel blocks of F
        w2, b2, h, z, _ = head_inputs(m, 16, 32, nb, seed=nb)
        tape = ad.Tape()
        c, _ = sp._hypernet_head(*(tape.constant(a) for a in (w2, b2, h)), z)
        expect = np.concatenate([
            ((w2[rows] @ h + b2[rows, None]).reshape((-1, 16, nb)) * z).sum(axis=1)
            for rows in (slice(a * 16, (a + 64) * 16) for a in range(0, m, 64))
        ])
        assert np.abs(c.data - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("nb", [65, 130, 255, 1025])
    def test_pre_activation_is_one_piece(self, nb):
        # all draws and all pixels in one evaluation: no block size can move the bits
        p = init_sampler("hypernet", n=28, d=16, k=32, seed=nb)
        z = np.random.default_rng(nb).standard_normal((16, nb))
        tape = ad.Tape()
        lv = {name: tape.constant(a) for name, a in p.arrays.items()}

        def hidden(prefix, x):
            b1 = lv[f"{prefix}.b1"]
            return ad.leaky_relu(ad.matmul(lv[f"{prefix}.w1"], x) + b1.reshape((b1.size, 1)), sp.LEAKY_SLOPE)

        def affine2(prefix, x):
            b2 = lv[f"{prefix}.b2"]
            return ad.matmul(lv[f"{prefix}.w2"], hidden(prefix, x)) + b2.reshape((b2.size, 1))

        r = affine2("rep", tape.constant(z))
        expect = khatri_rao_contraction(lv["fw.w2"], lv["fw.b2"], hidden("fw", r), z) + affine2("fb", r)
        np.testing.assert_array_equal(sp.hypernet_pre(p, z), expect.data)


class TestIndependentForward:
    def test_centered(self):
        # softplus(-30) ~ 0
        p = sp.SamplerParams("independent", {"mu": np.zeros(9), "sigma_raw": np.full(9, -30.0)}, 0.3, 3)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, np.zeros((9, 1)), CFG)
        np.testing.assert_allclose(out.soft.data, 0.5, atol=1e-12)

    def test_cross_pixel_independence(self):
        p = init_sampler("independent", n=2, seed=4)
        rng = np.random.default_rng(4)
        n_draws = 10_000
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, rng.standard_normal((4, n_draws)), CFG)
        soft = out.soft.data
        for i in range(4):
            for j in range(i + 1, 4):
                cov = np.cov(soft[i], soft[j])[0, 1]
                se = soft[i].std() * soft[j].std() / math.sqrt(n_draws)
                assert abs(cov) < 3 * se

    def test_gradcheck_mu_and_sigma(self):
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((4, 3)) * 0.3
        mu0 = rng.uniform(-0.3, 0.3, 4)
        sraw0 = rng.uniform(-0.5, 0.5, 4)

        p = sp.SamplerParams("independent", {"mu": mu0, "sigma_raw": sraw0}, 0.3, 2)

        def build(mu_leaf, sraw_leaf):
            leaves = {"mu": mu_leaf, "sigma_raw": sraw_leaf}
            return sp.sampler_forward(mu_leaf.tape, p, z0, CFG, leaves=leaves).stretched.mean()

        err_mu = grad_check(lambda t: build(t, t.tape.param(sraw0)), mu0)
        err_sr = grad_check(lambda t: build(t.tape.param(mu0), t), sraw0)
        assert err_mu < 1e-4 and err_sr < 1e-4


class TestConcreteForward:
    def test_law_is_log_alpha_at_unit_logistic_scale(self):
        p = sp.SamplerParams("concrete", {"log_alpha": np.zeros(4)}, 2 / 3, 2)
        out = sp.sampler_forward(ad.Tape(), p, np.full((4, 1), 0.5), CFG)
        assert out.law[0] is out.leaves["log_alpha"] and out.law[1] is None

    def test_saturation(self):
        for la, expect in [(60.0, 1.0), (-60.0, 0.0)]:
            p = sp.SamplerParams("concrete", {"log_alpha": np.full(4, la)}, 2 / 3, 2)
            tape = ad.Tape()
            out = sp.sampler_forward(tape, p, np.full((4, 1), 0.5), CFG)
            np.testing.assert_array_equal(out.stretched.data, expect)

    def test_gradcheck_log_alpha(self):
        rng = np.random.default_rng(6)
        u0 = rng.uniform(0.35, 0.65, size=(4, 3))
        la0 = rng.uniform(-0.3, 0.3, 4)
        p = sp.SamplerParams("concrete", {"log_alpha": la0}, 2 / 3, 2)

        def f(leaf):
            out = sp.sampler_forward(leaf.tape, p, u0, CFG, leaves={"log_alpha": leaf})
            return out.stretched.mean()

        assert grad_check(f, la0) < 1e-4


class TestInit:
    def test_vanilla_bound(self):
        p = init_sampler("vanilla", n=8, d=16, seed=7)
        a = math.sqrt(3.0 / 16)
        assert a == pytest.approx(0.433, abs=5e-4)
        assert np.abs(p.arrays["w"]).max() <= a
        assert np.all(p.arrays["b"] == 0)

    @pytest.mark.parametrize("kind", ["vanilla", "hypernet", "independent"])
    def test_unit_pre_sigmoid_variance(self, kind):
        p = init_sampler(kind, n=8, d=16, k=32, seed=8)
        rng = np.random.default_rng(8)
        n_draws = 10_000
        if kind == "vanilla":
            pre = p.arrays["w"] @ rng.standard_normal((16, n_draws))
        elif kind == "independent":
            sigma = np.logaddexp(0, p.arrays["sigma_raw"])
            pre = sigma[:, None] * rng.standard_normal((64, n_draws))
        else:
            pre = sp.hypernet_pre(p, rng.standard_normal((16, n_draws)))
        assert 0.9 <= pre.var() <= 1.1

    @pytest.mark.parametrize("kind", ["vanilla", "hypernet", "independent", "concrete"])
    def test_symmetric_tails_at_init(self, kind):
        p = init_sampler(kind, n=8, d=16, k=32, seed=9)
        rng = np.random.default_rng(9)
        tape = ad.Tape()
        noise = sp.draw_latent(p, rng, 2_000)
        out = sp.sampler_forward(tape, p, noise, CFG)
        soft = out.soft.data
        lo = (soft < 0.05).mean()
        hi = (soft > 0.95).mean()
        assert abs(lo - hi) < 0.02
        stretched = out.stretched.data
        assert (stretched == 0).mean() > 0 and (stretched == 1).mean() > 0
        if kind == "concrete":
            # logistic noise has heavy tails: float64 sigmoid saturates to
            # exactly 0/1 past |x| ~ 37*lam, although the law lives on (0,1)
            assert np.all((soft >= 0) & (soft <= 1))
        else:
            assert np.all((soft > 0) & (soft < 1))

    @pytest.mark.parametrize("kind", ["vanilla", "hypernet", "independent"])
    def test_no_interior_mode_at_init(self, kind):
        p = init_sampler(kind, n=4, d=16, k=32, seed=10)
        rng = np.random.default_rng(10)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, sp.draw_latent(p, rng, 7_000), CFG)
        counts, _ = np.histogram(out.soft.data.ravel(), bins=20, range=(0.0, 1.0))
        top_two = set(np.argsort(counts)[-2:])
        assert top_two == {0, 19}

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            init_sampler("other", n=4)

    def test_deterministic_per_seed(self):
        a = init_sampler("hypernet", n=4, d=8, k=16, seed=11)
        b = init_sampler("hypernet", n=4, d=8, k=16, seed=11)
        for (_, x), (_, y) in zip(sp.param_arrays(a), sp.param_arrays(b)):
            np.testing.assert_array_equal(x, y)


class TestCheckpointFormat:
    @pytest.mark.parametrize("kind", ["vanilla", "hypernet", "independent", "concrete"])
    def test_round_trip(self, tmp_path, kind):
        p, dec = init_run(TrainConfig(n=5, sampler=kind, latent_dim=6, rep_width=8, lam_temp=0.27,
                                      seed=12, hidden=4))
        path = tmp_path / "ckpt.bin"
        ck.save_checkpoint(p, dec, path)
        q, dec_read = ck.load_checkpoint(path)
        assert (dec_read.kind, dec_read.n, dec_read.width) == ("mlp", 5, 4)
        assert list(dec_read.arrays) == list(dec.arrays)
        for name, a in dec.arrays.items():
            np.testing.assert_array_equal(a, dec_read.arrays[name])
        assert q.kind == kind
        assert (q.lam, q.n, q.d, q.k) == (p.lam, p.n, p.d, p.k)
        for (na, a), (nb, b) in zip(sp.param_arrays(p), sp.param_arrays(q)):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_header_layout(self):
        p = init_sampler("vanilla", n=3, d=2, lam=0.5, seed=13)
        blob = ck.sampler_to_bytes(p)
        assert blob[:4] == b"MSKO"
        version, tag = int.from_bytes(blob[4:8], "little"), blob[8]
        assert version == 1 and tag == 0
        n = int.from_bytes(blob[9:13], "little")
        assert n == 3
        # 9*2 weights + 9 biases + temperature
        assert len(blob) == 21 + 8 * (18 + 9 + 1)

    def test_bad_magic(self):
        p = init_sampler("concrete", n=2, seed=14)
        blob = bytearray(ck.sampler_to_bytes(p))
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError):
            ck.read_sampler(io.BytesIO(bytes(blob)))

    def test_truncated(self):
        p = init_sampler("independent", n=2, seed=15)
        blob = ck.sampler_to_bytes(p)
        with pytest.raises(FormatError):
            ck.read_sampler(io.BytesIO(blob[: len(blob) - 4]))
