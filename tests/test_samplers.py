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

CFG = StretchConfig(gamma=-0.1, eta=1.1, lambda_temp=0.3)


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

        def f(w_leaf):
            tape = w_leaf.tape
            p_b = tape.param(b0)
            soft = ad.sigmoid_temp(
                ad.matmul(w_leaf.reshape((n * n, d)), tape.constant(z0))
                + p_b.reshape((n * n, 1)),
                0.3,
            )
            # small draws keep every stretched value interior
            from masko.distributions import stretch

            return stretch(soft, CFG).mean()

        w0 = rng.uniform(-0.1, 0.1, size=n * n * d)
        assert ad.grad_check(f, w0, max_coords=24) < 1e-4

    def test_reproducible_forward(self):
        p = sp.init_sampler("vanilla", n=4, d=8, seed=3)
        z = stream(3, 1).standard_normal((8, 5))
        a = forward_mean("vanilla", p, z)
        b = forward_mean("vanilla", p, z)
        assert a == b

    def test_pre_sigmoid_moments(self):
        # coordinate i of W z + b has mean b_i and variance sum_j W_ij^2
        rng = np.random.default_rng(1)
        p = sp.init_sampler("vanilla", n=3, d=16, seed=5)
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
        p = sp.init_sampler("hypernet", n=3, d=4, k=8, seed=0)
        for arr in p.arrays.values():
            arr[:] = 0
        beta = 0.7
        p.arrays["fb.b2"][:] = beta
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, np.random.default_rng(0).standard_normal((4, 3)), CFG)
        np.testing.assert_allclose(out.soft.data, 1 / (1 + math.exp(-beta / p.lam)), rtol=1e-14)

    def test_distinct_draws_give_distinct_maps(self):
        p = sp.init_sampler("hypernet", n=3, d=4, k=8, seed=1)
        tape = ad.Tape()
        z = np.random.default_rng(1).standard_normal((4, 2))
        out = sp.sampler_forward(tape, p, z, CFG)
        b_z, row_norm = (t.data for t in out.law)  # per draw: b_z and the row norms of W_z
        assert not np.allclose(row_norm[0], row_norm[1])
        assert not np.allclose(b_z[0], b_z[1])

    def test_conditionally_deterministic(self):
        p = sp.init_sampler("hypernet", n=3, d=4, k=8, seed=2)
        z = np.random.default_rng(2).standard_normal((4, 1))
        a = forward_mean("hypernet", p, z)
        b = forward_mean("hypernet", p, z)
        assert a == b

    def test_gradcheck_every_weight_tensor(self):
        n, d, k = 2, 3, 4
        p = sp.init_sampler("hypernet", n=n, d=d, k=k, seed=3)
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

            err = ad.grad_check(f, base[name].reshape(-1), max_coords=12)
            assert err < 1e-4, name


class TestIndependentForward:
    def test_centered(self):
        # softplus(-30) ~ 0
        p = sp.SamplerParams("independent", {"mu": np.zeros(9), "sigma_raw": np.full(9, -30.0)}, 0.3, 3)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, np.zeros((9, 1)), CFG)
        np.testing.assert_allclose(out.soft.data, 0.5, atol=1e-12)

    def test_cross_pixel_independence(self):
        p = sp.init_sampler("independent", n=2, seed=4)
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

        def build(mu_leaf, sraw_leaf):
            tape = mu_leaf.tape
            sigma = ad.softplus(sraw_leaf)
            pre = mu_leaf.reshape((4, 1)) + tape.constant(z0) * sigma.reshape((4, 1))
            from masko.distributions import stretch

            return stretch(ad.sigmoid_temp(pre, 0.3), CFG).mean()

        err_mu = ad.grad_check(lambda t: build(t, t.tape.param(sraw0)), mu0)
        err_sr = ad.grad_check(lambda t: build(t.tape.param(mu0), t), sraw0)
        assert err_mu < 1e-4 and err_sr < 1e-4


class TestConcreteForward:
    def test_saturation(self):
        for la, expect in [(60.0, 1.0), (-60.0, 0.0)]:
            p = sp.SamplerParams("concrete", {"log_alpha": np.full(4, la)}, 2 / 3, 2)
            tape = ad.Tape()
            out = sp.sampler_forward(tape, p, np.full((4, 1), 0.5), CFG)
            np.testing.assert_array_equal(out.stretched.data, expect)

    def test_gradcheck_log_alpha(self):
        rng = np.random.default_rng(6)
        u0 = rng.uniform(0.35, 0.65, size=(4, 3))

        def f(leaf):
            tape = leaf.tape
            from masko.distributions import sample_concrete, stretch

            soft = sample_concrete(leaf, 2 / 3, tape.constant(u0))
            return stretch(soft, CFG).mean()

        assert ad.grad_check(f, rng.uniform(-0.3, 0.3, 4)) < 1e-4


class TestInit:
    def test_vanilla_bound(self):
        p = sp.init_sampler("vanilla", n=8, d=16, seed=7)
        a = math.sqrt(3.0 / 16)
        assert a == pytest.approx(0.433, abs=5e-4)
        assert np.abs(p.arrays["w"]).max() <= a
        assert np.all(p.arrays["b"] == 0)

    @pytest.mark.parametrize("kind", ["vanilla", "hypernet", "independent"])
    def test_unit_pre_sigmoid_variance(self, kind):
        p = sp.init_sampler(kind, n=8, d=16, k=32, seed=8)
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
        p = sp.init_sampler(kind, n=8, d=16, k=32, seed=9)
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
        p = sp.init_sampler(kind, n=4, d=16, k=32, seed=10)
        rng = np.random.default_rng(10)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, sp.draw_latent(p, rng, 7_000), CFG)
        counts, _ = np.histogram(out.soft.data.ravel(), bins=20, range=(0.0, 1.0))
        top_two = set(np.argsort(counts)[-2:])
        assert top_two == {0, 19}

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            sp.init_sampler("other", n=4)

    def test_deterministic_per_seed(self):
        a = sp.init_sampler("hypernet", n=4, d=8, k=16, seed=11)
        b = sp.init_sampler("hypernet", n=4, d=8, k=16, seed=11)
        for (_, x), (_, y) in zip(sp.param_arrays(a), sp.param_arrays(b)):
            np.testing.assert_array_equal(x, y)


class TestCheckpointFormat:
    @pytest.mark.parametrize("kind", ["vanilla", "hypernet", "independent", "concrete"])
    def test_round_trip(self, tmp_path, kind):
        p = sp.init_sampler(kind, n=5, d=6, k=8, lam=0.27, seed=12)
        path = tmp_path / "ckpt.bin"
        ck.save_checkpoint(p, None, path)
        q, dec = ck.load_checkpoint(path)
        assert dec is None
        assert q.kind == kind
        assert (q.lam, q.n, q.d, q.k) == (p.lam, p.n, p.d, p.k)
        for (na, a), (nb, b) in zip(sp.param_arrays(p), sp.param_arrays(q)):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_header_layout(self):
        p = sp.init_sampler("vanilla", n=3, d=2, lam=0.5, seed=13)
        blob = ck.sampler_to_bytes(p)
        assert blob[:4] == b"MSKO"
        version, tag = int.from_bytes(blob[4:8], "little"), blob[8]
        assert version == 1 and tag == 0
        n = int.from_bytes(blob[9:13], "little")
        assert n == 3
        # 9*2 weights + 9 biases + temperature
        assert len(blob) == 21 + 8 * (18 + 9 + 1)

    def test_bad_magic(self):
        p = sp.init_sampler("concrete", n=2, seed=14)
        blob = bytearray(ck.sampler_to_bytes(p))
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError):
            ck.read_sampler(io.BytesIO(bytes(blob)))

    def test_truncated(self):
        p = sp.init_sampler("independent", n=2, seed=15)
        blob = ck.sampler_to_bytes(p)
        with pytest.raises(FormatError):
            ck.read_sampler(io.BytesIO(blob[: len(blob) - 4]))
