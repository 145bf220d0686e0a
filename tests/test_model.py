"""Decoder and objective tests; expected values recomputed outside the tape."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import masko
from masko import autodiff as ad
from masko import model as md
from masko import samplers as sp
from masko.distributions import StretchConfig
from masko.errors import DimensionError

from oracles import conv2d_channel_major, expected_l0, grad_check, init_decoder, init_sampler

CFG = StretchConfig(gamma=-0.1, eta=1.1)


def identity_conv_decoder(n):
    """Conv decoder wired to pass nonnegative inputs through unchanged."""
    dec = init_decoder("conv_resnet", n=n, filters=4, rng=np.random.default_rng(0))
    for name, arr in md.decoder_param_arrays(dec):
        arr[:] = 0.0
    dec.arrays["k_in"][0, 0, 1, 1] = 1.0
    dec.arrays["k_out"][0, 0, 1, 1] = 1.0
    return dec


def mlp_forward_numpy(dec, x_cols):
    """Independent recomputation of the MLP decoder."""

    def leaky(v):
        return np.where(v > 0, v, 0.2 * v)

    a = dec.arrays
    h1 = leaky(a["w1"] @ x_cols + a["b1"][:, None])
    h2 = leaky(a["w2"] @ h1 + a["b2"][:, None])
    return a["w3"] @ h2 + a["b3"][:, None]


class TestDecoderForward:
    def test_zero_weights_constant_output(self):
        dec = init_decoder("mlp", n=3, hidden=8, rng=np.random.default_rng(1))
        for _, arr in md.decoder_param_arrays(dec):
            arr[:] = 0.0
        dec.arrays["b3"][:] = 0.42
        out = md.decoder_apply(dec, np.random.default_rng(1).random((9, 5)))
        np.testing.assert_array_equal(out, 0.42)

    def test_conv_identity_wiring(self):
        dec = identity_conv_decoder(4)
        x = np.random.default_rng(2).random((16, 3))
        np.testing.assert_allclose(md.decoder_apply(dec, x), x, atol=1e-15)

    def test_zero_residual_blocks_reduce_to_in_out_convs(self):
        rng = np.random.default_rng(3)
        dec = init_decoder("conv_resnet", n=5, filters=4, rng=rng)
        for name in ("k1a", "b1a", "k1b", "b1b", "k2a", "b2a", "k2b", "b2b"):
            dec.arrays[name][:] = 0.0
        x = rng.random((25, 2))
        got = md.decoder_apply(dec, x)

        # reference: only input conv + leaky + output conv
        a = dec.arrays
        tape = ad.Tape()
        img = ad.transpose(tape.constant(x)).reshape((1, 2, 5, 5))  # channel-major (C, B, H, W)
        c = ad.leaky_relu(
            ad.conv2d(img, tape.constant(a["k_in"])) + tape.constant(a["b_in"].reshape(4, 1, 1, 1)),
            0.2,
        )
        ref = ad.conv2d(c, tape.constant(a["k_out"])) + tape.constant(a["b_out"].reshape(1, 1, 1, 1))
        ref = ad.transpose(ref.reshape((2, 25)))
        np.testing.assert_allclose(got, ref.data, atol=1e-14)

    @pytest.mark.parametrize("kind", ["mlp", "conv_resnet"])
    def test_gradcheck_all_parameters(self, kind):
        rng = np.random.default_rng(4)
        dec = init_decoder(kind, n=3, hidden=6, filters=3, rng=rng)
        x0 = rng.random((9, 2))
        for name, base in md.decoder_param_arrays(dec):

            def f(leaf, name=name):
                tape = leaf.tape
                leaves = {nm: tape.param(arr) for nm, arr in md.decoder_param_arrays(dec)}
                leaves[name] = leaf.reshape(base.shape)
                xhat, _ = md.decoder_forward(tape, dec, tape.constant(x0), leaves)
                return xhat.mean()

            err = grad_check(f, base.reshape(-1), max_coords=8)
            assert err < 1e-4, (kind, name)

    def test_decoder_apply_frees_each_activation_after_use(self):
        # A forward-only pass records nothing, so its peak spans a few
        # activations, not every layer's output: 3.6 of them with each
        # layer's output kept in the padded rows the next one reads, 5.4
        # with a padded copy of each input and a compact copy of each output.
        n, f, nb = 28, 16, 64
        dec = init_decoder("conv_resnet", n=n, filters=f, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).random((n * n, nb))
        tracemalloc.start()
        try:
            md.decoder_apply(dec, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activation_bytes = nb * f * n * n * 8  # one float64 conv layer output
        assert peak < 4.5 * activation_bytes

    def test_shape_validation(self):
        dec = init_decoder("mlp", n=3, hidden=4)
        with pytest.raises(DimensionError):
            md.decoder_apply(dec, np.zeros((8, 2)))


class TestConvResnetBits:
    """conv2d over pixel-major rows against the channel-major oracle, bit for
    bit, at the benchmark's decoder: n=28, 16 filters, nonzero biases."""

    def run(self, conv, monkeypatch, nb, grads):
        rng = np.random.default_rng(nb)
        dec = init_decoder("conv_resnet", n=28, filters=16, rng=rng)
        for name, arr in dec.arrays.items():
            if name.startswith("b"):
                arr[:] = rng.standard_normal(arr.shape) * 0.1
        x = rng.random((28 * 28, nb)) * (rng.random((28 * 28, nb)) < 0.5)  # half the pixels masked
        g = rng.standard_normal(x.shape)
        monkeypatch.setattr(ad, "conv2d", conv)
        tape = ad.Tape()
        bind = tape.param if grads else tape.constant
        xt = bind(x)
        leaves = {name: bind(arr) for name, arr in dec.arrays.items()}
        out, _ = md.decoder_forward(tape, dec, xt, leaves)
        if grads:
            tape.backward((out * tape.constant(g)).sum())
        monkeypatch.undo()
        found = {"out": out.data}
        if grads:
            found["x"] = xt.grad
            found.update((name, leaf.grad) for name, leaf in leaves.items())
        return found

    @pytest.mark.parametrize("nb,grads", [(16, True), (256, False)])
    def test_six_layers_match_the_channel_major_oracle(self, monkeypatch, nb, grads):
        # The train step's batch with every gradient, and the eval batch's
        # forward, which spans 90 panels.
        new = self.run(ad.conv2d, monkeypatch, nb, grads)
        old = self.run(conv2d_channel_major, monkeypatch, nb, grads)
        assert new.keys() == old.keys()
        for name in new:
            assert new[name].tobytes() == old[name].tobytes(), name

    def test_gradient_bytes_equal_at_one_and_two_blas_threads(self):
        # The benchmark's 16-filter decoder, whose 16 -> 16 kernel gradients
        # sum panels, and the golden runs' 4 filters, a width no workload
        # runs, both at n=28.  One process per thread count; conv2d's GEMMs
        # and numpy's matmul both run in numpy's OpenBLAS.
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from masko import autodiff as ad, model as md\n"
            "for filters in (16, 4):\n"
            "    rng = np.random.default_rng(28)\n"
            "    dec = md.init_decoder('conv_resnet', 28, filters, rng)\n"
            "    for name, arr in dec.arrays.items():\n"
            "        if name.startswith('b'):\n"
            "            arr[:] = rng.standard_normal(arr.shape) * 0.1\n"
            "    x = rng.random((28 * 28, 16)) * (rng.random((28 * 28, 16)) < 0.5)\n"
            "    tape = ad.Tape()\n"
            "    xt = tape.param(x)\n"
            "    leaves = {name: tape.param(arr) for name, arr in dec.arrays.items()}\n"
            "    out, _ = md.decoder_forward(tape, dec, xt, leaves)\n"
            "    tape.backward((out * tape.constant(rng.standard_normal(x.shape))).sum())\n"
            "    for name, leaf in [('x', xt), *leaves.items()]:\n"
            "        print(filters, name, hashlib.sha256(leaf.grad.tobytes()).hexdigest())\n"
        )
        found = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(masko.__file__).parents[1]))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            found.append(done.stdout.splitlines())
        assert len(found[0]) == 2 * (1 + len(init_decoder("conv_resnet", n=28, filters=16).arrays))
        assert found[0] == found[1]


class TestObjective:
    def run_objective(self, params, x_cols, dec, lam_sparse, noise):
        tape = ad.Tape()
        out = sp.sampler_forward(tape, params, noise, CFG)
        x = tape.constant(x_cols)
        return md.objective(out, x, dec, lam_sparse, CFG)

    def test_dense_mask_identity_decoder(self):
        n = 4
        p = init_sampler("vanilla", n=n, d=4, seed=5)
        p.arrays["b"][:] = 60.0
        dec = identity_conv_decoder(n)
        x = np.random.default_rng(5).random((16, 3))
        z = np.random.default_rng(6).standard_normal((4, 3))
        _, breakdown, _ = self.run_objective(p, x, dec, 0.5, z)
        assert breakdown.recon == 0.0
        assert breakdown.sparsity == 1.0
        assert breakdown.total == 0.5

    def test_empty_mask_constant_mean_decoder(self):
        n = 3
        p = init_sampler("vanilla", n=n, d=4, seed=7)
        p.arrays["b"][:] = -60.0
        rng = np.random.default_rng(7)
        x = rng.random((9, 8))
        dec = init_decoder("mlp", n=n, hidden=4, rng=rng)
        for _, arr in md.decoder_param_arrays(dec):
            arr[:] = 0.0
        dec.arrays["b3"][:] = x.mean(axis=1)  # best constant predictor per pixel
        _, breakdown, _ = self.run_objective(p, x, dec, 0.0, rng.standard_normal((4, 8)))
        per_pixel_var = x.var(axis=1).mean()
        assert breakdown.recon == pytest.approx(per_pixel_var, rel=1e-12)

    @pytest.mark.parametrize("kind", ["vanilla", "independent", "concrete"])
    def test_breakdown_matches_recomputation(self, kind, numpy_law):
        n = 3
        rng = np.random.default_rng(8)
        p = init_sampler(kind, n=n, d=4, seed=8)
        dec = init_decoder("mlp", n=n, hidden=5, rng=rng)
        x = rng.random((9, 4))
        noise = sp.draw_latent(p, rng, 4)
        lam_sparse = 0.3
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, noise, CFG)
        loss, breakdown, _ = md.objective(out, tape.constant(x), dec, lam_sparse, CFG)

        # independent recomputation with plain numpy
        mask = out.stretched.data
        xhat = mlp_forward_numpy(dec, mask * x)
        recon_np = ((xhat - x) ** 2).mean()
        if kind == "concrete":
            t = p.lam * np.log(-CFG.gamma / CFG.eta)
            sparsity_np = (1 / (1 + np.exp(-(p.arrays["log_alpha"] - t)))).mean()
        else:
            sparsity_np = expected_l0(*numpy_law(p), p.lam, CFG) / (n * n)
        assert breakdown.recon == pytest.approx(recon_np, abs=1e-12)
        assert breakdown.sparsity == pytest.approx(sparsity_np, abs=1e-12)
        assert breakdown.total == pytest.approx(recon_np + lam_sparse * sparsity_np, abs=1e-12)
        assert loss.item() == breakdown.total

    def test_hypernet_sparsity_is_per_draw_average(self):
        n, d, k = 2, 3, 4
        p = init_sampler("hypernet", n=n, d=d, k=k, seed=9)
        rng = np.random.default_rng(9)
        noise = rng.standard_normal((d, 5))
        dec = init_decoder("mlp", n=n, hidden=4, rng=rng)
        tape = ad.Tape()
        out = sp.sampler_forward(tape, p, noise, CFG)
        _, breakdown, _ = md.objective(out, tape.constant(rng.random((4, 5))), dec, 0.1, CFG)

        # per-draw (W_z, b_z), recomputed in numpy from the parameter arrays
        def affine2(prefix, x):
            h = p.arrays[f"{prefix}.w1"] @ x + p.arrays[f"{prefix}.b1"][:, None]
            h = np.where(h > 0, h, 0.2 * h)
            return p.arrays[f"{prefix}.w2"] @ h + p.arrays[f"{prefix}.b2"][:, None]

        r = affine2("rep", noise)
        w_z = affine2("fw", r).T.reshape(5, n * n, d)
        b_z = affine2("fb", r).T
        expect = np.mean(
            [
                expected_l0(b_z[i], np.sqrt((w_z[i] ** 2).sum(axis=1)), p.lam, CFG) / (n * n)
                for i in range(5)
            ]
        )
        assert breakdown.sparsity == pytest.approx(expect, rel=1e-12)

    def test_total_linearity_in_lam(self):
        n = 3
        p = init_sampler("independent", n=n, seed=10)
        rng = np.random.default_rng(10)
        dec = init_decoder("mlp", n=n, hidden=4, rng=rng)
        x = rng.random((9, 4))
        noise = sp.draw_latent(p, rng, 4)
        vals = {}
        for lam_sparse in (0.01, 0.1, 1.0):
            _, breakdown, _ = self.run_objective(p, x, dec, lam_sparse, noise)
            vals[lam_sparse] = breakdown
            assert breakdown.total == pytest.approx(
                breakdown.recon + lam_sparse * breakdown.sparsity, abs=1e-12
            )
        assert vals[0.01].recon == vals[1.0].recon  # same draw, same mask

    def test_pixel_permutation_equivariance(self):
        n = 3
        m = n * n
        rng = np.random.default_rng(11)
        p = init_sampler("vanilla", n=n, d=4, seed=11)
        w, b = p.arrays["w"], p.arrays["b"]
        b[:] = rng.uniform(-0.5, 0.5, m)
        dec = init_decoder("mlp", n=n, hidden=6, rng=rng)
        x = rng.random((m, 4))
        z = rng.standard_normal((4, 4))
        _, base, _ = self.run_objective(p, x, dec, 0.2, z)

        perm = rng.permutation(m)
        p2 = sp.SamplerParams("vanilla", {"w": w[perm], "b": b[perm]}, p.lam, n, p.d)
        a = dec.arrays
        permuted_arrays = {**a, "w1": a["w1"][:, perm], "w3": a["w3"][perm], "b3": a["b3"][perm]}
        dec2 = md.Decoder(dec.kind, permuted_arrays, dec.n, dec.width)
        _, permuted, _ = self.run_objective(p2, x[perm], dec2, 0.2, z)
        assert permuted.recon == pytest.approx(base.recon, abs=1e-12)
        assert permuted.sparsity == pytest.approx(base.sparsity, abs=1e-12)
        assert permuted.total == pytest.approx(base.total, abs=1e-12)

    def test_gradcheck_sampler_and_decoder_params(self):
        n = 3
        rng = np.random.default_rng(12)
        p = init_sampler("vanilla", n=n, d=4, seed=12)
        dec = init_decoder("mlp", n=n, hidden=5, rng=rng)
        x0 = rng.random((9, 4))
        z0 = rng.standard_normal((4, 4))

        w, b = p.arrays["w"], p.arrays["b"]

        def loss_with_w(leaf):
            tape = leaf.tape
            leaves = {"w": leaf.reshape(w.shape), "b": tape.param(b)}
            out = sp.sampler_forward(tape, p, z0, CFG, leaves=leaves)
            loss, _, _ = md.objective(out, tape.constant(x0), dec, 0.1, CFG)
            return loss

        assert grad_check(loss_with_w, w.reshape(-1), max_coords=14) < 1e-4

        def loss_with_dec_w1(leaf):
            tape = leaf.tape
            out = sp.sampler_forward(tape, p, z0, CFG)
            x_obs = out.stretched * tape.constant(x0)
            # bind decoder manually so the leaf participates
            a = dec.arrays
            h = dec.width
            w1 = leaf.reshape(a["w1"].shape)
            b1 = tape.param(a["b1"])
            w2 = tape.param(a["w2"])
            b2 = tape.param(a["b2"])
            w3 = tape.param(a["w3"])
            b3 = tape.param(a["b3"])
            h1 = ad.leaky_relu(ad.matmul(w1, x_obs) + b1.reshape((h, 1)), 0.2)
            h2 = ad.leaky_relu(ad.matmul(w2, h1) + b2.reshape((h, 1)), 0.2)
            xhat = ad.matmul(w3, h2) + b3.reshape((9, 1))
            diff = xhat - tape.constant(x0)
            return (diff * diff).mean()

        assert grad_check(loss_with_dec_w1, dec.arrays["w1"].reshape(-1), max_coords=14) < 1e-4


class TestSquaredError:
    """The objective's MSE is one record, bit for bit the sub, mul and mean chain."""

    @pytest.mark.parametrize(
        "rows,nb,strided", [(784, 128, False), (256, 128, False), (784, 1, False), (784, 128, True)]
    )
    def test_equals_sub_mul_mean_bit_for_bit(self, rows, nb, strided):
        rng = np.random.default_rng(rows * 1000 + nb + strided)
        cols = 2 * nb if strided else nb
        arrays = {"xhat": rng.standard_normal((rows, cols))[:, ::2 if strided else 1], "x": rng.random((rows, nb))}

        def run(loss):
            tape = ad.Tape()
            t = {name: tape.param(a) for name, a in arrays.items()}
            out = loss(t["xhat"], t["x"])
            tape.backward(out * 0.7)
            return out.data, {name: leaf.grad for name, leaf in t.items()}

        def chain(xhat, x):
            diff = xhat - x
            return (diff * diff).mean()

        (out, grads), (chain_out, chain_grads) = run(md._squared_error), run(chain)
        assert out.tobytes() == chain_out.tobytes()
        for name in arrays:
            assert grads[name].tobytes() == chain_grads[name].tobytes(), name

    @pytest.mark.parametrize("wrt", ["xhat", "x"])
    def test_gradients_match_central_differences(self, wrt):
        rng = np.random.default_rng(len(wrt))
        arrays = {"xhat": rng.standard_normal((3, 4)), "x": rng.random((3, 4))}

        def f(t):
            tape = t.tape
            b = {name: t.reshape(a.shape) if name == wrt else tape.constant(a) for name, a in arrays.items()}
            return md._squared_error(b["xhat"], b["x"])

        assert grad_check(f, arrays[wrt]) < 1e-6
