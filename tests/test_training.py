"""Optimizer and training-loop tests on small synthetic batches."""

import dataclasses

import numpy as np
import pytest

from masko import checkpoint as ck
from masko import samplers as sp
from masko import training as tr
from masko.errors import ConfigError, EvaluationError
from masko.rng import STREAM_LATENT, stream


def tiny_images(count=32, n=8, seed=0):
    """Smooth random images in [0, 1] with spatial structure."""
    rng = np.random.default_rng(seed)
    base = rng.random((count, n, n))
    for _ in range(2):  # cheap smoothing: average with rolled copies
        base = 0.25 * (
            base
            + np.roll(base, 1, axis=1)
            + np.roll(base, 1, axis=2)
            + np.roll(base, (1, 1), axis=(1, 2))
        )
    lo, hi = base.min(), base.max()
    return (base - lo) / (hi - lo)


class TestAdam:
    def test_zero_gradient_is_stationary(self):
        cfg = tr.TrainConfig(epochs=1)
        theta = {"t": np.array([1.0, -2.0])}
        st = tr.AdamState.for_arrays(theta)
        tr.adam_step(theta, {"t": np.zeros(2)}, st, cfg)
        np.testing.assert_array_equal(theta["t"], [1.0, -2.0])
        assert st.step == 1

    def test_constant_gradient_steps_at_lr(self):
        cfg = tr.TrainConfig(lr=2e-4, epochs=1)
        theta = {"t": np.array([10.0])}
        st = tr.AdamState.for_arrays(theta)
        prev = theta["t"][0]
        for _ in range(10_000):
            tr.adam_step(theta, {"t": np.array([0.37])}, st, cfg)
        delta = prev - theta["t"][0]
        # update magnitude approaches lr * sign(g): lr * g / (|g| + eps)
        assert delta / 10_000 == pytest.approx(cfg.lr, rel=1e-6)

    def test_quadratic_convergence(self):
        cfg = tr.TrainConfig(lr=1e-2, epochs=1)
        theta = {"t": np.array([0.0])}
        st = tr.AdamState.for_arrays(theta)
        for _ in range(5000):
            tr.adam_step(theta, {"t": 2.0 * (theta["t"] - 3.0)}, st, cfg)
        assert abs(theta["t"][0] - 3.0) < 1e-3

    def test_non_finite_gradient_aborts(self):
        cfg = tr.TrainConfig(epochs=1)
        theta = {"t": np.array([1.0])}
        st = tr.AdamState.for_arrays(theta)
        with pytest.raises(EvaluationError):
            tr.adam_step(theta, {"t": np.array([np.nan])}, st, cfg)


class TestTrainStep:
    def test_dense_mask_autoencoder_improves(self):
        # sparsity weight 0 and a saturated mask reduce the step to plain
        # autoencoder training; reconstruction must fall on a fixed batch
        cfg = tr.TrainConfig(
            n=8, sampler="vanilla", decoder="mlp", hidden=64, latent_dim=8,
            lam_sparse=0.0, lr=2e-3, batch_size=32, epochs=1, seed=1,
        )
        params, dec = tr.init_run(cfg)
        params.arrays["b"][:] = 60.0  # saturate the mask at 1
        state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))
        rng = stream(cfg.seed, STREAM_LATENT)
        batch = np.ascontiguousarray(tiny_images(32, 8, seed=1).reshape(32, 64).T)
        first = tr.train_step(batch, params, dec, state, cfg, rng)
        for _ in range(99):
            last = tr.train_step(batch, params, dec, state, cfg, rng)
        assert last.recon < first.recon

    def test_heavy_sparsity_pressure_empties_mask(self):
        cfg = tr.TrainConfig(
            n=8, sampler="vanilla", decoder="mlp", hidden=32, latent_dim=8,
            lam_sparse=1e3, lr=1e-2, batch_size=16, epochs=1, seed=2,
        )
        params, dec = tr.init_run(cfg)
        state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))
        rng = stream(cfg.seed, STREAM_LATENT)
        batch = np.ascontiguousarray(tiny_images(16, 8, seed=2).reshape(16, 64).T)
        for _ in range(500):
            tr.train_step(batch, params, dec, state, cfg, rng)
        # Monte-Carlo estimate of the trained normalized expected-l0
        mc_rng = np.random.default_rng(2)
        z = mc_rng.standard_normal((cfg.latent_dim, 20_000))
        pre = params.arrays["w"] @ z + params.arrays["b"][:, None]
        y = 1.0 / (1.0 + np.exp(-pre / cfg.lam_temp))
        stretched = np.clip((cfg.eta - cfg.gamma) * y + cfg.gamma, 0.0, 1.0)
        assert (stretched > 0).mean() < 0.05

    def test_fixed_seed_bitwise_reproducible(self):
        def run():
            cfg = tr.TrainConfig(
                n=8, sampler="independent", decoder="mlp", hidden=16,
                lam_sparse=0.1, batch_size=8, epochs=1, seed=3,
            )
            params, dec = tr.init_run(cfg)
            state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))
            rng = stream(cfg.seed, STREAM_LATENT)
            batch = np.ascontiguousarray(tiny_images(8, 8, seed=3).reshape(8, 64).T)
            return [tr.train_step(batch, params, dec, state, cfg, rng) for _ in range(20)]

        a, b = run(), run()
        assert a == b  # LossBreakdown dataclasses compare exactly

    def test_empty_batch_rejected(self):
        cfg = tr.TrainConfig(n=4, epochs=1)
        params, dec = tr.init_run(cfg)
        state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))
        with pytest.raises(ConfigError):
            tr.train_step(np.zeros((16, 0)), params, dec, state, cfg, stream(0, 1))


class TestSparsityPressure:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heavier_weight_never_increases_trained_sparsity(self, seed):
        # 200 steps on one fixed batch; the trained normalized expected-l0
        # must be non-increasing across increasing sparsity weights
        from masko.distributions import expected_l0
        from masko.samplers import gaussian_spec

        finals = []
        for lam_sparse in (0.01, 0.1, 1.0):
            cfg = tr.TrainConfig(
                n=8, sampler="vanilla", decoder="mlp", hidden=32, latent_dim=8,
                lam_sparse=lam_sparse, lr=2e-3, batch_size=16, epochs=1, seed=seed,
            )
            params, dec = tr.init_run(cfg)
            state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))
            rng = stream(cfg.seed, STREAM_LATENT)
            batch = np.ascontiguousarray(tiny_images(16, 8, seed=seed).reshape(16, 64).T)
            for _ in range(200):
                tr.train_step(batch, params, dec, state, cfg, rng)
            finals.append(expected_l0(gaussian_spec(params), cfg.stretch, normalized=True))
        assert finals[0] >= finals[1] >= finals[2], finals


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        cfg = tr.TrainConfig(n=8, epochs=0, hidden=16, seed=4)
        result = tr.train_loop(tiny_images(16, 8, seed=4), cfg)
        fresh, _ = tr.init_run(cfg)
        for (_, a), (_, b) in zip(sp.param_arrays(result.sampler), sp.param_arrays(fresh)):
            np.testing.assert_array_equal(a, b)
        assert result.metrics == []

    def test_metrics_row_count_and_totals(self):
        cfg = tr.TrainConfig(
            n=8, epochs=5, batch_size=8, hidden=16, latent_dim=8, lam_sparse=0.2, seed=5
        )
        result = tr.train_loop(tiny_images(24, 8, seed=5), cfg)
        assert len(result.metrics) == cfg.epochs
        for row in result.metrics:
            assert row.total == pytest.approx(
                row.recon_mse + cfg.lam_sparse * row.sparsity_l0, abs=1e-12
            )

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_heldout_reconstruction_improves(self, seed):
        images = tiny_images(96, 8, seed=seed)
        train, held = images[:64], images[64:]
        cfg = tr.TrainConfig(
            n=8, sampler="vanilla", decoder="mlp", hidden=64, latent_dim=8,
            lam_sparse=0.01, lr=2e-3, batch_size=16, epochs=20, seed=seed,
        )
        from masko.model import decoder_apply

        def heldout_mse(params, dec):
            # evaluate with the mask frozen at all-ones to isolate recon
            cols = held.reshape(held.shape[0], 64).T
            return float(((decoder_apply(dec, cols) - cols) ** 2).mean())

        init_params, init_dec = tr.init_run(cfg)
        before = heldout_mse(init_params, init_dec)
        result = tr.train_loop(train, cfg)
        after = heldout_mse(result.sampler, result.decoder)
        assert after < before

    def test_checkpoints_and_metrics_written(self, tmp_path):
        cfg = tr.TrainConfig(n=8, epochs=3, batch_size=8, hidden=16, latent_dim=8, seed=6)
        result = tr.train_loop(tiny_images(16, 8, seed=6), cfg, out_dir=tmp_path)
        params, dec = ck.load_checkpoint(tmp_path / "checkpoint.bin")
        for (_, a), (_, b) in zip(sp.param_arrays(result.sampler), sp.param_arrays(params)):
            np.testing.assert_array_equal(a, b)
        rows = tr.read_metrics(tmp_path / "metrics.csv")
        assert [r.epoch for r in rows] == [1, 2, 3]

    def test_loop_determinism_bitwise(self, tmp_path):
        cfg = tr.TrainConfig(
            n=8, epochs=2, batch_size=8, hidden=16, latent_dim=8, lam_sparse=0.1, seed=7
        )
        images = tiny_images(16, 8, seed=7)
        a = tr.train_loop(images, cfg, out_dir=tmp_path / "a")
        b = tr.train_loop(images, cfg, out_dir=tmp_path / "b")
        ck_a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert ck_a == ck_b
        for ra, rb in zip(a.metrics, b.metrics):
            assert (ra.recon_mse, ra.sparsity_l0, ra.total) == (
                rb.recon_mse,
                rb.sparsity_l0,
                rb.total,
            )

    def test_nan_abort_retains_last_good_checkpoint(self, tmp_path):
        images = tiny_images(16, 8, seed=8)
        good = tr.TrainConfig(n=8, epochs=1, batch_size=8, hidden=16, latent_dim=8, seed=8)
        tr.train_loop(images, good, out_dir=tmp_path)
        saved = (tmp_path / "checkpoint.bin").read_bytes()
        # a huge learning rate reliably overflows the parameters
        bad = dataclasses.replace(good, lr=1e300, epochs=5)
        with np.errstate(all="ignore"), pytest.raises(EvaluationError):
            tr.train_loop(images, bad, out_dir=tmp_path / "crash")
        assert (tmp_path / "checkpoint.bin").read_bytes() == saved

    def test_parameters_stay_finite(self):
        cfg = tr.TrainConfig(n=8, epochs=4, batch_size=8, hidden=16, latent_dim=8, seed=9)
        result = tr.train_loop(tiny_images(16, 8, seed=9), cfg)
        for _, arr in sp.param_arrays(result.sampler):
            assert np.isfinite(arr).all()

    def test_bad_image_shape(self):
        cfg = tr.TrainConfig(n=8, epochs=1)
        with pytest.raises(ConfigError):
            tr.train_loop(np.zeros((4, 5, 5)), cfg)
