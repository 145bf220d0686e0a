"""Collapse, fixed-mask scoring and covariance export."""

import math

import numpy as np
import pytest

from masko import evaluate as ev
from masko import model as md
from masko import samplers as sp
from masko import training as tr
from masko.errors import ContractError, DimensionError, ParameterError


class TestCollapse:
    def test_centered_sampler_half_probs(self):
        p = sp.init_sampler("vanilla", n=4, d=8, seed=0)  # b = 0 at init
        c = ev.collapse_distribution(p)
        np.testing.assert_array_equal(c.probs, 0.5)
        assert c.l0_estimate == pytest.approx(16 / 2, abs=1e-12)

    def test_rounding_to_tens(self):
        # deterministic rows: 27 sure picks among 100 pixels
        b = np.full(100, -1.0)
        b[:27] = 1.0
        p = sp.SamplerParams("vanilla", {"w": np.zeros((100, 4)), "b": b}, 0.3, 10, 4)
        c = ev.collapse_distribution(p)
        assert c.l0_estimate == 27.0
        assert c.mask_sizes == [20, 30]
        # the sure picks fill the 20-mask entirely and lead the 30-mask
        flat20 = c.masks[0].reshape(-1)
        assert flat20[:27].sum() == 20 and flat20[27:].sum() == 0

    def test_multiple_of_ten_gives_equal_masks(self):
        b = np.where(np.arange(16) < 2, 8.0, -8.0)
        p = sp.SamplerParams("vanilla", {"w": np.ones((16, 2)) * 1e-9, "b": b}, 0.3, 4, 2)
        c = ev.collapse_distribution(p)
        assert round(c.l0_estimate) == 2 and c.mask_sizes == [0, 10]

    def test_tie_break_by_pixel_index(self):
        probs = np.array([0.3, 0.9, 0.3, 0.3])
        mask = ev.top_k_mask(probs, 2)
        np.testing.assert_array_equal(mask, [1, 1, 0, 0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        p = sp.init_sampler("vanilla", n=3, d=4, seed=1)
        w, b = p.arrays["w"], p.arrays["b"]
        b[:] = rng.uniform(-1, 1, 9)
        base = ev.collapse_distribution(p)
        perm = rng.permutation(9)
        p2 = sp.SamplerParams("vanilla", {"w": w[perm], "b": b[perm]}, p.lam, 3, 4)
        permuted = ev.collapse_distribution(p2)
        np.testing.assert_array_equal(permuted.probs.reshape(-1), base.probs.reshape(-1)[perm])
        # the probabilities here are distinct, so top-K commutes with the
        # relabeling even though ties would not
        np.testing.assert_array_equal(
            permuted.masks[1].reshape(-1), base.masks[1].reshape(-1)[perm]
        )

    def test_vanilla_estimate_matches_zero_temperature_form(self):
        rng = np.random.default_rng(2)
        p = sp.init_sampler("vanilla", n=5, d=8, seed=2)
        p.arrays["b"][:] = rng.uniform(-2, 2, 25)
        c = ev.collapse_distribution(p)
        mu, row_norm = sp.KINDS["vanilla"].law(p.arrays)
        expect = (1.0 - np.vectorize(math.erf)(-mu / row_norm / math.sqrt(2)) * 0.5 - 0.5).sum()
        assert abs(c.l0_estimate - expect) < 1e-9

    def test_hypernet_monte_carlo_matches_low_temperature_sampling(self):
        p = sp.init_sampler("hypernet", n=3, d=4, k=8, seed=3)
        c = ev.collapse_distribution(p, mc_samples=4096, seed=3)
        # independent oracle: run the sampler at a tiny temperature
        rng = np.random.default_rng(33)
        n_draws = 40_000
        pre = sp.hypernet_pre(p, rng.standard_normal((4, n_draws)))
        y = 1 / (1 + np.exp(-np.clip(pre / 1e-3, -700, 700)))
        emp = (y > 0.5).mean(axis=0)
        assert np.abs(c.probs.reshape(-1) - emp).max() < 0.03

    def test_factored_analytic_vs_monte_carlo_frequency(self):
        rng = np.random.default_rng(4)
        p = sp.init_sampler("vanilla", n=4, d=8, seed=4)
        w, b = p.arrays["w"], p.arrays["b"]
        b[:] = rng.uniform(-1.5, 1.5, 16)
        c = ev.collapse_distribution(p)
        n_draws = 10_000
        z = rng.standard_normal((8, n_draws))
        pre = w @ z + b[:, None]
        y = 1 / (1 + np.exp(-np.clip(pre / 1e-3, -700, 700)))
        freq = (y > 0.5).mean(axis=1)
        se = np.sqrt(np.clip(c.probs.reshape(-1) * (1 - c.probs.reshape(-1)), 1e-4, None) / n_draws)
        assert np.all(np.abs(freq - c.probs.reshape(-1)) < 3 * se)

    def test_non_finite_params_rejected(self):
        p = sp.init_sampler("vanilla", n=3, d=4, seed=5)
        p.arrays["w"][0, 0] = np.nan
        with pytest.raises(ContractError):
            ev.collapse_distribution(p)

    @pytest.mark.parametrize("kind", ["hypernet", "concrete"])
    def test_zero_mc_samples_rejected(self, kind):
        p = sp.init_sampler(kind, n=4, d=2, k=3, seed=0)
        with pytest.raises(ParameterError, match="mc_samples"):
            ev.collapse_distribution(p, mc_samples=0)


class TestEvalFixedMask:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.images = rng.random((40, 4, 4))
        self.dec = md.init_decoder("mlp", n=4, hidden=16, rng=rng)

    def test_deterministic_bitwise(self):
        mask = np.ones((4, 4))
        a = ev.eval_fixed_mask(mask, self.dec, self.images)
        b = ev.eval_fixed_mask(mask, self.dec, self.images)
        assert a == b

    def test_dense_beats_empty_after_training(self):
        images = np.random.default_rng(7).random((64, 4, 4)) * 0.8 + 0.1
        cfg = tr.TrainConfig(
            n=4, sampler="vanilla", decoder="mlp", hidden=32, latent_dim=4,
            lam_sparse=0.0, lr=2e-3, batch_size=16, epochs=30, seed=7,
        )
        result = tr.train_loop(images, cfg)
        dense = ev.eval_fixed_mask(np.ones((4, 4)), result.decoder, images)
        empty = ev.eval_fixed_mask(np.zeros((4, 4)), result.decoder, images)
        assert dense < empty

    def test_empty_mask_against_best_constant_predictor(self):
        # decoder fitted on zero input should reach the dataset variance
        images = np.random.default_rng(8).random((48, 4, 4))
        flat = images.reshape(48, 16)
        dec = md.init_decoder("mlp", n=4, hidden=16, rng=np.random.default_rng(8))
        for _, arr in md.decoder_param_arrays(dec):
            arr[:] = 0.0
        dec.arrays["b3"][:] = flat.mean(axis=0)  # exact best constant per pixel
        mse = ev.eval_fixed_mask(np.zeros((4, 4)), dec, images)
        best_constant = flat.var(axis=0).mean()
        assert abs(mse - best_constant) / best_constant < 0.05

    def test_mask_validation(self):
        with pytest.raises(ParameterError):
            ev.eval_fixed_mask(np.full((4, 4), 0.5), self.dec, self.images)
        with pytest.raises(DimensionError):
            ev.eval_fixed_mask(np.ones((3, 3)), self.dec, self.images)

    def test_zero_images_rejected(self):
        with pytest.raises(ParameterError, match="no images"):
            ev.eval_fixed_mask(np.ones((4, 4)), self.dec, np.zeros((0, 4, 4)))

    def test_batched_equals_single_shot(self):
        mask = np.zeros((4, 4))
        mask[1, 2] = 1.0
        a = ev.eval_fixed_mask(mask, self.dec, self.images, batch=7)
        b = ev.eval_fixed_mask(mask, self.dec, self.images, batch=1000)
        assert a == pytest.approx(b, rel=1e-12)


class TestExportCovariance:
    def test_orthonormal_rows_give_identity(self):
        w = np.zeros((4, 4))
        np.fill_diagonal(w, 1.0)
        p = sp.SamplerParams("vanilla", {"w": w, "b": np.zeros(4)}, 0.3, 2, 4)
        np.testing.assert_array_equal(ev.export_covariance(p), np.eye(4))

    def test_symmetric_bitwise_and_psd(self):
        rng = np.random.default_rng(9)
        p = sp.init_sampler("vanilla", n=8, d=16, seed=9)
        cov = ev.export_covariance(p, np.arange(10, 42))
        assert np.array_equal(cov, cov.T)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -1e-9

    def test_window_bounds(self):
        p = sp.init_sampler("vanilla", n=4, d=4, seed=10)
        with pytest.raises(IndexError):
            ev.export_covariance(p, np.arange(10, 18))

    def test_requires_vanilla(self):
        p = sp.init_sampler("independent", n=4, seed=11)
        with pytest.raises(ContractError):
            ev.export_covariance(p)
