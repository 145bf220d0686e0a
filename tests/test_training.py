"""Optimizer and training-loop tests on small synthetic batches."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from masko import checkpoint as ck
from masko import samplers as sp
from masko import training as tr
from masko.autodiff import Tape
from masko.errors import ConfigError, ContractError, EvaluationError
from masko.rng import STREAM_LATENT, stream

from oracles import expected_l0, read_metrics


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


class TestTrainConfig:
    @pytest.mark.parametrize("lam_temp", [0.0, -1.0, float("nan"), float("inf")])
    def test_temperature_must_be_finite_and_positive(self, lam_temp):
        with pytest.raises(ConfigError, match="lam_temp"):
            tr.TrainConfig(lam_temp=lam_temp)

    @pytest.mark.parametrize("gamma,eta", [(0.5, 1.1), (-0.1, 0.9), (float("nan"), 1.1)])
    def test_stretch_constants_checked_at_construction(self, gamma, eta):
        with pytest.raises(ConfigError, match="gamma"):
            tr.TrainConfig(gamma=gamma, eta=eta)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_must_fit_the_philox_key(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            tr.TrainConfig(seed=seed)

    @pytest.mark.parametrize("n", [0, -3])
    def test_image_side_must_be_positive(self, n):
        with pytest.raises(ConfigError, match="n must be"):
            tr.TrainConfig(n=n)

    def test_stretch_is_built_once_and_is_not_a_field(self):
        cfg = tr.TrainConfig(gamma=-0.2, eta=1.3, seed=2**64 - 1)
        assert cfg.stretch is cfg.stretch
        assert (cfg.stretch.gamma, cfg.stretch.eta) == (-0.2, 1.3)
        assert "stretch" not in dataclasses.asdict(cfg)


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

    P = tr.ADAM_PANEL

    @staticmethod
    def oracle_step(p, g, m, v, t, cfg):
        """The whole-array update the panel sweep must reproduce bit for bit."""
        c1 = 1.0 - cfg.beta1**t
        c2 = 1.0 - cfg.beta2**t
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + tr.ADAM_EPS)

    def test_panel_sweep_equals_whole_array_formula(self):
        cfg = tr.TrainConfig(lr=3e-3, beta1=0.8, beta2=0.95, epochs=1)
        rng = np.random.default_rng(12)
        shapes = {"long": (2 * self.P + 5,), "matrix": (300, 70), "one": (1,)}
        theta = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: (a.copy(), np.zeros(a.shape), np.zeros(a.shape)) for k, a in theta.items()}
        st = tr.AdamState.for_arrays(theta)
        for t in range(1, 51):
            # gradient magnitudes spread over eleven decades
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-8, 3, s) for k, s in shapes.items()}
            tr.adam_step(theta, grads, st, cfg)
            for k, (p, m, v) in ref.items():
                self.oracle_step(p, grads[k], m, v, t, cfg)
        assert st.step == 50
        for k, (p, m, v) in ref.items():
            assert np.array_equal(theta[k], p)
            assert np.array_equal(st.m[k], m)
            assert np.array_equal(st.v[k], v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, P - 1, P, 2 * P + 4])
    def test_non_finite_gradient_at_panel_edges_updates_nothing(self, bad, where):
        cfg = tr.TrainConfig(epochs=1)
        rng = np.random.default_rng(13)
        theta = {"a": rng.standard_normal(7), "b": rng.standard_normal(2 * self.P + 5)}
        st = tr.AdamState.for_arrays(theta)
        grads = {k: rng.standard_normal(a.shape) for k, a in theta.items()}
        tr.adam_step(theta, grads, st, cfg)
        before = {k: (a.copy(), st.m[k].copy(), st.v[k].copy()) for k, a in theta.items()}
        grads["b"][where] = bad
        with pytest.raises(EvaluationError, match="'b'"):
            tr.adam_step(theta, grads, st, cfg)
        assert st.step == 1
        for k, (p, m, v) in before.items():
            assert np.array_equal(theta[k], p)
            assert np.array_equal(st.m[k], m)
            assert np.array_equal(st.v[k], v)

    def test_non_finite_parameter_is_named(self):
        cfg = tr.TrainConfig(epochs=1)
        theta = {"ok": np.ones(3), "blown": np.array([1.0, np.inf])}
        st = tr.AdamState.for_arrays(theta)
        with pytest.raises(EvaluationError, match="'blown' became non-finite"):
            tr.adam_step(theta, {"ok": np.ones(3), "blown": np.ones(2)}, st, cfg)

    @pytest.mark.parametrize(
        "grads",
        [
            {"t": np.ones(1)},  # would broadcast into all three elements
            {"t": np.ones((3, 1))},
            {},
            {"t": np.ones(3), "extra": np.ones(3)},
            {"other": np.ones(3)},
        ],
    )
    def test_mismatched_gradients_rejected_before_any_update(self, grads):
        cfg = tr.TrainConfig(epochs=1)
        theta = {"t": np.array([1.0, -2.0, 3.0])}
        st = tr.AdamState.for_arrays(theta)
        with pytest.raises(ContractError):
            tr.adam_step(theta, grads, st, cfg)
        np.testing.assert_array_equal(theta["t"], [1.0, -2.0, 3.0])
        assert st.step == 0

    def test_step_allocates_no_full_size_temporaries(self):
        # vanilla-mlp at n=28: 481,568 parameters; the whole-array
        # formula peaked at 4.59 MiB
        cfg = tr.TrainConfig()
        theta = tr._named_arrays(*tr.init_run(cfg))
        st = tr.AdamState.for_arrays(theta)
        rng = np.random.default_rng(14)
        grads = {k: rng.standard_normal(a.shape) for k, a in theta.items()}
        tr.adam_step(theta, grads, st, cfg)
        tracemalloc.start()
        try:
            tr.adam_step(theta, grads, st, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_gc_tracked_objects_do_not_grow_with_panels_or_arrays(self):
        # Per-step GC-tracked counts decide when dead tapes are freed (see
        # TestStepFootprint); at threshold 1 every second live tracked
        # object starts a gen-0 collection.
        cfg = tr.TrainConfig(epochs=1)

        def collections(sizes):
            theta = {f"a{i}": np.ones(s) for i, s in enumerate(sizes)}
            grads = {k: np.full(a.shape, 0.5) for k, a in theta.items()}
            st = tr.AdamState.for_arrays(theta)
            starts = []

            def count(phase, info):
                if phase == "start" and info["generation"] == 0:
                    starts.append(1)

            gc.collect()
            threshold = gc.get_threshold()
            gc.callbacks.append(count)
            gc.set_threshold(1)
            try:
                tr.adam_step(theta, grads, st, cfg)
            finally:
                gc.set_threshold(*threshold)
                gc.callbacks.remove(count)
            return len(starts)

        # The first call in a process also counts one-time allocations
        # (read 8, then 5, 5, 5), so it is thrown away.
        collections([1])
        one = collections([1])
        assert collections([4 * self.P + 1]) == one
        assert collections([2 * self.P + 5] * 12) == one


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


def warm_step(sampler, decoder, n, batch, **kw):
    """One train step already taken, and a callable that takes the next."""
    cfg = tr.TrainConfig(n=n, sampler=sampler, decoder=decoder, batch_size=batch, epochs=1, seed=4, **kw)
    params, dec = tr.init_run(cfg)
    state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))
    rng = stream(cfg.seed, STREAM_LATENT)
    cols = np.ascontiguousarray(tiny_images(batch, n, seed=4).reshape(batch, n * n).T)
    tr.train_step(cols, params, dec, state, cfg, rng)
    return lambda: tr.train_step(cols, params, dec, state, cfg, rng)


class TestStepFootprint:
    def test_hypernet_step_keeps_no_per_draw_weights(self):
        # F_W's (n*n*d, B) output is 12.8 MB here; the generic op chain kept
        # several such arrays on the tape and peaked at 142 MiB
        step = warm_step("hypernet", "mlp", 28, 128, latent_dim=16, rep_width=32)
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_conv_step_keeps_no_separate_bias_or_activation_outputs(self):
        # Each conv_resnet layer is one conv2d whose epilogue adds the bias,
        # the leaky ReLU and the skip in place; separate bias, leaky_relu
        # and residual ops each kept a (16, 16, 28, 28) output here and
        # peaked at 48.5 MiB.  Fused, with a padded copy of each layer's
        # input kept beside its compact output, it peaked at 31.0 MiB; with
        # activations kept in their padded rows, 22.6 MiB.
        step = warm_step("concrete", "conv_resnet", 28, 16)
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 26 * 2**20

    def test_mlp_step_keeps_no_separate_bias_or_stretch_outputs(self):
        # Each dense layer's bias is added to its matmul output in place, and
        # the stretch's scale and shift run inside clamp01; as separate
        # reshape + add and mul + add ops each kept a full-size output on
        # the tape, and the step peaked at 21.3 MiB.  Fused, 15.4 MiB.
        step = warm_step("vanilla", "mlp", 28, 128)
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20

    # The tracked objects a step creates and leaves alive: its own tape's
    # record (tensors, closures and their cells, input tuples), which the
    # next step's backward drops.  Objects of the step before stay alive in
    # ``before``, so a freed object's id cannot be taken by a new one.  The
    # bounds are the counts measured at n=12, B=8.
    @pytest.mark.parametrize(
        "sampler,decoder,bound",
        [
            ("vanilla", "mlp", 162),
            ("independent", "mlp", 167),
            ("hypernet", "mlp", 242),
            ("concrete", "conv_resnet", 224),
        ],
    )
    def test_gc_tracked_allocations_per_step(self, sampler, decoder, bound):
        step = warm_step(sampler, decoder, 12, 8)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_objects()
            seen = {id(o) for o in before}
            step()
            kept = [o for o in gc.get_objects() if id(o) not in seen]
        finally:
            gc.enable()
        kept = [o for o in kept if o is not before and o is not seen]
        assert sum(isinstance(o, Tape) for o in kept) == 1
        assert len(kept) <= bound

    @pytest.mark.parametrize("sampler", sorted(sp.KINDS))
    @pytest.mark.parametrize("decoder", ["mlp", "conv_resnet"])
    def test_consecutive_steps_leave_at_most_one_tape_alive(self, sampler, decoder):
        # A tape's record and tensors refer to each other; the next step's
        # backward drops the record, so no finished tape waits for the GC.
        step = warm_step(sampler, decoder, 12, 8)
        gc.collect()
        gc.disable()
        try:
            alive = []
            for _ in range(10):
                step()
                alive.append(sum(isinstance(o, Tape) for o in gc.get_objects()))
        finally:
            gc.enable()
        assert max(alive) <= 1, alive


class TestSparsityPressure:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heavier_weight_never_increases_trained_sparsity(self, seed, numpy_law):
        # 200 steps on one fixed batch; the trained normalized expected-l0
        # must be non-increasing across increasing sparsity weights

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
            finals.append(expected_l0(*numpy_law(params), params.lam, cfg.stretch) / 64)
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
        rows = read_metrics(tmp_path / "metrics.csv")
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
