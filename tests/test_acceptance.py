"""Acceptance suite: one test per release criterion, tolerances pinned.

Run ``pytest tests/test_acceptance.py -v -s`` to see a pass/fail line per
criterion.  Criteria 4-6 share one set of 18 desk-scale training runs
(two samplers x three sparsity weights x three seeds, 20 epochs each,
roughly ten minutes of CPU); everything else finishes in seconds.

The trend criteria run on real handwritten-digit IDX files when
``MASKO_MNIST_DIR`` points at them (train-images*/t10k-images*), and on
the built-in procedural digit surrogate otherwise.
"""

import math
import os
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from masko import autodiff as ad
from masko import model as md
from masko import samplers as sp
from masko.cli import cli_main
from masko.data import gen_digits, load_idx
from masko.distributions import StretchConfig, collapse_prob
from masko.evaluate import collapse_distribution, eval_fixed_mask, export_covariance, top_k_mask
from masko.training import TrainConfig, init_run, train_loop

from oracles import expected_l0, grad_check, init_decoder, init_sampler


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- criterion 1: gradient suite --------------------------------------------

PRIMITIVES = [
    ("add", lambda t: (t + t.tape.constant(np.full(6, 0.7))).sum(), (-2, 2), 6),
    ("mul", lambda t: (t * t.tape.constant(np.linspace(0.5, 2, 6))).sum(), (-2, 2), 6),
    ("div", lambda t: (1.0 / t).sum(), (0.5, 2), 6),
    ("matmul", lambda t: ad.matmul(t.reshape((2, 3)), t.reshape((3, 2))).sum(), (-1, 1), 6),
    ("transpose", lambda t: (ad.transpose(t.reshape((2, 3))) * 2.0).sum(), (-1, 1), 6),
    ("reshape", lambda t: (t.reshape((3, 2)) * 1.5).sum(), (-2, 2), 6),
    ("sigmoid_temp", lambda t: ad.sigmoid_temp(t, 0.4).sum(), (-2, 2), 6),
    ("clamp01", lambda t: ad.clamp01(t).sum(), (0.1, 0.9), 6),
    ("leaky_relu", lambda t: ad.leaky_relu(t, 0.2).sum(), (0.2, 2), 6),
    ("softplus", lambda t: ad.softplus(t).sum(), (-2, 2), 6),
    ("exp", lambda t: ad.exp(t).sum(), (-1, 1), 6),
    ("log", lambda t: ad.log(t).sum(), (0.5, 3), 6),
    ("sqrt", lambda t: ad.sqrt(t).sum(), (0.5, 3), 6),
    ("normal_cdf", lambda t: ad.normal_cdf(t).sum(), (-2, 2), 6),
    ("mean", lambda t: (t * t).mean(), (-2, 2), 6),
    ("sum_axis", lambda t: (t.reshape((2, 3)).sum(axis=1) * 3.0).sum(), (-2, 2), 6),
    ("conv2d", lambda t: ad.conv2d(
        t.tape.constant(np.linspace(-1, 1, 32).reshape(1, 2, 4, 4).transpose(1, 0, 2, 3)),
        t.reshape((1, 2, 3, 3)),
    ).sum(), (-1, 1), 18),
]

STRETCH = StretchConfig(gamma=-0.1, eta=1.1)


def full_objective_fn(params, dec, x0, noise, lam_sparse, target):
    """Loss as a function of one named parameter array (`s.*` or `d.*`)."""

    def f(leaf):
        tape = leaf.tape
        s_leaves = {
            name: leaf.reshape(arr.shape) if target == f"s.{name}" else tape.param(arr)
            for name, arr in sp.param_arrays(params)
        }
        d_leaves = {
            name: leaf.reshape(arr.shape) if target == f"d.{name}" else tape.param(arr)
            for name, arr in md.decoder_param_arrays(dec)
        }
        out = sp.sampler_forward(tape, params, noise, STRETCH, leaves=s_leaves)
        loss, _, _ = md.objective(
            out, tape.constant(x0), dec, lam_sparse, STRETCH, dec_leaves=d_leaves
        )
        return loss

    return f


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    worst = 0.0

    for name, fn, domain, size in PRIMITIVES:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(10):
            theta = rng.uniform(domain[0], domain[1], size=size)
            err = grad_check(fn, theta, step=1e-5)
            worst = max(worst, err)
            assert err < 1e-4, f"primitive {name}: rel err {err}"

    n, nb = 8, 4
    rng = np.random.default_rng(0)
    x0 = rng.random((n * n, nb))
    for sampler_kind in sp.KINDS:
        params = init_sampler(sampler_kind, n=n, d=6, k=8, seed=1)
        if sampler_kind == "concrete":
            noise = rng.uniform(0.1, 0.9, size=(n * n, nb))
        else:
            noise = sp.draw_latent(params, np.random.default_rng(2), nb)
        for dec_kind in md.DECODER_KINDS:
            dec = init_decoder(dec_kind, n=n, hidden=24, filters=6, rng=np.random.default_rng(3))
            names = [f"s.{nm}" for nm, _ in sp.param_arrays(params)]
            names += [f"d.{nm}" for nm, _ in md.decoder_param_arrays(dec)]
            arrays = {f"s.{nm}": a for nm, a in sp.param_arrays(params)}
            arrays.update({f"d.{nm}": a for nm, a in md.decoder_param_arrays(dec)})
            for target in names:
                fn = full_objective_fn(params, dec, x0, noise, 0.1, target)
                err = grad_check(
                    fn,
                    arrays[target].reshape(-1),
                    step=1e-5,
                    max_coords=4,
                    rng=np.random.default_rng(zlib.crc32(target.encode())),
                )
                worst = max(worst, err)
                assert err < 1e-4, f"{sampler_kind}/{dec_kind} {target}: rel err {err}"

    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 120
    report(1, ok, f"max rel err {worst:.2e} over primitives and full objective; {elapsed:.0f}s")
    assert elapsed < 120


# --- criterion 2: closed-form expected-l0 vs Monte Carlo --------------------


def test_criterion_2_expected_l0_monte_carlo():
    started = time.perf_counter()
    rng = np.random.default_rng(20)
    n_samples = 1_000_000
    worst_sigma = 0.0
    for trial in range(20):
        mu = float(rng.uniform(-2.5, 2.5))
        row_norm = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.uniform(-0.4, -0.02))
        eta = float(rng.uniform(1.02, 1.4))
        cfg = StretchConfig(gamma=gamma, eta=eta)
        closed = expected_l0(np.array([mu]), np.array([row_norm]), lam, cfg)
        g = rng.standard_normal(n_samples)
        y = 1.0 / (1.0 + np.exp(-(mu + row_norm * g) / lam))
        mc = float((np.clip((eta - gamma) * y + gamma, 0, 1) > 0).mean())
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / n_samples)
        gap_sigmas = abs(closed - mc) / max(se, 1e-12)
        worst_sigma = max(worst_sigma, gap_sigmas)
        assert abs(closed - mc) <= 3 * se, (trial, mu, row_norm, lam, gamma, eta, closed, mc)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    report(2, ok, f"20 configs within 3 MC standard errors (worst {worst_sigma:.2f} se); {elapsed:.0f}s")
    assert elapsed < 60


# --- criterion 3: zero-temperature limit -------------------------------------


def test_criterion_3_zero_temperature_convergence():
    started = time.perf_counter()
    rng = np.random.default_rng(30)
    n_samples = 100_000
    lam = 0.01
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 17))
        w_row = rng.uniform(-1.5, 1.5, size=d)
        b = float(rng.uniform(-2.0, 2.0))
        sigma = float(np.sqrt((w_row**2).sum()))
        target = collapse_prob(np.array([b]), np.array([sigma]))[0]
        z = rng.standard_normal((d, n_samples))
        y = 1.0 / (1.0 + np.exp(-np.clip((w_row @ z + b) / lam, -700, 700)))
        freq = float((y > 0.5).mean())  # selected = mask rounds to one
        gap = abs(freq - target)
        worst = max(worst, gap)
        assert gap < 0.01, (w_row, b, freq, target)
    elapsed = time.perf_counter() - started
    ok = worst < 0.01 and elapsed < 60
    report(3, ok, f"10 configs, worst |freq - limit| = {worst:.4f} at temperature {lam}; {elapsed:.0f}s")
    assert elapsed < 60


# --- criteria 4-6: desk-scale trend reproduction ------------------------------

GRIDS = {"vanilla": (0.1, 0.15, 0.2), "independent": (0.05, 0.1, 0.15)}
SEEDS = (1, 2, 3)
TARGET_FEATURES = 30
FEATURE_TOLERANCE = 5
RUN_BUDGET_SECONDS = 45 * 60


def _trend_dataset():
    root = os.environ.get("MASKO_MNIST_DIR")
    if root:
        root = Path(root)
        train_files = sorted(root.glob("train-images*"))
        test_files = sorted(root.glob("t10k-images*"))
        if train_files and test_files:
            train = load_idx(train_files[0]).images[:10000]
            test = load_idx(test_files[0]).images[:2000]
            return train, test, f"idx:{root}"
    ds = gen_digits(12000, n=28, seed=0)
    return ds.images[:10000], ds.images[10000:], "procedural digits"


@pytest.fixture(scope="module")
def trend_runs():
    train, test, source = _trend_dataset()
    print(f"\n[acceptance] trend dataset: {source} "
          f"({train.shape[0]} train / {test.shape[0]} test)", flush=True)
    runs = {}
    slowest = 0.0
    for sampler_kind, grid in GRIDS.items():
        for seed in SEEDS:
            for lam_sparse in grid:
                cfg = TrainConfig(
                    n=28, sampler=sampler_kind, decoder="mlp", hidden=256,
                    latent_dim=16, lam_sparse=lam_sparse, lam_temp=0.3,
                    lr=2e-3, batch_size=128, epochs=20, seed=seed,
                )
                started = time.perf_counter()
                result = train_loop(train, cfg)
                collapsed = collapse_distribution(result.sampler)
                elapsed = time.perf_counter() - started
                slowest = max(slowest, elapsed)
                runs[(sampler_kind, seed, lam_sparse)] = {
                    "cfg": cfg,
                    "sampler": result.sampler,
                    "decoder": result.decoder,
                    "collapsed": collapsed,
                    "seconds": elapsed,
                }
                print(
                    f"[acceptance] {sampler_kind} seed={seed} lam={lam_sparse}: "
                    f"expected features {collapsed.l0_estimate:.1f} ({elapsed:.0f}s)",
                    flush=True,
                )
    assert slowest < RUN_BUDGET_SECONDS

    picked = {}
    for sampler_kind, grid in GRIDS.items():
        for seed in SEEDS:
            candidates = [
                runs[(sampler_kind, seed, lam)]
                for lam in grid
                if abs(runs[(sampler_kind, seed, lam)]["collapsed"].l0_estimate - TARGET_FEATURES)
                <= FEATURE_TOLERANCE
            ]
            assert candidates, (
                f"{sampler_kind} seed {seed}: no grid point reached "
                f"{TARGET_FEATURES}+-{FEATURE_TOLERANCE} features"
            )
            best = min(
                candidates,
                key=lambda r: abs(r["collapsed"].l0_estimate - TARGET_FEATURES),
            )
            mask = top_k_mask(best["collapsed"].probs.reshape(-1), TARGET_FEATURES).reshape(28, 28)
            best["mse_at_30"] = eval_fixed_mask(mask, best["decoder"], test)
            picked[(sampler_kind, seed)] = best
    return picked


@pytest.mark.slow
def test_criterion_4_correlated_beats_independent(trend_runs):
    wins = 0
    lines = []
    for seed in SEEDS:
        vln = trend_runs[("vanilla", seed)]
        iln = trend_runs[("independent", seed)]
        win = vln["mse_at_30"] < iln["mse_at_30"]
        wins += win
        lines.append(
            f"seed {seed}: correlated {vln['mse_at_30']:.5f} "
            f"{'<' if win else '>='} independent {iln['mse_at_30']:.5f}"
        )
    ok = wins >= 2
    report(4, ok, f"test MSE at {TARGET_FEATURES} features, {wins}/3 seeds; " + "; ".join(lines))
    assert ok


@pytest.mark.slow
def test_criterion_5_correlated_sparsifies_harder(trend_runs):
    wins = 0
    lines = []
    for seed in SEEDS:
        fracs = {}
        for kind in ("vanilla", "independent"):
            probs = trend_runs[(kind, seed)]["collapsed"].probs
            fracs[kind] = float(((probs > 0.05) & (probs < 0.95)).mean())
        win = fracs["vanilla"] < fracs["independent"]
        wins += win
        lines.append(f"seed {seed}: {fracs['vanilla']:.3f} vs {fracs['independent']:.3f}")
    ok = wins >= 2
    report(5, ok, f"undecided-pixel fraction, {wins}/3 seeds lower for correlated; " + "; ".join(lines))
    assert ok


@pytest.mark.slow
def test_criterion_6_covariance_structure_emerges(trend_runs):
    ratios = []
    for seed in SEEDS:
        run = trend_runs[("vanilla", seed)]
        init_params, _ = init_run(run["cfg"])
        probs = run["collapsed"].probs.reshape(-1)
        window = np.sort(np.argsort(-probs, kind="stable")[:64])

        def offdiag_mass(cov):
            off = cov - np.diag(np.diag(cov))
            return float((off**2).sum())

        trained_cov = export_covariance(run["sampler"], indices=window)
        init_cov = export_covariance(init_params, indices=window)
        assert np.array_equal(trained_cov, trained_cov.T)
        assert np.linalg.eigvalsh(trained_cov).min() >= -1e-9
        ratios.append(offdiag_mass(trained_cov) / offdiag_mass(init_cov))
    ok = all(r > 10 for r in ratios)
    report(
        6,
        ok,
        "off-diagonal mass growth on the 64 most-selected pixels: "
        + ", ".join(f"{r:.1f}x" for r in ratios)
        + " (need >10x); symmetric, PSD within 1e-9",
    )
    assert ok


# --- criterion 7: bitwise determinism of the command line ---------------------


def test_criterion_7_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"n": 8, "sampler": "vanilla", "decoder": "mlp", "epochs": 2,'
        ' "batch_size": 16, "lam_sparse": 0.05, "hidden": 32, "latent_dim": 8,'
        ' "dataset": "field", "data_count": 64, "field_slope": 2.5}'
    )
    for name in ("a", "b"):
        code = cli_main(
            ["train", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / name)]
        )
        assert code == 0
    ck_same = (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
        tmp_path / "b" / "checkpoint.bin"
    ).read_bytes()

    def normalized_metrics(path):
        # wall_seconds is a wall-clock measurement; every numeric result
        # column must still match byte for byte
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:4]) for line in lines]

    csv_same = normalized_metrics(tmp_path / "a" / "metrics.csv") == normalized_metrics(
        tmp_path / "b" / "metrics.csv"
    )
    ok = ck_same and csv_same
    report(
        7,
        ok,
        f"checkpoints bitwise identical: {ck_same}; metrics identical "
        f"(excluding wall clock): {csv_same}",
    )
    assert ok


# --- criterion 8: collapse rounding -------------------------------------------


def test_criterion_8_collapse_rounding():
    b = np.full(100, -1.0)
    b[:27] = 1.0  # 27 deterministic picks
    params = sp.SamplerParams("vanilla", {"w": np.zeros((100, 4)), "b": b}, 0.3, 10, 4)
    collapsed = collapse_distribution(params)
    sizes = collapsed.mask_sizes
    ok = collapsed.l0_estimate == 27.0 and sizes == [20, 30]
    report(8, ok, f"expected count 27.0 -> masks of {sizes[0]} and {sizes[1]} pixels")
    assert collapsed.l0_estimate == 27.0
    assert sizes == [20, 30]
    for mask, k in zip(collapsed.masks, sizes):
        assert int(mask.sum()) == k
