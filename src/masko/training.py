"""Optimization loop: Adam over sampler and decoder from one backward pass.

Each step draws one latent column per batch element, masks the batch with
the stretched sample, reconstructs, and updates both parameter sets from
the same gradient tape.  All randomness flows through seeded Philox
streams, so a (config, seed) pair reproduces checkpoints bit for bit.
A non-finite loss or parameter aborts the run; the checkpoint written at
the previous epoch is left in place.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape
from .checkpoint import save_checkpoint
from .distributions import StretchConfig
from .errors import ConfigError, EvaluationError, FormatError
from .model import (
    DECODER_KINDS,
    Decoder,
    LossBreakdown,
    decoder_param_arrays,
    init_decoder,
    objective,
)
from .rng import STREAM_INIT, STREAM_LATENT, STREAM_SHUFFLE, stream
from .samplers import (
    KINDS,
    SamplerParams,
    draw_latent,
    init_sampler,
    param_arrays,
    sampler_forward,
)

METRICS_HEADER = ("epoch", "recon_mse", "sparsity_l0", "total", "wall_seconds")


@dataclass
class TrainConfig:
    """Everything a training run depends on, seed included."""

    n: int = 28  # image side
    sampler: str = "vanilla"
    decoder: str = "mlp"
    epochs: int = 20
    batch_size: int = 128
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.99
    lam_sparse: float = 0.1
    lam_temp: float = 0.3
    gamma: float = -0.1
    eta: float = 1.1
    seed: int = 0
    latent_dim: int = 16
    rep_width: int = 32
    hidden: int = 256
    filters: int = 16

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.sampler not in KINDS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.decoder not in DECODER_KINDS:
            raise ConfigError(f"unknown decoder {self.decoder!r}")

    @property
    def stretch(self) -> StretchConfig:
        return StretchConfig(gamma=self.gamma, eta=self.eta, lambda_temp=self.lam_temp)


@dataclass
class AdamState:
    """First/second moment accumulators per named parameter array."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_arrays(cls, arrays: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in arrays.items()},
            v={k: np.zeros_like(a) for k, a in arrays.items()},
        )


ADAM_EPS = 1e-8


def adam_step(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> AdamState:
    """Bias-corrected Adam update, in place on the parameter arrays."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise EvaluationError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    for name, arr in arrays.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        arr -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return state


def _named_arrays(params: SamplerParams, dec: Decoder) -> dict[str, np.ndarray]:
    out = {f"s.{name}": arr for name, arr in param_arrays(params)}
    out.update({f"d.{name}": arr for name, arr in decoder_param_arrays(dec)})
    return out


def train_step(
    batch_cols: np.ndarray,
    params: SamplerParams,
    dec: Decoder,
    state: AdamState,
    cfg: TrainConfig,
    latent_rng: np.random.Generator,
) -> LossBreakdown:
    """One optimization step on a (n*n, B) batch; updates params in place."""
    nb = batch_cols.shape[1]
    if nb == 0:
        raise ConfigError("empty batch")
    noise = draw_latent(params, latent_rng, nb)
    tape = Tape()
    out = sampler_forward(tape, params, noise, cfg.stretch)
    x = tape.constant(batch_cols)
    loss, breakdown, dec_leaves = objective(out, x, dec, cfg.lam_sparse, cfg.stretch)
    if not np.isfinite(breakdown.total):
        raise EvaluationError(f"non-finite loss at optimizer step {state.step + 1}")
    tape.backward(loss)
    grads = {f"s.{name}": leaf.grad for name, leaf in out.leaves.items()}
    grads.update({f"d.{name}": leaf.grad for name, leaf in dec_leaves.items()})
    arrays = _named_arrays(params, dec)
    adam_step(arrays, grads, state, cfg)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise EvaluationError(f"parameter {name!r} became non-finite")
    return breakdown


@dataclass
class EpochMetrics:
    epoch: int
    recon_mse: float
    sparsity_l0: float
    total: float
    wall_seconds: float


@dataclass
class TrainResult:
    sampler: SamplerParams
    decoder: Decoder
    metrics: list[EpochMetrics] = field(default_factory=list)


def init_run(cfg: TrainConfig) -> tuple[SamplerParams, Decoder]:
    """Sampler then decoder drawn from the run's init stream, in that order."""
    rng = stream(cfg.seed, STREAM_INIT)
    params = init_sampler(
        cfg.sampler, n=cfg.n, d=cfg.latent_dim, lam=cfg.lam_temp, k=cfg.rep_width, rng=rng
    )
    dec = init_decoder(cfg.decoder, n=cfg.n, hidden=cfg.hidden, filters=cfg.filters, rng=rng)
    return params, dec


def train_loop(
    images: np.ndarray,
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
) -> TrainResult:
    """Run ``cfg.epochs`` passes over ``images`` of shape (count, n, n).

    Writes ``checkpoint.bin`` and ``metrics.csv`` under ``out_dir`` after
    every epoch when given.  On a non-finite loss the artifacts of the
    last completed epoch stay in place and the error propagates.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[1] != cfg.n or images.shape[2] != cfg.n:
        raise ConfigError(f"expected (count, {cfg.n}, {cfg.n}) images, got {images.shape}")
    count = images.shape[0]
    if count == 0:
        raise ConfigError("empty dataset")
    flat = images.reshape(count, cfg.n * cfg.n)

    params, dec = init_run(cfg)
    state = AdamState.for_arrays(_named_arrays(params, dec))
    latent_rng = stream(cfg.seed, STREAM_LATENT)
    shuffle_rng = stream(cfg.seed, STREAM_SHUFFLE)
    result = TrainResult(sampler=params, decoder=dec)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    batch = min(cfg.batch_size, count)
    n_batches = count // batch
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(count)
        recon_sum = 0.0
        sparsity_sum = 0.0
        for b in range(n_batches):
            idx = order[b * batch : (b + 1) * batch]
            cols = np.ascontiguousarray(flat[idx].T)
            breakdown = train_step(cols, params, dec, state, cfg, latent_rng)
            recon_sum += breakdown.recon
            sparsity_sum += breakdown.sparsity
        recon = recon_sum / n_batches
        sparsity = sparsity_sum / n_batches
        result.metrics.append(
            EpochMetrics(
                epoch=epoch,
                recon_mse=recon,
                sparsity_l0=sparsity,
                total=recon + cfg.lam_sparse * sparsity,
                wall_seconds=time.perf_counter() - started,
            )
        )
        if out_path is not None:
            save_checkpoint(params, dec, out_path / "checkpoint.bin")
            write_metrics(result.metrics, out_path / "metrics.csv")
    return result


def write_metrics(metrics: list[EpochMetrics], path: str | Path) -> None:
    """CSV with shortest round-trip float formatting, written atomically."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for row in metrics:
            writer.writerow([repr(v) for v in astuple(row)])
    os.replace(tmp, path)


def read_metrics(path: str | Path) -> list[EpochMetrics]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != METRICS_HEADER:
            raise FormatError(f"unexpected metrics header {header!r}")
        return [EpochMetrics(int(r[0]), *map(float, r[1:])) for r in reader]
