"""Command-line entry points.

Subcommands: ``train``, ``eval``, ``collapse``, ``export-cov``,
``gen-data``, ``density-plot``.  A run is configured by a JSON file whose
keys mirror :class:`RunConfig` (unknown keys are rejected) and can be
overridden by flags.  Every artifact lands under the configured output
directory.  Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import (
    Dataset,
    gen_digits,
    gen_gaussian_random_field,
    load_idx,
    write_idx_images,
    write_idx_labels,
    write_pgm,
)
from .distributions import logitnormal_pdf
from .errors import ConfigError, MaskoError
from .evaluate import collapse_distribution, eval_fixed_mask, export_covariance
from .model import DECODER_KINDS
from .samplers import KINDS
from .training import TrainConfig, train_loop

DATASET_KINDS = ("digits", "field", "idx")


@dataclass
class RunConfig(TrainConfig):
    """The training configuration plus dataset selection and output options."""

    # dataset selection
    dataset: str = "digits"
    data_count: int = 2400
    test_fraction: float = 1.0 / 6.0
    field_slope: float = 2.5
    data_seed: int | None = None  # defaults to `seed`
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    # outputs and evaluation
    out_dir: str = "out"
    mc_samples: int = 1024
    cov_start: int = 0
    cov_size: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.mc_samples < 1:
            raise ConfigError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.dataset not in DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.dataset!r}; expected {DATASET_KINDS}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge a JSON config file with non-None flag overrides."""
    values: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                values = json.load(f)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as e:
        raise ConfigError(f"invalid config: {e}") from e


def resolve_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """Produce the train/test pair the config describes (disjoint splits)."""
    seed = cfg.seed if cfg.data_seed is None else cfg.data_seed
    if cfg.dataset == "idx":
        if cfg.train_images is None or cfg.test_images is None:
            raise ConfigError("dataset 'idx' requires train_images and test_images paths")
        train = load_idx(cfg.train_images, cfg.train_labels, split="train")
        test = load_idx(cfg.test_images, cfg.test_labels, split="test")
    else:
        if cfg.dataset == "digits":
            full = gen_digits(cfg.data_count, n=cfg.n, seed=seed)
        else:
            full = gen_gaussian_random_field(cfg.data_count, cfg.n, cfg.field_slope, seed=seed)
        n_test = max(1, round(cfg.data_count * cfg.test_fraction))
        n_train = cfg.data_count - n_test
        if n_train < 1:
            raise ConfigError("dataset too small for the requested test fraction")

        def part(rows: slice, split: str) -> Dataset:
            labels = None if full.labels is None else full.labels[rows]
            return Dataset(images=full.images[rows], split=split, source=full.source, labels=labels)

        train = part(slice(None, n_train), "train")
        test = part(slice(n_train, None), "test")
    for ds in (train, test):
        if ds.n != cfg.n:
            raise ConfigError(f"dataset images are {ds.n}x{ds.n} but config n={cfg.n}")
    return train, test


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    train, _ = resolve_datasets(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", dataclasses.asdict(cfg))
    result = train_loop(train.images, cfg, out_dir=out)
    last = result.metrics[-1]
    print(
        f"trained {cfg.sampler}/{cfg.decoder} for {cfg.epochs} epochs: "
        f"recon={last.recon_mse:.6f} sparsity={last.sparsity_l0:.6f}"
    )
    print(f"artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    _, test = resolve_datasets(cfg)
    params, dec = load_checkpoint(args.checkpoint)
    if dec is None:
        raise ConfigError("checkpoint has no decoder; train before evaluating")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    collapsed = collapse_distribution(params, mc_samples=cfg.mc_samples, seed=cfg.seed)
    rows = []
    # equal sizes give identical top-K masks; score each size once
    for k, mask in {int(mask.sum()): mask for mask in collapsed.masks}.items():
        mse = eval_fixed_mask(mask, dec, test.images)
        rows.append([k, float(mse)])
        print(f"mask {k:5d} pixels: test mse {mse:.6f}")
    _write_csv(out / "eval.csv", ["mask_pixels", "test_mse"], rows)
    print(f"expected active pixels {collapsed.l0_estimate:.2f}; table in {out / 'eval.csv'}")
    return 0


def cmd_collapse(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    params, _ = load_checkpoint(args.checkpoint)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    collapsed = collapse_distribution(params, mc_samples=cfg.mc_samples, seed=cfg.seed)
    n = collapsed.probs.shape[0]
    write_pgm(collapsed.probs, out / "probs.pgm")
    prob_rows = [
        [int(i), int(i // n), int(i % n), float(p)]
        for i, p in enumerate(collapsed.probs.reshape(-1))
    ]
    _write_csv(out / "probs.csv", ["pixel_index", "row", "col", "prob"], prob_rows)
    for mask in collapsed.masks:
        k = int(mask.sum())
        write_pgm(mask, out / f"mask_{k}.pgm")
        idx = np.flatnonzero(mask.reshape(-1))
        _write_csv(out / f"mask_{k}.csv", ["pixel_index"], [[int(i)] for i in idx])
    summary = {
        "kind": params.kind,
        "n": n,
        "l0_estimate": collapsed.l0_estimate,
        "mask_sizes": collapsed.mask_sizes,
    }
    _write_json(out / "collapse.json", summary)
    print(f"l0_estimate={collapsed.l0_estimate!r} masks={collapsed.mask_sizes}")
    return 0


def cmd_export_cov(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    params, _ = load_checkpoint(args.checkpoint)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cov = export_covariance(params, start=cfg.cov_start, size=cfg.cov_size)
    header = [f"p{cfg.cov_start + j}" for j in range(cov.shape[1])]
    _write_csv(out / "covariance.csv", header, [[float(v) for v in row] for row in cov])
    print(f"{cov.shape[0]}x{cov.shape[1]} covariance window in {out / 'covariance.csv'}")
    return 0


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_test = max(1, round(args.count * args.test_fraction))
    n_train = args.count - n_test
    if n_train < 1:
        raise ConfigError("count too small for the requested test fraction")
    if args.kind == "digits":
        full = gen_digits(args.count, n=args.side, seed=args.seed)
        write_idx_images(full.images[:n_train], out / "train-images.idx", dtype="u8")
        write_idx_images(full.images[n_train:], out / "test-images.idx", dtype="u8")
        write_idx_labels(full.labels[:n_train], out / "train-labels.idx")
        write_idx_labels(full.labels[n_train:], out / "test-labels.idx")
    else:  # "field"; the parser allows no other kind
        full = gen_gaussian_random_field(args.count, args.side, args.slope, seed=args.seed)
        write_idx_images(full.images[:n_train], out / "train-images.idx", dtype="f64")
        write_idx_images(full.images[n_train:], out / "test-images.idx", dtype="f64")
    print(f"wrote {n_train} train / {n_test} test images under {out}")
    return 0


def cmd_density_plot(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    eps = 1e-6
    ys = np.linspace(eps, 1.0 - eps, args.points)
    dens = logitnormal_pdf(ys, args.mu, args.sigma)
    rows = [[float(y), float(d)] for y, d in zip(ys, dens)]
    path = out / f"density_mu{args.mu}_sigma{args.sigma}.csv"
    _write_csv(path, ["y", "density"], rows)
    print(f"density table in {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _add_config_flags(p: argparse.ArgumentParser, training: bool = True) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    if training:
        p.add_argument("--sampler", choices=tuple(KINDS))
        p.add_argument("--decoder", choices=tuple(DECODER_KINDS))
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--lambda-sparse", dest="lam_sparse", type=float)
        p.add_argument("--lambda-temp", dest="lam_temp", type=float)
        p.add_argument("--latent-dim", dest="latent_dim", type=int)
        p.add_argument("--hidden", type=int)
        p.add_argument("--side", dest="n", type=int, help="image side length")
        p.add_argument("--dataset", choices=DATASET_KINDS)
        p.add_argument("--data-count", dest="data_count", type=int)
        p.add_argument("--field-slope", dest="field_slope", type=float)
        p.add_argument("--train-images", dest="train_images")
        p.add_argument("--train-labels", dest="train_labels")
        p.add_argument("--test-images", dest="test_images")
        p.add_argument("--test-labels", dest="test_labels")
    else:
        p.add_argument("--cov-start", dest="cov_start", type=int)
        p.add_argument("--cov-size", dest="cov_size", type=int)


_OVERRIDE_KEYS = [f.name for f in dataclasses.fields(RunConfig)]


def _overrides(args) -> dict:
    return {k: getattr(args, k) for k in _OVERRIDE_KEYS if hasattr(args, k)}


def build_parser() -> _Parser:
    parser = _Parser(prog="masko", description="Sparse pixel-mask learning for reconstruction")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="train a mask distribution and decoder")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="fixed-mask reconstruction error on the test split")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_col = sub.add_parser("collapse", help="derandomize a trained distribution into masks")
    _add_config_flags(p_col, training=False)
    p_col.add_argument("--checkpoint", required=True)
    p_col.set_defaults(func=cmd_collapse)

    p_cov = sub.add_parser("export-cov", help="export a pre-sigmoid covariance window")
    _add_config_flags(p_cov, training=False)
    p_cov.add_argument("--checkpoint", required=True)
    p_cov.set_defaults(func=cmd_export_cov)

    p_gen = sub.add_parser("gen-data", help="materialize a synthetic dataset as IDX files")
    p_gen.add_argument("--kind", choices=("digits", "field"), required=True)
    p_gen.add_argument("--count", type=int, default=2400)
    p_gen.add_argument("--side", type=int, default=28)
    p_gen.add_argument("--slope", type=float, default=2.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--test-fraction", dest="test_fraction", type=float, default=1.0 / 6.0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_data)

    p_dens = sub.add_parser("density-plot", help="tabulate the logitNormal density")
    p_dens.add_argument("--mu", type=float, required=True)
    p_dens.add_argument("--sigma", type=float, required=True)
    p_dens.add_argument("--points", type=int, default=4001)
    p_dens.add_argument("--out", required=True)
    p_dens.set_defaults(func=cmd_density_plot)
    return parser


def cli_main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MaskoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, IndexError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
