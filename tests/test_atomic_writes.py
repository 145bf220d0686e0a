"""Every artifact writer leaves the previous file intact, and no temporary
file behind, when its write fails."""

import json
import os

import numpy as np
import pytest

from masko.checkpoint import save_checkpoint
from masko.cli import build_parser
from masko.data import write_idx_images, write_idx_labels, write_pgm
from masko.training import EpochMetrics, TrainConfig, init_run, write_metrics


def run_command(argv):
    """Run a subcommand and let its exceptions propagate (cli_main maps them to codes)."""
    args = build_parser().parse_args(argv)
    args.func(args)


def checkpoint(tmp_path, variant):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(*init_run(TrainConfig(n=4, latent_dim=2, hidden=4, seed=variant)), path)
    return path


def metrics(tmp_path, variant):
    path = tmp_path / "metrics.csv"
    write_metrics([EpochMetrics(1, 0.5 + variant, 0.25, 0.75, 1.0)], path)
    return path


def csv_table(tmp_path, variant):
    run_command(
        ["density-plot", "--mu", "0", "--sigma", "1", "--points", str(5 + variant),
         "--out", str(tmp_path)]
    )
    return tmp_path / "density_mu0.0_sigma1.0.csv"


def run_config_json(tmp_path, variant):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": 8, "epochs": 1, "batch_size": 16, "hidden": 8, "latent_dim": 2,
         "dataset": "field", "data_count": 32}
    ))
    run_command(
        ["train", "--config", str(cfg), "--seed", str(variant), "--out", str(tmp_path / "run")]
    )
    return tmp_path / "run" / "config.json"


def pgm(tmp_path, variant):
    path = tmp_path / "mask.pgm"
    write_pgm(np.full((2, 2), 0.5 * variant), path)
    return path


def idx_images(tmp_path, variant):
    path = tmp_path / "images.idx"
    write_idx_images(np.full((1, 2, 2), 0.5 * variant), path)
    return path


def idx_labels(tmp_path, variant):
    path = tmp_path / "labels.idx"
    write_idx_labels(np.array([variant]), path)
    return path


WRITERS = [checkpoint, metrics, csv_table, run_config_json, pgm, idx_images, idx_labels]


@pytest.mark.parametrize("write", WRITERS, ids=lambda w: w.__name__)
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, write):
    path = write(tmp_path, 0)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, 1)
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
