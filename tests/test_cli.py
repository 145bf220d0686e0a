"""End-to-end command-line tests (invoked in-process via cli_main)."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from masko import model as md
from masko import samplers as sp
from masko.cli import RunConfig, cli_main
from masko.data import load_idx, write_idx_images
from masko.errors import ConfigError
from masko.training import TrainConfig, save_checkpoint

from oracles import read_pgm


def write_config(path, **kv):
    base = {
        "n": 8, "sampler": "vanilla", "decoder": "mlp", "epochs": 2,
        "batch_size": 16, "lam_sparse": 0.05, "hidden": 32, "latent_dim": 8,
        "dataset": "field", "data_count": 64, "field_slope": 2.5, "seed": 11,
    }
    base.update(kv)
    path.write_text(json.dumps(base))
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"))
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        rows = read_csv(tmp_path / "run" / "metrics.csv")
        assert rows[0] == ["epoch", "recon_mse", "sparsity_l0", "total", "wall_seconds"]
        assert len(rows) == 3

    def test_determinism_across_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        for name in ("a", "b"):
            code = cli_main(
                ["train", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / name)]
            )
            assert code == 0
        ck_a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert ck_a == ck_b
        rows_a = read_csv(tmp_path / "a" / "metrics.csv")
        rows_b = read_csv(tmp_path / "b" / "metrics.csv")
        # wall_seconds is a measurement, not a result; every numeric column
        # must agree byte for byte
        strip = lambda rows: [r[:4] for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", epochs=1, out_dir=str(tmp_path / "o"))
        assert cli_main(["train", "--config", str(cfg), "--epochs", "3"]) == 0
        assert len(read_csv(tmp_path / "o" / "metrics.csv")) == 4
        echo = json.loads((tmp_path / "o" / "config.json").read_text())
        assert echo["epochs"] == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 0.1}))
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_unknown_flag_rejected_with_usage(self, capsys):
        assert cli_main(["train", "--bogus-flag", "1"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--bogus-flag" in err

    def test_out_of_memory_is_a_runtime_error(self, tmp_path, capsys):
        # 4.4 EiB for the first decoder weight: more than any 64-bit address
        # space, so the allocation fails at once without touching memory
        code = cli_main(
            ["train", "--dataset", "field", "--data-count", "16", "--side", "8",
             "--hidden", "10000000000000000", "--epochs", "1", "--out", str(tmp_path / "D")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: MemoryError: ")

    @pytest.mark.parametrize("flag", ["--data-count", "--latent-dim"])
    def test_integer_too_large_for_a_float_is_a_runtime_error(self, tmp_path, capsys, flag):
        # the test split's round(count * fraction) and the init scale sqrt(3 / d)
        # convert to float; the last --data-count given is the one that counts
        code = cli_main(
            ["train", "--dataset", "field", "--data-count", "16", "--side", "8",
             "--epochs", "1", "--out", str(tmp_path / "D"), flag, "1" + "0" * 400]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: OverflowError: ")

    def test_idx_dataset_round_trip(self, tmp_path):
        assert cli_main(
            ["gen-data", "--kind", "digits", "--count", "48", "--side", "12",
             "--seed", "3", "--out", str(tmp_path / "data")]
        ) == 0
        cfg = write_config(
            tmp_path / "cfg.json",
            n=12, dataset="idx", epochs=1, batch_size=8,
            train_images=str(tmp_path / "data" / "train-images.idx"),
            test_images=str(tmp_path / "data" / "test-images.idx"),
            out_dir=str(tmp_path / "run"),
        )
        assert cli_main(["train", "--config", str(cfg)]) == 0


class TestConfigValidation:
    def test_run_config_is_train_config_plus_data_and_output_fields(self):
        cfg = RunConfig()
        assert isinstance(cfg, TrainConfig)
        assert len(dataclasses.asdict(cfg)) == 30
        train_keys = [f.name for f in dataclasses.fields(TrainConfig)]
        assert list(dataclasses.asdict(cfg))[: len(train_keys)] == train_keys

    def test_zero_epochs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"))
        assert cli_main(["train", "--config", str(cfg), "--epochs", "0"]) == 1
        assert "epochs" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_zero_mc_samples_is_a_config_error(self, tmp_path, capsys):
        p = sp.init_sampler("hypernet", n=4, d=2, k=3, seed=0)
        save_checkpoint(p, None, tmp_path / "ckpt.bin")
        code = cli_main(
            ["collapse", "--checkpoint", str(tmp_path / "ckpt.bin"), "--mc-samples", "0",
             "--out", str(tmp_path / "col")]
        )
        assert code == 1
        assert "mc_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--latent-dim", "--hidden"])
    def test_zero_width_is_a_config_error(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"))
        assert cli_main(["train", "--config", str(cfg), flag, "0"]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_a_config_error(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"))
        assert cli_main(["train", "--config", str(cfg), "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_out_of_range_data_seed_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", data_seed=-1, out_dir=str(tmp_path / "run"))
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert "data_seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key,value", [("gamma", 0.5), ("eta", 0.9), ("lam_temp", 0.0), ("lam_sparse", -0.1)]
    )
    def test_bad_stretch_constants_fail_before_any_output(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"), **{key: value})
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags,config",
        [
            (["--lambda-sparse", "nan"], {}),
            (["--lr", "inf"], {}),
            (["--field-slope", "nan"], {}),
            ([], {"gamma": -math.inf}),  # written as -Infinity
        ],
    )
    def test_non_finite_setting_fails_before_any_output(self, tmp_path, capsys, flags, config):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"), **config)
        assert cli_main(["train", "--config", str(cfg), *flags]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key,value", [("seed", 1.5), ("epochs", 1.5), ("batch_size", "128"), ("hidden", True)]
    )
    def test_mistyped_value_fails_before_any_output(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"), **{key: value})
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "cls,key,value,fits",
        [
            (TrainConfig, "batch_size", True, False),
            (TrainConfig, "n", 28.0, False),
            (TrainConfig, "lr", "0.002", False),
            (RunConfig, "data_seed", 1.5, False),
            (TrainConfig, "lr", 1, True),
            (TrainConfig, "seed", np.int64(3), True),
            (RunConfig, "data_seed", None, True),
        ],
    )
    def test_code_that_builds_a_config_gets_the_json_type_rule(self, cls, key, value, fits):
        if fits:
            assert getattr(cls(**{key: value}), key) == value
        else:
            with pytest.raises(ConfigError, match=repr(key)):
                cls(**{key: value})

    def test_int_for_float_and_null_for_optional_are_echoed_as_given(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", out_dir=str(tmp_path / "run"),
            epochs=1, lam_sparse=1, data_seed=None,
        )
        assert cli_main(["train", "--config", str(cfg)]) == 0
        values = json.loads(cfg.read_text())
        expected = json.dumps(dataclasses.asdict(RunConfig(**values)), indent=2, sort_keys=True)
        assert (tmp_path / "run" / "config.json").read_text() == expected + "\n"
        assert '"lam_sparse": 1,' in expected

    def test_kind_choices_come_from_the_declarations(self, capsys):
        assert cli_main(["train", "--sampler", "other"]) == 1
        err = capsys.readouterr().err
        assert all(kind in err for kind in sp.KINDS)


# (subcommand, flag, value): each flag sets a field the subcommand does not read
UNREAD_FLAGS = [
    ("eval", "--sampler", "vanilla"), ("eval", "--decoder", "mlp"), ("eval", "--epochs", "3"),
    ("eval", "--batch-size", "16"), ("eval", "--lr", "0.01"), ("eval", "--lambda-sparse", "0.1"),
    ("eval", "--lambda-temp", "0.3"), ("eval", "--latent-dim", "8"), ("eval", "--hidden", "32"),
    ("collapse", "--cov-start", "0"), ("collapse", "--cov-size", "4"),
    ("export-cov", "--seed", "1"), ("export-cov", "--mc-samples", "16"),
]


class TestFlagGroups:
    @pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        p = sp.init_sampler("vanilla", n=8, d=8, seed=0)
        save_checkpoint(p, md.init_decoder("mlp", n=8, hidden=32), tmp_path / "ckpt.bin")
        cfg = write_config(tmp_path / "cfg.json")
        argv = [command, "--config", str(cfg), "--checkpoint", str(tmp_path / "ckpt.bin")]
        assert cli_main([*argv, flag, value, "--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert not (tmp_path / "bad").exists()
        assert cli_main([*argv, "--out", str(tmp_path / "ok")]) == 0


class TestEvalCommand:
    def test_eval_table(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"))
        assert cli_main(["train", "--config", str(cfg)]) == 0
        code = cli_main(
            ["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
             "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        rows = read_csv(tmp_path / "ev" / "eval.csv")
        assert rows[0] == ["mask_pixels", "test_mse"]
        assert len(rows) >= 2
        for r in rows[1:]:
            assert float(r[1]) > 0

    def test_eval_requires_decoder(self, tmp_path, capsys):
        p = sp.init_sampler("vanilla", n=8, d=8, seed=0)
        save_checkpoint(p, None, tmp_path / "sampler_only.bin")
        cfg = write_config(tmp_path / "cfg.json")
        code = cli_main(
            ["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "sampler_only.bin")]
        )
        assert code == 1
        assert "decoder" in capsys.readouterr().err

    def test_empty_test_split_is_an_error(self, tmp_path, capsys):
        p = sp.init_sampler("vanilla", n=8, d=8, seed=0)
        save_checkpoint(p, md.init_decoder("mlp", n=8, hidden=32), tmp_path / "ckpt.bin")
        write_idx_images(np.zeros((4, 8, 8)), tmp_path / "train.idx")
        write_idx_images(np.zeros((0, 8, 8)), tmp_path / "test.idx")
        cfg = write_config(
            tmp_path / "cfg.json", dataset="idx", out_dir=str(tmp_path / "ev"),
            train_images=str(tmp_path / "train.idx"), test_images=str(tmp_path / "test.idx"),
        )
        code = cli_main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "ckpt.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no images" in err
        assert not (tmp_path / "ev" / "eval.csv").exists()

    def test_non_finite_test_pixel_is_an_error(self, tmp_path, capsys):
        p = sp.init_sampler("vanilla", n=8, d=8, seed=0)
        save_checkpoint(p, md.init_decoder("mlp", n=8, hidden=32), tmp_path / "ckpt.bin")
        images = np.zeros((4, 8, 8))
        write_idx_images(images, tmp_path / "train.idx", dtype="f64")
        images[2, 5, 1] = np.nan
        write_idx_images(images, tmp_path / "test.idx", dtype="f64")
        cfg = write_config(
            tmp_path / "cfg.json", dataset="idx", out_dir=str(tmp_path / "ev"),
            train_images=str(tmp_path / "train.idx"), test_images=str(tmp_path / "test.idx"),
        )
        code = cli_main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "ckpt.bin")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()


class TestCollapseCommand:
    def test_untrained_centered_sampler(self, tmp_path, capsys):
        # all-zero biases collapse to probability one half everywhere
        p = sp.init_sampler("vanilla", n=8, d=8, seed=1)
        save_checkpoint(p, None, tmp_path / "ckpt.bin")
        code = cli_main(
            ["collapse", "--checkpoint", str(tmp_path / "ckpt.bin"), "--out", str(tmp_path / "col")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "col" / "collapse.json").read_text())
        assert summary["l0_estimate"] == pytest.approx(8 * 8 / 2, abs=1e-9)
        assert summary["mask_sizes"] == [30, 40]
        probs = read_pgm(tmp_path / "col" / "probs.pgm")
        assert np.allclose(probs, 0.5, atol=1 / 255)
        mask30 = read_pgm(tmp_path / "col" / "mask_30.pgm")
        assert mask30.sum() == 30  # binary pgm: 0 or 1 exactly
        idx_rows = read_csv(tmp_path / "col" / "mask_30.csv")
        assert len(idx_rows) == 31  # header + 30 pixel indices

    def test_expected_count_on_a_ten_gives_one_mask(self, tmp_path, capsys):
        b = np.where(np.arange(100) < 20, 1.0, -1.0)  # exactly 20 sure pixels
        p = sp.SamplerParams("vanilla", {"w": np.zeros((100, 4)), "b": b}, 0.3, 10, 4)
        save_checkpoint(p, None, tmp_path / "ckpt.bin")
        code = cli_main(
            ["collapse", "--checkpoint", str(tmp_path / "ckpt.bin"), "--out", str(tmp_path / "col")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "col" / "collapse.json").read_text())
        assert summary["mask_sizes"] == [20]
        assert "masks=[20]" in capsys.readouterr().out

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = cli_main(
            ["collapse", "--checkpoint", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "c")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["collapse", "eval"])
    def test_non_finite_weight_leaves_no_output_directory(self, tmp_path, capsys, command):
        p = sp.init_sampler("vanilla", n=8, d=8, seed=0)
        p.arrays["w"][3, 2] = np.nan
        save_checkpoint(p, md.init_decoder("mlp", n=8, hidden=32), tmp_path / "ckpt.bin")
        cfg = write_config(tmp_path / "cfg.json")
        code = cli_main(
            [command, "--config", str(cfg), "--checkpoint", str(tmp_path / "ckpt.bin"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExportCovCommand:
    def test_window_csv(self, tmp_path):
        p = sp.init_sampler("vanilla", n=8, d=8, seed=2)
        save_checkpoint(p, None, tmp_path / "ckpt.bin")
        code = cli_main(
            ["export-cov", "--checkpoint", str(tmp_path / "ckpt.bin"),
             "--cov-start", "4", "--cov-size", "16", "--out", str(tmp_path / "cov")]
        )
        assert code == 0
        rows = read_csv(tmp_path / "cov" / "covariance.csv")
        assert rows[0][0] == "p4" and len(rows) == 17 and len(rows[1]) == 16
        mat = np.array([[float(v) for v in r] for r in rows[1:]])
        np.testing.assert_array_equal(mat, mat.T)

    def test_out_of_range_window(self, tmp_path, capsys):
        p = sp.init_sampler("vanilla", n=4, d=4, seed=3)
        save_checkpoint(p, None, tmp_path / "ckpt.bin")
        code = cli_main(
            ["export-cov", "--checkpoint", str(tmp_path / "ckpt.bin"),
             "--cov-start", "10", "--cov-size", "100", "--out", str(tmp_path / "cov")]
        )
        assert code == 2
        assert "outside 0..15" in capsys.readouterr().err  # 16 pixels, the last is 15

    @pytest.mark.parametrize(
        "start,size",
        [(-1, 4), (0, 0), (0, 10**12), (-(10**12), 10**12 + 4), (10**30, 4), (-(10**30), 4)],
    )
    def test_window_edges_and_huge_windows(self, tmp_path, capsys, start, size):
        # the last four would need terabytes or more if the window were materialized
        p = sp.init_sampler("vanilla", n=4, d=4, seed=3)
        save_checkpoint(p, None, tmp_path / "ckpt.bin")
        code = cli_main(
            ["export-cov", "--checkpoint", str(tmp_path / "ckpt.bin"),
             "--cov-start", str(start), "--cov-size", str(size), "--out", str(tmp_path / "cov")]
        )
        assert code == 2
        assert "outside 0..15" in capsys.readouterr().err
        assert not (tmp_path / "cov").exists()


class TestGenDataCommand:
    def test_digits_files_load(self, tmp_path):
        assert cli_main(
            ["gen-data", "--kind", "digits", "--count", "30", "--side", "14",
             "--seed", "5", "--out", str(tmp_path)]
        ) == 0
        train = load_idx(tmp_path / "train-images.idx", tmp_path / "train-labels.idx")
        test = load_idx(tmp_path / "test-images.idx", tmp_path / "test-labels.idx")
        assert train.count == 25 and test.count == 5 and train.n == 14
        assert train.labels is not None

    def test_digit_labels_past_image_255(self, tmp_path):
        assert cli_main(
            ["gen-data", "--kind", "digits", "--count", "300", "--side", "12",
             "--test-fraction", "0.1", "--out", str(tmp_path)]
        ) == 0
        train = load_idx(tmp_path / "train-images.idx", tmp_path / "train-labels.idx")
        test = load_idx(tmp_path / "test-images.idx", tmp_path / "test-labels.idx")
        assert train.count == 270 and test.count == 30
        np.testing.assert_array_equal(np.concatenate([train.labels, test.labels]), np.arange(300) % 10)

    def test_field_files_float(self, tmp_path):
        assert cli_main(
            ["gen-data", "--kind", "field", "--count", "12", "--side", "16",
             "--slope", "3", "--seed", "6", "--out", str(tmp_path)]
        ) == 0
        train = load_idx(tmp_path / "train-images.idx")
        assert train.images.dtype == np.float64
        assert train.images.min() < 0  # anomalies, not [0,1] pixels

    @pytest.mark.parametrize("fraction", ["-0.5", "0", "1"])
    def test_test_fraction_outside_unit_interval(self, tmp_path, capsys, fraction):
        code = cli_main(
            ["gen-data", "--kind", "digits", "--count", "12", "--side", "12",
             "--test-fraction", fraction, "--out", str(tmp_path / "d")]
        )
        assert code == 1
        assert "test_fraction" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("count", ["-5", "0", "1"])
    def test_count_without_training_images(self, tmp_path, capsys, count):
        code = cli_main(
            ["gen-data", "--kind", "digits", "--count", count, "--side", "12",
             "--out", str(tmp_path / "d")]
        )
        assert code == 1
        assert "data_count" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_out_of_range_seed(self, tmp_path, capsys):
        code = cli_main(
            ["gen-data", "--kind", "field", "--count", "6", "--side", "16", "--seed", "-3",
             "--out", str(tmp_path / "d")]
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_deterministic(self, tmp_path):
        for name in ("a", "b"):
            cli_main(
                ["gen-data", "--kind", "field", "--count", "6", "--side", "16",
                 "--seed", "9", "--out", str(tmp_path / name)]
            )
        assert (tmp_path / "a" / "train-images.idx").read_bytes() == (
            tmp_path / "b" / "train-images.idx"
        ).read_bytes()


class TestWriteContainment:
    def test_artifacts_stay_under_the_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"))
        before = set(workdir.iterdir())
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert cli_main(
            ["collapse", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
             "--out", str(tmp_path / "run" / "col")]
        ) == 0
        assert set(workdir.iterdir()) == before  # nothing leaked into the cwd
        assert (tmp_path / "run" / "col" / "collapse.json").exists()


class TestDensityPlotCommand:
    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.78), (2.0, 1.0)])
    def test_integrates_to_one(self, tmp_path, mu, sigma):
        assert cli_main(
            ["density-plot", "--mu", str(mu), "--sigma", str(sigma), "--out", str(tmp_path)]
        ) == 0
        rows = read_csv(tmp_path / f"density_mu{mu}_sigma{sigma}.csv")
        assert rows[0] == ["y", "density"]
        ys = np.array([float(r[0]) for r in rows[1:]])
        dens = np.array([float(r[1]) for r in rows[1:]])
        assert abs(np.trapezoid(dens, ys) - 1.0) < 1e-4

    @pytest.mark.parametrize(
        "mu,sigma",
        [("nan", "1"), ("inf", "1"), ("-inf", "1"), ("0", "inf"), ("0", "nan"), ("0", "1e-320")],
    )
    def test_non_finite_parameters_are_rejected(self, tmp_path, capsys, mu, sigma):
        code = cli_main(["density-plot", f"--mu={mu}", f"--sigma={sigma}", "--out", str(tmp_path)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("points", ["0", "1", "-5"])
    def test_fewer_than_two_points_is_a_configuration_error(self, tmp_path, capsys, points):
        out = tmp_path / "dens"
        code = cli_main(
            ["density-plot", "--mu", "0", "--sigma", "1", f"--points={points}", "--out", str(out)]
        )
        assert code == 1
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [1_000_001, 10**13])
    def test_too_many_points_is_a_configuration_error(self, tmp_path, capsys, points):
        out = tmp_path / "dens"
        code = cli_main(
            ["density-plot", "--mu", "0", "--sigma", "1", f"--points={points}", "--out", str(out)]
        )
        assert code == 1
        assert "--points" in capsys.readouterr().err
        assert not out.exists()
