"""IDX parsing, synthetic datasets, PGM round trips."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import masko
from masko import data as dt
from masko.errors import ConfigError, FormatError

from oracles import gen_digits_per_image, read_pgm


def write_idx_fixture(path, pixels):
    """Handcrafted IDX bytes, independent of the library writer."""
    count, rows, cols = pixels.shape
    blob = struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.astype(np.uint8).tobytes()
    path.write_bytes(blob)
    return blob


class TestLoadIdx:
    def test_handcrafted_fixture_exact_values(self, tmp_path):
        pixels = np.array(
            [[[0, 51, 102], [153, 204, 255], [10, 20, 30]],
             [[255, 0, 128], [64, 32, 16], [8, 4, 2]]],
            dtype=np.uint8,
        )
        path = tmp_path / "img.idx"
        write_idx_fixture(path, pixels)
        ds = dt.load_idx(path)
        assert ds.count == 2 and ds.n == 3
        np.testing.assert_array_equal(ds.images, pixels / 255.0)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000802, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError):
            dt.load_idx(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + b"\x00" * 5)
        with pytest.raises(FormatError):
            dt.load_idx(path)

    def test_magic_fuzzing_rejected(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        base = write_idx_fixture(tmp_path / "ok.idx", pixels)
        rng = np.random.default_rng(0)
        rejected = 0
        for trial in range(100):
            blob = bytearray(base)
            pos = rng.integers(0, 4)
            blob[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            if blob[:4] == base[:4]:
                continue
            path = tmp_path / f"fuzz{trial}.idx"
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError):
                dt.load_idx(path)
            rejected += 1
        assert rejected > 90

    def test_labels(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        img = tmp_path / "img.idx"
        write_idx_fixture(img, pixels)
        lab = tmp_path / "lab.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([7, 1, 4]))
        ds = dt.load_idx(img, lab)
        np.testing.assert_array_equal(ds.labels, [7, 1, 4])

    def test_label_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        write_idx_fixture(img, np.zeros((3, 2, 2), dtype=np.uint8))
        lab = tmp_path / "lab.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([7, 1]))
        with pytest.raises(FormatError):
            dt.load_idx(img, lab)

    def test_u8_writer_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.random((4, 5, 5))
        path = tmp_path / "w.idx"
        dt.write_idx_images(images, path, dtype="u8")
        back = dt.load_idx(path)
        assert np.abs(back.images - images).max() <= 0.5 / 255 + 1e-12

    def test_f64_writer_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.standard_normal((4, 4, 4))
        path = tmp_path / "w64.idx"
        dt.write_idx_images(images, path, dtype="f64")
        back = dt.load_idx(path)
        np.testing.assert_array_equal(back.images, images)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_f64_non_finite_pixel_rejected(self, tmp_path, bad):
        images = np.zeros((3, 4, 4))
        images[1, 2, 3] = bad
        path = tmp_path / "bad64.idx"
        dt.write_idx_images(images, path, dtype="f64")
        with pytest.raises(FormatError, match="non-finite"):
            dt.load_idx(path)


class TestGaussianRandomField:
    def test_flat_spectrum_is_white(self):
        ds = dt.gen_gaussian_random_field(64, 32, 0.0, seed=5)
        x = ds.images
        lag1 = (x[:, :, :-1] * x[:, :, 1:]).mean() / x.var()
        assert abs(lag1) < 0.05

    def test_steep_spectrum_is_smooth(self):
        ds = dt.gen_gaussian_random_field(64, 32, 3.0, seed=5)
        x = ds.images
        lag1 = (x[:, :, :-1] * x[:, :, 1:]).mean() / x.var()
        assert lag1 > 0.8

    def test_standardized(self):
        ds = dt.gen_gaussian_random_field(32, 16, 2.0, seed=6)
        assert abs(ds.images.mean()) < 1e-12
        assert ds.images.std() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = dt.gen_gaussian_random_field(8, 16, 2.0, seed=7)
        b = dt.gen_gaussian_random_field(8, 16, 2.0, seed=7)
        np.testing.assert_array_equal(a.images, b.images)

    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            dt.gen_gaussian_random_field(4, 12, 2.0, seed=0)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: dt.gen_digits(-1),
        lambda: dt.gen_gaussian_random_field(-2, 8, 2.0, 0),
        lambda: dt.gen_gaussian_random_field(0, 8, 2.0, 0),
        lambda: dt.gen_gaussian_random_field(3, 8, float("nan"), 0),
        lambda: dt.gen_gaussian_random_field(3, 8, float("-inf"), 0),
    ],
    ids=["digits-negative-count", "field-negative-count", "field-no-images", "field-nan-slope",
         "field-infinite-slope"],
)
def test_generator_rejects_count_or_slope(generate):
    with pytest.raises(ConfigError):
        generate()


# sha256 of the float64 image bytes: the benchmark's 2,048 + 256 images at
# n=28, and a small set at the smallest canvas, recorded at bfcf4fc's data
# code.  Every process must generate the same test data.
DIGIT_SHA256 = {
    (2304, 28, 7): "4adbf9e0cab7545427551e2cbab4fc5e224b1a281acdc62bf54933acbb7dd083",
    (40, 12, 3): "12c1ded1492299316adef1ad5df19f048ce2fadc3d1c916fc19cb6651a83a9e8",
}


class TestDigits:
    def test_deterministic(self):
        a = dt.gen_digits(12, n=28, seed=3)
        b = dt.gen_digits(12, n=28, seed=3)
        np.testing.assert_array_equal(a.images, b.images)

    @pytest.mark.parametrize("count,n,seed", sorted(DIGIT_SHA256))
    def test_images_match_recorded_sha256(self, count, n, seed):
        images = dt.gen_digits(count, n=n, seed=seed).images
        assert images.dtype == np.float64 and images.shape == (count, n, n)
        assert hashlib.sha256(images.tobytes()).hexdigest() == DIGIT_SHA256[(count, n, seed)]

    def test_zero_count_is_an_empty_set(self):
        assert dt.gen_digits(0).images.shape == (0, 28, 28)

    def test_range_and_shape(self):
        ds = dt.gen_digits(20, n=28, seed=4)
        assert ds.images.shape == (20, 28, 28)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_strokes_concentrate_in_the_center(self):
        ds = dt.gen_digits(30, n=28, seed=5)
        center = ds.images[:, 7:21, 7:21].mean()
        border = np.concatenate(
            [ds.images[:, :3, :].ravel(), ds.images[:, -3:, :].ravel(),
             ds.images[:, :, :3].ravel(), ds.images[:, :, -3:].ravel()]
        ).mean()
        assert center > 5 * border

    def test_labels_cycle(self):
        # past image 255 too, where a u8 count would wrap before the % 10
        labels = dt.gen_digits(300, n=12, seed=6).labels
        assert labels.dtype == np.uint8
        np.testing.assert_array_equal(labels, np.arange(300) % 10)

    # n = 12, 13, 28, 29 and 64 give kernel radii 1 to 9; BLUR_CHUNK + 1
    # images make a full blur chunk and a one-image tail.
    @pytest.mark.parametrize("seed", [0, 17, 2**63 + 5])
    @pytest.mark.parametrize("n", [12, 13, 28, 29, 64])
    @pytest.mark.parametrize("count", [0, 1, 9, 10, 11, dt.BLUR_CHUNK + 1])
    def test_images_equal_the_per_image_loop(self, count, n, seed):
        new = dt.gen_digits(count, n=n, seed=seed).images
        old = gen_digits_per_image(count, n=n, seed=seed).images
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


class TestBlur:
    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "non-negative"])
    @pytest.mark.parametrize("n", [12, 64])
    def test_equals_scipy_reflect_gaussian(self, n, signed):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((24, n, n)) if signed else rng.random((24, n, n))
        # the digits' widths and past them, so one call mixes kernel radii
        # (1 to 3 at n=12, 3 to 16 at n=64)
        sigma = rng.uniform(0.3, 1.7, size=24) * n / 28.0
        assert len(set((4.0 * sigma + 0.5).astype(int))) >= 3
        out = dt._blur(x.copy(), sigma)
        for i in range(24):
            assert out[i].tobytes() == gaussian_filter(x[i], sigma[i], mode="reflect").tobytes(), i


def test_program_runs_without_scipy_ndimage():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import masko.cli\n"
        "from masko import training as tr\n"
        "from masko.data import gen_digits\n"
        "from masko.rng import STREAM_LATENT, stream\n"
        "from masko.evaluate import collapse_distribution, eval_fixed_mask\n"
        "images = gen_digits(20, n=12).images\n"
        "batch = np.ascontiguousarray(images.reshape(20, 144).T)\n"
        "for kind in ('vanilla', 'hypernet', 'independent', 'concrete'):\n"
        "    cfg = tr.TrainConfig(n=12, sampler=kind, decoder='mlp', hidden=16, latent_dim=4, rep_width=8)\n"
        "    params, dec = tr.init_run(cfg)\n"
        "    state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))\n"
        "    tr.train_step(batch, params, dec, state, cfg, stream(0, STREAM_LATENT))\n"
        "    collapse_distribution(params, mc_samples=16)\n"
        "cfg = tr.TrainConfig(n=12, sampler='concrete', decoder='conv_resnet', filters=4, latent_dim=4)\n"
        "params, dec = tr.init_run(cfg)\n"
        "state = tr.AdamState.for_arrays(tr._named_arrays(params, dec))\n"
        "tr.train_step(batch, params, dec, state, cfg, stream(0, STREAM_LATENT))\n"
        "eval_fixed_mask(np.ones((12, 12)), dec, images[:4])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(masko.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestPgm:
    def test_header_and_extreme_bytes(self, tmp_path):
        path = tmp_path / "img.pgm"
        dt.write_pgm(np.array([[0.0, 1.0], [1.0, 0.0]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[len(b"P5\n2 2\n255\n"):] == bytes([0, 255, 255, 0])

    def test_round_trip_quantization(self, tmp_path):
        rng = np.random.default_rng(8)
        image = rng.random((9, 7))
        path = tmp_path / "rt.pgm"
        dt.write_pgm(image, path)
        back = read_pgm(path)
        assert back.shape == image.shape
        assert np.abs(back - image).max() <= 1.0 / 255

    def test_values_clamped(self, tmp_path):
        path = tmp_path / "cl.pgm"
        dt.write_pgm(np.array([[-0.5, 2.0]]), path)
        back = read_pgm(path)
        np.testing.assert_array_equal(back, [[0.0, 1.0]])
