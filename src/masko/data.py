"""Dataset ingestion and artifact formats.

Supported inputs: big-endian IDX image/label files (the classic handwritten
digit distribution format), synthetic Gaussian random fields standing in
for geophysical anomaly data, and a deterministic procedural digit
generator for self-contained experiments.  Images load as float64 arrays,
(count, n, n): u8 pixels scaled to [0, 1], float64 records taken verbatim
(anomaly fields are standardized, not bounded).

Artifacts are written as binary PGM (P5) for images and IDX for datasets;
generated float fields use the IDX double type code so one loader serves
both.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .checkpoint import read_exact
from .errors import ConfigError, FormatError
from .rng import STREAM_DATA, stream

IDX_IMAGES_U8 = 0x00000803  # u8, 3 dimensions
IDX_IMAGES_F64 = 0x00000E03  # float64, 3 dimensions
IDX_LABELS_U8 = 0x00000801  # u8, 1 dimension


@dataclass
class Dataset:
    images: np.ndarray  # (count, n, n) float64
    split: str  # "train" / "test" / "full"
    source: str  # provenance descriptor
    labels: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def n(self) -> int:
        return self.images.shape[1]


def _read_be32(f) -> int:
    return struct.unpack(">I", read_exact(f, 4))[0]


def load_idx(images_path, labels_path=None, split: str = "full") -> Dataset:
    """Parse big-endian IDX images (u8 scaled by 1/255, or raw float64)."""
    with open(images_path, "rb") as f:
        magic = _read_be32(f)
        if magic not in (IDX_IMAGES_U8, IDX_IMAGES_F64):
            raise FormatError(f"bad image magic 0x{magic:08x}")
        count = _read_be32(f)
        rows = _read_be32(f)
        cols = _read_be32(f)
        if rows != cols:
            raise FormatError(f"only square images are supported, got {rows}x{cols}")
        if magic == IDX_IMAGES_U8:
            raw = read_exact(f, count * rows * cols)
            images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
        else:
            raw = read_exact(f, count * rows * cols * 8)
            images = np.frombuffer(raw, dtype=">f8").astype(np.float64)
    images = images.reshape(count, rows, cols)

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            magic = _read_be32(f)
            if magic != IDX_LABELS_U8:
                raise FormatError(f"bad label magic 0x{magic:08x}")
            n_labels = _read_be32(f)
            if n_labels != count:
                raise FormatError(f"{n_labels} labels for {count} images")
            labels = np.frombuffer(read_exact(f, n_labels), dtype=np.uint8).copy()
    return Dataset(images=images, split=split, source=str(images_path), labels=labels)


def write_idx_images(images: np.ndarray, path, dtype: str = "u8") -> None:
    """Write (count, n, n) images as IDX; u8 quantizes [0, 1] to 0..255."""
    images = np.asarray(images, dtype=np.float64)
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        if dtype == "u8":
            f.write(struct.pack(">IIII", IDX_IMAGES_U8, count, rows, cols))
            quantized = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
            f.write(quantized.tobytes())
        elif dtype == "f64":
            f.write(struct.pack(">IIII", IDX_IMAGES_F64, count, rows, cols))
            f.write(images.astype(">f8").tobytes())
        else:
            raise ConfigError(f"unknown IDX dtype {dtype!r}")


def write_idx_labels(labels: np.ndarray, path) -> None:
    labels = np.asarray(labels)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_U8, labels.size))
        f.write(labels.astype(np.uint8).tobytes())


def gen_gaussian_random_field(count: int, n: int, spectral_slope: float, seed: int) -> Dataset:
    """Spectral synthesis: white noise shaped by a k^(-slope) power law.

    The zero mode is removed and the whole dataset is standardized to zero
    mean, unit variance.  ``n`` must be a power of two.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"field side must be a power of two, got {n}")
    rng = stream(seed, STREAM_DATA)
    k1 = np.fft.fftfreq(n) * n
    kk = np.sqrt(k1[:, None] ** 2 + k1[None, :] ** 2)
    with np.errstate(divide="ignore"):
        amplitude = np.where(kk > 0, kk ** (-spectral_slope / 2.0), 0.0)
    noise = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    fields = np.fft.ifft2(noise * amplitude[None]).real
    fields -= fields.mean()
    fields /= fields.std()
    return Dataset(
        images=fields,
        split="full",
        source=f"gaussian_field(n={n}, slope={spectral_slope}, seed={seed})",
    )


# Digit glyphs as strokes on the unit square (x right, y down).  Lines are
# endpoint pairs; arcs are (cx, cy, rx, ry, t0, t1) sampled on
# (cx + rx cos t, cy + ry sin t).
_PI = math.pi
_GLYPHS: dict[int, list] = {
    0: [("arc", 0.5, 0.5, 0.22, 0.32, 0.0, 2 * _PI)],
    1: [("line", 0.35, 0.28, 0.52, 0.13), ("line", 0.52, 0.13, 0.52, 0.87)],
    2: [
        ("arc", 0.5, 0.33, 0.21, 0.19, _PI, 2 * _PI + 0.55),
        ("line", 0.67, 0.44, 0.29, 0.85),
        ("line", 0.29, 0.85, 0.73, 0.85),
    ],
    3: [
        ("arc", 0.46, 0.3, 0.2, 0.17, 1.15 * _PI, 2.5 * _PI),
        ("arc", 0.46, 0.67, 0.21, 0.19, 1.5 * _PI, 2.85 * _PI),
    ],
    4: [
        ("line", 0.6, 0.12, 0.24, 0.6), ("line", 0.24, 0.6, 0.78, 0.6),
        ("line", 0.63, 0.4, 0.63, 0.88),
    ],
    5: [
        ("line", 0.7, 0.14, 0.33, 0.14),
        ("line", 0.33, 0.14, 0.31, 0.48),
        ("arc", 0.47, 0.65, 0.21, 0.2, 1.2 * _PI, 2.8 * _PI),
    ],
    6: [
        ("arc", 0.56, 0.45, 0.24, 0.33, 0.75 * _PI, 1.5 * _PI),
        ("arc", 0.5, 0.66, 0.18, 0.17, 0.0, 2 * _PI),
    ],
    7: [("line", 0.27, 0.14, 0.74, 0.14), ("line", 0.74, 0.14, 0.42, 0.87)],
    8: [
        ("arc", 0.5, 0.3, 0.16, 0.16, 0.0, 2 * _PI),
        ("arc", 0.5, 0.66, 0.19, 0.18, 0.0, 2 * _PI),
    ],
    9: [
        ("arc", 0.5, 0.34, 0.18, 0.17, 0.0, 2 * _PI),
        ("line", 0.68, 0.38, 0.58, 0.87),
    ],
}

_POINTS_PER_STROKE = 60


def _glyph_points(digit: int) -> np.ndarray:
    pts = []
    for stroke in _GLYPHS[digit]:
        t = np.linspace(0.0, 1.0, _POINTS_PER_STROKE)
        if stroke[0] == "line":
            _, x0, y0, x1, y1 = stroke
            pts.append(np.stack([x0 + (x1 - x0) * t, y0 + (y1 - y0) * t], axis=1))
        else:
            _, cx, cy, rx, ry, t0, t1 = stroke
            ang = t0 + (t1 - t0) * t
            pts.append(np.stack([cx + rx * np.cos(ang), cy + ry * np.sin(ang)], axis=1))
    return np.concatenate(pts, axis=0)


def gen_digits(count: int, n: int = 28, seed: int = 0) -> Dataset:
    """Deterministic digit-like glyphs with random affine jitter.

    A self-contained stand-in for handwritten digits: centered strokes on
    a dark background, class structure, spatially correlated pixels.
    Pixel values lie in [0, 1].
    """
    if n < 12:
        raise ConfigError(f"digit canvas too small: {n}")
    rng = stream(seed, STREAM_DATA)
    images = np.zeros((count, n, n))
    templates = {d: _glyph_points(d) for d in range(10)}
    for i in range(count):
        pts = templates[i % 10] - 0.5
        theta = rng.uniform(-0.22, 0.22)
        scale = rng.uniform(0.85, 1.1, size=2)
        shear = rng.uniform(-0.12, 0.12)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        aff = rot @ np.array([[scale[0], shear], [0.0, scale[1]]])
        pts = pts @ aff.T + 0.5 + rng.uniform(-0.05, 0.05, size=2)
        px = pts[:, 0] * (n - 1)
        py = pts[:, 1] * (n - 1)
        j0 = np.clip(np.floor(px).astype(int), 0, n - 2)
        i0 = np.clip(np.floor(py).astype(int), 0, n - 2)
        fx = np.clip(px - j0, 0.0, 1.0)
        fy = np.clip(py - i0, 0.0, 1.0)
        canvas = images[i]
        np.add.at(canvas, (i0, j0), (1 - fx) * (1 - fy))
        np.add.at(canvas, (i0, j0 + 1), fx * (1 - fy))
        np.add.at(canvas, (i0 + 1, j0), (1 - fx) * fy)
        np.add.at(canvas, (i0 + 1, j0 + 1), fx * fy)
        blurred = gaussian_filter(canvas, sigma=rng.uniform(0.65, 0.95) * n / 28.0)
        peak = blurred.max()
        if peak > 0:
            blurred = blurred / peak
        images[i] = np.clip(blurred * 1.6, 0.0, 1.0)
    return Dataset(
        images=images,
        split="full",
        source=f"digits(n={n}, seed={seed})",
        labels=np.arange(count, dtype=np.uint8) % 10,
    )


def write_pgm(image: np.ndarray, path) -> None:
    """Binary PGM, maxval 255; values are clamped to [0, 1] then scaled."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigError(f"PGM needs a 2-D image, got shape {image.shape}")
    h, w = image.shape
    data = np.clip(np.rint(np.clip(image, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back a P5 file written by :func:`write_pgm` (values in [0, 1])."""
    with open(path, "rb") as f:
        if read_exact(f, 3) != b"P5\n":
            raise FormatError("not a binary PGM file")
        header = b""
        while header.count(b"\n") < 2:
            byte = f.read(1)
            if not byte:
                raise FormatError("truncated PGM header")
            header += byte
        dims, maxval = header.decode("ascii").split("\n")[:2]
        w, h = (int(v) for v in dims.split())
        if int(maxval) != 255:
            raise FormatError(f"unsupported PGM maxval {maxval}")
        raw = read_exact(f, w * h)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(h, w) / 255.0
