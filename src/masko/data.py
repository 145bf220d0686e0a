"""Dataset ingestion and artifact formats.

Supported inputs: big-endian IDX image/label files (the classic handwritten
digit distribution format), synthetic Gaussian random fields standing in
for geophysical anomaly data, and a deterministic procedural digit
generator for self-contained experiments.  Images load as float64 arrays,
(count, n, n): u8 pixels scaled to [0, 1], float64 records taken verbatim
(anomaly fields are standardized, not bounded).  A digit is one of ten
stroke glyphs under its own random affine map, splatted bilinearly,
blurred and scaled by its peak; the set is built in whole-array passes,
and the blur matches scipy's reflect-mode ``gaussian_filter`` bit for bit.

Artifacts are written as binary PGM (P5) for images, IDX for datasets and
CSV for tables; generated float fields use the IDX double type code so one
loader serves both.  Every artifact reaches disk through
:func:`write_atomic`, so a crash or a full disk leaves the previous file
in place rather than a half-written one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .rng import STREAM_DATA, stream

IDX_IMAGES_U8 = 0x00000803  # u8, 3 dimensions
IDX_IMAGES_F64 = 0x00000E03  # float64, 3 dimensions
IDX_LABELS_U8 = 0x00000801  # u8, 1 dimension
BLUR_CHUNK = 64  # images per blur pass: at n=28 their padded rows (~0.5 MB) stay in L2


@dataclass
class Dataset:
    images: np.ndarray  # (count, n, n) float64
    labels: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def n(self) -> int:
        return self.images.shape[1]


def read_exact(f, count: int) -> bytes:
    """Read exactly ``count`` bytes; refuse before reading if fewer remain."""
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if count > left:
        raise FormatError(f"file truncated: wanted {count} bytes, {left} left")
    return f.read(count)


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file next to ``path``, then rename it into
    place; if either step fails, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """CSV table; floats use ``repr``, the shortest form that reads back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    write_atomic(path, buf.getvalue().encode())


def _read_be32(f) -> int:
    return struct.unpack(">I", read_exact(f, 4))[0]


def load_idx(images_path, labels_path=None) -> Dataset:
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
            if not np.isfinite(images).all():
                raise FormatError("float64 IDX images hold a non-finite pixel")
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
    return Dataset(images=images, labels=labels)


def write_idx_images(images: np.ndarray, path, dtype: str = "u8") -> None:
    """Write (count, n, n) images as IDX; u8 quantizes [0, 1] to 0..255."""
    images = np.asarray(images, dtype=np.float64)
    count, rows, cols = images.shape
    if dtype == "u8":
        header = struct.pack(">IIII", IDX_IMAGES_U8, count, rows, cols)
        body = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8).tobytes()
    elif dtype == "f64":
        header = struct.pack(">IIII", IDX_IMAGES_F64, count, rows, cols)
        body = images.astype(">f8").tobytes()
    else:
        raise ConfigError(f"unknown IDX dtype {dtype!r}")
    write_atomic(path, header + body)


def write_idx_labels(labels: np.ndarray, path) -> None:
    labels = np.asarray(labels)
    header = struct.pack(">II", IDX_LABELS_U8, labels.size)
    write_atomic(path, header + labels.astype(np.uint8).tobytes())


def gen_gaussian_random_field(count: int, n: int, spectral_slope: float, seed: int) -> Dataset:
    """Spectral synthesis: white noise shaped by a k^(-slope) power law.

    The zero mode is removed and the whole dataset is standardized to zero
    mean, unit variance.  ``n`` must be a power of two.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"field side must be a power of two, got {n}")
    if count < 1 or not math.isfinite(spectral_slope):
        raise ConfigError(f"need count >= 1 and a finite slope, got {count} and {spectral_slope}")
    rng = stream(seed, STREAM_DATA)
    k1 = np.fft.fftfreq(n) * n
    kk = np.sqrt(k1[:, None] ** 2 + k1[None, :] ** 2)
    with np.errstate(divide="ignore"):
        amplitude = np.where(kk > 0, kk ** (-spectral_slope / 2.0), 0.0)
    noise = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    fields = np.fft.ifft2(noise * amplitude[None]).real
    fields -= fields.mean()
    fields /= fields.std()
    return Dataset(images=fields)


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
    if n < 12 or count < 0:
        raise ConfigError(f"need n >= 12 and count >= 0, got n={n} and count={count}")
    # per image: angle, two scales, shear, two shifts, blur width
    u = stream(seed, STREAM_DATA).uniform(
        [-0.22, 0.85, 0.85, -0.12, -0.05, -0.05, 0.65],
        [0.22, 1.1, 1.1, 0.12, 0.05, 0.05, 0.95], size=(count, 7))
    cos, sin = np.array([[math.cos(t), math.sin(t)] for t in u[:, 0]]).reshape((count, 2)).T
    rot = np.stack([cos, -sin, sin, cos], axis=1).reshape((count, 2, 2))
    shear = np.stack([u[:, 1], u[:, 3], np.zeros(count), u[:, 2]], axis=1).reshape((count, 2, 2))
    images = np.empty((count, n, n))
    for d in range(10):
        aff = np.matmul(rot[d::10], shear[d::10])
        pts = np.matmul(_glyph_points(d) - 0.5, aff.transpose(0, 2, 1)) + 0.5 + u[d::10, None, 4:6]
        p = pts * (n - 1)
        corner = np.clip(np.floor(p).astype(int), 0, n - 2)  # (column, row)
        fx, fy = np.moveaxis(np.clip(p - corner, 0.0, 1.0), 2, 0)
        at = (np.arange(len(aff))[:, None] * n + corner[..., 1]) * n + corner[..., 0]
        # corner groups in the order the per-pixel sums add them
        at = np.concatenate([at, at + 1, at + n, at + n + 1], axis=1)
        w = np.concatenate([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=1)
        images[d::10] = np.bincount(at.ravel(), w.ravel(), len(aff) * n * n).reshape(-1, n, n)
    sigma = u[:, 6] * n / 28.0
    for a in range(0, count, BLUR_CHUNK):
        chunk = _blur(images[a : a + BLUR_CHUNK], sigma[a : a + BLUR_CHUNK])
        chunk /= chunk.max(axis=(1, 2), keepdims=True)  # every glyph leaves mass on its canvas
        np.clip(chunk * 1.6, 0.0, 1.0, out=images[a : a + BLUR_CHUNK])
    return Dataset(images=images, labels=(np.arange(count) % 10).astype(np.uint8))


def _blur(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(x[i], sigma[i], mode='reflect')`` for
    each image of x (b, n, n), bit for bit: scipy's normalised kernel of
    radius int(4 sigma + 0.5), symmetric padding, axis 0 then axis 1, and
    each output summed as centre * w_0, then += (left + right) * w_j for j
    from the radius down to 1.  A tap beyond an image's own radius weighs
    +0.0, which leaves its sums unchanged."""
    radius = (4.0 * sigma + 0.5).astype(int)
    big = int(radius.max(initial=0))
    w = np.zeros((x.shape[0], big + 1))
    for r in np.unique(radius):
        rows = radius == r
        phi = np.exp((-0.5 / (sigma[rows] * sigma[rows]))[:, None] * np.arange(-r, r + 1) ** 2)
        w[rows, : r + 1] = (phi / phi.sum(axis=1, keepdims=True))[:, r:]
    w, n = w.T[:, :, None, None], x.shape[1]
    for _ in range(2):
        pad = np.pad(x, ((0, 0), (big, big), (0, 0)), mode="symmetric")
        out = pad[:, big : big + n] * w[0]
        t = np.empty_like(out)
        for j in range(big, 0, -1):
            np.add(pad[:, big - j : big - j + n], pad[:, big + j : big + j + n], out=t)
            t *= w[j]
            out += t
        x = out.transpose(0, 2, 1)
    return x


def write_pgm(image: np.ndarray, path) -> None:
    """Binary PGM, maxval 255; values are clamped to [0, 1] then scaled."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigError(f"PGM needs a 2-D image, got shape {image.shape}")
    h, w = image.shape
    data = np.clip(np.rint(np.clip(image, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())
