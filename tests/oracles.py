"""Reference implementations that tests compare the library against.

None of these runs in the program: the CLI, the training loop and the
benchmark never call them.  They are kept here, outside ``src/masko``, so
that the library holds only what the program runs (``test_library_surface``
checks this).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.ndimage import gaussian_filter
from scipy.special import ndtr

from masko import autodiff
from masko.autodiff import Tape, Tensor
from masko.data import Dataset, _glyph_points, read_exact
from masko.distributions import StretchConfig
from masko.errors import ConfigError, ContractError, EvaluationError, FormatError, ParameterError
from masko.rng import STREAM_DATA, STREAM_EVAL, stream
from masko.samplers import SamplerParams
from masko.training import METRICS_HEADER, EpochMetrics


def grad_check(
    f: Callable[[Tensor], Tensor],
    theta,
    step: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` receives a leaf tensor and must build its result with ops on
    that tensor's tape.  Returns the max over checked coordinates of
    ``|analytic - numeric| / max(1e-8, |numeric|)``.  When ``max_coords``
    is given, a random subset of coordinates of that size is checked.
    """
    if not step > 0:
        raise ParameterError(f"step must be positive, got {step}")
    theta = np.asarray(theta, dtype=np.float64)

    tape = Tape()
    leaf = tape.param(theta)
    y = f(leaf)
    if y.data.size != 1:
        raise ContractError("grad_check target must be scalar")
    if not np.isfinite(y.data).all():
        raise EvaluationError("objective is non-finite at theta")
    tape.backward(y)
    analytic = leaf.grad

    def value_at(arr: np.ndarray) -> float:
        t = Tape()
        out = f(t.constant(arr))
        v = float(out.data.reshape(()))
        if not math.isfinite(v):
            raise EvaluationError("objective is non-finite at a perturbed point")
        return v

    flat_idx: Iterable[int]
    if max_coords is not None and max_coords < theta.size:
        gen = rng if rng is not None else stream(0, STREAM_EVAL)
        flat_idx = gen.choice(theta.size, size=max_coords, replace=False)
    else:
        flat_idx = range(theta.size)

    max_rel = 0.0
    flat = theta.reshape(-1)
    for i in flat_idx:
        bump = flat.copy()
        bump[i] += step
        hi = value_at(bump.reshape(theta.shape))
        bump[i] -= 2 * step
        lo = value_at(bump.reshape(theta.shape))
        numeric = (hi - lo) / (2 * step)
        rel = abs(analytic.reshape(-1)[i] - numeric) / max(1e-8, abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel


def expected_l0(mu: np.ndarray, row_norm: np.ndarray, lam: float, cfg: StretchConfig) -> float:
    """Closed-form expected number of strictly positive stretched outputs.

    Per coordinate: 1 - Phi((lam * log(-gamma/eta) - mu_i) / row_norm_i).
    The temperature factor keeps the threshold consistent with sampling
    through ``sigmoid_lam``.  A zero ``row_norm`` coordinate contributes
    the indicator of its deterministic value clearing the stretch
    threshold.
    """
    t = lam * cfg.log_odds_threshold
    pos = row_norm > 0
    terms = np.empty_like(mu)
    terms[pos] = 1.0 - ndtr((t - mu[pos]) / row_norm[pos])
    terms[~pos] = (mu[~pos] > t).astype(np.float64)
    return float(terms.sum())


def _polevl(x: float, coef: tuple) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtr_cephes(x: float, exp: Callable[[float], float] = math.exp) -> float:
    """Cephes' ndtr (Moshier) for one double, branch by branch as scipy.special
    runs it, on the coefficient tuples of ``masko.autodiff``.  With the C
    library's ``exp`` it is scipy's ndtr bit for bit, which pins those tuples."""
    if math.isnan(x):
        return math.nan
    a = x * autodiff._SQRT1_2
    z = abs(a)
    if z < 1.0:  # 0.5 + erf(a) / 2
        return 0.5 + 0.5 * (a * _polevl(a * a, autodiff._T) / _polevl(a * a, autodiff._U))
    if z * z > autodiff._MAXLOG:  # erfc(z) underflows
        y = 0.0
    else:
        num, den = (autodiff._P, autodiff._Q) if z < 8.0 else (autodiff._R, autodiff._S)
        y = 0.5 * (exp(-(z * z)) * _polevl(z, num) / _polevl(z, den))
    return 1.0 - y if a > 0 else y


def concrete_collapse_numpy(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    """The concrete kind's Monte-Carlo collapse with its logistic noise
    restated in numpy: clipped uniforms, one row of n*n per draw."""
    u = stream(seed, STREAM_EVAL).random((mc_samples, p.n * p.n))
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    noise = np.log(u) - np.log1p(-u)
    return (p.arrays["log_alpha"][None, :] + noise > 0).mean(axis=0)


def read_metrics(path: str | Path) -> list[EpochMetrics]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != METRICS_HEADER:
            raise FormatError(f"unexpected metrics header {header!r}")
        return [EpochMetrics(int(r[0]), *map(float, r[1:])) for r in reader]


def read_pgm(path) -> np.ndarray:
    """Read back a P5 file written by :func:`masko.data.write_pgm` (values in [0, 1])."""
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


# The channel-major conv2d of before the pixel-major padded rows, kept as
# the oracle that ``autodiff.conv2d`` must match bit for bit.  Its padded
# rows are (C, B*(H+2p)*(W+2p) + 2p*(W+2p+1)): one row per channel.
PANEL = 3072


def _interior(rows: np.ndarray, nb: int, h: int, w: int, pad: int) -> np.ndarray:
    """The (C, B, H, W) view of the pixels inside a padded-row buffer's halo."""
    hp, wp = h + 2 * pad, w + 2 * pad
    grid = rows[:, : nb * hp * wp].reshape(rows.shape[0], nb, hp, wp)
    return grid[:, :, pad : pad + h, pad : pad + w]


def _halo(rows: np.ndarray, nb: int, h: int, w: int, pad: int) -> Iterable[np.ndarray]:
    """Views covering every element of a padded-row buffer outside its interior."""
    hp, wp = h + 2 * pad, w + 2 * pad
    n = nb * hp * wp
    grid = rows[:, :n].reshape(rows.shape[0], nb, hp, wp)
    band = grid[:, :, pad : pad + h]
    yield grid[:, :, :pad]
    yield grid[:, :, pad + h :]
    yield band[..., :pad]
    yield band[..., pad + w :]
    yield rows[:, n:]


def _resident_rows(x: np.ndarray, pad: int) -> np.ndarray | None:
    """The buffer of :func:`_pad_rows` layout that ``x`` is the interior view of, or None."""
    c, nb, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = x.base
    if (
        isinstance(rows, np.ndarray)
        and rows.shape == (c, nb * hp * wp + 2 * pad * (wp + 1))
        and rows.dtype == x.dtype == np.float64
        and rows.flags.c_contiguous
        # The stride of a length-1 axis addresses nothing.  Comparing the
        # strides in two parts keeps one tuple fewer alive (TestStepFootprint).
        and (c == 1 or x.strides[0] == rows.strides[0])
        and x.strides[1:] == (hp * wp * 8, wp * 8, 8)
        and x.ctypes.data == rows.ctypes.data + 8 * pad * (wp + 1)
    ):
        return rows
    return None


def _pad_rows(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-padded channel rows of a channel-major (C, B, H, W) array.

    Returns a (C, B*(H+2p)*(W+2p) + 2p*(W+2p+1)) array: channel ``c`` of
    image ``b`` lies at ``b*(H+2p)*(W+2p) + (i+p)*(W+2p) + (j+p)``, and
    every other element (the halo, which includes the trailing zeros that
    let every kernel offset read a full-length window) is +0.0.  When
    ``x`` is the interior view of exactly such a buffer, as every
    ``conv2d`` output and input gradient is, that buffer is returned with
    no copy, but only after checking that its halo is all +0.0 bits;
    anything else is copied into a new zeroed buffer.
    """
    c, nb, h, w = x.shape
    rows = _resident_rows(x, pad)
    if rows is not None and not any(v.view(np.int64).any() for v in _halo(rows, nb, h, w, pad)):
        return rows
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.zeros((c, nb * hp * wp + 2 * pad * (wp + 1)))
    _interior(rows, nb, h, w, pad)[...] = x
    return rows


def _one_row_product(kk: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    out[...] = dgemm(1.0, kk, rows)


def _correlate_rows(
    rows: np.ndarray,
    k: np.ndarray,
    nb: int,
    h: int,
    w: int,
    bias: np.ndarray | None = None,
    slope: float | None = None,
    skip: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlate padded channel rows with ``k`` into padded output rows.

    Each kernel offset (di, dj) is one product of its (C_out, C_in) tap
    with the rows shifted by ``di*(W+2p) + dj``, a view; the output of
    pixel (i, j) belongs at the top-left corner of its window,
    ``b*(H+2p)*(W+2p) + i*(W+2p) + j``, and is written ``p*(W+2p+1)``
    columns further on, which is that pixel's place in the
    :func:`_pad_rows` layout.  The result is such a (C_out, ...) buffer:
    its interior holds the output and every halo element is +0.0, so the
    next layer reads it, and the backward its gradient, without a copy.

    The rows are walked in column panels of :data:`PANEL`: the first
    offset of a panel writes the panel's slice of the output, and every
    later one goes through a (C_out, PANEL) scratch added into it, so both
    stay in cache across the offsets.  With one input channel the product
    is a broadcast multiply of the (C_out, 1) tap with the (1, panel) row,
    not a GEMM with inner dimension 1.  With one output channel it is
    scipy's dgemm, which rounds a one-row product in another order than
    numpy's matmul, and in the order of the dgemm in numpy's OpenBLAS that
    ``autodiff.conv2d`` calls at every width.  Either way
    each output element sums the same products in the same offset order
    as one full-width GEMM per offset.

    The epilogue runs on the panel while it is still in cache: the
    (C_out, 1) ``bias`` column is added, then the leaky ReLU of ``slope``
    (0 < slope < 1) is ``max(v, slope*v)``, which equals
    ``where(v > 0, v, slope*v)`` bit for bit, and then the same columns
    of the ``skip`` rows (a buffer in the same layout) are added.  Last,
    the panel's halo columns, which hold values of no pixel, are set to
    +0.0; the columns before the first panel and after the last one are
    zeroed once at the end.
    """
    co, ci, kh, kw = k.shape
    pad = kh // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    n = nb * hp * wp
    lead = pad * (wp + 1)
    taps = [(di * wp + dj, k[:, :, di, dj]) for di in range(kh) for dj in range(kw)]
    product = np.multiply if ci == 1 else np.matmul if co > 1 else _one_row_product
    out = np.empty((co, n + 2 * lead))
    halo = np.ones(n + 2 * lead, dtype=bool)
    _interior(halo[None], nb, h, w, pad)[...] = False
    scratch = np.empty((co, min(PANEL, n)))
    for a in range(0, n, PANEL):
        b = min(a + PANEL, n)
        panel, term = out[:, lead + a : lead + b], scratch[:, : b - a]
        s, kk = taps[0]
        product(kk, rows[:, s + a : s + b], out=panel)
        for s, kk in taps[1:]:
            product(kk, rows[:, s + a : s + b], out=term)
            panel += term
        if bias is not None:
            panel += bias
        if slope is not None:
            np.multiply(panel, slope, out=term)
            np.maximum(panel, term, out=panel)
        if skip is not None:
            panel += skip[:, lead + a : lead + b]
        np.copyto(panel, 0.0, where=halo[lead + a : lead + b])
    out[:, :lead] = 0.0
    out[:, lead + n :] = 0.0
    return out


def conv2d_channel_major(x: Tensor, k: Tensor, bias=None, *, slope=None, skip=None) -> Tensor:
    """``autodiff.conv2d`` over channel-major padded rows (no argument checks)."""
    kh, kw = k.data.shape[2:]
    nb, h, w = x.data.shape[1:]
    pad = kh // 2
    rows = _pad_rows(x.data, pad)
    skip_rows = None
    if skip is not None:
        # Its halo columns are only ever added to the output's halo, which
        # is zeroed after, so a resident skip's halo needs no check.
        skip_rows = _resident_rows(skip.data, pad)
        if skip_rows is None:
            skip_rows = _pad_rows(skip.data, pad)
    bias_col = None if bias is None else bias.data[:, None]
    out_rows = _correlate_rows(rows, k.data, nb, h, w, bias_col, slope, skip_rows)
    inputs = (x, k) + tuple(t for t in (bias, skip) if t is not None)

    def back(g, needs):
        grows = _pad_rows(g, pad)
        if slope is not None:
            # grows * (1 if out > 0 else slope), with no data-dependent branch
            # per element; the halo stays +0.0.
            masked = np.greater(out_rows, 0.0, out=np.empty_like(grows))
            np.maximum(masked, slope, out=masked)
            grows = np.multiply(masked, grows, out=masked)
        hp, wp = h + 2 * pad, w + 2 * pad
        n = nb * hp * wp
        gx = None
        gk = None
        if needs[0]:
            flipped = k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _interior(_correlate_rows(grows, flipped, nb, h, w), nb, h, w, pad)
        if needs[1]:
            # Shifted by (p, p), the padded gradient puts g[:, b, i, j] at
            # the top-left corner of window (i, j) and zeros everywhere else.
            g_corner = grows[:, pad * (wp + 1) : pad * (wp + 1) + n]
            # Each offset's sum adds the products of ``autodiff.PANEL`` rows
            # at a time, in order, each made on pixel-major copies of both
            # operands (OpenBLAS rounds a product of that K differently when
            # its operands are channel-major).
            gk = np.zeros_like(k.data)
            g_pixels, x_pixels = g_corner.T.copy(), rows.T.copy()
            for a in range(0, n, autodiff.PANEL):
                b = min(a + autodiff.PANEL, n)
                for di in range(kh):
                    for dj in range(kw):
                        s = di * wp + dj
                        gk[:, :, di, dj] += g_pixels[a:b].T @ x_pixels[s + a : s + b]
        grads = [gx, gk]
        if bias is not None:
            if needs[2]:
                # Over the batch on the padded grid, one image after another,
                # then over the interior's rows and then its columns.
                per_pixel = grows[:, :n].reshape(-1, nb, hp, wp).sum(axis=1)
                grads.append(per_pixel[:, pad : pad + h, pad : pad + w].sum(axis=1).sum(axis=1))
            else:
                grads.append(None)
        if skip is not None:
            grads.append(g if needs[-1] else None)
        return grads

    return x.tape.record(_interior(out_rows, nb, h, w, pad), inputs, back)


def gen_digits_per_image(count: int, n: int = 28, seed: int = 0) -> Dataset:
    """``masko.data.gen_digits`` as one loop over the images: seven scalar
    draws, four ``np.add.at`` splats and one ``scipy.ndimage.gaussian_filter``
    per image.  Its labels wrap after image 255 (``np.uint8`` counts modulo
    256 before the ``% 10``)."""
    if n < 12 or count < 0:
        raise ConfigError(f"need n >= 12 and count >= 0, got n={n} and count={count}")
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
    return Dataset(images=images, labels=np.arange(count, dtype=np.uint8) % 10)
