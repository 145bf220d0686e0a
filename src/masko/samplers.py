"""Learnable mask-distribution parameterizations.

Four variants over n*n pixels:

* ``vanilla`` — one weight matrix and bias; all pixels share a single
  d-dimensional Gaussian draw, giving a full pre-sigmoid covariance W W^T.
* ``hypernet`` — small networks map each draw z to its own (W_z, b_z),
  sampling over linear maps instead of over a fixed one.
* ``independent`` — per-pixel mean and standard deviation, no coupling.
* ``concrete`` — relaxed binary concrete baseline driven by uniform noise.

Each variant is one :class:`SamplerKind` declaration in :data:`KINDS`:
its array shapes and init bounds, its noise draw, its forward pass to
the pre-sigmoid values and their (location, scale) law over bound leaf
tensors (concrete's scale is None: its noise is the unit logistic), and
its zero-temperature collapse, which runs that tape code on constants.
This module is the one place that draws masks; the law's closed forms
live in :mod:`masko.distributions`.  A :class:`SamplerParams` holds
plain float64 arrays; :func:`sampler_forward` binds them to a tape, applies
the one temperature sigmoid and the stretch, and returns the soft and
stretched masks plus the bound leaves for the gradients.
The hypernet's per-draw maps W_z (Ha, Dai & Le, 2016) are never stored:
:func:`_hypernet_head` applies them to the draw as one GEMM over the
Khatri-Rao product of draw and hidden layer, and walks them in pixel
blocks only where their row norm and the backward need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .distributions import StretchConfig, collapse_prob, stretch
from .errors import ConfigError, DimensionError, DomainError
from .rng import STREAM_EVAL, STREAM_INIT, stream

LEAKY_SLOPE = 0.2
HEAD_MACS = 1 << 22  # multiply-adds per F_W block (norm and backward only): 1 MiB at k=32, B=128


@dataclass
class SamplerParams:
    """One sampler's learnable arrays, in checkpoint order.

    ``d`` (latent dimension) and ``k`` (hypernet width) are 0 where the
    kind has no such dimension.
    """

    kind: str
    arrays: dict[str, np.ndarray]
    lam: float  # sigmoid temperature
    n: int  # image side
    d: int = 0
    k: int = 0


@dataclass
class SamplerOutput:
    """Forward-pass products needed by the objective and the optimizer.

    ``law`` is the pre-sigmoid (location, scale) per pixel, or as (n*n, B)
    per pixel and draw for the hypernet; concrete's scale is None.
    """

    soft: Tensor  # (n*n, B)
    stretched: Tensor  # (n*n, B)
    lam: float
    leaves: dict[str, Tensor]
    law: tuple[Tensor, Tensor | None]


@dataclass(frozen=True)
class SamplerKind:
    """Everything that differs between sampler variants."""

    tag: int  # code in the checkpoint header
    dims: str  # which of "d" and "k" the kind uses
    # (n*n, d, k) -> {name: (shape, init)}, in checkpoint order; init is the
    # bound of a uniform draw on [-init, init], or 0 for zeros
    layout: Callable[[int, int, int], dict[str, tuple[tuple[int, ...], float]]]
    # (leaves, noise) -> (pre-sigmoid values, their (location, scale) law)
    forward: Callable[[dict[str, Tensor], Tensor], tuple]
    # (params, mc_samples, seed) -> per-pixel zero-temperature selection probabilities
    collapse: Callable[[SamplerParams, int, int], np.ndarray]
    # (rng, (rows, batch)) -> the noise one forward pass consumes
    draw: Callable = np.random.Generator.standard_normal
    # leaves -> per-pixel pre-sigmoid (mean, std); the forward and the collapse both call it
    law: Callable[[dict[str, Tensor]], tuple[Tensor, Tensor]] | None = None
    # (params, rng) -> None; runs after the uniform init
    calibrate: Callable[[SamplerParams, np.random.Generator], None] | None = None


def param_arrays(params: SamplerParams) -> list[tuple[str, np.ndarray]]:
    """Named learnable arrays, in checkpoint declaration order."""
    return list(params.arrays.items())


def _open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    while True:  # the open interval is required; 0.0 can occur
        bad = (u <= 0.0) | (u >= 1.0)
        if not bad.any():
            return u
        u[bad] = rng.random(int(bad.sum()))


def _constants(tape: Tape, params: SamplerParams) -> dict[str, Tensor]:
    """The arrays bound as constants: the kind's tape code then records nothing."""
    return {name: tape.constant(arr) for name, arr in params.arrays.items()}


def hypernet_pre(params: SamplerParams, z: np.ndarray) -> np.ndarray:
    """Hypernet pre-sigmoid values, (n*n, B), for draws z (d, B): the
    training code on constants, over all draws at once.  Only the head's
    contraction runs (:func:`_hypernet_head` with ``norm=False``), so no
    block of F_W's (n*n*d, B) output is ever built."""
    tape = Tape()
    return _hypernet_pre(_constants(tape, params), tape.constant(z), norm=False)[0].data


def _hypernet_pre(leaves: dict[str, Tensor], zt: Tensor, norm: bool = True) -> tuple:
    """W_z z + b_z for each draw column of zt (d, B), with W_z as the
    (n*n, d, B) reshape of F_W's output.  Each draw yields its own (W_z,
    b_z), so the law (b_z, row norm of W_z) is per draw; there is no law
    when ``norm`` is False."""
    r = _affine2_cols(leaves, "rep", zt)  # (k, B)
    h = _hidden(leaves, "fw", r)
    wz_z, w_norm = _hypernet_head(leaves["fw.w2"], leaves["fw.b2"], h, zt.data, norm)
    b_z = _affine2_cols(leaves, "fb", r)  # (n*n, B)
    return wz_z + b_z, (b_z, w_norm) if norm else None


def _hypernet_head(
    w2: Tensor, b2: Tensor, h: Tensor, z: np.ndarray, norm: bool = True
) -> tuple[Tensor, Tensor | None]:
    """sum_d W_z[:, d] z[d] and |W_z| over d, each (n*n, B), for W_z the
    (n*n, d, B) reshape of F = w2 @ h + b2 and constant draws z (d, B);
    the norm is None when ``norm`` is False.

    The contraction is one GEMM against the column-wise Khatri-Rao product
    of z and h (Kolda & Bader, 2009), on views of w2 and b2.  F itself is
    never stored: the norm's forward and the backward remake it one pixel
    block at a time (Chen et al., 2016), and a short tail joins the last
    block so that no GEMM drops to OpenBLAS's small-matrix kernels.  The
    norm sums in the order of the generic chain (matmul, add, reshape, mul,
    sum, sqrt); its rule runs first and builds dF from both gradients.
    """
    d, nb = z.shape
    m, k = w2.data.shape[0] // d, h.data.shape[0]
    contr = w2.data.reshape((m, d * k)) @ (z[:, None, :] * h.data[None, :, :]).reshape((d * k, nb))
    contr += b2.data.reshape((m, d)) @ z
    step = max(1, HEAD_MACS // (k * d * nb))  # pixels per block
    cuts = [*range(0, m, step)][: max(1, m // step)] + [m]
    blocks = [(slice(a, b), slice(a * d, b * d)) for a, b in zip(cuts, cuts[1:])]
    size = (m - cuts[-2]) * d * nb  # the last block is the largest

    def f_block(rows: slice, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # F rows, scratch
        f = buf[0, : (rows.stop - rows.start) * nb].reshape((-1, nb))
        np.matmul(w2.data[rows], h.data, out=f)
        f += b2.data[rows, None]
        return f.reshape((-1, d, nb)), buf[1, : f.size].reshape((-1, d, nb))

    w_norm = None
    if norm:
        sq, buf = np.empty((m, nb)), np.empty((2, size))
        for px, rows in blocks:
            f, t = f_block(rows, buf)
            np.multiply(f, f, out=t).sum(axis=1, out=sq[px])
        np.sqrt(sq, out=sq)

    def back(gc, gn, needs):
        # dF = 2 * (g_sq * F) + gc * z, the sum the generic chain accumulates
        df, buf = np.empty((m * d, nb)), np.empty((2, size))
        dw2, db2 = np.empty_like(w2.data), np.empty_like(b2.data)
        gsq = None if gn is None else gn * 0.5 / sq
        for px, rows in blocks:
            g = df[rows].reshape((-1, d, nb))
            if gsq is None:
                np.multiply(gc[px, None, :], z[None], out=g)
            else:
                f, t = f_block(rows, buf)
                np.multiply(gsq[px, None, :], f, out=g)
                g += g
                if gc is not None:
                    g += np.multiply(gc[px, None, :], z[None], out=t)
            np.matmul(df[rows], h.data.T, out=dw2[rows])
            df[rows].sum(axis=1, out=db2[rows])
        return dw2 if needs[0] else None, db2 if needs[1] else None, w2.data.T @ df if needs[2] else None

    def back_contraction(g, needs):  # a reached norm's rule already covered both gradients
        return back(g, None, needs) if w_norm is None or w_norm.grad is None else (None,) * 3

    tape, inputs = w2.tape, (w2, b2, h)
    wz_z = tape.record(contr, inputs, back_contraction)
    if norm:
        w_norm = tape.record(sq, inputs, lambda g, needs: back(wz_z.grad, g, needs))
    return wz_z, w_norm


def _hidden(leaves: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return ad.leaky_relu(ad.matmul(leaves[f"{prefix}.w1"], x, leaves[f"{prefix}.b1"]), LEAKY_SLOPE)


def _affine2_cols(leaves: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return ad.matmul(leaves[f"{prefix}.w2"], _hidden(leaves, prefix, x), leaves[f"{prefix}.b2"])


def _net_layout(prefix: str, d_in: int, k: int, d_out: int, out_bound: float) -> dict:
    return {
        f"{prefix}.w1": ((k, d_in), math.sqrt(3.0 / d_in)),
        f"{prefix}.b1": ((k,), 0.0),
        f"{prefix}.w2": ((d_out, k), out_bound),
        f"{prefix}.b2": ((d_out,), 0.0),
    }


def _vanilla_pre(leaves: dict[str, Tensor], zt: Tensor) -> tuple:
    """W z + b; pixel i is logitNormal with mean b[i] and std |W[i]|."""
    return ad.matmul(leaves["w"], zt, leaves["b"]), KINDS["vanilla"].law(leaves)


def _independent_pre(leaves: dict[str, Tensor], zt: Tensor) -> tuple:
    """mu + z * sigma, one independent draw per pixel."""
    mu, sigma = KINDS["independent"].law(leaves)
    m = mu.size
    return mu.reshape((m, 1)) + zt * sigma.reshape((m, 1)), (mu, sigma)


def _concrete_pre(leaves: dict[str, Tensor], ut: Tensor) -> tuple:
    """log_alpha plus the logistic noise log(u) - log(1 - u) of uniform
    noise in (0, 1): a relaxed binary concrete sample before its sigmoid."""
    if np.any(ut.data <= 0.0) or np.any(ut.data >= 1.0):
        raise DomainError("uniform noise must lie strictly inside (0, 1); resample")
    la = leaves["log_alpha"]
    return la.reshape((la.size, 1)) + (ad.log(ut) - ad.log(1.0 - ut)), (la, None)


def _collapse_law(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    mean, std = KINDS[p.kind].law(_constants(Tape(), p))
    return collapse_prob(mean.data, std.data)


def _hypernet_collapse(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    z = stream(seed, STREAM_EVAL).standard_normal((p.d, mc_samples))
    return (hypernet_pre(p, z) > 0).mean(axis=1)


def _concrete_collapse(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    tape = Tape()  # drawn as rows of n*n uniforms, one per draw; read as (n*n, draws)
    u = tape.constant(_open_uniform(stream(seed, STREAM_EVAL), (mc_samples, p.n * p.n)).T)
    return (_concrete_pre(_constants(tape, p), u)[0].data > 0).mean(axis=1)


def _hypernet_calibrate(p: SamplerParams, rng: np.random.Generator) -> None:
    # rescale F_W's output layer to a unit pre-sigmoid spread over 256 draws
    p.arrays["fw.w2"] /= hypernet_pre(p, rng.standard_normal((p.d, 256))).std()


def _independent_calibrate(p: SamplerParams, rng: np.random.Generator) -> None:
    p.arrays["sigma_raw"][:] = math.log(math.e - 1.0)  # softplus(sigma_raw) == 1


KINDS: dict[str, SamplerKind] = {
    "vanilla": SamplerKind(
        tag=0,
        dims="d",
        layout=lambda m, d, k: {"w": ((m, d), math.sqrt(3.0 / d)), "b": ((m,), 0.0)},
        forward=_vanilla_pre,
        collapse=_collapse_law,
        law=lambda lv: (lv["b"], ad.sqrt((lv["w"] * lv["w"]).sum(axis=1))),
    ),
    "hypernet": SamplerKind(
        tag=1,
        dims="dk",
        layout=lambda m, d, k: {
            **_net_layout("rep", d, k, k, math.sqrt(3.0 / k)),
            **_net_layout("fw", k, k, m * d, math.sqrt(3.0 / k)),
            **_net_layout("fb", k, k, m, 0.01),
        },
        forward=_hypernet_pre,
        collapse=_hypernet_collapse,
        calibrate=_hypernet_calibrate,
    ),
    "independent": SamplerKind(
        tag=2,
        dims="",
        layout=lambda m, d, k: {"mu": ((m,), 0.0), "sigma_raw": ((m,), 0.0)},
        forward=_independent_pre,
        collapse=_collapse_law,
        law=lambda lv: (lv["mu"], ad.softplus(lv["sigma_raw"])),
        calibrate=_independent_calibrate,
    ),
    "concrete": SamplerKind(
        tag=3,
        dims="",
        layout=lambda m, d, k: {"log_alpha": ((m,), 0.0)},
        draw=_open_uniform,
        forward=_concrete_pre,
        collapse=_concrete_collapse,
    ),
}


def sampler_forward(
    tape: Tape,
    params: SamplerParams,
    z: np.ndarray,
    cfg: StretchConfig,
    leaves: dict[str, Tensor] | None = None,
) -> SamplerOutput:
    """Mask sample for the (rows, B) noise ``z``, one column per batch element.

    Pass ``leaves`` to reuse already-bound parameter tensors (as gradient
    checks do); otherwise the arrays of ``params`` are bound to ``tape``.
    """
    rows = params.d or params.n * params.n
    if z.ndim != 2 or z.shape[0] != rows:
        raise DimensionError(f"draw has shape {z.shape}, expected ({rows}, B)")
    zt = tape.constant(z)
    if leaves is None:
        leaves = {name: tape.param(arr) for name, arr in params.arrays.items()}
    pre, law = KINDS[params.kind].forward(leaves, zt)
    soft = ad.sigmoid_temp(pre, params.lam)
    return SamplerOutput(soft, stretch(soft, cfg), params.lam, leaves, law)


def draw_latent(params: SamplerParams, rng: np.random.Generator, batch: int) -> np.ndarray:
    """Draw the noise a forward pass consumes: one column per batch element,
    one row per latent dimension, or per pixel for kinds without one."""
    return KINDS[params.kind].draw(rng, (params.d or params.n * params.n, batch))


def init_sampler(
    kind: str,
    n: int,
    d: int = 16,
    lam: float = 0.3,
    seed: int = 0,
    k: int = 32,
    rng: np.random.Generator | None = None,
) -> SamplerParams:
    """Initialize a sampler so each pixel's pre-sigmoid law is close to
    a standard normal: symmetric masks, both tails reachable, no interior
    mode at the default temperature of 0.3.

    Vanilla weights are uniform on [-a, a] with a = sqrt(3/d), making each
    row's pre-sigmoid variance 1 in expectation; biases start at 0.  The
    hypernet final layer of F_W is rescaled empirically (with draws from
    the same stream, so the result is deterministic per seed) to match the
    unit pre-sigmoid variance, and the final bias of F_b starts at 0.
    """
    spec = KINDS.get(kind)
    if spec is None:
        raise ConfigError(f"unknown sampler kind {kind!r}; expected one of {tuple(KINDS)}")
    if rng is None:
        rng = stream(seed, STREAM_INIT)
    d = d if "d" in spec.dims else 0
    k = k if "k" in spec.dims else 0
    arrays = {
        name: rng.uniform(-bound, bound, size=shape) if bound else np.zeros(shape)
        for name, (shape, bound) in spec.layout(n * n, d, k).items()
    }
    params = SamplerParams(kind, arrays, lam, n, d, k)
    if spec.calibrate is not None:
        spec.calibrate(params, rng)
    return params
