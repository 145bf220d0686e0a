"""Learnable mask-distribution parameterizations.

Four variants over n*n pixels:

* ``vanilla`` — one weight matrix and bias; all pixels share a single
  d-dimensional Gaussian draw, giving a full pre-sigmoid covariance W W^T.
* ``hypernet`` — small networks map each draw z to its own (W_z, b_z),
  sampling over linear maps instead of over a fixed one.
* ``independent`` — per-pixel mean and standard deviation, no coupling.
* ``concrete`` — relaxed binary concrete baseline driven by uniform noise.

Each variant is one :class:`SamplerKind` declaration in :data:`KINDS`:
its array shapes and init bounds, its noise draw, its forward pass over
bound leaf tensors and its zero-temperature collapse.  Parameters are a
:class:`SamplerParams` holding plain float64 numpy arrays; a forward pass
binds them to a tape and returns the soft and stretched masks plus the
bound leaves so the training loop can read gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .distributions import (
    GaussianSpec,
    StretchConfig,
    collapse_prob,
    sample_concrete,
    sample_correlated,
    sample_independent,
    stretch,
)
from .errors import ConfigError, DimensionError
from .rng import STREAM_EVAL, STREAM_INIT, stream

LEAKY_SLOPE = 0.2


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

    Exactly one of ``law`` and ``logits`` is set: the Gaussian kinds give
    their pre-sigmoid (mean, std) per pixel, or per draw and pixel for the
    hypernet; the concrete kind gives its logits.
    """

    soft: Tensor  # (n*n, B)
    stretched: Tensor  # (n*n, B)
    lam: float
    leaves: dict[str, Tensor]
    law: tuple[Tensor, Tensor] | None = None
    logits: Tensor | None = None


@dataclass(frozen=True)
class SamplerKind:
    """Everything that differs between sampler variants."""

    tag: int  # code in the checkpoint header
    dims: str  # which of "d" and "k" the kind uses
    # (n*n, d, k) -> {name: (shape, init)}, in checkpoint order; init is the
    # bound of a uniform draw on [-init, init], or 0 for zeros
    layout: Callable[[int, int, int], dict[str, tuple[tuple[int, ...], float]]]
    # (params, leaves, noise) -> (soft mask, law or None, logits or None)
    forward: Callable[[SamplerParams, dict[str, Tensor], Tensor], tuple]
    # (params, mc_samples, seed) -> per-pixel zero-temperature selection probabilities
    collapse: Callable[[SamplerParams, int, int], np.ndarray]
    # (rng, (rows, batch)) -> the noise one forward pass consumes
    draw: Callable = np.random.Generator.standard_normal
    # arrays -> per-pixel pre-sigmoid (mean, std), for kinds with a closed form
    law: Callable[[dict[str, np.ndarray]], tuple[np.ndarray, np.ndarray]] | None = None
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


def _affine2(a: dict[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """Two affine layers with a leaky-ReLU between, on (in_dim, B) columns."""
    h = a[f"{prefix}.w1"] @ x + a[f"{prefix}.b1"][:, None]
    h = np.where(h > 0, h, LEAKY_SLOPE * h)
    return a[f"{prefix}.w2"] @ h + a[f"{prefix}.b2"][:, None]


def hypernet_pre(params: SamplerParams, z: np.ndarray) -> np.ndarray:
    """Plain numpy hypernet pre-sigmoid values, (B, n*n), for draws z (d, B)."""
    a = params.arrays
    r = _affine2(a, "rep", z)
    w_z = _affine2(a, "fw", r).T.reshape(z.shape[1], params.n * params.n, params.d)
    b_z = _affine2(a, "fb", r).T
    return np.einsum("bmd,db->bm", w_z, z) + b_z


def _affine2_cols(leaves: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    b1, b2 = leaves[f"{prefix}.b1"], leaves[f"{prefix}.b2"]
    h = ad.matmul(leaves[f"{prefix}.w1"], x) + b1.reshape((b1.size, 1))
    h = ad.leaky_relu(h, LEAKY_SLOPE)
    return ad.matmul(leaves[f"{prefix}.w2"], h) + b2.reshape((b2.size, 1))


def _net_layout(prefix: str, d_in: int, k: int, d_out: int, out_bound: float) -> dict:
    return {
        f"{prefix}.w1": ((k, d_in), math.sqrt(3.0 / d_in)),
        f"{prefix}.b1": ((k,), 0.0),
        f"{prefix}.w2": ((d_out, k), out_bound),
        f"{prefix}.b2": ((d_out,), 0.0),
    }


def _vanilla_mask(p: SamplerParams, leaves: dict[str, Tensor], zt: Tensor) -> tuple:
    w, b = leaves["w"], leaves["b"]
    return sample_correlated(w, b, zt, p.lam), (b, ad.sqrt((w * w).sum(axis=1))), None


def _hypernet_mask(p: SamplerParams, leaves: dict[str, Tensor], zt: Tensor) -> tuple:
    """Each column of the draw yields its own (W_z, b_z); conditioned on a
    fixed draw the mask is deterministic, and the law is per draw."""
    m = p.n * p.n
    nb = zt.data.shape[1]
    r = _affine2_cols(leaves, "rep", zt)  # (k, B)
    wz_cols = _affine2_cols(leaves, "fw", r)  # (n*n*d, B)
    bz_cols = _affine2_cols(leaves, "fb", r)  # (n*n, B)
    w_z = ad.transpose(wz_cols).reshape((nb, m, p.d))
    b_z = ad.transpose(bz_cols)  # (B, n*n)
    z_col = ad.transpose(zt).reshape((nb, p.d, 1))
    pre = ad.transpose(ad.matmul(w_z, z_col).reshape((nb, m)) + b_z)  # (n*n, B)
    return ad.sigmoid_temp(pre, p.lam), (b_z, ad.sqrt((w_z * w_z).sum(axis=2))), None


def _independent_mask(p: SamplerParams, leaves: dict[str, Tensor], zt: Tensor) -> tuple:
    mu = leaves["mu"]
    sigma = ad.softplus(leaves["sigma_raw"])
    return sample_independent(mu, sigma, zt, p.lam), (mu, sigma), None


def _concrete_mask(p: SamplerParams, leaves: dict[str, Tensor], ut: Tensor) -> tuple:
    la = leaves["log_alpha"]
    return sample_concrete(la, p.lam, ut), None, la


def _collapse_law(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    return collapse_prob(gaussian_spec(p))


def _hypernet_collapse(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    z = stream(seed, STREAM_EVAL).standard_normal((p.d, mc_samples))
    return (hypernet_pre(p, z) > 0).mean(axis=0)


def _concrete_collapse(p: SamplerParams, mc_samples: int, seed: int) -> np.ndarray:
    u = stream(seed, STREAM_EVAL).random((mc_samples, p.n * p.n))
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    noise = np.log(u) - np.log1p(-u)
    return (p.arrays["log_alpha"][None, :] + noise > 0).mean(axis=0)


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
        forward=_vanilla_mask,
        collapse=_collapse_law,
        law=lambda a: (a["b"].copy(), np.sqrt((a["w"] ** 2).sum(axis=1))),
    ),
    "hypernet": SamplerKind(
        tag=1,
        dims="dk",
        layout=lambda m, d, k: {
            **_net_layout("rep", d, k, k, math.sqrt(3.0 / k)),
            **_net_layout("fw", k, k, m * d, math.sqrt(3.0 / k)),
            **_net_layout("fb", k, k, m, 0.01),
        },
        forward=_hypernet_mask,
        collapse=_hypernet_collapse,
        calibrate=_hypernet_calibrate,
    ),
    "independent": SamplerKind(
        tag=2,
        dims="",
        layout=lambda m, d, k: {"mu": ((m,), 0.0), "sigma_raw": ((m,), 0.0)},
        forward=_independent_mask,
        collapse=_collapse_law,
        law=lambda a: (a["mu"].copy(), np.logaddexp(0.0, a["sigma_raw"])),
        calibrate=_independent_calibrate,
    ),
    "concrete": SamplerKind(
        tag=3,
        dims="",
        layout=lambda m, d, k: {"log_alpha": ((m,), 0.0)},
        draw=_open_uniform,
        forward=_concrete_mask,
        collapse=_concrete_collapse,
    ),
}


def sampler_forward(
    tape: Tape,
    params: SamplerParams,
    z,
    cfg: StretchConfig,
    leaves: dict[str, Tensor] | None = None,
) -> SamplerOutput:
    """Mask sample for the noise ``z``, one column per batch element.

    Pass ``leaves`` to reuse already-bound parameter tensors (as gradient
    checks do); otherwise the arrays of ``params`` are bound to ``tape``.
    """
    zt = z if isinstance(z, Tensor) else tape.constant(z)
    if zt.data.ndim == 1:
        zt = zt.reshape((zt.data.shape[0], 1))
    rows = params.d or params.n * params.n
    if zt.data.shape[0] != rows:
        raise DimensionError(f"draw has {zt.data.shape[0]} rows, expected {rows}")
    if leaves is None:
        leaves = {name: tape.param(arr) for name, arr in params.arrays.items()}
    soft, law, logits = KINDS[params.kind].forward(params, leaves, zt)
    return SamplerOutput(soft, stretch(soft, cfg), params.lam, leaves, law, logits)


def draw_latent(params: SamplerParams, rng: np.random.Generator, batch: int) -> np.ndarray:
    """Draw the noise a forward pass consumes: one column per batch element,
    one row per latent dimension, or per pixel for kinds without one."""
    return KINDS[params.kind].draw(rng, (params.d or params.n * params.n, batch))


def gaussian_spec(params: SamplerParams) -> GaussianSpec:
    """Analytic per-pixel pre-sigmoid law for the factored variants."""
    law = KINDS[params.kind].law
    if law is None:
        raise ConfigError(f"no analytic pre-sigmoid law for {params.kind} sampler")
    return GaussianSpec(*law(params.arrays))


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
