"""Reconstruction decoder and the full training objective.

The decoder maps a masked image back to a full image of the same size.
Two variants, each one :class:`DecoderKind` declaration in
:data:`DECODER_KINDS`: a two-hidden-layer MLP (the fast desk-scale
default) and a small residual convolutional network (input conv to 16
filters, two residual blocks of two 3x3 convs, output conv back to one
channel).

The objective is masked-reconstruction mean squared error plus a weighted
expected-l0 sparsity term, normalized by the pixel count.  The sparsity
term is the closed form of the sampler's pre-sigmoid law, whichever kind
drew it (per draw and averaged over the batch for the hypernet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .distributions import StretchConfig, expected_l0_terms
from .errors import ConfigError, DimensionError
from .samplers import LEAKY_SLOPE, SamplerOutput


@dataclass
class Decoder:
    """One decoder's learnable arrays, in checkpoint order."""

    kind: str
    arrays: dict[str, np.ndarray]
    n: int  # image side
    width: int  # hidden units (mlp) or filters (conv_resnet)


@dataclass(frozen=True)
class DecoderKind:
    """Everything that differs between decoder variants."""

    tag: int  # code in the checkpoint header
    width_field: str  # the config field that sets ``Decoder.width``
    # (n*n, width) -> {name: (shape, fan-in)}, in checkpoint order; weights
    # are uniform on [-sqrt(3/fan_in), sqrt(3/fan_in)], fan-in 0 means zeros
    layout: Callable[[int, int], dict[str, tuple[tuple[int, ...], int]]]
    # (decoder, leaves, masked input columns) -> reconstruction columns
    forward: Callable[["Decoder", dict[str, Tensor], Tensor], Tensor]


@dataclass(frozen=True)
class LossBreakdown:
    recon: float  # mean squared reconstruction error
    sparsity: float  # expected-l0, normalized by pixel count
    total: float  # recon + lam_sparse * sparsity


def _mlp_forward(dec: Decoder, leaves: dict[str, Tensor], x_obs: Tensor) -> Tensor:
    h1 = ad.leaky_relu(ad.matmul(leaves["w1"], x_obs, leaves["b1"]), LEAKY_SLOPE)
    h2 = ad.leaky_relu(ad.matmul(leaves["w2"], h1, leaves["b2"]), LEAKY_SLOPE)
    return ad.matmul(leaves["w3"], h2, leaves["b3"])


def _conv_forward(dec: Decoder, leaves: dict[str, Tensor], x_obs: Tensor) -> Tensor:
    # Activations stay channel-major, (C, B, n, n), between the two ends.
    nb, n = x_obs.data.shape[1], dec.n
    img = ad.transpose(x_obs).reshape((1, nb, n, n))
    c = ad.conv2d(img, leaves["k_in"], leaves["b_in"], slope=LEAKY_SLOPE)
    for blk in ("1", "2"):
        t = ad.conv2d(c, leaves[f"k{blk}a"], leaves[f"b{blk}a"], slope=LEAKY_SLOPE)
        c = ad.conv2d(t, leaves[f"k{blk}b"], leaves[f"b{blk}b"], skip=c)
    out = ad.conv2d(c, leaves["k_out"], leaves["b_out"])
    return ad.transpose(out.reshape((nb, n * n)))


def _conv_layout(m: int, f: int) -> dict:
    layout = {"k_in": ((f, 1, 3, 3), 9), "b_in": ((f,), 0)}
    for conv in ("1a", "1b", "2a", "2b"):  # two residual blocks of two convs
        layout[f"k{conv}"] = ((f, f, 3, 3), 9 * f)
        layout[f"b{conv}"] = ((f,), 0)
    layout["k_out"] = ((1, f, 3, 3), 9 * f)
    layout["b_out"] = ((1,), 0)
    return layout


DECODER_KINDS: dict[str, DecoderKind] = {
    "mlp": DecoderKind(
        tag=0,
        width_field="hidden",
        layout=lambda m, h: {
            "w1": ((h, m), m),
            "b1": ((h,), 0),
            "w2": ((h, h), h),
            "b2": ((h,), 0),
            "w3": ((m, h), h),
            "b3": ((m,), 0),
        },
        forward=_mlp_forward,
    ),
    "conv_resnet": DecoderKind(tag=1, width_field="filters", layout=_conv_layout, forward=_conv_forward),
}


def decoder_param_arrays(dec: Decoder) -> list[tuple[str, np.ndarray]]:
    """Named learnable arrays, in checkpoint declaration order."""
    return list(dec.arrays.items())


def init_decoder(kind: str, n: int, width: int, rng: np.random.Generator) -> Decoder:
    """Uniform fan-in-scaled weights, zero biases."""
    spec = DECODER_KINDS.get(kind)
    if spec is None:
        raise ConfigError(f"unknown decoder kind {kind!r}; expected one of {tuple(DECODER_KINDS)}")
    arrays = {}
    for name, (shape, fan_in) in spec.layout(n * n, width).items():
        a = math.sqrt(3.0 / fan_in) if fan_in else 0.0
        arrays[name] = rng.uniform(-a, a, size=shape) if a else np.zeros(shape)
    return Decoder(kind, arrays, n, width)


def decoder_forward(
    tape: Tape,
    dec: Decoder,
    x_obs: Tensor,
    leaves: dict[str, Tensor] | None = None,
) -> tuple[Tensor, dict[str, Tensor]]:
    """Reconstruct from a masked image batch laid out as (n*n, B) columns.

    Returns the reconstruction and the bound parameter leaves.  Pass
    ``leaves`` to reuse already-bound tensors.
    """
    m = dec.n * dec.n
    if x_obs.data.ndim != 2 or x_obs.data.shape[0] != m:
        raise DimensionError(f"expected ({m}, B) input, got {x_obs.shape}")
    if leaves is None:
        leaves = {name: tape.param(arr) for name, arr in dec.arrays.items()}
    return DECODER_KINDS[dec.kind].forward(dec, leaves, x_obs), leaves


def decoder_apply(dec: Decoder, x_cols: np.ndarray) -> np.ndarray:
    """Non-differentiable forward on a (n*n, B) array.

    Binds the weights as constants, so the tape records nothing and each
    activation is freed once the next op has consumed it.
    """
    tape = Tape()
    leaves = {name: tape.constant(arr) for name, arr in dec.arrays.items()}
    xhat, _ = decoder_forward(tape, dec, tape.constant(x_cols), leaves)
    return xhat.data


def _squared_error(xhat: Tensor, x: Tensor) -> Tensor:
    """``((xhat - x) * (xhat - x)).mean()`` as one tape record.

    Bit for bit the ``sub``, ``mul`` and ``tensor_mean`` chain: that
    chain's gradient of the difference is ``G*diff + G*diff`` for ``G``
    the broadcast ``g/n``, and doubling ``(g/n)*diff`` in place is exactly
    that sum.  Not an autodiff op: the objective is its only caller.
    """
    diff = xhat.data - x.data
    n = diff.size

    def back(g, needs):
        gd = (g / n) * diff
        gd += gd
        return gd if needs[0] else None, -gd if needs[1] else None

    return xhat.tape.record(np.asarray((diff * diff).mean()), (xhat, x), back)


def objective(
    sampler_out: SamplerOutput,
    x: Tensor,
    dec: Decoder,
    lam_sparse: float,
    cfg: StretchConfig,
    dec_leaves: dict[str, Tensor] | None = None,
) -> tuple[Tensor, LossBreakdown, dict[str, Tensor]]:
    """Masked-reconstruction MSE plus weighted normalized expected-l0.

    ``x`` is the clean batch as (n*n, B) columns on the same tape as the
    sampler output.  Returns the scalar loss tensor, the detached number
    breakdown, and the decoder leaves for the optimizer.  Pass
    ``dec_leaves`` to reuse already-bound decoder tensors.
    """
    if sampler_out.stretched.data.shape != x.data.shape:
        raise DimensionError(f"mask {sampler_out.stretched.data.shape} vs batch {x.data.shape}")
    x_obs = sampler_out.stretched * x
    xhat, dec_leaves = decoder_forward(x.tape, dec, x_obs, dec_leaves)
    recon = _squared_error(xhat, x)
    terms = expected_l0_terms(*sampler_out.law, sampler_out.lam, cfg)
    # mean over coordinates (and draws, for per-draw terms) = normalized l0
    sparsity = terms.mean()
    total = recon + lam_sparse * sparsity
    breakdown = LossBreakdown(recon.item(), sparsity.item(), total.item())
    return total, breakdown, dec_leaves
