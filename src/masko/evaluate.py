"""De-randomization and fixed-mask evaluation.

A trained mask distribution is collapsed to deterministic binary masks:
per-pixel selection probabilities come from the zero-temperature limit of
the sampling law (analytically for the factored samplers, by Monte Carlo
over draws for the hypernet and concrete variants), and the top-K pixels
are kept for K equal to the expected count rounded down and up to the
nearest ten.  The masks are then scored by reconstruction error with the
decoder trained alongside the distribution, without fine-tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .model import Decoder, decoder_apply
from .samplers import KINDS, SamplerParams


@dataclass
class CollapsedMask:
    """Selection probabilities, their expected count, and top-K masks."""

    probs: np.ndarray  # (n, n) per-pixel selection probability
    l0_estimate: float  # sum of probs
    masks: list[np.ndarray]  # binary (n, n), counts rounded down/up to tens

    @property
    def mask_sizes(self) -> list[int]:
        return [int(m.sum()) for m in self.masks]


def top_k_mask(probs_flat: np.ndarray, k: int) -> np.ndarray:
    """Binary mask of the k most probable pixels; ties break by pixel index."""
    m = probs_flat.size
    k = max(0, min(k, m))
    mask = np.zeros(m)
    if k:
        order = np.argsort(-probs_flat, kind="stable")
        mask[order[:k]] = 1.0
    return mask


def _rounded_counts(l0: float) -> list[int]:
    return [10 * math.floor(l0 / 10.0), 10 * math.ceil(l0 / 10.0)]


def collapse_distribution(
    params: SamplerParams,
    mc_samples: int = 1024,
    seed: int = 0,
) -> CollapsedMask:
    """Replace the stochastic mask by its zero-temperature selection law.

    Factored samplers collapse analytically; the hypernet and concrete
    variants estimate each pixel's selection probability as the mean of
    the zero-temperature indicator over ``mc_samples`` draws.
    """
    if mc_samples < 1:
        raise ParameterError(f"mc_samples must be >= 1, got {mc_samples}")
    for name, arr in params.arrays.items():
        if not np.isfinite(arr).all():
            raise ContractError(f"cannot collapse: parameter {name!r} is non-finite")
    n = params.n
    probs_flat = KINDS[params.kind].collapse(params, mc_samples, seed)
    l0 = float(probs_flat.sum())
    masks = [top_k_mask(probs_flat, k).reshape(n, n) for k in _rounded_counts(l0)]
    return CollapsedMask(probs=probs_flat.reshape(n, n), l0_estimate=l0, masks=masks)


def eval_fixed_mask(mask: np.ndarray, dec: Decoder, images: np.ndarray, batch: int = 256) -> float:
    """Mean per-pixel squared reconstruction error under a frozen mask.

    ``mask`` is binary (n, n); ``images`` is (count, n, n).  Deterministic:
    fixed batching order, single-threaded summation.
    """
    mask = np.asarray(mask, dtype=np.float64)
    uniq = np.unique(mask)
    if not np.all(np.isin(uniq, (0.0, 1.0))):
        raise ParameterError("mask must be binary")
    images = np.asarray(images, dtype=np.float64)
    n = dec.n
    if mask.shape != (n, n) or images.ndim != 3 or images.shape[1:] != (n, n):
        raise DimensionError(f"mask {mask.shape} / images {images.shape} vs decoder n={n}")
    count = images.shape[0]
    if count == 0:
        raise ParameterError("no images to evaluate")
    flat = images.reshape(count, n * n)
    mask_col = mask.reshape(n * n, 1)
    total = 0.0
    for start in range(0, count, batch):
        cols = np.ascontiguousarray(flat[start : start + batch].T)
        xhat = decoder_apply(dec, mask_col * cols)
        total += float(((xhat - cols) ** 2).sum())
    return total / (count * n * n)


def export_covariance(params: SamplerParams, indices: np.ndarray | None = None) -> np.ndarray:
    """Pre-sigmoid covariance W W^T on a pixel-index window.

    The window is a pixel-index list, such as a contiguous range or the
    selected pixels of a collapsed mask; ``None`` means every pixel.
    Returns the symmetric positive semi-definite block.
    """
    if params.kind != "vanilla":
        raise ContractError("covariance export requires the vanilla sampler")
    m = params.n * params.n
    w = params.arrays["w"]
    if indices is not None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size < 1 or indices.min() < 0 or indices.max() >= m:
            raise IndexError(f"pixel indices outside 0..{m}")
        w = w[indices]
    cov = w @ w.T
    return (cov + cov.T) / 2.0  # exact symmetry regardless of BLAS order
