"""The closed forms of the mask-distribution law.

A pre-sigmoid Gaussian variable pushed through a temperature sigmoid gives
a logitNormal sample in (0, 1).  Stretching it affinely past [0, 1] and
hard-thresholding creates point masses at exactly 0 and 1, which makes the
expected count of active pixels (the relaxed l0 norm) finite, nonzero and
differentiable, with a closed form through the standard normal CDF.

The concrete baseline's pre-sigmoid law is a unit-scale logistic instead.
This module holds the density, the stretch and those closed forms: the
expected l0 of both law families, which only this module tells apart,
and the zero-temperature collapse probabilities.  Drawing the samples
themselves is the job of each kind in :mod:`masko.samplers`.
Functions taking plain floats/arrays are pure; functions taking
:class:`~masko.autodiff.Tensor` arguments build tape operations and are
differentiable in the distribution parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DomainError, ParameterError


@dataclass(frozen=True)
class StretchConfig:
    """Stretching constants.

    ``gamma < 0 < 1 < eta`` stretches [0, 1] to [gamma, eta] before the
    hard threshold, so both endpoints carry probability mass.
    """

    gamma: float
    eta: float

    def __post_init__(self) -> None:
        if not (self.gamma < 0.0 < 1.0 < self.eta):
            raise ConfigError(f"need gamma < 0 < 1 < eta, got gamma={self.gamma}, eta={self.eta}")

    @property
    def log_odds_threshold(self) -> float:
        """log(-gamma / eta), the logit of the pre-stretch value that maps to 0."""
        return math.log(-self.gamma / self.eta)


def logitnormal_pdf(y, mu: float, sigma: float):
    """Density at ``y`` in (0,1) of sigmoid(X), X ~ Normal(mu, sigma)."""
    if not (math.isfinite(mu) and 0 < sigma < math.inf):
        raise ParameterError(f"need a finite mu and a finite positive sigma, got {mu}, {sigma}")
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr <= 0.0) or np.any(y_arr >= 1.0):
        raise DomainError("logitnormal_pdf defined on the open interval (0, 1)")
    with np.errstate(all="ignore"):  # a subnormal sigma underflows to 0/0; checked below
        logit = np.log(y_arr / (1.0 - y_arr))
        dens = (
            np.exp(-((logit - mu) ** 2) / (2.0 * sigma * sigma))
            / (sigma * math.sqrt(2.0 * math.pi) * y_arr * (1.0 - y_arr))
        )
    if not np.isfinite(dens).all():
        raise ParameterError(f"density at mu={mu}, sigma={sigma} is not finite")
    return float(dens) if np.ndim(y) == 0 else dens


def stretch(y: Tensor, cfg: StretchConfig) -> Tensor:
    """Affine stretch past [0, 1] then hard threshold back onto it: one
    ``clamp01`` record of ``y*(eta - gamma) + gamma``."""
    return ad.clamp01(y, cfg.eta - cfg.gamma, cfg.gamma)


def expected_l0_terms(mu: Tensor, row_norm: Tensor | None, lam: float, cfg: StretchConfig) -> Tensor:
    """Per-coordinate expected-l0 terms: the probability that a pre-sigmoid
    value with law ``(mu, row_norm)`` exceeds t = lam * log(-gamma/eta).

    A Gaussian law gives 1 - Phi((t - mu) / row_norm) and needs a strictly
    positive ``row_norm`` (softplus or a nonzero weight row guarantees this
    during training); a scale of None is concrete's unit logistic, which
    gives sigmoid(mu - t).  Differentiable; broadcasts, so the law may be
    per-pixel vectors or per-draw matrices.
    """
    t = lam * cfg.log_odds_threshold
    if row_norm is None:
        return ad.sigmoid_temp(mu - t, 1.0)
    return 1.0 - ad.normal_cdf((t - mu) / row_norm)


def collapse_prob(mu: np.ndarray, row_norm: np.ndarray) -> np.ndarray:
    """Zero-temperature selection probabilities 1 - Phi(-mu / row_norm).

    In the temperature -> 0 limit each coordinate becomes Bernoulli with
    this success probability.  Deterministic coordinates (row_norm 0)
    collapse to the indicator of a positive mean, with 0.5 exactly at 0.
    """
    pos = row_norm > 0
    probs = np.empty_like(mu)
    probs[pos] = 1.0 - ad._ndtr(-mu[pos] / row_norm[pos])
    det = mu[~pos]
    probs[~pos] = np.where(det > 0, 1.0, np.where(det < 0, 0.0, 0.5))
    return probs
