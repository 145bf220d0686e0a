"""The mask-distribution layer.

A pre-sigmoid Gaussian variable pushed through a temperature sigmoid gives
a logitNormal sample in (0, 1).  Stretching it affinely past [0, 1] and
hard-thresholding creates point masses at exactly 0 and 1, which makes the
expected count of active pixels (the relaxed l0 norm) finite, nonzero and
differentiable, with a closed form through the standard normal CDF.

Functions taking plain floats/arrays are pure; functions taking
:class:`~masko.autodiff.Tensor` arguments build tape operations and are
differentiable in the distribution parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, DomainError, ParameterError


@dataclass(frozen=True)
class StretchConfig:
    """Stretching constants and the sigmoid temperature.

    ``gamma < 0 < 1 < eta`` stretches [0, 1] to [gamma, eta] before the
    hard threshold, so both endpoints carry probability mass.
    """

    gamma: float = -0.1
    eta: float = 1.1
    lambda_temp: float = 0.3

    def __post_init__(self) -> None:
        if not (self.gamma < 0.0 < 1.0 < self.eta):
            raise ConfigError(f"need gamma < 0 < 1 < eta, got gamma={self.gamma}, eta={self.eta}")
        if not self.lambda_temp > 0.0:
            raise ConfigError(f"temperature must be positive, got {self.lambda_temp}")

    @property
    def zero_threshold(self) -> float:
        """Pre-stretch value mapped to 0: -gamma / (eta - gamma), in (0, 1)."""
        return -self.gamma / (self.eta - self.gamma)

    @property
    def log_odds_threshold(self) -> float:
        """log(-gamma / eta), the logit of ``zero_threshold``."""
        return math.log(-self.gamma / self.eta)


@dataclass(frozen=True)
class GaussianSpec:
    """Per-pixel pre-sigmoid Gaussian law: mean ``mu``, std ``row_norm``.

    ``row_norm[i] == 0`` marks a deterministic pre-sigmoid coordinate.
    """

    mu: np.ndarray
    row_norm: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "row_norm", np.asarray(self.row_norm, dtype=np.float64))
        if self.mu.shape != self.row_norm.shape:
            raise ParameterError(f"mu {self.mu.shape} vs row_norm {self.row_norm.shape}")
        if np.any(self.row_norm < 0):
            raise ParameterError("row_norm must be elementwise nonnegative")


def logitnormal_pdf(y, mu: float, sigma: float):
    """Density at ``y`` in (0,1) of sigmoid(X), X ~ Normal(mu, sigma)."""
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr <= 0.0) or np.any(y_arr >= 1.0):
        raise DomainError("logitnormal_pdf defined on the open interval (0, 1)")
    logit = np.log(y_arr / (1.0 - y_arr))
    dens = (
        np.exp(-((logit - mu) ** 2) / (2.0 * sigma * sigma))
        / (sigma * math.sqrt(2.0 * math.pi) * y_arr * (1.0 - y_arr))
    )
    return float(dens) if np.ndim(y) == 0 else dens


def sample_correlated(w: Tensor, b: Tensor, z: Tensor, lam: float) -> Tensor:
    """sigmoid_lam(W z + b): all coordinates share one low-dimensional draw.

    ``z`` is (d,) for a single draw or (d, B) for a batch of draws; the
    result is (m,) or (m, B).  Marginally, coordinate i is logitNormal
    with pre-sigmoid mean b[i] and std sqrt(sum_j W[i, j]^2).
    """
    m, d = w.shape
    single = z.data.ndim == 1
    z2 = z.reshape((d, 1)) if single else z
    if z2.data.shape[0] != d:
        raise DimensionError(f"latent dim {z2.data.shape[0]} does not match W {w.shape}")
    pre = ad.matmul(w, z2) + b.reshape((m, 1))
    out = ad.sigmoid_temp(pre, lam)
    return out.reshape((m,)) if single else out


def sample_independent(mu: Tensor, sigma: Tensor, z: Tensor, lam: float) -> Tensor:
    """sigmoid_lam(mu + z * sigma) with independent coordinates.

    ``z`` is shaped like ``mu`` or (m, B) against (m,) parameters.
    """
    if np.any(sigma.data < 0):
        raise ParameterError("sigma must be elementwise nonnegative")
    m = mu.data.shape[0]
    if z.data.ndim == 2 and mu.data.ndim == 1:
        pre = mu.reshape((m, 1)) + z * sigma.reshape((m, 1))
    else:
        pre = mu + z * sigma
    return ad.sigmoid_temp(pre, lam)


def stretch(y: Tensor, cfg: StretchConfig) -> Tensor:
    """Affine stretch past [0, 1] then hard threshold back onto it."""
    return ad.clamp01(y * (cfg.eta - cfg.gamma) + cfg.gamma)


def sample_concrete(log_alpha: Tensor, lam: float, u: Tensor) -> Tensor:
    """Relaxed binary concrete sample from uniform noise ``u`` in (0, 1)."""
    if np.any(u.data <= 0.0) or np.any(u.data >= 1.0):
        raise DomainError("uniform noise must lie strictly inside (0, 1); resample")
    noise = ad.log(u) - ad.log(1.0 - u)
    la = log_alpha
    if u.data.ndim == 2 and log_alpha.data.ndim == 1:
        la = log_alpha.reshape((log_alpha.data.shape[0], 1))
    return ad.sigmoid_temp(la + noise, lam)


def expected_l0(spec: GaussianSpec, cfg: StretchConfig, normalized: bool = False) -> float:
    """Closed-form expected number of strictly positive stretched outputs.

    Per coordinate: 1 - Phi((lam * log(-gamma/eta) - mu_i) / row_norm_i).
    The temperature factor keeps the threshold consistent with sampling
    through ``sigmoid_lam``.  A zero ``row_norm`` coordinate contributes
    the indicator of its deterministic value clearing the stretch
    threshold.
    """
    t = cfg.lambda_temp * cfg.log_odds_threshold
    pos = spec.row_norm > 0
    terms = np.empty_like(spec.mu)
    terms[pos] = 1.0 - ndtr((t - spec.mu[pos]) / spec.row_norm[pos])
    terms[~pos] = (spec.mu[~pos] > t).astype(np.float64)
    total = float(terms.sum())
    return total / spec.mu.size if normalized else total


def expected_l0_terms(mu: Tensor, row_norm: Tensor, lam: float, cfg: StretchConfig) -> Tensor:
    """Per-coordinate terms 1 - Phi((lam * log(-gamma/eta) - mu) / row_norm).

    Differentiable; requires strictly positive ``row_norm`` (softplus or a
    nonzero weight row guarantees this during training).  Broadcasts, so
    ``mu``/``row_norm`` may be per-pixel vectors or per-draw matrices.
    """
    t = lam * cfg.log_odds_threshold
    return 1.0 - ad.normal_cdf((t - mu) / row_norm)


def concrete_l0_terms(log_alpha: Tensor, lam: float, cfg: StretchConfig) -> Tensor:
    """Per-coordinate expected-l0 terms of the stretched concrete law,
    sigmoid(log_alpha - lam * log(-gamma/eta)).  Differentiable."""
    t = lam * cfg.log_odds_threshold
    return ad.sigmoid_temp(log_alpha - t, 1.0)


def collapse_prob(spec: GaussianSpec) -> np.ndarray:
    """Zero-temperature selection probabilities 1 - Phi(-mu / row_norm).

    In the temperature -> 0 limit each coordinate becomes Bernoulli with
    this success probability.  Deterministic coordinates (row_norm 0)
    collapse to the indicator of a positive mean, with 0.5 exactly at 0.
    """
    pos = spec.row_norm > 0
    probs = np.empty_like(spec.mu)
    probs[pos] = 1.0 - ndtr(-spec.mu[pos] / spec.row_norm[pos])
    det = spec.mu[~pos]
    probs[~pos] = np.where(det > 0, 1.0, np.where(det < 0, 0.0, 0.5))
    return probs
