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
from scipy.special import ndtr

from masko.autodiff import Tape, Tensor
from masko.data import read_exact
from masko.distributions import StretchConfig
from masko.errors import ContractError, EvaluationError, FormatError, ParameterError
from masko.rng import STREAM_EVAL, stream
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
