"""Tape-based reverse-mode differentiation over dense float64 arrays.

A :class:`Tape` records each operation whose output needs a gradient as
an ``(out, inputs, back)`` triple, in execution order, which is
automatically a topological order.  ``backward`` walks the record once in
reverse, accumulating each gradient into the ``grad`` slot of the tensor
it belongs to; a tape runs ``backward`` once.  An operation on constants
only records nothing, so a forward pass over constants keeps no tensor
alive beyond its last use.

Design constraints: 64-bit floats everywhere, first-order gradients only,
a scalar loss root, and single-threaded use of any one tape.  Parameters
live outside the tape as plain numpy arrays; a training step binds them as
leaf tensors, runs forward/backward, reads the leaf gradients and discards
the tape.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit, ndtr

from .errors import (
    ContractError,
    DimensionError,
    EvaluationError,
    ParameterError,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Tensors are immutable values once created; only ``grad`` is written,
    and only by ``Tape.backward``.
    """

    __slots__ = ("data", "grad", "tape", "requires_grad")

    def __init__(self, data: np.ndarray, tape: "Tape", requires_grad: bool):
        self.data = data
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; every route goes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: int | None = None) -> "Tensor":
        return tensor_sum(self, axis)

    def mean(self) -> "Tensor":
        return tensor_mean(self)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)


class Tape:
    """Ordered record of operations for one reverse pass.

    The record holds only the operations whose output needs a gradient,
    and the parameter leaves; ``backward`` may run once per tape.  The
    record outlives ``backward`` and is freed with the tape: freeing it at
    the end of every train step let the allocator return the memory to the
    OS, and faulting it back in made the next step slower.
    """

    def __init__(self) -> None:
        self._ops: list[tuple[Tensor, Sequence[Tensor], Callable]] = []
        self._leaves: list[Tensor] = []
        self._done = False

    def param(self, data) -> Tensor:
        """Bind an array as a differentiable leaf."""
        leaf = Tensor(np.asarray(data, dtype=np.float64), self, True)
        self._leaves.append(leaf)
        return leaf

    def constant(self, data) -> Tensor:
        """Bind an array that never receives a gradient."""
        return Tensor(np.asarray(data, dtype=np.float64), self, False)

    def record(self, out_data: np.ndarray, inputs: Sequence[Tensor], back: Callable) -> Tensor:
        """Create the output tensor of an op and record its backward rule.

        ``back(out_grad, needs)`` must return per-input gradients aligned
        with ``inputs`` (None where ``needs`` is False).  Nothing is
        recorded when no input needs a gradient.
        """
        requires = any(t.requires_grad for t in inputs)
        out = Tensor(out_data, self, requires)
        if requires:
            self._ops.append((out, inputs, back))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of every tensor the loss depends on.

        Leaves the gradient of an unreachable parameter at exactly zero.
        Gradients accumulate in the tensors' ``grad`` slots, so a second
        call on the same tape is rejected rather than counted twice.
        """
        if loss.tape is not self:
            raise ContractError("loss tensor belongs to a different tape")
        if loss.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {loss.shape}")
        if self._done:
            raise ContractError("backward already ran on this tape")
        self._done = True
        loss.grad = np.ones_like(loss.data)
        for out, inputs, back in reversed(self._ops):
            if out.grad is None:
                continue
            needs = tuple(t.requires_grad for t in inputs)
            for t, gin in zip(inputs, back(out.grad, needs)):
                if gin is not None:
                    t.grad = gin if t.grad is None else t.grad + gin
        for leaf in self._leaves:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
        # Record kept: clearing it let glibc unmap it and the next step fault it back (vanilla-mlp p50 +19.5%).


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return like.tape.constant(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data + b.data

    def back(g, needs):
        return (
            _unbroadcast(g, a.data.shape) if needs[0] else None,
            _unbroadcast(g, b.data.shape) if needs[1] else None,
        )

    return a.tape.record(out, (a, b), back)


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data - b.data

    def back(g, needs):
        return (
            _unbroadcast(g, a.data.shape) if needs[0] else None,
            _unbroadcast(-g, b.data.shape) if needs[1] else None,
        )

    return a.tape.record(out, (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g, needs):
        return (-g,)

    return a.tape.record(-a.data, (a,), back)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data * b.data

    def back(g, needs):
        return (
            _unbroadcast(g * b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.data.shape) if needs[1] else None,
        )

    return a.tape.record(out, (a, b), back)


def div(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = a.data / b.data

    def back(g, needs):
        return (
            _unbroadcast(g / b.data, a.data.shape) if needs[0] else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if needs[1] else None,
        )

    return a.tape.record(out, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or batched 3-D x 3-D."""
    if a.data.ndim == 2 and b.data.ndim == 2:
        if a.data.shape[1] != b.data.shape[0]:
            raise DimensionError(f"matmul {a.shape} x {b.shape}")
    elif a.data.ndim == 3 and b.data.ndim == 3:
        if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
            raise DimensionError(f"batched matmul {a.shape} x {b.shape}")
    else:
        raise DimensionError(f"matmul needs 2-D or matching 3-D operands, got {a.shape}, {b.shape}")
    out = a.data @ b.data

    def back(g, needs):
        ga = g @ b.data.swapaxes(-1, -2) if needs[0] else None
        gb = a.data.swapaxes(-1, -2) @ g if needs[1] else None
        return (ga, gb)

    return a.tape.record(out, (a, b), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got {a.shape}")

    def back(g, needs):
        return (np.ascontiguousarray(g.T),)

    return a.tape.record(np.ascontiguousarray(a.data.T), (a,), back)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    in_shape = a.data.shape

    def back(g, needs):
        return (g.reshape(in_shape),)

    return a.tape.record(a.data.reshape(shape), (a,), back)


def sigmoid_temp(x: Tensor, lam: float) -> Tensor:
    """Temperature sigmoid 1 / (1 + exp(-x / lam)); lam -> 0 polarizes."""
    if not lam > 0:
        raise ParameterError(f"temperature must be positive, got {lam}")
    s = expit(x.data / lam)

    def back(g, needs):
        return (g * s * (1.0 - s) / lam,)

    return x.tape.record(s, (x,), back)


def clamp01(x: Tensor) -> Tensor:
    """Hard threshold to [0, 1]; subgradient 0 at the kinks and outside."""
    out = np.clip(x.data, 0.0, 1.0)
    interior = (x.data > 0.0) & (x.data < 1.0)

    def back(g, needs):
        return (g * interior,)

    return x.tape.record(out, (x,), back)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    pos = x.data > 0.0
    out = np.where(pos, x.data, slope * x.data)

    def back(g, needs):
        return (np.where(pos, g, slope * g),)

    return x.tape.record(out, (x,), back)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), evaluated stably."""
    out = np.logaddexp(0.0, x.data)

    def back(g, needs):
        return (g * expit(x.data),)

    return x.tape.record(out, (x,), back)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def back(g, needs):
        return (g * out,)

    return x.tape.record(out, (x,), back)


def log(x: Tensor) -> Tensor:
    def back(g, needs):
        return (g / x.data,)

    return x.tape.record(np.log(x.data), (x,), back)


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def back(g, needs):
        return (g * 0.5 / out,)

    return x.tape.record(out, (x,), back)


def normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF as a differentiable primitive."""
    out = ndtr(x.data)

    def back(g, needs):
        return (g * np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI,)

    return x.tape.record(np.asarray(out, dtype=np.float64), (x,), back)


def tensor_sum(x: Tensor, axis: int | None = None) -> Tensor:
    shape = x.data.shape

    def back(g, needs):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy(),)

    return x.tape.record(np.asarray(x.data.sum(axis=axis)), (x,), back)


def tensor_mean(x: Tensor) -> Tensor:
    n = x.data.size
    out = np.asarray(x.data.mean())
    shape = x.data.shape

    def back(g, needs):
        return (np.broadcast_to(g / n, shape).copy(),)

    return x.tape.record(out, (x,), back)


def _pad_rows(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad each channel of a (B, C, H, W) array into one row.

    Returns a (C, B*(H+2p)*(W+2p) + 2p*(W+2p+1)) array: channel ``c`` of
    image ``b`` lies at ``b*(H+2p)*(W+2p) + (i+p)*(W+2p) + (j+p)``, and the
    trailing zeros let every kernel offset read a full-length window.
    """
    nb, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.zeros((c, nb * hp * wp + 2 * pad * (wp + 1)))
    grid = rows[:, : nb * hp * wp].reshape(c, nb, hp, wp)
    grid[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    return rows


def _correlate_rows(rows: np.ndarray, k: np.ndarray, nb: int, h: int, w: int) -> np.ndarray:
    """Cross-correlate padded channel rows with ``k``; returns (B, C_out, H, W).

    Each kernel offset (di, dj) is one GEMM against the rows shifted by
    ``di*(W+2p) + dj``, a view; the output of pixel (i, j) lands at the
    top-left corner of its window, ``b*(H+2p)*(W+2p) + i*(W+2p) + j``.
    """
    co, _, kh, kw = k.shape
    pad = kh // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    n = nb * hp * wp
    taps = [(di * wp + dj, k[:, :, di, dj]) for di in range(kh) for dj in range(kw)]
    s, kk = taps[0]
    acc = kk @ rows[:, s : s + n]
    term = np.empty_like(acc)
    for s, kk in taps[1:]:
        np.matmul(kk, rows[:, s : s + n], out=term)
        acc += term
    del term  # free before the output copy: lowers the peak by one grid
    grid = acc.reshape(co, nb, hp, wp)[:, :, :h, :w]
    return np.ascontiguousarray(grid.transpose(1, 0, 2, 3))


def conv2d(x: Tensor, k: Tensor) -> Tensor:
    """2-D cross-correlation with zero padding preserving H x W.

    ``x`` is (B, C_in, H, W); ``k`` is (C_out, C_in, kh, kw) with odd
    square spatial size.  Each input channel is zero-padded once into one
    row (:func:`_pad_rows`), and every kernel offset is then a single GEMM
    on a shifted view of those rows.  The input gradient is the same
    correlation of the output gradient with the kernel flipped and its
    channels swapped; the kernel gradient is one GEMM per offset of the
    padded output gradient against the saved rows.
    """
    if k.data.ndim != 4:
        raise DimensionError(f"kernel must be 4-D, got {k.shape}")
    co, ci, kh, kw = k.data.shape
    if kh != kw or kh % 2 == 0:
        raise DimensionError(f"kernel spatial size must be odd square, got {kh}x{kw}")
    if x.data.ndim != 4:
        raise DimensionError(f"input must be 4-D, got {x.shape}")
    nb, c, h, w = x.data.shape
    if c != ci:
        raise DimensionError(f"input has {c} channels, kernel expects {ci}")
    pad = kh // 2
    rows = _pad_rows(x.data, pad)
    out = _correlate_rows(rows, k.data, nb, h, w)

    def back(g, needs):
        grows = _pad_rows(g, pad)
        gx = None
        gk = None
        if needs[0]:
            flipped = k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _correlate_rows(grows, flipped, nb, h, w)
        if needs[1]:
            # Shifted by (p, p), the padded gradient puts g[b, :, i, j] at
            # the top-left corner of window (i, j) and zeros everywhere else.
            wp = w + 2 * pad
            n = nb * (h + 2 * pad) * wp
            g_corner = grows[:, pad * (wp + 1) : pad * (wp + 1) + n]
            gk = np.empty_like(k.data)
            for di in range(kh):
                for dj in range(kw):
                    s = di * wp + dj
                    gk[:, :, di, dj] = g_corner @ rows[:, s : s + n].T
        return (gx, gk)

    return x.tape.record(out, (x, k), back)


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
        gen = rng if rng is not None else np.random.default_rng(0)
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
