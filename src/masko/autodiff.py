"""Tape-based reverse-mode differentiation over dense float64 arrays.

A :class:`Tape` records every differentiable operation applied to the
tensors it owns, in execution order, which is automatically a topological
order.  ``backward`` walks the record once in reverse, accumulating
gradients into a per-node dict and finally into ``Tensor.grad``.

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

    __slots__ = ("data", "grad", "node_id", "tape", "requires_grad")

    def __init__(self, data: np.ndarray, tape: "Tape", node_id: int, requires_grad: bool):
        self.data = data
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.node_id = node_id
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
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"

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
    """Ordered record of operations for one reverse pass."""

    def __init__(self) -> None:
        self._next_id = 0
        self._ops: list[tuple[int, tuple[int, ...], tuple[bool, ...], Callable]] = []
        self._tensors: list[Tensor] = []

    def _new(self, data: np.ndarray, requires_grad: bool) -> Tensor:
        t = Tensor(data, self, self._next_id, requires_grad)
        self._next_id += 1
        self._tensors.append(t)
        return t

    def param(self, data) -> Tensor:
        """Bind an array as a differentiable leaf."""
        return self._new(np.asarray(data, dtype=np.float64), True)

    def constant(self, data) -> Tensor:
        """Bind an array that never receives a gradient."""
        return self._new(np.asarray(data, dtype=np.float64), False)

    def record(self, out_data: np.ndarray, inputs: Sequence[Tensor], back: Callable) -> Tensor:
        """Create the output tensor of an op and record its backward rule.

        ``back(out_grad, needs)`` must return per-input gradients aligned
        with ``inputs`` (None where ``needs`` is False).
        """
        requires = any(t.requires_grad for t in inputs)
        out = self._new(out_data, requires)
        if requires:
            ids = tuple(t.node_id for t in inputs)
            needs = tuple(t.requires_grad for t in inputs)
            self._ops.append((out.node_id, ids, needs, back))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of every tensor the loss depends on.

        Leaves the gradient of an unreachable differentiable tensor at
        exactly zero.  Gradients accumulate across repeated calls.
        """
        if loss.tape is not self:
            raise ContractError("loss tensor belongs to a different tape")
        if loss.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {loss.shape}")
        acc: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
        for out_id, in_ids, needs, back in reversed(self._ops):
            g = acc.get(out_id)
            if g is None:
                continue
            for in_id, gin in zip(in_ids, back(g, needs)):
                if gin is None:
                    continue
                prev = acc.get(in_id)
                acc[in_id] = gin if prev is None else prev + gin
        for t in self._tensors:
            if not t.requires_grad:
                continue
            gin = acc.get(t.node_id)
            if gin is None:
                gin = np.zeros_like(t.data)
            t.grad = gin if t.grad is None else t.grad + gin


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
    if axis is None:
        out = np.asarray(x.data.sum())
        shape = x.data.shape

        def back(g, needs):
            return (np.broadcast_to(g, shape).copy(),)

        return x.tape.record(out, (x,), back)

    out = x.data.sum(axis=axis)
    shape = x.data.shape

    def back_ax(g, needs):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return x.tape.record(out, (x,), back_ax)


def tensor_mean(x: Tensor) -> Tensor:
    n = x.data.size
    out = np.asarray(x.data.mean())
    shape = x.data.shape

    def back(g, needs):
        return (np.broadcast_to(g / n, shape).copy(),)

    return x.tape.record(out, (x,), back)


def conv2d(x: Tensor, k: Tensor, padding: int | None = None) -> Tensor:
    """2-D cross-correlation with zero padding preserving H x W.

    ``x`` is (C_in, H, W) or batched (B, C_in, H, W); ``k`` is
    (C_out, C_in, kh, kw) with odd square spatial size.  Direct
    shift-and-add evaluation; desk-scale images only.
    """
    if k.data.ndim != 4:
        raise DimensionError(f"kernel must be 4-D, got {k.shape}")
    co, ci, kh, kw = k.data.shape
    if kh != kw or kh % 2 == 0:
        raise DimensionError(f"kernel spatial size must be odd square, got {kh}x{kw}")
    pad = kh // 2 if padding is None else padding
    if pad != kh // 2:
        raise DimensionError(f"padding {pad} does not preserve spatial shape for {kh}x{kw} kernel")
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise DimensionError(f"input must be 3-D or 4-D, got {x.shape}")
    if xd.shape[1] != ci:
        raise DimensionError(f"input has {xd.shape[1]} channels, kernel expects {ci}")
    nb, _, h, w = xd.shape
    xpad = np.zeros((nb, ci, h + 2 * pad, w + 2 * pad))
    xpad[:, :, pad : pad + h, pad : pad + w] = xd
    out = np.zeros((nb, co, h, w))
    for di in range(kh):
        for dj in range(kw):
            out += np.einsum(
                "bchw,oc->bohw", xpad[:, :, di : di + h, dj : dj + w], k.data[:, :, di, dj]
            )

    def back(g, needs):
        gb = g[None] if g.ndim == 3 else g
        gx = None
        gk = None
        if needs[0]:
            gxpad = np.zeros_like(xpad)
            for di in range(kh):
                for dj in range(kw):
                    gxpad[:, :, di : di + h, dj : dj + w] += np.einsum(
                        "bohw,oc->bchw", gb, k.data[:, :, di, dj]
                    )
            gx = gxpad[:, :, pad : pad + h, pad : pad + w]
            if squeeze:
                gx = gx[0]
        if needs[1]:
            gk = np.zeros_like(k.data)
            for di in range(kh):
                for dj in range(kw):
                    gk[:, :, di, dj] = np.einsum(
                        "bohw,bchw->oc", gb, xpad[:, :, di : di + h, dj : dj + w]
                    )
        return (gx, gk)

    return x.tape.record(out[0] if squeeze else out, (x, k), back)


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
        out = f(t.param(arr))
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
