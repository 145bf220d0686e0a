"""Tape-based reverse-mode differentiation over dense float64 arrays.

A :class:`Tape` records each operation whose output needs a gradient as
an ``(out, inputs, back)`` triple, in execution order, which is
automatically a topological order.  ``backward`` walks the record once in
reverse, accumulating each gradient into the ``grad`` slot of the tensor
it belongs to; a tape runs ``backward`` once.  An operation on constants
only records nothing, so a forward pass over constants keeps no tensor
alive beyond its last use.  A two-output op is two records made before
any consumer, so the later one's rule runs first and finds the other's
gradient final; ``samplers._hypernet_head`` is one, recomputing in backward.
Memory-bound elementwise work is folded into the op that makes the array:
``matmul`` adds an optional bias column to its GEMM output in place, and
``clamp01`` applies an affine map before it clamps, so a dense layer's
``W x + b`` and the stretched hard threshold are one record each.
``conv2d`` is a whole convolutional layer over (C, B, H, W) activations:
its bias, leaky ReLU and skip add run in the epilogue of the correlation's
row panels instead of as ops of their own, and every kernel offset adds
its GEMM into those panels inside BLAS, one code path at every layer
width.  Its output, and its input gradient, is a strided view of a buffer
of zero-halo padded pixel-major rows (a pixel's C channels side by side),
which the next layer (or the backward) reads in place once it has checked
that the halo is all zero.

Design constraints: 64-bit floats everywhere, first-order gradients only,
a scalar loss root, and single-threaded use of any one tape.  Parameters
live outside the tape as plain numpy arrays; a training step binds them as
leaf tensors, runs forward/backward, reads the leaf gradients and discards
the tape.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy._core import _multiarray_umath

from .errors import ContractError, DimensionError, ParameterError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
PANEL = 2560  # padded rows per conv2d panel, sized for a 2 MiB L2 (CHANGES.md)


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

    # Operator sugar.  Each operator looks its op up in the module namespace
    # at call time, so that perfbench's tracer, which wraps those names, sees it.
    def __add__(self, other):
        return add(self, other)

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

    def sum(self, axis: int | None = None) -> "Tensor":
        return tensor_sum(self, axis)

    def mean(self) -> "Tensor":
        return tensor_mean(self)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)


class Tape:
    """Ordered record of operations for one reverse pass.

    The record holds only the operations whose output needs a gradient,
    and the parameter leaves; ``backward`` may run once per tape.  Record
    and tensors refer to each other, so the next tape's ``backward`` drops
    the record, a step late: with that step's arrays above it in the heap,
    the allocator reuses the memory rather than return it to the OS.
    """

    _finished: "Tape | None" = None  # the last tape whose backward ran

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
                    t.grad = gin if t.grad is None else _sum_grads(t.grad, gin)
        for leaf in self._leaves:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
        last, Tape._finished = Tape._finished, self
        if last is not None:
            last._ops.clear()
            last._leaves.clear()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(ufunc: np.ufunc, grad_a: Callable, grad_b: Callable) -> Callable:
    """The op ``ufunc(a, b)`` with numpy broadcasting, whose backward sums
    ``grad_x(g, a, b)`` down to each needed operand's shape.  A number or
    array operand is bound as a constant on the other's tape.  The rules are
    built once, so a call makes only its ``back`` closure."""

    def op(a, b) -> Tensor:
        if not isinstance(a, Tensor):
            a = b.tape.constant(a)
        elif not isinstance(b, Tensor):
            b = a.tape.constant(b)

        def back(g, needs):
            return (
                _unbroadcast(grad_a(g, a.data, b.data), a.data.shape) if needs[0] else None,
                _unbroadcast(grad_b(g, a.data, b.data), b.data.shape) if needs[1] else None,
            )

        return a.tape.record(ufunc(a.data, b.data), (a, b), back)

    return op


add = _binary(np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary(np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))


def neg(a: Tensor) -> Tensor:
    def back(g, needs):
        return (-g,)

    return a.tape.record(-a.data, (a,), back)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product of two 2-D tensors, plus an optional (m,) ``bias``
    added to every column of the (m, n) product.

    The bias is added in place to the GEMM output, so ``a @ b + bias`` is
    one record where ``matmul``, ``reshape`` and ``add`` made three; its
    gradient sums the output gradient along each row, as ``_unbroadcast``
    sums that of a broadcast (m, 1) column.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul needs (m, k) x (k, n) operands, got {a.shape} x {b.shape}")
    if bias is not None and bias.data.shape != a.data.shape[:1]:
        raise DimensionError(f"bias must be ({a.data.shape[0]},), got {bias.shape}")
    out = a.data @ b.data
    inputs = (a, b)
    if bias is not None:
        out += bias.data[:, None]
        inputs += (bias,)

    def back(g, needs):
        grads = (g @ b.data.T if needs[0] else None, a.data.T @ g if needs[1] else None)
        if bias is not None:
            grads += (g.sum(axis=1, keepdims=True).reshape(bias.data.shape) if needs[2] else None,)
        return grads

    return a.tape.record(out, inputs, back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got {a.shape}")

    def back(g, needs):
        # A copy: numpy sums in memory order, so a transposed gradient
        # would change the bits of _unbroadcast's sums downstream.
        return (np.ascontiguousarray(g.T),)

    return a.tape.record(a.data.T, (a,), back)


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
    s = _expit(x.data, lam)

    def back(g, needs):
        t = g * s
        t *= 1.0 - s
        t /= lam
        return (t,)

    return x.tape.record(s, (x,), back)


def clamp01(x: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """Hard threshold of ``x*scale + shift`` to [0, 1]; subgradient 0 at the
    kinks and outside.

    One pass and one record for what ``mul``, ``add`` and a bare clamp
    make three of, with their per-element operations in the same order, so
    the output and the gradient match that chain bit for bit.  The affine
    map always runs, so with the defaults a -0.0 input comes out +0.0.
    """
    t = x.data * scale
    t += shift
    interior = (t > 0.0) & (t < 1.0)
    out = np.clip(t, 0.0, 1.0, out=t)

    def back(g, needs):
        t = g * interior
        t *= scale
        return (t,)

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
        return (g * _expit(x.data),)

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


# Cephes' ndtr (Moshier) as scipy.special runs it: erf's T/U where |x|/sqrt(2) < 1,
# else erfc's P/Q below 8 and R/S from 8, and 0 once (x/sqrt(2))^2 > _MAXLOG.  Each
# tuple is one Horner row from its leading coefficient; a denominator's lead is 1.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _ratio(x: np.ndarray, scale: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """(scale * num(x)) / den(x), each polynomial by Horner's rule from its
    leading coefficient, as Cephes' polevl and p1evl round it."""
    p, q = x * num[0], x * den[0]
    for acc, coef in ((p, num), (q, den)):
        for c in coef[1:-1]:
            acc += c
            acc *= x
        acc += coef[-1]
    p *= scale
    p /= q
    return p


def _ndtr(x: np.ndarray) -> np.ndarray:
    """scipy.special.ndtr in numpy: Cephes' branches and order of rounding, on
    numpy's exp, whose last bit differs from the C library's for some inputs."""
    flat = np.reshape(x, -1)
    out = np.abs(flat)
    out *= _SQRT1_2
    near = out < 1.0  # 0.5 + erf(x / sqrt(2)) / 2
    s = flat[near] * _SQRT1_2
    out[near] = 0.5 + 0.5 * _ratio(s * s, s, _T, _U)
    far = ~near  # erfc(|x| / sqrt(2)) / 2, or 1 minus that for x > 0; NaN too
    w = np.minimum(out[far], 27.0)  # 27^2 > _MAXLOG, past which erfc is 0
    e = np.exp(-(w * w))
    t = _ratio(w, e, _P, _Q)
    tail = w >= 8.0
    t[tail] = np.where(w[tail] ** 2 > _MAXLOG, 0.0, _ratio(w[tail], e[tail], _R, _S))
    out[far] = 0.5 * t
    far &= flat > 0.0
    return np.subtract(1.0, out, out=out, where=far).reshape(np.shape(x))


def _expit(x: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """scipy.special.expit(x / lam) = 1 / (1 + exp(-x / lam)), in one buffer."""
    t = np.divide(x, -lam, out=np.empty(np.shape(x)))
    t[t > _MAXLOG] = np.inf  # exp overflows there; exp(inf) gives 0 with no warning
    np.exp(t, out=t)
    return np.divide(1.0, np.add(t, 1.0, out=t), out=t)


def normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF as a differentiable primitive."""

    def back(g, needs):
        # g * exp(-0.5 * x * x) / sqrt(2 pi) in one buffer, rounded in that order.
        t = np.multiply(x.data, -0.5)
        t *= x.data
        np.exp(t, out=t)
        t *= g
        t *= _INV_SQRT_2PI
        return (t,)

    return x.tape.record(_ndtr(x.data), (x,), back)


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


def _interior(rows: np.ndarray, nb: int, h: int, w: int, pad: int) -> np.ndarray:
    """The (C, B, H, W) view of the pixels inside a padded-row buffer's halo."""
    hp, wp = h + 2 * pad, w + 2 * pad
    grid = rows[: nb * hp * wp].reshape(nb, hp, wp, rows.shape[1])
    return grid[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)


def _halo(rows: np.ndarray, nb: int, h: int, w: int, pad: int) -> Iterable[np.ndarray]:
    """Views covering every element of a padded-row buffer outside its interior."""
    hp, wp = h + 2 * pad, w + 2 * pad
    n = nb * hp * wp
    grid = rows[:n].reshape(nb, hp, wp, rows.shape[1])
    band = grid[:, pad : pad + h]
    yield grid[:, :pad]
    yield grid[:, pad + h :]
    yield band[:, :, :pad]
    yield band[:, :, pad + w :]
    yield rows[n:]


def _resident_rows(x: np.ndarray, pad: int) -> np.ndarray | None:
    """The buffer of :func:`_pad_rows` layout that ``x`` is the interior view of, or None."""
    c, nb, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = x.base
    if (
        isinstance(rows, np.ndarray)
        and rows.shape == (nb * hp * wp + 2 * pad * (wp + 1), c)
        and rows.dtype == x.dtype == np.float64
        and rows.flags.c_contiguous
        and x.strides == (8, hp * wp * c * 8, wp * c * 8, c * 8)
        and x.ctypes.data == rows.ctypes.data + 8 * c * pad * (wp + 1)
    ):
        return rows
    return None


def _sum_grads(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``; two interior views at the same place of :func:`_pad_rows`
    buffers (a conv_resnet block input's gradients) add as whole buffers,
    so the sum is such a view too and the next conv2d reads it in place."""
    if a.ndim == 4 and a.shape == b.shape and a.size:
        pad = (a.strides[2] // (8 * a.shape[0]) - a.shape[3]) // 2
        ra, rb = _resident_rows(a, pad), _resident_rows(b, pad)
        if ra is not None and rb is not None:
            return _interior(ra + rb, *a.shape[1:], pad)
    return a + b


def _pad_rows(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-padded pixel-major rows of a (C, B, H, W) array.

    Returns a (B*(H+2p)*(W+2p) + 2p*(W+2p+1), C) array: the C channels of
    pixel (i, j) of image ``b`` are row ``b*(H+2p)*(W+2p) + (i+p)*(W+2p) +
    (j+p)``, and every other row (the halo, which includes the trailing
    rows that let every kernel offset read a full-length window) is +0.0.
    When ``x`` is the interior view of exactly such a buffer, as every
    ``conv2d`` output and input gradient is, that buffer is returned with
    no copy, but only after checking that its halo is all +0.0 bits;
    anything else is copied into a new zeroed buffer.
    """
    c, nb, h, w = x.shape
    rows = _resident_rows(x, pad)
    if rows is not None and not any(v.view(np.int64).any() for v in _halo(rows, nb, h, w, pad)):
        return rows
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.zeros((nb * hp * wp + 2 * pad * (wp + 1), c))
    _interior(rows, nb, h, w, pad)[...] = x
    return rows


@functools.cache
def _blas_dgemm() -> Callable | None:
    """The Fortran ``dgemm`` of the OpenBLAS that numpy's wheel bundles, with
    64-bit integer arguments, or None where numpy's build exports none (one
    linked to MKL or a system BLAS).  Looked up through numpy's own extension,
    whose dependencies dlsym also searches, so no path is assumed.  It has
    no ``argtypes``: callers pass only ctypes objects (byref scalars and
    ``c_void_p`` addresses), and the per-call conversion that ``argtypes``
    adds doubled the cost of a call, of which a conv2d step makes ~650."""
    try:
        gemm = ctypes.CDLL(_multiarray_umath.__file__).scipy_dgemm_64_
    except (AttributeError, OSError):
        return None
    gemm.restype = None
    return gemm


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
    """Cross-correlate padded rows with ``k`` into padded output rows.

    Pixel (i, j)'s output sums, over kernel offsets (di, dj), the (C_out,
    C_in) tap times the row ``di*(W+2p) + dj`` after the pixel's window
    corner, and is written ``p*(W+2p+1)`` rows further on, its place in
    the :func:`_pad_rows` layout.  In that layout an offset's window over
    a panel of :data:`PANEL` rows, and the output panel, are contiguous
    blocks, so each offset adds its GEMM into the panel inside BLAS:
    :func:`_blas_dgemm` with beta 0 for the first offset and 1 after it,
    at every layer width.  Where numpy's build has no such symbol, numpy's
    ``matmul`` writes each offset's product and the panel adds it.  Each
    panel's epilogue adds ``bias``, takes the leaky ReLU as
    ``max(v, slope*v)`` (the bits of ``where(v > 0, v, slope*v)`` for
    0 < slope < 1) and adds the ``skip`` rows; the halo is zeroed last.
    Measurements: CHANGES.md.
    """
    co, ci, kh, kw = k.shape
    pad = kh // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    n = nb * hp * wp
    lead = pad * (wp + 1)
    shifts = [di * wp + dj for di in range(kh) for dj in range(kw)]
    taps = [np.asfortranarray(k[:, :, di, dj], dtype=np.float64) for di in range(kh) for dj in range(kw)]
    out = np.empty((n + 2 * lead, co))
    scratch = np.empty((min(PANEL, n), co))
    if bias is not None:
        bias_rows = np.tile(bias, (min(PANEL, n), 1))
    # BLAS reads these buffers through raw pointers, which have no bounds check.
    want = (n + 2 * lead, ci)
    rows_ok = rows.shape == want and rows.dtype == np.float64 and rows.flags.c_contiguous
    taps_ok = all(t.flags.f_contiguous and t.shape == (co, ci) for t in taps)
    if not (rows_ok and taps_ok and out.flags.c_contiguous):
        raise ContractError(f"conv2d needs C-contiguous float64 rows {want}, got {rows.dtype} {rows.shape}")
    gemm = _blas_dgemm()
    if gemm is not None:
        # Column-major 'N', 'N': the (C_out, rows) panel from the (C_out,
        # C_in) tap and the (C_in, rows) window, each of which is contiguous.
        byref, i64, width = ctypes.byref, ctypes.c_int64, ctypes.c_int64()
        dims = (b"N", b"N", byref(i64(co)), byref(width), byref(i64(ci)), byref(ctypes.c_double(1.0)))
        ld_co, ld_ci = byref(i64(max(co, 1))), byref(i64(max(ci, 1)))
        betas = [byref(ctypes.c_double(float(s > 0))) for s in shifts]
        tap_ptrs = [ctypes.c_void_p(t.ctypes.data) for t in taps]
        rows_at, out_at = rows.ctypes.data, out.ctypes.data + 8 * co * lead
    for a in range(0, n, PANEL):
        b = min(a + PANEL, n)
        panel, term = out[lead + a : lead + b], scratch[: b - a]
        if gemm is None:
            np.matmul(rows[a:b], taps[0].T, out=panel)
            for s, kk in zip(shifts[1:], taps[1:]):
                np.matmul(rows[s + a : s + b], kk.T, out=term)
                panel += term
        else:
            width.value = b - a
            panel_ptr = ctypes.c_void_p(out_at + 8 * co * a)
            for s, kk, beta in zip(shifts, tap_ptrs, betas):
                window_ptr = ctypes.c_void_p(rows_at + 8 * ci * (s + a))
                gemm(*dims, kk, ld_co, window_ptr, ld_ci, beta, panel_ptr, ld_co)
        if bias is not None:
            panel += bias_rows[: b - a]
        if slope is not None:
            np.multiply(panel, slope, out=term)
            np.maximum(panel, term, out=panel)
        if skip is not None:
            panel += skip[lead + a : lead + b]
    for v in _halo(out, nb, h, w, pad):
        v[...] = 0.0
    return out


def conv2d(
    x: Tensor,
    k: Tensor,
    bias: Tensor | None = None,
    *,
    slope: float | None = None,
    skip: Tensor | None = None,
) -> Tensor:
    """One convolutional layer: ``skip + leaky(conv(x, k) + bias)``.

    ``x`` is (C_in, B, H, W) and the result (C_out, B, H, W).  ``k`` is
    (C_out, C_in, kh, kw) with odd square spatial size, and the 2-D
    cross-correlation is zero-padded to keep H x W.  ``bias`` is a (C_out,)
    tensor, ``slope`` the leaky ReLU's negative slope in (0, 1), and
    ``skip`` a tensor shaped like the result; each is optional, and
    ``slope`` and ``skip`` do not combine.

    The result is a strided view of the pixel-major padded rows that
    :func:`_correlate_rows` fills, so the next layer, and the backward its
    gradient, reads them in place once :func:`_pad_rows` has checked their
    halo.  The backward rebuilds the leaky mask as ``out > 0``, which is
    exact because no skip is added after a leaky ReLU; the input gradient
    is the same correlation with the kernel flipped and its channels
    swapped, and the kernel gradient adds up each offset's products over
    :data:`PANEL` rows at a time, which stay in cache.  Every layer width
    runs this one path.  Measurements: CHANGES.md.
    """
    if k.data.ndim != 4:
        raise DimensionError(f"kernel must be 4-D, got {k.shape}")
    co, ci, kh, kw = k.data.shape
    if kh != kw or kh % 2 == 0:
        raise DimensionError(f"kernel spatial size must be odd square, got {kh}x{kw}")
    if x.data.ndim != 4:
        raise DimensionError(f"input must be 4-D, got {x.shape}")
    c, nb, h, w = x.data.shape
    if c != ci:
        raise DimensionError(f"input has {c} channels, kernel expects {ci}")
    if bias is not None and bias.data.shape != (co,):
        raise DimensionError(f"bias must be ({co},), got {bias.shape}")
    if slope is not None:
        if skip is not None:
            raise ContractError("conv2d takes a slope or a skip, not both")
        if not 0.0 < slope < 1.0:
            raise ParameterError(f"leaky slope must lie in (0, 1), got {slope}")
    if skip is not None and skip.data.shape != (co, nb, h, w):
        raise DimensionError(f"skip must be {(co, nb, h, w)}, got {skip.shape}")
    pad = kh // 2
    rows = _pad_rows(x.data, pad)
    skip_rows = None
    if skip is not None:
        # Its halo columns are only ever added to the output's halo, which
        # is zeroed after, so a resident skip's halo needs no check.
        skip_rows = _resident_rows(skip.data, pad)
        if skip_rows is None:
            skip_rows = _pad_rows(skip.data, pad)
    bias_row = None if bias is None else bias.data
    out_rows = _correlate_rows(rows, k.data, nb, h, w, bias_row, slope, skip_rows)
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
        if needs[0]:
            flipped = k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _interior(_correlate_rows(grows, flipped, nb, h, w), nb, h, w, pad)
        gk = None
        if needs[1]:
            # Shifted by (p, p), the padded gradient puts g[:, b, i, j] at the
            # top-left corner of window (i, j) and zeros everywhere else.
            g_corner = grows[pad * (wp + 1) : pad * (wp + 1) + n]
            gk = np.zeros_like(k.data)
            for a in range(0, n, PANEL):
                b = min(a + PANEL, n)
                for di in range(kh):
                    for dj in range(kw):
                        s = di * wp + dj
                        gk[:, :, di, dj] += g_corner[a:b].T @ rows[s + a : s + b]
        grads = [gx, gk]
        if bias is not None:
            if needs[2]:
                # Over the batch, one image after another, then over the
                # interior's rows, and then over its columns as contiguous
                # rows: numpy's order for a broadcast (C, 1, 1, 1) bias.
                per_pixel = grows[:n].reshape(nb, hp, wp, -1).sum(axis=0)
                per_row = per_pixel[pad : pad + h, pad : pad + w].sum(axis=0)
                grads.append(np.ascontiguousarray(per_row.T).sum(axis=1))
            else:
                grads.append(None)
        if skip is not None:
            grads.append(g if needs[-1] else None)
        return grads

    return x.tape.record(_interior(out_rows, nb, h, w, pad), inputs, back)
