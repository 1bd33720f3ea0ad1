"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit so finite-difference checks are decisive. Any operation
that produces a NaN/Inf raises immediately instead of letting it propagate.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class TensorError(Exception):
    """Base class for engine errors."""


class DimensionError(TensorError):
    """Operand shapes are incompatible."""


class NumericsError(TensorError):
    """An operation produced NaN or Inf."""


class StateError(TensorError):
    """Backward-pass state misuse (double backward, empty tape)."""


class ContractError(TensorError):
    """An operation precondition was violated."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype == np.float64:
        return data
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """n-dimensional float64 array with an optional gradient buffer.

    Gradients accumulate additively across backward passes; ``zero_grad``
    resets. Tensors produced by operations carry closures so a later
    ``backward`` can replay adjoints in reverse topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], tuple] | None = None
        self._backward_ran = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        backward(self)

    # Operator sugar; the module-level functions are the real API.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _scalar_err(t: Tensor):
    raise ContractError(f"expected scalar tensor, got shape {t.shape}")


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{op} produced non-finite values")


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Tape and backward
# ---------------------------------------------------------------------------

class Tape:
    """Topologically ordered record of the operations below a root tensor.

    Every node's inputs precede it; replaying adjoints over ``reversed(nodes)``
    visits each recorded node exactly once.
    """

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.nodes = order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` of every tensor the scalar ``loss`` depends on."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward_ran:
        raise StateError("backward already ran for this graph; rebuild the "
                         "forward pass to run it again")
    if loss._backward_fn is None:
        raise StateError("loss records no operations (empty tape)")
    tape = Tape(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        fn = node._backward_fn
        if fn is None or node.grad is None:
            continue
        for parent, pgrad in zip(node._parents, fn(node.grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(pgrad, dtype=np.float64, copy=True)
            else:
                parent.grad += pgrad
    loss._backward_ran = True


# ---------------------------------------------------------------------------
# Binary / unary elementwise operations
# ---------------------------------------------------------------------------

def _broadcast_op(a: Tensor, b: Tensor, op: str, fwd, bwd) -> Tensor:
    try:
        with np.errstate(all="ignore"):  # non-finite output raises below anyway
            data = fwd(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc
    ga, gb = bwd

    def backward_fn(g):
        return (_unbroadcast(ga(g, a.data, b.data), a.shape),
                _unbroadcast(gb(g, a.data, b.data), b.shape))

    return _node(data, op, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op(a, b, "add", np.add,
                         (lambda g, x, y: g, lambda g, x, y: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op(a, b, "sub", np.subtract,
                         (lambda g, x, y: g, lambda g, x, y: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op(a, b, "mul", np.multiply,
                         (lambda g, x, y: g * y, lambda g, x, y: g * x))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op(a, b, "div", np.divide,
                         (lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _node(x.data * s, "scale", (x,), lambda g: (g * s,))


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def backward_fn(g):
        return (g * mask,)

    return _node(data, "relu", (x,), backward_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    data = x.data * sig

    def backward_fn(g):
        return (g * sig * (1.0 + x.data * (1.0 - sig)),)

    return _node(data, "silu", (x,), backward_fn)


def square(x: Tensor) -> Tensor:
    def backward_fn(g):
        return (g * 2.0 * x.data,)

    return _node(x.data * x.data, "square", (x,), backward_fn)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"matmul batch dims not broadcastable: {a.shape} x {b.shape}") from exc

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _node(data, "matmul", (a, b), backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    data = ex / np.sum(ex, axis=axis, keepdims=True)

    def backward_fn(g):
        dot = np.sum(g * data, axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _node(data, "softmax", (x,), backward_fn)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"log_softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    data = shifted - lse
    probs = np.exp(data)

    def backward_fn(g):
        return (g - probs * np.sum(g, axis=axis, keepdims=True),)

    return _node(data, "log_softmax", (x,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm params must have shape ({d},), got "
                             f"{gamma.shape} and {beta.shape}")
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    mean = np.mean(x.data, axis=-1, keepdims=True)
    centered = x.data - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = gamma.data * xhat + beta.data

    def backward_fn(g):
        dxhat = g * gamma.data
        dx = inv_std * (dxhat
                        - np.mean(dxhat, axis=-1, keepdims=True)
                        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return (dx, np.sum(g * xhat, axis=axes), np.sum(g, axis=axes))

    return _node(data, "layer_norm", (x, gamma, beta), backward_fn)


# ---------------------------------------------------------------------------
# Convolution and spatial ops
# ---------------------------------------------------------------------------

def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int,
            h_out: int, w_out: int) -> np.ndarray:
    b, c = xp.shape[:2]
    cols = np.empty((b, c, kh, kw, h_out, w_out), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * h_out:stride,
                                  j:j + stride * w_out:stride]
    return cols.reshape(b, c * kh * kw, h_out * w_out)


def _col2im(dcols: np.ndarray, xp_shape, kh: int, kw: int, stride: int,
            h_out: int, w_out: int) -> np.ndarray:
    b, c = xp_shape[:2]
    dxp = np.zeros(xp_shape, dtype=np.float64)
    dcols = dcols.reshape(b, c, kh, kw, h_out, w_out)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * h_out:stride,
                j:j + stride * w_out:stride] += dcols[:, :, i, j]
    return dxp


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over NCHW input with an OIHW kernel."""
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d needs 4-d input and kernel, got {x.shape}, {w.shape}")
    if stride < 1:
        raise ContractError("conv2d stride must be >= 1")
    b, c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    if ci != c:
        raise DimensionError(f"conv2d channel mismatch: input {c}, kernel expects {ci}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise DimensionError(f"conv2d kernel {kh}x{kw} larger than padded input "
                             f"{h + 2 * padding}x{wd + 2 * padding}")
    if bias is not None and bias.shape != (o,):
        raise DimensionError(f"conv2d bias must have shape ({o},), got {bias.shape}")

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    cols = _im2col(xp, kh, kw, stride, h_out, w_out)
    w2 = w.data.reshape(o, c * kh * kw)
    out = np.matmul(w2, cols)
    if bias is not None:
        out += bias.data[:, None]
    data = out.reshape(b, o, h_out, w_out)
    parents = (x, w) if bias is None else (x, w, bias)

    def backward_fn(g):
        g2 = g.reshape(b, o, h_out * w_out)
        dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        dcols = np.matmul(w2.T, g2)
        dxp = _col2im(dcols, xp.shape, kh, kw, stride, h_out, w_out)
        dx = dxp[:, :, padding:padding + h, padding:padding + wd] if padding else dxp
        if bias is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return _node(data, "conv2d", parents, backward_fn)


def upsample_nearest_2x(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise DimensionError(f"upsample_nearest_2x needs 4-d input, got {x.shape}")
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)
    b, c, h, w = x.shape

    def backward_fn(g):
        return (g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _node(data, "upsample_nearest_2x", (x,), backward_fn)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------

def mean_last_axis(x: Tensor) -> Tensor:
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"mean_last_axis needs a non-empty last axis, got {x.shape}")
    k = x.shape[-1]
    data = np.mean(x.data, axis=-1)

    def backward_fn(g):
        return (np.broadcast_to(g[..., None] / k, x.shape),)

    return _node(data, "mean_last_axis", (x,), backward_fn)


def hinge_pool(x: Tensor, lo, hi) -> Tensor:
    """Mean over i of the squared-hinge bells 16 [relu(hi_i - x) relu(x - lo_i)]^2
    / (hi_i - lo_i)^4, elementwise in x.

    Equal bit for bit to pooling the expanded basis with ``mean_last_axis``,
    but only x is retained: the backward recomputes the hinges.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
        raise ContractError(f"hinge_pool needs 1-d supports of one non-zero "
                            f"length, got lo {lo.shape} and hi {hi.shape}")
    if not np.all(hi > lo):
        raise ContractError("hinge_pool needs hi > lo for every support")
    norm = 16.0 / (hi - lo) ** 4
    xe = x.data[..., None]

    def hinges():
        a = hi - xe
        np.maximum(a, 0.0, out=a)
        b = xe - lo
        np.maximum(b, 0.0, out=b)
        return a, b

    with np.errstate(all="ignore"):  # a non-finite x raises in _node
        a, b = hinges()
        a *= b
        a *= a
        a *= norm
        data = np.mean(a, axis=-1)

    def backward_fn(g):
        # d/dx of norm_i (a b)^2 / n is 2 c_i a b (a - b), c_i = norm_i / n.
        a, b = hinges()
        slope = a - b
        slope *= a
        slope *= b
        return (g * np.matmul(slope, 2.0 * norm / lo.size),)

    return _node(data, "hinge_pool", (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    def backward_fn(g):
        return (np.broadcast_to(g, x.shape),)

    return _node(np.sum(x.data), "sum_all", (x,), backward_fn)


def sum_axes(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(a % x.ndim for a in axes)
    data = np.sum(x.data, axis=axes)

    def backward_fn(g):
        expanded = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(expanded, x.shape),)

    return _node(data, "sum_axes", (x,), backward_fn)


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.size)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from exc

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _node(data, "reshape", (x,), backward_fn)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for rank {x.ndim}")
    inv = np.argsort(axes)

    def backward_fn(g):
        return (g.transpose(inv),)

    return _node(x.data.transpose(axes), "transpose", (x,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError("concat shapes incompatible: "
                             + ", ".join(str(t.shape) for t in tensors)) from exc
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, "concat", tuple(tensors), backward_fn)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % x.ndim
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward_fn(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _node(x.data[index], "slice_axis", (x,), backward_fn)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    ok: bool
    n_checked: int


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               tol: float = 1e-5, sample: int | None = None,
               rng: np.random.Generator | None = None,
               sample_largest: bool = False) -> GradCheckReport:
    """Compare the autodiff gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Relative error uses a ``max(|a|, |b|, 1e-8)`` denominator per coordinate.
    ``sample`` limits the check to that many coordinates, which keeps
    whole-model checks tractable. With ``sample_largest`` the sampled
    coordinates are the ones with the largest analytic gradient; coordinates
    whose gradient sits at the float64 cancellation floor of the objective
    carry no finite-difference signal at small h, so deep composites are
    checked where the comparison is actually informative.
    """
    if h <= 0:
        raise ContractError("grad_check step h must be positive")
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if out.size != 1:
        raise ContractError("grad_check target must return a scalar")
    backward(out)
    if x.grad is None:
        raise StateError("f does not depend on x (no gradient recorded)")
    analytic = x.grad.reshape(-1).copy()

    flat = x.data.reshape(-1)
    indices = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        if sample_largest:
            indices = np.argsort(-np.abs(analytic))[:sample]
        else:
            indices = (rng or np.random.default_rng(0)).choice(
                flat.size, size=sample, replace=False)
    max_rel = 0.0
    with no_grad():
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + h
            fplus = f(x).item()
            flat[idx] = orig - h
            fminus = f(x).item()
            flat[idx] = orig
            if not (np.isfinite(fplus) and np.isfinite(fminus)):
                raise NumericsError("grad_check objective returned non-finite value")
            fd = (fplus - fminus) / (2.0 * h)
            denom = max(abs(fd), abs(analytic[idx]), 1e-8)
            max_rel = max(max_rel, abs(fd - analytic[idx]) / denom)
    return GradCheckReport(max_rel_err=max_rel, ok=max_rel < tol,
                           n_checked=len(indices))
