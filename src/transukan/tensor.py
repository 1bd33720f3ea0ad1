"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit so finite-difference checks are decisive. Any operation
that produces a NaN/Inf raises immediately instead of letting it propagate,
and the error names the ``scope`` path of the layer it ran in.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class TensorError(Exception):
    """Base class for engine errors.

    ``scope`` is the dotted path of the innermost :func:`scope` the error
    left, or None if it left none.
    """

    scope: str | None = None


class DimensionError(TensorError):
    """Operand shapes are incompatible."""


class NumericsError(TensorError):
    """An operation produced NaN or Inf."""


class StateError(TensorError):
    """Backward-pass state misuse (double backward, empty tape)."""


class ContractError(TensorError):
    """An operation precondition was violated."""


def check_sizes(sizes: dict[str, object], least: int = 1) -> None:
    """Raise a ``ContractError`` naming the first of ``sizes`` that is not an
    int (a bool is not) of at least ``least``."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ContractError(f"{name} must be an int >= {least}, got {value!r}")


_grad_enabled = True
_scope = ""


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


@contextlib.contextmanager
def scope(name: str):
    """Tag every op output made inside the block with the dotted path of the
    open scopes, ``name`` innermost.

    A ``TensorError`` that leaves the block gets that path as its ``scope``
    and as a ``[path]`` prefix of its message, once: outer scopes leave it as
    it is.
    """
    global _scope
    outer = _scope
    _scope = f"{outer}.{name}" if outer else name
    try:
        yield
    except TensorError as exc:
        if exc.scope is None:
            exc.scope = _scope
            exc.args = (f"[{_scope}] {exc}",)
        raise
    finally:
        _scope = outer


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype == np.float64:
        return data
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """n-dimensional float64 array with an optional gradient buffer.

    Gradients accumulate additively across backward passes; ``zero_grad``
    resets. Tensors produced by operations carry closures so a later
    ``backward`` can replay adjoints in reverse topological order, and name
    the ``op`` that made them, its ``flops`` and the ``scope`` it ran in
    (None, 0 and "" on tensors no op made).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran", "op", "flops", "scope")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], tuple] | None = None
        self._backward_ran = False
        self.op: str | None = None
        self.flops = 0
        self.scope = ""

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
        if self.data.size != 1:
            raise ContractError(f"expected scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{op} produced non-finite values")


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], tuple], flops: int) -> Tensor:
    """Output of ``op``, which cost ``flops``: 1 multiply-accumulate = 2,
    one elementwise arithmetic op = 1, data movement = 0."""
    _check_finite(data, op)
    out = Tensor(data)
    out.op, out.flops, out.scope = op, flops, _scope
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

    return _node(data, op, (a, b), backward_fn, flops=data.size)


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
    return _node(x.data * s, "scale", (x,), lambda g: (g * s,), flops=x.size)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def backward_fn(g):
        return (g * mask,)

    return _node(data, "relu", (x,), backward_fn, flops=data.size)


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

    # exp (4), add, divide, multiply
    return _node(data, "silu", (x,), backward_fn, flops=7 * data.size)


def square(x: Tensor) -> Tensor:
    def backward_fn(g):
        return (g * 2.0 * x.data,)

    return _node(x.data * x.data, "square", (x,), backward_fn, flops=x.size)


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

    return _node(data, "matmul", (a, b), backward_fn,
                 flops=2 * data.size * a.shape[-1])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    data = ex / np.sum(ex, axis=axis, keepdims=True)

    def backward_fn(g):
        dot = np.sum(g * data, axis=axis, keepdims=True)
        return (data * (g - dot),)

    # shift, exp (4), accumulate, divide
    return _node(data, "softmax", (x,), backward_fn, flops=7 * data.size)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"log_softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    data = shifted - lse
    probs = np.exp(data)

    def backward_fn(g):
        return (g - probs * np.sum(g, axis=axis, keepdims=True),)

    # shift, exp (4), accumulate, subtract
    return _node(data, "log_softmax", (x,), backward_fn, flops=7 * data.size)


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

    # mean, centered square, normalize, affine
    return _node(data, "layer_norm", (x, gamma, beta), backward_fn,
                 flops=8 * data.size)


# ---------------------------------------------------------------------------
# Convolution and spatial ops
# ---------------------------------------------------------------------------

# Most elements of im2col scratch that one conv2d forward chunk fills (8 MiB).
# On the default model, 2**19 and below made the batch-1 64x64 forward slower,
# and 2**21 raised its peak memory from 9.3 to 14.4 MB.
_IM2COL_BUDGET = 2 ** 20


def _phase_slices(h: int, w: int, stride: int, padding: int):
    """Yield ``(r, q, grid, src)`` for each stride phase (r, q) of an h x w
    input padded by ``padding``: input pixels ``[src]`` land at ``[grid]`` of
    the phase grid, whose cell (y, x) is padded pixel (y s + r, x s + q)."""
    def axis(n, r):
        first = -((r - padding) // stride)  # first cell at or past the pad
        src = slice(first * stride + r - padding, n, stride)
        return slice(first, first + len(range(n)[src])), src

    for r in range(stride):
        gy, sy = axis(h, r)
        for q in range(stride):
            gx, sx = axis(w, q)
            yield r, q, (gy, gx), (sy, sx)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over NCHW input with an OIHW kernel.

    The zero-padded input is stored once per stride phase (r, q) as rows of
    ``xs[r, q]`` (channels x flat b·hq·wq cells, plus a zero tail), so kernel
    tap (i, j) reads one contiguous column slice of phase (i mod s, j mod s)
    at offset (i div s)·wq + j div s. Output cell m of that flat layout is
    output pixel (n, y, x) for m = n·hq·wq + y·wq + x; cells with y >= h_out
    or x >= w_out read wrapped pixels and are dropped. The backward keeps
    only ``xs`` and works tap by tap, with no im2col buffer.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d needs 4-d input and kernel, got {x.shape}, {w.shape}")
    for name, value in (("stride", stride), ("padding", padding)):
        if not isinstance(value, (int, np.integer)):
            raise ContractError(f"conv2d {name} must be an integer, got {value!r}")
    if stride < 1:
        raise ContractError(f"conv2d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ContractError(f"conv2d padding must be >= 0, got {padding}")
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

    s = stride
    hq = -(-(h + 2 * padding) // s)
    wq = -(-(wd + 2 * padding) // s)
    n = b * hq * wq
    tail = (kh - 1) // s * wq + (kw - 1) // s
    taps = [(i, j, i % s, j % s, i // s * wq + j // s)
            for i in range(kh) for j in range(kw)]
    phases = list(_phase_slices(h, wd, s, padding))

    xs = np.zeros((s, s, c, n + tail), dtype=np.float64)
    grid = xs[..., :n].reshape(s, s, c, b, hq, wq)
    xt = x.data.transpose(1, 0, 2, 3)
    for r, q, (gy, gx), (sy, sx) in phases:
        grid[r, q, :, :, gy, gx] = xt[:, :, sy, sx]

    k = c * kh * kw
    w2 = w.data.reshape(o, k)
    full = np.empty((o, n), dtype=np.float64)
    chunks = -(-n // max(1, _IM2COL_BUDGET // k))
    step = -(-n // chunks)  # equal chunks: the scratch is no wider than needed
    cols = np.empty((c, kh, kw, step), dtype=np.float64)
    for m0 in range(0, n, step):
        m = min(step, n - m0)
        for i, j, r, q, off in taps:
            cols[:, i, j, :m] = xs[r, q, :, off + m0:off + m0 + m]
        np.matmul(w2, cols.reshape(k, -1)[:, :m], out=full[:, m0:m0 + m])
    del cols  # before the output is allocated, or it sets the forward's peak
    valid = full.reshape(o, b, hq, wq)[:, :, :h_out, :w_out].transpose(1, 0, 2, 3)
    data = np.empty((b, o, h_out, w_out), dtype=np.float64)
    if bias is not None:
        np.add(valid, bias.data[:, None, None], out=data)
    else:
        data[...] = valid
    parents = (x, w) if bias is None else (x, w, bias)

    def backward_fn(g):
        gfull = np.zeros((o, b, hq, wq), dtype=np.float64)
        gfull[:, :, :h_out, :w_out] = g.transpose(1, 0, 2, 3)
        gfull = gfull.reshape(o, n)
        dw = np.empty(w.shape, dtype=np.float64)
        dxs = np.zeros_like(xs) if x.requires_grad else None
        dtap = np.empty((c, n), dtype=np.float64)
        for i, j, r, q, off in taps:
            dw[:, :, i, j] = gfull @ xs[r, q, :, off:off + n].T
            if dxs is not None:
                np.matmul(w.data[:, :, i, j].T, gfull, out=dtap)
                dxs[r, q, :, off:off + n] += dtap
        dx = None
        if dxs is not None:
            dgrid = dxs[..., :n].reshape(s, s, c, b, hq, wq)
            dx = np.empty(x.shape, dtype=np.float64)
            dxt = dx.transpose(1, 0, 2, 3)
            for r, q, (gy, gx), (sy, sx) in phases:
                dxt[:, :, sy, sx] = dgrid[r, q, :, :, gy, gx]
        if bias is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    # The bias add rides in the multiply-accumulates.
    return _node(data, "conv2d", parents, backward_fn, flops=2 * data.size * k)


def upsample_nearest_2x(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise DimensionError(f"upsample_nearest_2x needs 4-d input, got {x.shape}")
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)
    b, c, h, w = x.shape

    def backward_fn(g):
        return (g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _node(data, "upsample_nearest_2x", (x,), backward_fn, flops=0)


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

    return _node(data, "mean_last_axis", (x,), backward_fn, flops=x.size)


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

    # Per basis element: 2 subs, 2 hinges, product, square, scale, pool.
    return _node(data, "hinge_pool", (x,), backward_fn, flops=8 * x.size * lo.size)


def sum_all(x: Tensor) -> Tensor:
    def backward_fn(g):
        return (np.broadcast_to(g, x.shape),)

    return _node(np.sum(x.data), "sum_all", (x,), backward_fn, flops=x.size)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from exc

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _node(data, "reshape", (x,), backward_fn, flops=0)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for rank {x.ndim}")
    inv = np.argsort(axes)

    def backward_fn(g):
        return (g.transpose(inv),)

    return _node(x.data.transpose(axes), "transpose", (x,), backward_fn, flops=0)


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

    return _node(data, "concat", tuple(tensors), backward_fn, flops=0)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """``x[..., start:stop, ...]`` on ``axis``; bounds are not wrapped or clamped."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"slice_axis axis {axis} invalid for shape {x.shape}")
    axis %= x.ndim
    if not 0 <= start < stop <= x.shape[axis]:
        raise DimensionError(f"slice_axis bounds [{start}, {stop}) invalid for "
                             f"axis {axis} of shape {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward_fn(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _node(x.data[index], "slice_axis", (x,), backward_fn, flops=0)


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
               sample_largest: bool = False) -> GradCheckReport:
    """Compare the autodiff gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Relative error uses a ``max(|a|, |b|, 1e-8)`` denominator per coordinate.
    ``sample`` limits the check to that many coordinates, drawn by
    ``default_rng(0)``, which keeps whole-model checks tractable. With
    ``sample_largest`` the sampled coordinates are the ones with the largest
    analytic gradient; coordinates
    whose gradient sits at the float64 cancellation floor of the objective
    carry no finite-difference signal at small h, so deep composites are
    checked where the comparison is actually informative.
    """
    if h <= 0:
        raise ContractError("grad_check step h must be positive")
    if sample is not None:
        check_sizes({"grad_check sample": sample})
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
            indices = np.random.default_rng(0).choice(flat.size, size=sample,
                                                      replace=False)
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
