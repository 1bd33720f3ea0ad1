"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit so finite-difference checks are decisive. Any operation
that produces a NaN/Inf raises immediately instead of letting it propagate,
and the error names the ``scope`` path of the layer it ran in.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Allocator policy. A training step frees tens of MB of activations and
# scratch. By default glibc returns the top of its heap to the system once
# more than its trim threshold lies free there, and that threshold follows
# twice the largest freed mmapped block (~16 MiB for the 8 MiB im2col chunks),
# so the next step faults the same memory in again: thousands of minor faults
# per step. Pinning both thresholds at the ceilings of glibc's own dynamic
# rule on 64-bit (mmap 32 MiB, trim 64 MiB) keeps a step's freed heap mapped
# for the next one. The cost is resident memory: up to 64 MiB of freed heap
# stays mapped, and blocks below 32 MiB come from the heap, not from mappings
# of their own. Where mallopt is missing (not glibc), nothing changes.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # the codes of glibc's <malloc.h>


def _keep_freed_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


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


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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

    Gradients of leaves (tensors no op made) accumulate additively across
    backward passes; ``zero_grad`` resets. Tensors produced by operations
    carry closures so a later ``backward`` can replay adjoints in reverse
    topological order; the closures, and the arrays they hold, live until
    that backward releases them. Every tensor names the ``op`` that made it,
    its ``flops`` and the ``scope`` it ran in (None, 0 and "" on tensors no
    op made).
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
    one elementwise arithmetic op = 1, data movement = 0.

    ``backward_fn(g)`` returns one gradient (or None) per parent. ``g`` is
    an ndarray, 0-d for a scalar output. It must never write into ``g``:
    ``backward`` hands an op output's gradient on without a copy, so ``g``
    may be a read-only view or share its buffer with another node's gradient.
    """
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

    ``nodes`` is a depth-first post-order that visits each node's first input
    first, so it is the order the forward made the nodes in: every node's
    inputs precede it. ``backward`` replays adjoints over ``reversed(nodes)``,
    visiting each recorded node exactly once; the profiler's rows and
    perfbench's tape accounting read ``nodes`` front to back.
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
            for parent in reversed(node._parents):
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.nodes = order


def backward(loss: Tensor) -> None:
    """Add to ``grad`` of every leaf tensor the scalar ``loss`` depends on.

    Each op node is released as its adjoint runs: its closure, parents and
    gradient are dropped, so op outputs keep no ``grad`` after backward and
    the saved state of the graph is freed while the pass runs. A finished
    graph cannot be replayed: a backward through any released node raises a
    ``StateError`` naming its op. Leaves (tensors no op made) keep owned,
    writable gradients that accumulate across passes until ``zero_grad``.
    """
    if not isinstance(loss, Tensor):
        raise ContractError(f"backward needs a Tensor loss, got {type(loss).__name__}")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = Tape(loss)
    for node in tape.nodes:
        if node._backward_ran:
            where = f" [{node.scope}]" if node.scope else ""
            raise StateError(f"backward already ran through {node.op}{where}; "
                             f"rebuild the forward pass to run it again")
    if loss._backward_fn is None:
        raise StateError("loss records no operations (empty tape)")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        fn, parents, grad = node._backward_fn, node._parents, node.grad
        if fn is None:
            continue
        node._backward_fn, node._parents, node.grad = None, (), None
        node._backward_ran = True
        if grad is None:
            continue
        for parent, pgrad in zip(parents, fn(grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            if parent._backward_fn is not None:  # op output: never written in place
                # asarray: an adjoint on a 0-d gradient may return a numpy scalar.
                parent.grad = np.asarray(pgrad if parent.grad is None
                                         else parent.grad + pgrad)
            elif parent.grad is None:
                parent.grad = np.array(pgrad, dtype=np.float64, copy=True)
            else:
                parent.grad += pgrad


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


def scale(x: Tensor, s: float) -> Tensor:
    if isinstance(s, bool) or not isinstance(s, (int, float, np.integer, np.floating)):
        raise ContractError(f"scale factor must be a real number, got {s!r}")
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


def softmax(x: Tensor) -> Tensor:
    if x.ndim < 1:
        raise DimensionError(f"softmax normalises the last axis, got shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    data = ex / np.sum(ex, axis=-1, keepdims=True)

    def backward_fn(g):
        dot = np.sum(g * data, axis=-1, keepdims=True)
        return (data * (g - dot),)

    # shift, exp (4), accumulate, divide
    return _node(data, "softmax", (x,), backward_fn, flops=7 * data.size)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not _is_int(axis) or not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"log_softmax axis {axis!r} invalid for shape {x.shape}")
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


def _taps(kh: int, kw: int, s: int, wq: int):
    """(i, j, phase row, phase column, flat offset) of each kernel tap."""
    return [(i, j, i % s, j % s, i // s * wq + j // s)
            for i in range(kh) for j in range(kw)]


def _phase_split(x: np.ndarray, kh: int, kw: int, s: int, padding: int):
    """The zero-padded x (b, c, h, w) on the flat phase grid of a kh x kw
    kernel at stride s: returns ``(xs, hq, wq)``.

    The padded input is stored once per stride phase (r, q) as rows of
    ``xs[r, q]`` (channels x flat b·hq·wq cells, plus a zero tail), so kernel
    tap (i, j) reads one contiguous column slice of phase (i mod s, j mod s)
    at offset (i div s)·wq + j div s. Cell m of that flat layout is output
    pixel (n, y, x) for m = n·hq·wq + y·wq + x.
    """
    b, c, h, wd = x.shape
    hq = -(-(h + 2 * padding) // s)
    wq = -(-(wd + 2 * padding) // s)
    n = b * hq * wq
    tail = (kh - 1) // s * wq + (kw - 1) // s
    xs = np.zeros((s, s, c, n + tail), dtype=np.float64)
    grid = xs[..., :n].reshape(s, s, c, b, hq, wq)
    xt = x.transpose(1, 0, 2, 3)
    for r, q, (gy, gx), (sy, sx) in _phase_slices(h, wd, s, padding):
        grid[r, q, :, :, gy, gx] = xt[:, :, sy, sx]
    return xs, hq, wq


def _chunk_columns(n: int, k: int) -> int:
    """Width of the equal column chunks that split n columns of k rows each
    into pieces of at most ``_IM2COL_BUDGET`` elements: no wider than needed."""
    chunks = -(-n // max(1, _IM2COL_BUDGET // k))
    return -(-n // chunks)


def _conv_forward(x: np.ndarray, w: np.ndarray, s: int, padding: int) -> np.ndarray:
    """Cross-correlation of x (b, c, h, w) with w (o, c, kh, kw) on the flat
    phase grid of :func:`_phase_split`, im2col chunk by chunk.

    Returns ``full`` of shape (o, b, hq, wq); its cells with y >= h_out or
    x >= w_out read wrapped pixels and are to be dropped. The phase-split
    input dies with the call.
    """
    b, c = x.shape[:2]
    o, _, kh, kw = w.shape
    xs, hq, wq = _phase_split(x, kh, kw, s, padding)
    n = b * hq * wq
    k = c * kh * kw
    w2 = w.reshape(o, k)
    full = np.empty((o, n), dtype=np.float64)
    step = _chunk_columns(n, k)
    cols = np.empty((c, kh, kw, step), dtype=np.float64)
    for m0 in range(0, n, step):
        m = min(step, n - m0)
        for i, j, r, q, off in _taps(kh, kw, s, wq):
            cols[:, i, j, :m] = xs[r, q, :, off + m0:off + m0 + m]
        np.matmul(w2, cols.reshape(k, -1)[:, :m], out=full[:, m0:m0 + m])
    return full.reshape(o, b, hq, wq)


def _conv_backward(gfull: np.ndarray, x: np.ndarray, w: np.ndarray, s: int,
                   padding: int, need_dx: bool):
    """Adjoint of :func:`_conv_forward`: ``(dx or None, dw)`` from the gradient
    on the flat phase grid, ``gfull`` (o, b, hq, wq), zero in the dropped
    cells.

    Rebuilds the phase-split input from x rather than keeping it from the
    forward, and forms dw from it tap by tap. For dx it then zero-fills that
    same buffer and accumulates the input's gradient in it, each tap's
    ``w_tᵀ·g`` product going through a (c, chunk) scratch as wide as the
    forward's im2col chunk. Its scratch is therefore one phase-split input
    plus that chunk.
    """
    o, b, hq, wq = gfull.shape
    c, kh, kw = w.shape[1:]
    n = b * hq * wq
    gfull = gfull.reshape(o, n)
    taps = _taps(kh, kw, s, wq)
    xs = _phase_split(x, kh, kw, s, padding)[0]
    dw = np.empty(w.shape, dtype=np.float64)
    for i, j, r, q, off in taps:
        dw[:, :, i, j] = gfull @ xs[r, q, :, off:off + n].T
    if not need_dx:
        return None, dw
    dxs = xs
    dxs.fill(0.0)
    step = _chunk_columns(n, c * kh * kw)
    scratch = np.empty(c * step, dtype=np.float64)
    for m0 in range(0, n, step):
        m = min(step, n - m0)
        dtap = scratch[:c * m].reshape(c, m)
        for i, j, r, q, off in taps:
            np.matmul(w[:, :, i, j].T, gfull[:, m0:m0 + m], out=dtap)
            dxs[r, q, :, off + m0:off + m0 + m] += dtap
    _, _, h, wd = x.shape
    dgrid = dxs[..., :n].reshape(s, s, c, b, hq, wq)
    dx = np.empty(x.shape, dtype=np.float64)
    dxt = dx.transpose(1, 0, 2, 3)
    for r, q, (gy, gx), (sy, sx) in _phase_slices(h, wd, s, padding):
        dxt[:, :, sy, sx] = dgrid[r, q, :, :, gy, gx]
    return dx, dw


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over NCHW input with an OIHW kernel.

    Computed on the flat phase grid of :func:`_conv_forward`. The backward
    keeps no array of its own: it rebuilds the padded input from ``x.data``
    (see :func:`_conv_backward`).
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d needs 4-d input and kernel, got {x.shape}, {w.shape}")
    for name, value, least in (("stride", stride, 1), ("padding", padding, 0)):
        if not _is_int(value) or value < least:
            raise ContractError(f"conv2d {name} must be an integer >= {least}, got {value!r}")
    b, c, h, wd = x.shape
    if 0 in (b, c):
        raise DimensionError(f"conv2d got an empty axis: batch {b}, input channels {c}")
    o, ci, kh, kw = w.shape
    if ci != c:
        raise DimensionError(f"conv2d channel mismatch: input {c}, kernel expects {ci}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise DimensionError(f"conv2d kernel {kh}x{kw} larger than padded input "
                             f"{h + 2 * padding}x{wd + 2 * padding}")
    if not isinstance(bias, Tensor) or bias.shape != (o,):
        raise DimensionError(f"conv2d bias must have shape ({o},), "
                             f"got {getattr(bias, 'shape', bias)}")

    full = _conv_forward(x.data, w.data, stride, padding)
    grid_shape = full.shape
    valid = full[:, :, :h_out, :w_out].transpose(1, 0, 2, 3)
    data = np.empty((b, o, h_out, w_out), dtype=np.float64)
    np.add(valid, bias.data[:, None, None], out=data)

    def backward_fn(g):
        gfull = np.zeros(grid_shape, dtype=np.float64)
        gfull[:, :, :h_out, :w_out] = g.transpose(1, 0, 2, 3)
        dx, dw = _conv_backward(gfull, x.data, w.data, stride, padding,
                                x.requires_grad)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    # The bias add rides in the multiply-accumulates.
    return _node(data, "conv2d", (x, w, bias), backward_fn,
                 flops=2 * data.size * ci * kh * kw)


# Along one axis, output phase a of a 3-tap kernel on a nearest-2x upsample
# reads two low-resolution pixels: _FOLD_AXIS[a, t, i] = 1 when tap i of the
# 3x3 kernel lands on pixel t of them. _FOLD[(a, b, t, u), (i, j)] is its
# outer product over the two axes: phase (a, b), 2x2 tap (t, u).
_FOLD_AXIS = np.array([[[1, 0, 0], [0, 1, 1]],
                       [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_FOLD = (_FOLD_AXIS[:, None, :, None, :, None]
         * _FOLD_AXIS[None, :, None, :, None, :]).reshape(16, 9)


def upsample_concat_conv2d(x: Tensor, skip: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """``conv2d(concat([upsample_nearest_2x(x), skip], 1), w, bias, padding=1)``
    for a 3x3 kernel, as one op that never forms the upsample or the concat.

    The kernel splits by input channels: with c_up = x.shape[1], the skip half
    ``w[:, c_up:]`` is a plain 3x3 conv of ``skip``. The upsampled half folds
    into one 2x2 conv of x, padded by 1, to 4·o channels, one group of o per
    output phase (a, b) (sub-pixel convolution; Shi et al., arXiv 1609.07009).
    Along one axis, phase 0 reads x rows (y-1, y) with taps (w0, w1 + w2) and
    phase 1 reads (y, y+1) with (w0 + w1, w2); both axes together are one GEMM
    with the constant 16x9 ``_FOLD``. Group (a, b) of the folded output at cell
    (y + a, x + b) is output pixel (2y + a, 2x + b). The bias is added once.
    The backward keeps only the folded kernel: it rebuilds each padded input
    from ``skip.data`` and ``x.data`` in turn, and maps the folded kernel's
    gradient back to ``w[:, :c_up]`` by ``_FOLD``.
    FLOPs are the multiply-accumulates each output pixel needs: 9 per skip
    channel and 4 per x channel.
    """
    if x.ndim != 4 or skip.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"upsample_concat_conv2d needs 4-d x, skip and kernel, "
                             f"got {x.shape}, {skip.shape}, {w.shape}")
    if w.shape[2:] != (3, 3):
        raise ContractError(f"upsample_concat_conv2d needs a 3x3 kernel, got "
                            f"{w.shape[2]}x{w.shape[3]}")
    b, c_up, h, wd = x.shape
    o, c_s = w.shape[0], skip.shape[1]
    if 0 in (b, c_up, c_s):
        raise DimensionError(f"upsample_concat_conv2d got an empty axis: batch {b}, "
                             f"x channels {c_up}, skip channels {c_s}")
    if skip.shape[0] != b or skip.shape[2:] != (2 * h, 2 * wd):
        raise DimensionError(f"upsample_concat_conv2d skip {skip.shape} does not match "
                             f"the upsampled x: ({b}, *, {2 * h}, {2 * wd})")
    if w.shape[1] != c_up + c_s:
        raise DimensionError(f"upsample_concat_conv2d kernel expects {w.shape[1]} input "
                             f"channels, x and skip have {c_up} + {c_s}")
    if not isinstance(bias, Tensor) or bias.shape != (o,):
        raise DimensionError(f"upsample_concat_conv2d bias must have shape ({o},), "
                             f"got {getattr(bias, 'shape', bias)}")

    w_skip = w.data[:, c_up:]
    folded = w.data.reshape(o, c_up + c_s, 9)[:, :c_up] @ _FOLD.T  # (o, c_up, 16)
    folded = folded.reshape(o, c_up, 2, 2, 2, 2).transpose(2, 3, 0, 1, 4, 5)
    folded = folded.reshape(4 * o, c_up, 2, 2)

    full = _conv_forward(skip.data, w_skip, 1, 1)
    data = np.empty((b, o, 2 * h, 2 * wd), dtype=np.float64)  # after the conv's scratch
    np.add(full[:, :, :2 * h, :2 * wd].transpose(1, 0, 2, 3), bias.data[:, None, None],
           out=data)
    del full
    full = _conv_forward(x.data, folded, 1, 1)
    phases = full.reshape(2, 2, o, b, h + 2, wd + 2)
    for r in range(2):
        for q in range(2):
            cells = phases[r, q, :, :, r:r + h, q:q + wd]
            data[:, :, r::2, q::2] += cells.transpose(1, 0, 2, 3)
    del full, phases

    def backward_fn(g):
        gt = g.transpose(1, 0, 2, 3)
        gfull = np.zeros((o, b, 2 * h + 2, 2 * wd + 2), dtype=np.float64)
        gfull[:, :, :2 * h, :2 * wd] = gt
        dskip, dw_skip = _conv_backward(gfull, skip.data, w_skip, 1, 1,
                                        skip.requires_grad)
        gfull = np.zeros((2, 2, o, b, h + 2, wd + 2), dtype=np.float64)
        for r in range(2):
            for q in range(2):
                gfull[r, q, :, :, r:r + h, q:q + wd] = gt[:, :, r::2, q::2]
        dx, dfolded = _conv_backward(gfull.reshape(4 * o, b, h + 2, wd + 2), x.data,
                                     folded, 1, 1, x.requires_grad)
        dw = np.empty(w.shape, dtype=np.float64)
        dw[:, c_up:] = dw_skip
        dfolded = dfolded.reshape(2, 2, o, c_up, 2, 2).transpose(2, 3, 0, 1, 4, 5)
        dw[:, :c_up] = (dfolded.reshape(o, c_up, 16) @ _FOLD).reshape(o, c_up, 3, 3)
        return (dx, dskip, dw, g.sum(axis=(0, 2, 3)))

    return _node(data, "upsample_concat_conv2d", (x, skip, w, bias), backward_fn,
                 flops=2 * data.size * (9 * c_s + 4 * c_up))


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


def basis_expand(x: Tensor, basis: Callable[[np.ndarray], np.ndarray],
                 slopes: Callable[[np.ndarray], np.ndarray], flops: int) -> Tensor:
    """Expansion of each element of x in a fixed basis of n functions.

    ``basis`` maps an array to the basis values at each element, with shape
    ``x.shape + (n,)``; ``slopes`` maps it to a new array of their derivatives,
    of the same shape. Only x is retained: the backward recomputes the slopes
    and returns (slopes(x) * g).sum(-1). ``flops`` is the caller's count for
    the forward.
    """
    with np.errstate(all="ignore"):  # a non-finite x raises in _node
        data = basis(x.data)

    def backward_fn(g):
        slope = slopes(x.data)
        slope *= g
        return (slope.sum(axis=-1),)

    return _node(data, "basis_expand", (x,), backward_fn, flops=flops)


def squared_piecewise_poly(x: Tensor, x0: float, h: float, coef) -> Tensor:
    """q = p(x)^2, elementwise, for p a piecewise polynomial on a uniform grid.

    Row j + 1 of ``coef`` (shape ``(n + 2, degree + 1)``, degree >= 1) holds
    the ascending coefficients of p on cell j = 0..n-1, [x0 + j h, x0 + (j+1) h),
    in powers of x - (x0 + (j + 1/2) h): an offset from the cell's midpoint
    keeps the terms small. Rows 0 and n + 1 must be zero, so that p = 0 below
    x0 and from x0 + n h on. Each element finds its cell with one index
    computation, clipped before the integer cast so that a huge x lands in a
    zero row, and evaluates p by Horner's rule. Only x is retained: the
    backward recomputes both and returns 2 p p'. Its oracle, on a
    ``KanGrid``'s ``pooled_bell_table``, is the graph
    ``square(mean_last_axis(kan.relukan_basis_expand(x, grid)))``.
    """
    coef = np.asarray(coef, dtype=np.float64)
    x0, h = float(x0), float(h)
    if coef.ndim != 2 or coef.shape[0] < 3 or coef.shape[1] < 2:
        raise ContractError(f"squared_piecewise_poly needs a (cells + 2, degree + 1) "
                            f"table of degree >= 1, got shape {coef.shape}")
    if not np.all(np.isfinite(coef)) or np.any(coef[[0, -1]]):
        raise ContractError("squared_piecewise_poly needs a finite table whose "
                            "first and last rows are zero")
    if not (np.isfinite(x0) and np.isfinite(h) and h > 0):
        raise ContractError(f"squared_piecewise_poly needs a finite x0 and h > 0, "
                            f"got x0={x0!r}, h={h!r}")
    n = coef.shape[0] - 2
    mid = x0 + h * (np.arange(-1, n + 1) + 0.5)  # row r's offsets start here
    cols = np.ascontiguousarray(coef.T)
    slopes = cols[1:] * np.arange(1, cols.shape[0])[:, None]

    # A NaN x casts to an arbitrary row, which mode="clip" keeps in range; its
    # offset t is NaN whatever the row, and so is p (degree >= 1): an infinite
    # x likewise gives 0 * inf. _node then raises on the output.
    def locate():
        with np.errstate(all="ignore"):
            u = np.subtract(x.data, x0, out=np.empty(x.shape))
            u /= h
            np.clip(u, -1.0, n, out=u)
            np.floor(u, out=u)
            u += 1.0
            row = u.astype(np.intp)
        return row, x.data - mid.take(row, mode="clip")

    def horner(c, row, t):
        p = c[-1].take(row, mode="clip")
        for ck in c[-2::-1]:
            p *= t
            p += ck.take(row, mode="clip")
        return p

    with np.errstate(all="ignore"):
        data = horner(cols, *locate())
        data *= data

    def backward_fn(g):
        row, t = locate()
        dp = horner(slopes, row, t)
        dp *= horner(cols, row, t)
        dp *= 2.0
        dp *= g
        return (dp,)

    # Per element: cell index (shift, scale, floor), offset, Horner (2 per
    # degree), square.
    degree = cols.shape[0] - 1
    return _node(data, "squared_piecewise_poly", (x,), backward_fn,
                 flops=(2 * degree + 5) * x.size)


def sum_all(x: Tensor) -> Tensor:
    def backward_fn(g):
        return (np.broadcast_to(g, x.shape),)

    return _node(np.sum(x.data), "sum_all", (x,), backward_fn, flops=x.size)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if not isinstance(shape, tuple) or not all(map(_is_int, shape)):
        raise DimensionError(f"reshape shape must be a tuple of ints, got {shape!r}")
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from exc

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _node(data, "reshape", (x,), backward_fn, flops=0)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if not all(map(_is_int, axes)) or sorted(axes) != list(range(x.ndim)):
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
