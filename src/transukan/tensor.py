"""Dense float32 and float64 tensors with reverse-mode automatic differentiation.

One dtype rule holds for every op. A Tensor keeps float32 or float64 data as
given; any other real data becomes float64. An op allocates and computes in
``np.result_type`` of its Tensor operands, so float32 operands give a float32
output, and a float32 operand meeting a float64 one computes in float64.
Constant tables (an ``affine`` ``act`` table, the decoder's ``_FOLD``) follow
the dtype of the data they act on, so nothing upcasts silently. The backward
hands each tensor its gradient in that tensor's own dtype. float64 is the
oracles' dtype: ``grad_check`` refuses anything else, because finite
differences at float32's epsilon are noise. Any operation that produces a
NaN/Inf raises immediately instead of letting it propagate, and the error
names the ``scope`` path of the layer it ran in.

One retention rule holds for every op (see ``_node``): a backward reads only
its node's inputs, its own output and per-row statistics, and recomputes the
rest, so a graph retains its op outputs plus those statistics.

Prologues and epilogues are fused where a layer's intermediate would be kept
for no backward: ``affine`` adds its bias, and a ``residual`` if given, into
the matmul's output in place, and can take two prologues on its input, a
LayerNorm (``norm``) and then a squared piecewise-polynomial activation
(``act``). It keeps x and the norm's two per-row statistics rather than the
normalised input or the activation, which its backward rebuilds (the trade of
recomputation, Chen et al., arXiv 1604.06174). The conv ops clamp their output in
place, ``conv2d`` when ``relu=True`` (the in-place activation of Rota Bulò et
al., arXiv 1712.02616); their backward masks g by it once, onto the phase
grid, whose channel sums are the bias gradient. Both conv passes run on the
same slices of the batch, one image at the model's 64x64 maps, and only one
slice's scratch is alive at a time: the forward's is a slice's padded input,
output grid and one chunk buffer; the backward's a slice's padded input and
gradient grid plus two tile buffers, as it gathers the input gradient tile by
tile. Only the output and dx are batch-sized. The forward's chunk takes one
of two forms (see ``_conv_forward``): an im2col chunk, kh·kw copies of m
columns of the c-channel input, c·kh·kw·m elements; or, for a stride-1 conv of
a kernel of more than one row to no more channels than it reads, kernel rows,
kw shifted copies of those columns plus a halo of kh - 1 grid rows and an
(o, m) product buffer, used only where that is no more than im2col's chunk.
A public op first checks that its operands are Tensors and raises a
``ContractError`` naming the op and the argument if one is not.

One constant rule holds for every op: constant work is done once per distinct
shape, budget or table. What depends only on those, never on the data (an
``affine`` ``act`` table checked and cast to a dtype, a conv's tap list,
phase slices and batch slices), is kept in a bounded cache keyed by them, so
an op call pays for it only the first time it meets them. A key holds every
value the result is made from, the im2col budget included, so a changed
budget or a table edited in place is never served from the cache.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Allocator policy. A training step frees MBs of activations and scratch.
# By default glibc returns the top of its heap to the system once more than
# its trim threshold lies free there, and that threshold follows twice the
# largest freed mmapped block (~4 MiB for the 2 MiB float32 im2col chunks, 8
# MiB for the 4 MiB float64 ones), so the next step faults the same memory in
# again: ~1,900 minor faults per batch-4 step of the default float32 model,
# ~4,800 of its float64 copy. Pinning both thresholds at the ceilings of
# glibc's own dynamic rule on 64-bit (mmap 32 MiB, trim 64 MiB) keeps a step's
# freed heap mapped for the next one. The cost is resident memory: up to 64
# MiB of freed heap stays mapped, and blocks below 32 MiB come from the heap,
# not from mappings of their own. Where mallopt is missing (not glibc),
# nothing changes.
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


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number; a bool is not."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def check_type(where: str, name: str, value, cls: type | tuple[type, ...]) -> None:
    """Raise a ``ContractError`` naming ``where`` and the argument ``name``
    unless ``value`` is a ``cls``, a class or a tuple of classes."""
    if not isinstance(value, cls):
        names = [c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,))]
        wanted = " or ".join(f"{'an' if n[0] in 'AEIOU' else 'a'} {n}" for n in names)
        raise ContractError(f"{where}: {name} must be {wanted}, got {type(value).__name__}")


def check_rng(where: str, rng) -> np.random.Generator:
    """``rng``, or a generator seeded with 0 if it is None. Anything but a
    ``np.random.Generator`` or None raises a ``ContractError`` naming
    ``where`` and ``rng``."""
    if rng is None:
        return np.random.default_rng(0)
    check_type(where, "rng", rng, np.random.Generator)
    return rng


def check_sizes(sizes: dict[str, object], least: int = 1) -> None:
    """Raise a ``ContractError`` naming the first of ``sizes`` that is not an
    int (a bool is not) of at least ``least``."""
    check_type("check_sizes", "sizes", sizes, dict)
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


def scope(name: str):
    """Tag every op output made inside the block with the dotted path of the
    open scopes, ``name`` innermost.

    A ``TensorError`` that leaves the block gets that path as its ``scope``
    and as a ``[path]`` prefix of its message, once: outer scopes leave it as
    it is.
    """
    return _Scope(name)


class _Scope:
    """The context manager of :func:`scope`. It is a class because a forward
    opens ~50 scopes, and a generator-based one costs more to enter and leave."""

    __slots__ = ("name", "outer")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        global _scope
        self.outer = _scope
        _scope = f"{self.outer}.{self.name}" if self.outer else self.name

    def __exit__(self, exc_type, exc, tb):
        global _scope
        if isinstance(exc, TensorError) and exc.scope is None:
            exc.scope = _scope
            exc.args = (f"[{_scope}] {exc}",)
        _scope = self.outer


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def real_array(data, what: str) -> np.ndarray:
    """``data`` as a float32 or float64 array: float32 and float64 data as
    they are, other bool, int and float data as float64. Only those kinds, so
    that None does not become NaN nor a complex number lose its imaginary
    part: anything else raises a ``ContractError`` naming ``what``."""
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
        return data
    with contextlib.suppress(TypeError, ValueError):  # ragged or unconvertible data
        arr = np.asarray(data)
        if arr.dtype in _FLOAT_DTYPES:
            return arr
        if arr.dtype.kind in "biuf":
            return arr.astype(np.float64)
    raise ContractError(f"{what} must be real numbers, got {data!r:.60}")


def float_dtype(where: str, dtype) -> np.dtype:
    """``dtype`` as a numpy dtype if it is float32 or float64; anything else
    raises a ``ContractError`` naming ``where``."""
    with contextlib.suppress(TypeError, ValueError):
        if dtype is not None and np.dtype(dtype) in _FLOAT_DTYPES:
            return np.dtype(dtype)
    raise ContractError(f"{where}: dtype must be float32 or float64, got {dtype!r}")


class Tensor:
    """n-dimensional float32 or float64 array with an optional gradient buffer
    of the same dtype (see ``real_array`` for how other data converts).

    Gradients of leaves (tensors no op made) accumulate additively across
    backward passes; ``zero_grad`` resets. Tensors produced by operations
    carry closures so a later ``backward`` can replay adjoints in reverse
    topological order. That backward drops each closure as its adjoint runs,
    so an op output nothing else holds dies once its own adjoint and those of
    the ops that read it have run. Every tensor names the ``op`` that made it,
    its ``flops`` and the ``scope`` it ran in (None, 0 and "" on tensors no
    op made).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran", "op", "flops", "scope")

    def __init__(self, data, requires_grad: bool = False):
        self.data = real_array(data, "Tensor data")
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


def _operands(op: str, **operands) -> None:
    """Raise a ``ContractError`` naming ``op`` and the first of ``operands``
    that is not a Tensor."""
    for name, value in operands.items():
        if not isinstance(value, Tensor):
            raise ContractError(f"{op}: {name} must be a Tensor, got {type(value).__name__}")


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"{op} produced non-finite values")


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], tuple], flops: int) -> Tensor:
    """Output of ``op``, which cost ``flops``: 1 multiply-accumulate = 2,
    one elementwise arithmetic op = 1, data movement = 0.

    ``backward_fn(g)`` returns one gradient (or None) per parent. ``g`` is
    an ndarray, 0-d for a scalar output. It must never write into ``g``:
    ``backward`` hands an op output's gradient on without a copy, so ``g``
    may be a read-only view or share its buffer with another node's gradient.

    Retention rule: ``backward_fn`` reads only the parents' data, ``data``,
    constants of the op's other arguments and per-row statistics (one value
    per reduced row); it recomputes the rest by the forward's arithmetic.
    """
    _check_finite(data, op)
    out = Tensor(data)
    out.op, out.flops, out.scope = op, flops, _scope
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _result_type(tensors: Sequence[Tensor]) -> np.dtype:
    """The dtype an op on ``tensors`` allocates and computes in."""
    dtype = tensors[0].data.dtype
    if all(t.data.dtype == dtype for t in tensors[1:]):
        return dtype
    return np.result_type(*(t.data.dtype for t in tensors))


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
        _operands("Tape", root=root)
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

    Each op node is released as its adjoint runs: it leaves the tape, and its
    closure, parents and gradient are dropped, so op outputs keep no ``grad``
    after backward. An op output that nothing outside the graph holds is
    freed once its own adjoint and those of the ops that read it have run,
    so the graph's memory falls as the pass goes. A finished graph cannot be
    replayed: a backward through any released node raises a ``StateError``
    naming its op. Leaves (tensors no op made) keep owned, writable gradients
    that accumulate across passes until ``zero_grad``.
    """
    if not isinstance(loss, Tensor):
        raise ContractError(f"backward needs a Tensor loss, got {type(loss).__name__}")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = Tape(loss).nodes
    for node in nodes:
        if node._backward_ran:
            where = f" [{node.scope}]" if node.scope else ""
            raise StateError(f"backward already ran through {node.op}{where}; "
                             f"rebuild the forward pass to run it again")
    if loss._backward_fn is None:
        raise StateError("loss records no operations (empty tape)")
    loss.grad = np.ones_like(loss.data)
    while nodes:
        _run_adjoint(nodes.pop())


def _run_adjoint(node: Tensor) -> None:
    """Release ``node`` and pass its gradient on to its parents, each in that
    parent's dtype; the closure, the gradient and the parents' gradients die
    with the call."""
    fn, parents, grad = node._backward_fn, node._parents, node.grad
    if fn is None:
        return
    node._backward_fn, node._parents, node.grad = None, (), None
    node._backward_ran = True
    if grad is None:
        return
    for parent, pgrad in zip(parents, fn(grad)):
        if pgrad is None or not parent.requires_grad:
            continue
        if parent._backward_fn is not None:  # op output: never written in place
            # asarray: an adjoint on a 0-d gradient may return a numpy scalar.
            pgrad = np.asarray(pgrad).astype(parent.data.dtype, copy=False)
            parent.grad = np.asarray(pgrad if parent.grad is None else parent.grad + pgrad)
        elif parent.grad is None:
            parent.grad = np.array(pgrad, dtype=parent.data.dtype, copy=True)
        else:
            parent.grad += pgrad


# ---------------------------------------------------------------------------
# Binary / unary elementwise operations
# ---------------------------------------------------------------------------

def _broadcast_op(a: Tensor, b: Tensor, op: str, fwd, bwd) -> Tensor:
    _operands(op, a=a, b=b)
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


def astype(x: Tensor, dtype) -> Tensor:
    """x's data as ``dtype``, float32 or float64, or x itself if it has that
    dtype already. Its gradient reaches x in x's dtype, as every gradient does."""
    _operands("astype", x=x)
    dtype = float_dtype("astype", dtype)
    if x.data.dtype == dtype:
        return x
    return _node(x.data.astype(dtype), "astype", (x,), lambda g: (g,), flops=0)


def scale(x: Tensor, s: float) -> Tensor:
    _operands("scale", x=x)
    if not _is_real(s):
        raise ContractError(f"scale factor must be a real number, got {s!r}")
    s = float(s)
    return _node(x.data * s, "scale", (x,), lambda g: (g * s,), flops=x.size)


def relu(x: Tensor) -> Tensor:
    _operands("relu", x=x)
    data = np.maximum(x.data, 0.0)

    def backward_fn(g):
        return (g * (data > 0.0),)

    return _node(data, "relu", (x,), backward_fn, flops=data.size)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def silu(x: Tensor) -> Tensor:
    _operands("silu", x=x)
    data = x.data * _sigmoid(x.data)

    def backward_fn(g):
        sig = _sigmoid(x.data)
        return (g * sig * (1.0 + x.data * (1.0 - sig)),)

    # exp (4), add, divide, multiply
    return _node(data, "silu", (x,), backward_fn, flops=7 * data.size)


def square(x: Tensor) -> Tensor:
    _operands("square", x=x)
    def backward_fn(g):
        return (g * 2.0 * x.data,)

    return _node(x.data * x.data, "square", (x,), backward_fn, flops=x.size)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _operands("matmul", a=a, b=b)
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


def affine(x: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None,
           act: tuple | None = None, norm: tuple | None = None) -> Tensor:
    """x wᵀ + b for x (..., c_in), w (c_out, c_in) and b (c_out,), as one node
    for ``add(matmul(x, transpose(w, (1, 0))), b)``: the bias goes into the
    matmul's output in place, so no bias-free product is kept. The forward
    product and dx run as one (rows, c_in) GEMM over the flattened leading
    axes; dw runs the graph's batched matmul and sums it over the leading
    axes in their order, so the gradients are the graph's bit for bit.

    Three more stages of a layer can ride in the node, so that no output that
    only the next op reads is kept:

    * ``norm``, a pair ``(gamma, beta)`` of Tensors of shape (c_in,), first
      maps x to ``layer_norm(x, gamma, beta)`` by that op's numpy calls. The
      node keeps x and each row's mean and 1/std, not the normalised input:
      the backward rebuilds it by the forward's arithmetic, and runs
      ``layer_norm``'s backward on the gradient the stages after it give;
    * ``act``, a table ``(x0, h, coef)``, then maps its input elementwise to
      q = p(·)², for p a piecewise polynomial on the uniform grid of cells
      j = 0..n-1, [x0 + j h, x0 + (j+1) h). Row j + 1 of ``coef`` (shape
      ``(n + 2, degree + 1)``, degree >= 1) holds the ascending coefficients
      of p on cell j, in powers of the offset from the cell's midpoint
      x0 + (j + 1/2) h, which keeps the terms small. Rows 0 and n + 1 must be
      zero, so that p = 0 below x0 and from x0 + n h on. Each element finds
      its cell with one index computation, clipped before the integer cast so
      that a huge input lands in a zero row, and evaluates p by Horner's rule.
      The node keeps its input, not q: the backward locates the cells and
      runs Horner for p and p' once, then forms q = p·p for dw and
      2·p·p'·(g w) for the gradient of the input. On a ``KanGrid``'s
      ``pooled_bell_table``, q's oracle is the graph
      ``square(mean_last_axis(kan.relukan_basis_expand(·, grid)))``;
    * ``residual``, a Tensor of the output's shape, is added in place after
      the bias, and gets g unchanged, as ``add(·, residual)`` would.

    The output and every gradient are those of the composed graph
    ``add(affine(activate(layer_norm(x, gamma, beta)), w, b), residual)`` bit
    for bit, for any subset of the stages, where ``activate`` is the node
    ``affine(·, I, 0, act=act)`` with an identity weight and a zero bias,
    which gives q exactly. Parents, and so gradients, come in the order x,
    w, b, residual, gamma, beta. The FLOPs are the composed graph's, less the
    identity mix.
    """
    _operands("affine", x=x, w=w, b=b)
    if residual is not None:
        _operands("affine", residual=residual)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1] or b.shape != w.shape[:1]:
        raise DimensionError(f"affine needs x (..., c_in) of rank >= 2, w (c_out, c_in) "
                             f"and b (c_out,), got {x.shape}, {w.shape} and {b.shape}")
    c_in = w.shape[1]
    out_shape = x.shape[:-1] + w.shape[:1]
    if residual is not None and residual.shape != out_shape:
        raise DimensionError(f"affine residual must have the output's shape {out_shape}, "
                             f"got {residual.shape}")
    gamma = beta = None
    if norm is not None:
        if not isinstance(norm, tuple) or len(norm) != 2:
            raise ContractError(f"affine norm must be a pair (gamma, beta), got {norm!r:.60}")
        gamma, beta = norm
        _operands("affine", gamma=gamma, beta=beta)
        if gamma.shape != (c_in,) or beta.shape != (c_in,):
            raise DimensionError(f"affine norm params must have shape ({c_in},), got "
                                 f"{gamma.shape} and {beta.shape}")
    if act is not None and (not isinstance(act, tuple) or len(act) != 3):
        raise ContractError(f"affine act must be a tuple (x0, h, coef), got {act!r:.60}")
    parents = (x, w, b) + (() if residual is None else (residual,)) + (norm or ())
    dtype = _result_type(parents)
    in_dtype = x.data.dtype if norm is None else _result_type((x, *norm))  # layer_norm's
    table = None if act is None else _poly_table(*act, in_dtype)

    def activation(v):  # (row, t, p, q) of v's cells
        x0, h, mid, cols, _ = table
        row, t = _locate(v, x0, h, mid)
        p = _horner(cols, row, t)
        return row, t, p, p * p

    with np.errstate(all="ignore"):  # a non-finite x raises in _node
        if norm is None:
            v, mean, inv_std = x.data, None, None
        else:
            xhat, mean, inv_std = _normalize(x.data)
            v = gamma.data * xhat + beta.data
            del xhat
        if table is not None:
            v = activation(v)[3]
        data = np.matmul(v.reshape(-1, c_in), w.data.T, dtype=dtype).reshape(out_shape)
        del v
        data += b.data
        if residual is not None:
            data += residual.data

    def backward_fn(g):
        dv = np.matmul(g.reshape(-1, g.shape[-1]), w.data).reshape(x.shape)
        if norm is None:
            v = x.data
        else:
            xhat = (x.data - mean) * inv_std  # the forward's arithmetic: the same bits
            v = gamma.data * xhat + beta.data
        if table is not None:
            with np.errstate(all="ignore"):  # as in the forward: see _locate
                row, t, p, v = activation(v)
                dp = _horner(table[4], row, t)  # p'
            dp *= p
            dp *= 2.0
            dp *= dv
            dv = dp
            del row, t, p
        dw = _unbroadcast(np.matmul(np.swapaxes(v, -1, -2), g), w.shape[::-1])
        del v
        grads = (dv, dw.T, _unbroadcast(g, b.shape)) + (() if residual is None else (g,))
        if norm is None:
            return grads
        # layer_norm's backward on dv in its output's dtype, as _run_adjoint hands it over
        dx, dgamma, dbeta = _layer_norm_grads(dv.astype(in_dtype, copy=False), xhat,
                                              inv_std, gamma.data)
        return (dx, *grads[1:], dgamma, dbeta)

    flops = (data.size * (2 * c_in + 1 + (residual is not None))
             + x.size * ((0 if table is None else _poly_flops(table[3]))
                         + (0 if norm is None else _LAYER_NORM_FLOPS)))
    return _node(data, "affine", parents, backward_fn, flops=flops)


def softmax(x: Tensor) -> Tensor:
    _operands("softmax", x=x)
    if x.ndim < 1 or x.shape[-1] == 0:
        raise DimensionError(f"softmax normalises a non-empty last axis, got shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    data = ex / np.sum(ex, axis=-1, keepdims=True)

    def backward_fn(g):
        dot = np.sum(g * data, axis=-1, keepdims=True)
        return (data * (g - dot),)

    # shift, exp (4), accumulate, divide
    return _node(data, "softmax", (x,), backward_fn, flops=7 * data.size)


def attention(qkv: Tensor, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention on packed projections:
    qkv (..., t, 3d) gives (..., t, d).

    q, k and v are the column blocks [0, d), [d, 2d) and [2d, 3d) of the last
    axis, and head j is columns j·e to (j + 1)·e of a block (e = d / n_heads),
    all read and written as numpy views. Per head it runs the numpy calls of
    ``matmul(softmax(scale(matmul(q, transpose(k)), s)), v)``, s = 1/√e, in
    order: the output is that graph's, bit for bit. It keeps each score row's
    max and sum, never the t x t scores or probabilities P: the backward
    recomputes P (the recompute of FlashAttention, Dao et al., arXiv
    2205.14135, without its tiling), then forms dv = Pᵀg, dP = g vᵀ,
    dS = s·P∘(dP − rowsum(dP∘P)), dq = dS k and dk = dSᵀ q, each written
    through a view into its block of one (..., t, 3d) gradient. The row sums
    are formed one head at a time, so no third (..., n_heads, t, t) array is
    alive beside P and dS; each row's reduction is np.sum's. FLOPs are the
    graph's: batch·n_heads·t²·(4e + 8).
    """
    _operands("attention", qkv=qkv)
    t, d = (qkv.shape[-2], qkv.shape[-1] // 3) if qkv.ndim >= 2 else (0, 0)
    if (0 in (t, d) or qkv.shape[-1] != 3 * d or not _is_int(n_heads) or n_heads < 1
            or d % n_heads):
        raise DimensionError(f"attention needs qkv (..., t, 3d) of rank >= 2 with t, d > 0 "
                             f"and n_heads dividing d, got {qkv.shape} and n_heads {n_heads!r}")
    s = 1.0 / math.sqrt(d // n_heads)  # a Python float keeps float32 scores float32

    def heads(a, i=0):  # columns [i·d, (i + 1)·d) of a -> the view (..., n_heads, t, e)
        a = a[..., i * d:(i + 1) * d]
        return np.swapaxes(a.reshape(*a.shape[:-1], n_heads, d // n_heads), -2, -3)

    qh, kh, vh = (heads(qkv.data, i) for i in range(3))

    def scores():
        out = np.matmul(qh, np.swapaxes(kh, -1, -2))
        out *= s
        return out

    probs = scores()
    _check_finite(probs, "attention")
    row_max = np.max(probs, axis=-1, keepdims=True)
    probs -= row_max
    np.exp(probs, out=probs)
    row_sum = np.sum(probs, axis=-1, keepdims=True)
    probs /= row_sum
    data = np.empty(qkv.shape[:-1] + (d,), dtype=qkv.data.dtype)
    np.matmul(probs, vh, out=heads(data))
    del probs

    def backward_fn(g):
        gh = heads(g)
        p = scores()
        p -= row_max
        np.exp(p, out=p)
        p /= row_sum
        grad = np.empty(qkv.shape, dtype=qkv.data.dtype)
        np.matmul(np.swapaxes(p, -1, -2), gh, out=heads(grad, 2))
        ds = np.matmul(gh, np.swapaxes(vh, -1, -2))
        rowsum = np.empty(ds.shape[:-1], dtype=ds.dtype)
        for j in range(n_heads):  # one head's (..., t, t) product at a time
            np.add.reduce(ds[..., j, :, :] * p[..., j, :, :], axis=-1, out=rowsum[..., j, :])
        ds -= rowsum[..., None]
        ds *= p
        del p
        ds *= s
        np.matmul(ds, kh, out=heads(grad, 0))
        np.matmul(np.swapaxes(ds, -1, -2), qh, out=heads(grad, 1))
        return (grad,)

    # q kᵀ, scale, softmax (7), P v, over batch·t query rows
    return _node(data, "attention", (qkv,), backward_fn,
                 flops=qkv.size // (3 * d) * t * (4 * d + 8 * n_heads))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    _operands("log_softmax", x=x)
    if not _is_int(axis) or not -x.ndim <= axis < x.ndim or x.shape[axis] == 0:
        raise DimensionError(f"log_softmax axis {axis!r} invalid or empty for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    data = shifted - lse

    def backward_fn(g):
        return (g - np.exp(data) * np.sum(g, axis=axis, keepdims=True),)

    # shift, exp (4), accumulate, subtract
    return _node(data, "log_softmax", (x,), backward_fn, flops=7 * data.size)


_LAYER_NORM_EPS = 1e-5  # added to each row's variance, as torch.nn.LayerNorm does
_LAYER_NORM_FLOPS = 8  # per element: mean, centered square, normalize, affine


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``np.mean(a, axis=-1, keepdims=True)`` of a non-empty last axis by the
    two calls that np.mean makes for float input, without its Python layers:
    the same bits."""
    total = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(a.shape[-1]), out=total, casting="unsafe")


def _normalize(x: np.ndarray):
    """``(xhat, mean, inv_std)``: x's rows normalised, and each row's mean and
    1/std, the statistics a backward rebuilds xhat from as ``(x - mean) *
    inv_std``, which is the same arithmetic and so the same bits."""
    mean = _row_mean(x)
    xhat = x - mean
    inv_std = 1.0 / np.sqrt(_row_mean(xhat * xhat) + _LAYER_NORM_EPS)
    xhat *= inv_std
    return xhat, mean, inv_std


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                      gamma: np.ndarray):
    """``(dx, dgamma, dbeta)`` of ``gamma * xhat + beta`` from its gradient g."""
    dxhat = g * gamma
    dx = inv_std * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))
    axes = tuple(range(g.ndim - 1))
    return dx, np.sum(g * xhat, axis=axes), np.sum(g, axis=axes)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` over x's last axis. The
    node keeps each row's mean and 1/std and rebuilds the normalised input in
    the backward. ``affine``'s ``norm`` runs the same arithmetic inside the
    node it feeds, and this op is its oracle."""
    _operands("layer_norm", x=x, gamma=gamma, beta=beta)
    if x.ndim < 1 or x.shape[-1] == 0:
        raise DimensionError(f"layer_norm normalises a non-empty last axis, got {x.shape}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm params must have shape ({d},), got "
                             f"{gamma.shape} and {beta.shape}")
    xhat, mean, inv_std = _normalize(x.data)
    data = gamma.data * xhat + beta.data

    def backward_fn(g):
        return _layer_norm_grads(g, (x.data - mean) * inv_std, inv_std, gamma.data)

    return _node(data, "layer_norm", (x, gamma, beta), backward_fn,
                 flops=_LAYER_NORM_FLOPS * data.size)


# ---------------------------------------------------------------------------
# Convolution and spatial ops
# ---------------------------------------------------------------------------

# Most elements of im2col scratch that one conv forward chunk fills (2 MiB in
# float32, 4 MiB in float64): a count of elements, so both dtypes run the same
# slices. It sets the chunk width m of both forward forms: a kernel-row chunk
# is as wide as an im2col one and needs less, kw·c·(m + (kh-1)·wq) + o·m
# elements against c·kh·kw·m. It also sizes the batch slices both conv passes
# run on (a quarter of it per phase of a slice's padded input and output grid)
# and the backward's tiles. The conv plans cached per shape (see
# _batch_slices) take it as part of their key, so a patched budget is never
# served a plan made for another. A forward chunk sets the peak of an
# inference forward: at the default float32 model's batch-1 64x64 forward,
# decoder.block2's skip half as kernel rows, 1.76 MB (2.43 MB as im2col). The
# batch-4 training step peaks in the backward instead, in the decoder.block2
# adjoint, whose one slice of scratch sits on activations not yet freed. For
# the batch-1 64x64 forward in float64, all im2col (2 vCPUs, 16 alternating
# rounds), 2**20 peaked at 7.31 MB, 2**19 at 4.80 MB, taking ~1% longer, and
# 2**18 at 3.97 MB, taking ~3% longer; a training step timed the same at 2**19
# and 2**20.
_IM2COL_BUDGET = 2 ** 19


@functools.lru_cache(maxsize=256)
def _phase_slices(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """``(r, q, grid, src)`` for each stride phase (r, q) that a kh x kw
    kernel reads, r < min(stride, kh) and q < min(stride, kw), of an h x w
    input padded by ``padding``: input pixels ``[src]`` land at ``[grid]`` of
    the phase grid, whose cell (y, x) is padded pixel (y s + r, x s + q)."""
    def axis(n, r):
        first = -((r - padding) // stride)  # first cell at or past the pad
        src = slice(first * stride + r - padding, n, stride)
        return slice(first, first + len(range(n)[src])), src

    rows = [axis(h, r) for r in range(min(stride, kh))]
    cols = [axis(w, q) for q in range(min(stride, kw))]
    return tuple((r, q, (gy, gx), (sy, sx))
                 for r, (gy, sy) in enumerate(rows) for q, (gx, sx) in enumerate(cols))


@functools.lru_cache(maxsize=256)
def _taps(kh: int, kw: int, s: int, wq: int):
    """(i, j, phase row, phase column, flat offset) of each kernel tap; the
    last tap's offset is the largest."""
    return tuple((i, j, i % s, j % s, i // s * wq + j // s)
                 for i in range(kh) for j in range(kw))


def _phase_split(x: np.ndarray, kh: int, kw: int, s: int, padding: int):
    """The zero-padded x (b, c, h, w) on the flat phase grid of a kh x kw
    kernel at stride s: returns ``(xs, hq, wq)``.

    The padded input is stored once per stride phase (r, q) that some tap
    reads, r < min(s, kh) and q < min(s, kw), as rows of ``xs[r, q]``
    (channels x flat b·hq·wq cells, plus a zero tail), so kernel tap (i, j)
    reads one contiguous column slice of phase (i mod s, j mod s) at offset
    (i div s)·wq + j div s. Cell m of that flat layout is output pixel
    (n, y, x) for m = n·hq·wq + y·wq + x. A stride past the kernel adds no
    phase, so the grid holds about the padded input's pixels at any stride.
    """
    b, c, h, wd = x.shape
    hq, wq = _phase_shape(h, wd, s, padding)
    n = b * hq * wq
    tail = (kh - 1) // s * wq + (kw - 1) // s
    xs = np.zeros((min(s, kh), min(s, kw), c, n + tail), dtype=x.dtype)
    grid = xs[..., :n].reshape(*xs.shape[:3], b, hq, wq)
    xt = x.transpose(1, 0, 2, 3)
    for r, q, (gy, gx), (sy, sx) in _phase_slices(h, wd, kh, kw, s, padding):
        grid[r, q, :, :, gy, gx] = xt[:, :, sy, sx]
    return xs, hq, wq


def _phase_shape(h: int, w: int, s: int, padding: int) -> tuple[int, int]:
    """(hq, wq): the cells per image of a conv's phase grid at stride s."""
    return -(-(h + 2 * padding) // s), -(-(w + 2 * padding) // s)


def _chunk_columns(n: int, k: int) -> int:
    """Width of the equal column chunks that split n columns of k rows each
    into pieces of at most ``_IM2COL_BUDGET`` elements: no wider than needed."""
    return _equal_runs(n, _IM2COL_BUDGET // k)


def _equal_runs(n: int, most: int) -> int:
    """Length of the equal runs that split n into the fewest runs of at most
    ``max(1, most)``: no longer than needed."""
    runs = -(-n // max(1, most))
    return -(-n // runs)


def _batch_slices(x_shape: tuple[int, ...], o: int, s: int, padding: int) -> tuple[slice, ...]:
    """The slices of the batch that a conv of x (b, c, h, w) to o channels runs
    on, forward and backward: equal runs of as many images as keep each phase
    of the padded input and the output (or gradient) grid within
    ``_IM2COL_BUDGET // 4`` elements. One image at the model's 64x64 maps, the
    whole batch at its 8x8 ones. Cached per shape and budget."""
    return _batch_plan(x_shape, o, s, padding, _IM2COL_BUDGET)


@functools.lru_cache(maxsize=256)
def _batch_plan(x_shape: tuple[int, ...], o: int, s: int, padding: int,
                budget: int) -> tuple[slice, ...]:
    """:func:`_batch_slices` at im2col budget ``budget``."""
    b, c, h, wd = x_shape
    hq, wq = _phase_shape(h, wd, s, padding)
    per = _equal_runs(b, budget // (4 * max(c, o) * hq * wq))
    return tuple(np.s_[k:k + per] for k in range(0, b, per))


def _conv_forward(x: np.ndarray, w: np.ndarray, s: int, padding: int) -> np.ndarray:
    """Cross-correlation of x (b, c, h, w) with w (o, c, kh, kw) on the flat
    phase grid of :func:`_phase_split`, chunk by chunk.

    Returns ``full`` of shape (o, b, hq, wq); its cells with y >= h_out or
    x >= w_out read wrapped pixels and are to be dropped. Chunks are m =
    ``_chunk_columns(n, c·kh·kw)`` columns of the grid's n cells wide, in one
    of two forms:

    - im2col: one (c·kh·kw, m) buffer holds a copy of the chunk per tap, and
      one GEMM with the flattened kernel writes the chunk's output;
    - kernel rows (:func:`_kernel_rows`), for a stride-1 conv of a kernel of
      more than one row, to no more channels than it reads (o <= c), whose
      scratch, kw·c·(m + (kh-1)·wq) + o·m elements, is no more than
      im2col's c·kh·kw·m. These are the decoder's skip halves, which run
      in 0.5-0.7x the im2col form's scratch and 0.8-1.0x its time (float32,
      at the model's shapes). Widening convs took 1.2-1.8x im2col's time as
      kernel rows, so they keep im2col, as do the strided convs and the 1x1
      head.

    The phase-split input and the scratch die with the call. The conv ops
    call it on one slice of the batch at a time (see :func:`_biased_conv`),
    so its scratch is one slice's.
    """
    b, c = x.shape[:2]
    o, _, kh, kw = w.shape
    xs, hq, wq = _phase_split(x, kh, kw, s, padding)
    n = b * hq * wq
    k = c * kh * kw
    dtype = np.result_type(x, w)
    full = np.empty((o, n), dtype=dtype)
    step = _chunk_columns(n, k)
    if s == 1 and kh > 1 and o <= c and kw * c * (step + (kh - 1) * wq) + o * step <= k * step:
        _kernel_rows(xs[0, 0], w, full, step, wq)
        return full.reshape(o, b, hq, wq)
    w2 = w.reshape(o, k)
    cols = np.empty((c, kh, kw, step), dtype=dtype)
    taps = _taps(kh, kw, s, wq)
    for m0 in range(0, n, step):
        m = min(step, n - m0)
        for i, j, r, q, off in taps:
            cols[:, i, j, :m] = xs[r, q, :, off + m0:off + m0 + m]
        np.matmul(w2, cols.reshape(k, -1)[:, :m], out=full[:, m0:m0 + m])
    return full.reshape(o, b, hq, wq)


def _kernel_rows(xs: np.ndarray, w: np.ndarray, full: np.ndarray, step: int, wq: int) -> None:
    """The stride-1 cross-correlation of the phase-split input xs (c, n +
    tail) with w (o, c, kh, kw) into ``full`` (o, n), in chunks of ``step``
    columns, one GEMM per kernel row (the low-memory GEMM convolution of
    Anderson et al., arXiv 1709.03395).

    Per chunk of m columns, one (kw·c, m + (kh-1)·wq) buffer holds kw copies of
    the chunk's input columns plus a halo of the kernel's lower rows, copy j
    shifted j columns on; kernel row i then reads its window at column i·wq.
    Row 0's GEMM writes the chunk's output, and each later row's goes through
    one (o, m) product buffer and is added to it. When the output runs in more
    than one chunk, its chunk is a strided view of ``full``, and the product
    buffer's rows are padded by one element so that its chunk is strided too:
    numpy adds a contiguous operand into a strided one through a buffer of its
    own (~53 kB a call at the decoder's shapes), but adds two strided ones in
    place. A single chunk keeps both contiguous.
    """
    c, n = xs.shape[0], full.shape[1]
    o, _, kh, kw = w.shape
    halo = (kh - 1) * wq
    w_rows = w.transpose(2, 0, 3, 1).reshape(kh, o, kw * c)  # row i: (o, (j, c))
    rows = np.empty((kw, c, step + halo), dtype=full.dtype)
    flat = rows.reshape(kw * c, -1)
    prod = np.empty((o, step + (step < n)), dtype=full.dtype)
    for m0 in range(0, n, step):
        m = min(step, n - m0)
        for j in range(kw):
            rows[j, :, :m + halo] = xs[:, m0 + j:m0 + j + m + halo]
        out = full[:, m0:m0 + m]
        np.matmul(w_rows[0], flat[:, :m], out=out)
        for i in range(1, kh):
            np.matmul(w_rows[i], flat[:, i * wq:i * wq + m], out=prod[:, :m])
            out += prod[:, :m]


def _biased_conv(x: np.ndarray, w: np.ndarray, s: int, padding: int, bias: np.ndarray,
                 h_out: int, w_out: int, dtype: np.dtype) -> np.ndarray:
    """bias + the cross-correlation of x (b, c, h, w) with w (o, c, kh, kw), as
    (b, o, h_out, w_out) of ``dtype``: :func:`_conv_forward` of each slice of
    :func:`_batch_slices` written into its images of the output. The output is
    allocated once the first slice's scratch has died, and each slice's grid
    dies before the next is built, so a call of one slice allocates as a
    whole-batch pass would."""
    data = None
    for at in _batch_slices(x.shape, w.shape[0], s, padding):
        full = _conv_forward(x[at], w, s, padding)
        if data is None:
            data = np.empty((len(x), w.shape[0], h_out, w_out), dtype=dtype)
        for cells, dst in _phase_cells(full, 1, h_out, w_out):
            np.add(cells, bias[:, None, None], out=data[at][dst])
        del full, cells
    return data


def _conv_backward(x: np.ndarray, w: np.ndarray, s: int, padding: int, g: np.ndarray,
                   relu_out: np.ndarray | None, f: int, need_dx: bool):
    """Adjoint of :func:`_conv_forward`: ``(dx or None, dw, db)`` from the
    output gradient g, masked by a fused relu's output ``relu_out`` (None for
    none) and laid on the conv's phase grid by :func:`_grad_grid` with f as
    there; db, the bias gradient, is that grid's sum per channel.

    It runs on the slices of :func:`_batch_slices`, as the forward does, so
    that nothing it allocates is batch-sized but dx. Per slice it rebuilds the
    phase-split input from x, keeping nothing from the forward, and the
    gradient grid behind a front of zero columns, then

    - adds each tap's ``g·xsᵀ`` into dw over column tiles that keep both
      operands within ``_IM2COL_BUDGET // 4`` elements, to stay in cache
      across the taps;
    - gathers each phase's input gradient tile by tile, ``Σ_t w_tᵀ·g[tile −
      off_t]`` over that phase's taps (the input gradient is a convolution of
      g with the flipped kernel): one (c, tile) buffer sums the products that
      a second one receives, the two within ``_IM2COL_BUDGET // 9`` elements,
      and the sum is written over the tile's columns of the phase-split input,
      which dw has done reading.

    The slice's grid and buffers die before its input gradient, now in the
    phase-split buffer, is copied into its slice of dx, and that buffer dies
    before the next slice is built: one slice's scratch is alive at a time.
    dx is allocated after the first slice's grids die, as late as a
    whole-batch pass would allocate it. Input pixels of phases no tap reads
    get 0.
    """
    b, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    hq, wq = _phase_shape(h, wd, s, padding)
    taps = _taps(kh, kw, s, wq)
    front = taps[-1][4] if need_dx else 0
    phases = [(r, q, [(w[:, :, i, j].T, off) for i, j, rt, qt, off in taps
                      if (rt, qt) == (r, q)])
              for r in range(min(s, kh)) for q in range(min(s, kw))]
    dw = np.zeros(w.shape, dtype=g.dtype)
    db = 0.0
    dx = None
    for at in _batch_slices(x.shape, o, s, padding):
        xs = _phase_split(x[at], kh, kw, s, padding)[0]
        gpad = _grad_grid(g[at], None if relu_out is None else relu_out[at], f, hq, wq, front)
        grid = gpad[:, front:]
        n = grid.shape[1]
        db = db + grid.sum(axis=1)
        step = _chunk_columns(n, 4 * (o + c))
        for m0 in range(0, n, step):
            cols = np.s_[m0:m0 + step]
            for i, j, r, q, off in taps:
                dw[:, :, i, j] += grid[:, cols] @ xs[r, q, :, off:off + n][:, cols].T
        if not need_dx:
            del xs, gpad, grid
            continue
        step = _chunk_columns(n, 18 * c)
        scratch = np.empty((2, c, step), dtype=g.dtype)
        for m0 in range(0, n, step):
            m = min(step, n - m0)
            acc, prod = scratch[:, :, :m]
            for r, q, phase in phases:
                for t, (wt, off) in enumerate(phase):
                    back = front - off + m0
                    np.matmul(wt, gpad[:, back:back + m], out=prod if t else acc)
                    if t:
                        acc += prod
                xs[r, q, :, m0:m0 + m] = acc
        del gpad, grid, scratch, acc, prod
        if dx is None:
            dx = (np.zeros if s > min(kh, kw) else np.empty)(x.shape, dtype=x.dtype)
        dgrid = xs[..., :n].reshape(*xs.shape[:3], -1, hq, wq)
        dxt = dx[at].transpose(1, 0, 2, 3)
        for r, q, (gy, gx), (sy, sx) in _phase_slices(h, wd, kh, kw, s, padding):
            dxt[:, :, sy, sx] = dgrid[r, q, :, :, gy, gx]
        del xs, dgrid, dxt
    return dx, dw, db


def _phase_cells(grid: np.ndarray, f: int, h: int, w: int):
    """Per channel group (r, q) of a conv's phase grid (f²·o, b, hq, wq), yield
    ``(cells, at)``: its (b, o, h, w) view at cells (y + r, x + q), and where in
    the output (b, o, f·h, f·w) those are, pixels ``[at]`` = (f·y + r, f·x + q)."""
    groups = grid.reshape(f, f, -1, *grid.shape[1:])
    for r in range(f):
        for q in range(f):
            yield (groups[r, q, :, :, r:r + h, q:q + w].transpose(1, 0, 2, 3),
                   np.s_[:, :, r::f, q::f])


def _grad_grid(g: np.ndarray, relu_out: np.ndarray | None, f: int, hq: int, wq: int,
               front: int) -> np.ndarray:
    """The output gradient g (b, o, f·h, f·w) of a slice of b images on a flat
    phase grid of f²·o rows: returns (f²·o, front + b·hq·wq), zero but for the
    cells that :func:`_phase_cells` maps g onto, from column ``front`` on; the
    zero front lets a tap's offset reach back from any cell. g is zeroed where
    a fused relu's output ``relu_out`` (the slice's) is 0, and unchanged when
    that is None."""
    rows = f * f * g.shape[1]
    gpad = np.zeros((rows, front + len(g) * hq * wq), dtype=g.dtype)
    grid = gpad[:, front:].reshape(rows, len(g), hq, wq)
    for cells, at in _phase_cells(grid, f, g.shape[2] // f, g.shape[3] // f):
        np.multiply(g[at], relu_out is None or relu_out[at] > 0.0, out=cells)
    return gpad


def _check_bias(op: str, bias, o: int) -> None:
    """Raise unless ``bias`` is a Tensor of shape (o,)."""
    if not isinstance(bias, Tensor) or bias.shape != (o,):
        raise DimensionError(f"{op} bias shape must be ({o},), got {getattr(bias, 'shape', bias)}")


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           relu: bool = False) -> Tensor:
    """2-D cross-correlation over NCHW input with an OIHW kernel, then
    ``relu(·)`` in place if ``relu`` is set.

    Computed on the flat phase grid of :func:`_conv_forward`, which stores only
    the stride phases that some tap reads, so at any stride it is about the
    size of the padded input. Forward and backward both run on the slices of
    the batch of :func:`_batch_slices`, one image at the model's 64x64 maps,
    so only the output and dx are batch-sized (see :func:`_biased_conv`). The
    backward keeps no array of its own: it rebuilds each slice's padded input
    from ``x.data`` (see :func:`_conv_backward`). With ``relu`` it also reads
    its own output, masking g where that is 0; the pre-activation is never
    kept, and a -inf in it clamps to 0 rather than raising. A kernel with an
    empty spatial axis raises a ``DimensionError``; o = 0 output channels is
    allowed.
    """
    _operands("conv2d", x=x, w=w)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d needs 4-d input and kernel, got {x.shape}, {w.shape}")
    for name, value, least in (("stride", stride, 1), ("padding", padding, 0)):
        if not _is_int(value) or value < least:
            raise ContractError(f"conv2d {name} must be an integer >= {least}, got {value!r}")
    b, c, h, wd = x.shape
    if 0 in (b, c):
        raise DimensionError(f"conv2d got an empty axis: batch {b}, input channels {c}")
    o, ci, kh, kw = w.shape
    if 0 in (kh, kw):  # an empty output axis (o = 0) is fine
        raise DimensionError(f"conv2d got an empty kernel axis: kernel {w.shape}")
    if ci != c:
        raise DimensionError(f"conv2d channel mismatch: input {c}, kernel expects {ci}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise DimensionError(f"conv2d kernel {kh}x{kw} larger than padded input "
                             f"{h + 2 * padding}x{wd + 2 * padding}")
    # The padded input's phase grid and the output each hold at most this many
    # elements; past what an array can index, numpy would raise its own error.
    if max(c, o) * b * (h + 2 * padding) * (wd + 2 * padding) > np.iinfo(np.intp).max:
        raise DimensionError(f"conv2d padded input {h + 2 * padding}x{wd + 2 * padding} "
                             f"is larger than an array can be")
    _check_bias("conv2d", bias, o)
    if not isinstance(relu, bool):
        raise ContractError(f"conv2d relu must be a bool, got {relu!r}")

    data = _biased_conv(x.data, w.data, stride, padding, bias.data, h_out, w_out,
                        _result_type((x, w, bias)))
    if relu:
        np.maximum(data, 0.0, out=data)
    relu_out = data if relu else None

    def backward_fn(g):
        return _conv_backward(x.data, w.data, stride, padding, g, relu_out, 1,
                              x.requires_grad)

    # The bias add rides in the multiply-accumulates; the relu is 1 per output.
    return _node(data, "conv2d", (x, w, bias), backward_fn,
                 flops=data.size * (2 * ci * kh * kw + relu))


# Along one axis, output phase a of a 3-tap kernel on a nearest-2x upsample
# reads two low-resolution pixels: _FOLD_AXIS[a, t, i] = 1 when tap i of the
# 3x3 kernel lands on pixel t of them. _FOLD[(a, b, t, u), (i, j)] is its
# outer product over the two axes: phase (a, b), 2x2 tap (t, u).
_FOLD_AXIS = np.array([[[1, 0, 0], [0, 1, 1]],
                       [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_FOLD = (_FOLD_AXIS[:, None, :, None, :, None]
         * _FOLD_AXIS[None, :, None, :, None, :]).reshape(16, 9)


def upsample_concat_conv2d(x: Tensor, skip: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """``conv2d(concat([upsample_nearest_2x(x), skip], 1), w, bias, padding=1,
    relu=True)`` for a 3x3 kernel, as one op that never forms the upsample or
    the concat.

    The kernel splits by input channels: with c_up = x.shape[1], the skip half
    ``w[:, c_up:]`` is a plain 3x3 conv of ``skip``. The upsampled half folds
    into one 2x2 conv of x, padded by 1, to 4·o channels, one group of o per
    output phase (a, b) (sub-pixel convolution; Shi et al., arXiv 1609.07009).
    Along one axis, phase 0 reads x rows (y-1, y) with taps (w0, w1 + w2) and
    phase 1 reads (y, y+1) with (w0 + w1, w2); both axes together are one GEMM
    with the constant 16x9 ``_FOLD``. The halves' phase grids map onto the
    output by :func:`_phase_cells`, the skip half's at f = 1 and the folded
    half's at f = 2. Each half runs slice by slice over the batch, as
    :func:`conv2d` does: the skip half writes ``bias +`` its conv into the
    output, allocated after its first slice's scratch dies, and then the
    folded half adds its own. The relu is applied and differentiated as in
    :func:`conv2d`. The backward keeps only the output,
    for the relu's mask: it folds the kernel again, rebuilds each padded input
    from ``skip.data`` and ``x.data`` in turn, and maps the folded kernel's
    gradient back to ``w[:, :c_up]`` by ``_FOLD``. FLOPs are the
    multiply-accumulates each output pixel needs: 9 per skip channel and 4 per
    x channel, plus 1 for the relu.
    """
    _operands("upsample_concat_conv2d", x=x, skip=skip, w=w)
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
    _check_bias("upsample_concat_conv2d", bias, o)

    w_skip = w.data[:, c_up:]

    def fold():
        folded = np.matmul(w.data.reshape(o, c_up + c_s, 9)[:, :c_up], _FOLD.T,
                           dtype=w.data.dtype)  # (o, c_up, 16)
        folded = folded.reshape(o, c_up, 2, 2, 2, 2).transpose(2, 3, 0, 1, 4, 5)
        return folded.reshape(4 * o, c_up, 2, 2)

    data = _biased_conv(skip.data, w_skip, 1, 1, bias.data, 2 * h, 2 * wd,
                        _result_type((x, skip, w, bias)))
    folded = fold()
    for at in _batch_slices(x.shape, 4 * o, 1, 1):
        full = _conv_forward(x.data[at], folded, 1, 1)
        for cells, dst in _phase_cells(full, 2, h, wd):
            data[at][dst] += cells
        del full, cells
    del folded
    np.maximum(data, 0.0, out=data)

    def backward_fn(g):
        dskip, dw_skip, db = _conv_backward(skip.data, w_skip, 1, 1, g, data, 1,
                                            skip.requires_grad)
        dx, dfolded, _ = _conv_backward(x.data, fold(), 1, 1, g, data, 2, x.requires_grad)
        dw = np.empty(w.shape, dtype=g.dtype)
        dw[:, c_up:] = dw_skip
        dfolded = dfolded.reshape(2, 2, o, c_up, 2, 2).transpose(2, 3, 0, 1, 4, 5)
        dw[:, :c_up] = np.matmul(dfolded.reshape(o, c_up, 16), _FOLD,
                                 dtype=g.dtype).reshape(o, c_up, 3, 3)
        return (dx, dskip, dw, db)

    return _node(data, "upsample_concat_conv2d", (x, skip, w, bias), backward_fn,
                 flops=data.size * (2 * (9 * c_s + 4 * c_up) + 1))


def upsample_nearest_2x(x: Tensor) -> Tensor:
    _operands("upsample_nearest_2x", x=x)
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
    _operands("mean_last_axis", x=x)
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
    _operands("basis_expand", x=x)
    check_type("basis_expand", "basis", basis, Callable)
    check_type("basis_expand", "slopes", slopes, Callable)
    with np.errstate(all="ignore"):  # a non-finite x raises in _node
        data = real_array(basis(x.data), "basis_expand: basis output")
    if data.shape[:-1] != x.shape or data.ndim != x.ndim + 1:
        raise DimensionError(f"basis_expand: basis output must have shape {x.shape} + (n,), "
                             f"got {data.shape}")

    def backward_fn(g):
        slope = slopes(x.data)
        slope *= g
        return (slope.sum(axis=-1),)

    return _node(data, "basis_expand", (x,), backward_fn, flops=flops)


def _poly_table(x0, h, coef, dtype: np.dtype):
    """``(x0, h, mid, cols, slopes)`` of an ``affine`` ``act`` table, checked:
    the floats x0 and h, each row's cell midpoint ``mid`` (its offsets start
    there), and the ascending coefficients of p and of p' as columns, the
    arrays in ``dtype``, the input's, and read-only. A table that is not one
    raises a ``ContractError`` naming ``affine``.

    Each distinct table is checked and cast once per dtype: the result is
    cached under the table's content (x0, h, the float64 coef's shape and
    bytes) and the dtype, so a coef edited in place is a new key. Only a table
    that passes is cached; a bad one raises on every call."""
    try:
        coef = np.asarray(coef, dtype=np.float64)
        x0, h = float(x0), float(h)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"affine needs a numeric table, x0 and h: {exc}") from exc
    return _cached_table(x0, h, coef.shape, coef.tobytes(), np.dtype(dtype))


@functools.lru_cache(maxsize=64)
def _cached_table(x0: float, h: float, shape: tuple[int, ...], coef: bytes, dtype: np.dtype):
    """:func:`_check_table` of the float64 table with ``shape`` and bytes ``coef``."""
    return _check_table(x0, h, np.frombuffer(coef).reshape(shape), dtype)


def _check_table(x0: float, h: float, coef: np.ndarray, dtype: np.dtype):
    """:func:`_poly_table` of the float64 ``coef``, checked and cast afresh."""
    if coef.ndim != 2 or coef.shape[0] < 3 or coef.shape[1] < 2:
        raise ContractError(f"affine needs a (cells + 2, degree + 1) table of degree >= 1, "
                            f"got shape {coef.shape}")
    if not np.all(np.isfinite(coef)) or np.any(coef[[0, -1]]):
        raise ContractError("affine needs a finite table whose first and last rows are zero")
    if not (np.isfinite(x0) and np.isfinite(h) and h > 0):
        raise ContractError(f"affine needs a finite x0 and h > 0, got x0={x0!r}, h={h!r}")
    mid = x0 + h * (np.arange(-1, coef.shape[0] - 1) + 0.5)
    cols = np.ascontiguousarray(coef.T)
    slopes = cols[1:] * np.arange(1, cols.shape[0])[:, None]
    arrays = tuple(a.astype(dtype) for a in (mid, cols, slopes))
    for a in arrays:
        a.flags.writeable = False
    return (x0, h, *arrays)


# A NaN x casts to an arbitrary row, which mode="clip" keeps in range; its
# offset t is NaN whatever the row, and so is p (degree >= 1): an infinite
# x likewise gives 0 * inf. _node then raises on the output. A huge x
# overflows u to inf, which the clip brings back to a zero row. So _locate
# and the Horner passes after it run under the caller's
# np.errstate(all="ignore"): affine enters it once per pass.
def _locate(x: np.ndarray, x0: float, h: float, mid: np.ndarray):
    """Each element's table row and its offset t from that cell's midpoint."""
    u = np.subtract(x, x0, out=np.empty(x.shape, dtype=x.dtype))
    u /= h
    np.maximum(u, -1.0, out=u)  # np.clip's arithmetic without its Python wrapper
    np.minimum(u, mid.size - 2, out=u)
    np.floor(u, out=u)
    u += 1.0
    row = u.astype(np.intp)
    return row, x - mid.take(row, mode="clip")


def _horner(c: np.ndarray, row: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Σ_k c[k, row] t^k by Horner's rule, into a new array."""
    p = c[-1].take(row, mode="clip")
    for ck in c[-2::-1]:
        p *= t
        p += ck.take(row, mode="clip")
    return p


def _poly_flops(cols: np.ndarray) -> int:
    """FLOPs per element of an ``act`` prologue: the cell index (shift,
    scale, floor), the offset, Horner (2 per degree) and the square."""
    return 2 * (cols.shape[0] - 1) + 5


def sum_all(x: Tensor) -> Tensor:
    _operands("sum_all", x=x)
    def backward_fn(g):
        return (np.broadcast_to(g, x.shape),)

    return _node(np.sum(x.data), "sum_all", (x,), backward_fn, flops=x.size)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    _operands("reshape", x=x)
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
    _operands("transpose", x=x)
    if (not isinstance(axes, tuple) or not all(map(_is_int, axes))
            or sorted(axes) != list(range(x.ndim))):
        raise DimensionError(f"transpose axes {axes} invalid for rank {x.ndim}")
    inv = np.argsort(axes)

    def backward_fn(g):
        return (g.transpose(inv),)

    return _node(x.data.transpose(axes), "transpose", (x,), backward_fn, flops=0)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not isinstance(tensors, (list, tuple)) or not tensors:
        raise ContractError(f"concat needs a non-empty list of tensors, got {tensors!r:.60}")
    _operands("concat", **{f"tensors[{i}]": t for i, t in enumerate(tensors)})
    if not _is_int(axis) or not -tensors[0].ndim <= axis < tensors[0].ndim:
        raise DimensionError(f"concat axis {axis!r} invalid for shape {tensors[0].shape}")
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

    ``x`` and the output of ``f`` must be float64, or a ``ContractError``
    names the one that is not: finite differences at float32's epsilon are
    noise. Check a float32 model on its float64 copy.
    """
    _operands("grad_check", x=x)
    if x.data.dtype != np.float64:
        raise ContractError(f"grad_check x must be float64, got {x.data.dtype}")
    if not _is_real(h) or not h > 0:
        raise ContractError(f"grad_check step h must be a positive number, got {h!r}")
    if not _is_real(tol):
        raise ContractError(f"grad_check tol must be a real number, got {tol!r}")
    if sample is not None:
        check_sizes({"grad_check sample": sample})
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if not isinstance(out, Tensor):
        raise ContractError(f"grad_check target must return a Tensor, "
                            f"got {type(out).__name__}")
    if out.size != 1:
        raise ContractError("grad_check target must return a scalar")
    if out.data.dtype != np.float64:
        raise ContractError(f"grad_check target must return a float64 Tensor, "
                            f"got {out.data.dtype}")
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
