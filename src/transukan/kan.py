"""KAN layer variants.

Three ways to build a learnable-activation layer on a shared uniform grid:

* ``BSplineKanLayer``: every edge carries its own activation, a silu base
  term plus a coefficient-weighted B-spline expansion.
* ``ReLUKanLayer``: squared-hinge basis responses integrated by one dense
  kernel of size (G+K, c_in) per output channel.
* ``EfficientKanLayer``: an ``AffineLayer`` over a fixed activation. Each
  input channel's squared-hinge basis responses are averaged with fixed
  weights and squared, q = (mean_i R_i(x))^2, by the single op
  ``tensor.hinge_pool`` plus a square; no basis block is kept. The layer adds
  no parameters to the affine map it inherits: its weights, their
  initialisation and its mixing map are the ``AffineLayer``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor


@dataclass(frozen=True)
class KanGrid:
    """Uniform basis grid.

    ``G`` grid cells of width ``h = (range_hi - range_lo) / G`` carry
    ``G + K`` overlapping basis supports: ``s_i = range_lo + (i - K) * h``
    and ``e_i = s_i + (K + 1) * h``.
    """

    G: int = 5
    K: int = 3
    range_lo: float = -1.0
    range_hi: float = 1.0

    def __post_init__(self):
        T.check_sizes({"grid G": self.G})
        T.check_sizes({"grid K": self.K}, least=0)
        for name, value in (("range_lo", self.range_lo), ("range_hi", self.range_hi)):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ContractError(f"grid {name} must be finite, got {value!r}")
        if not self.range_hi > self.range_lo:
            raise ContractError(f"grid range [{self.range_lo}, {self.range_hi}] is empty")

    @property
    def h(self) -> float:
        return (self.range_hi - self.range_lo) / self.G

    @property
    def n_basis(self) -> int:
        return self.G + self.K

    def support_lo(self) -> np.ndarray:
        """Lower bounds s_i, i = 0..G+K-1."""
        i = np.arange(self.n_basis)
        return self.range_lo + (i - self.K) * self.h

    def support_hi(self) -> np.ndarray:
        """Upper bounds e_i = s_i + (K+1) h."""
        return self.support_lo() + (self.K + 1) * self.h


# ---------------------------------------------------------------------------
# Squared-hinge (ReLU product) basis
# ---------------------------------------------------------------------------

def relukan_basis(x, grid: KanGrid) -> np.ndarray:
    """Basis responses R_i(x) = [relu(e_i - x) * relu(x - s_i)]^2 * 16/(e_i - s_i)^4.

    The 16/(e-s)^4 factor normalizes each bell to peak at exactly 1 at the
    support midpoint. Returns shape ``x.shape + (G+K,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    s = grid.support_lo()
    e = grid.support_hi()
    xe = x[..., None]
    prod = np.maximum(e - xe, 0.0) * np.maximum(xe - s, 0.0)
    return prod * prod * (16.0 / (e - s) ** 4)


def relukan_basis_expand(x: Tensor, grid: KanGrid) -> Tensor:
    """Graph version of :func:`relukan_basis`: Tensor[..., c] -> Tensor[..., c, G+K]."""
    s = Tensor(grid.support_lo())
    e = Tensor(grid.support_hi())
    norm = Tensor(16.0 / (grid.support_hi() - grid.support_lo()) ** 4)
    xe = T.reshape(x, x.shape + (1,))
    prod = T.mul(T.relu(T.sub(e, xe)), T.relu(T.sub(xe, s)))
    return T.mul(T.square(prod), norm)


# ---------------------------------------------------------------------------
# B-spline basis (uniform extended knots)
# ---------------------------------------------------------------------------

def bspline_knots(grid: KanGrid, order: int) -> np.ndarray:
    """Uniform knot vector for ``G + order`` basis functions of the given order.

    Order 1 is piecewise constant (degree 0). The G+1 cell boundaries are
    extended by order-1 knots below and order knots above so the basis count
    comes out to exactly G + order while keeping uniform spacing.
    """
    if order < 1:
        raise ContractError(f"spline order must be >= 1, got {order}")
    j = np.arange(grid.G + 2 * order)
    return grid.range_lo + (j - (order - 1)) * grid.h


def bspline_basis(x, grid: KanGrid, order: int) -> np.ndarray:
    """Cox-de Boor basis values, vectorized; shape ``x.shape + (G+order,)``.

    Zero outside the knot span; partition of unity on the grid interior.
    """
    x = np.asarray(x, dtype=np.float64)
    t = bspline_knots(grid, order)
    xe = x[..., None]
    # degree-0 indicators on half-open intervals [t_j, t_{j+1})
    b = ((xe >= t[:-1]) & (xe < t[1:])).astype(np.float64)
    for deg in range(1, order):
        nb = len(t) - 1 - deg
        left = (xe - t[:nb]) / (t[deg:deg + nb] - t[:nb])
        right = (t[deg + 1:deg + 1 + nb] - xe) / (t[deg + 1:deg + 1 + nb] - t[1:1 + nb])
        b = left * b[..., :nb] + right * b[..., 1:nb + 1]
    return b


def bspline_basis_expand(x: Tensor, grid: KanGrid, order: int) -> Tensor:
    """Graph version of :func:`bspline_basis`: Tensor[..., c] -> Tensor[..., c, G+order].

    The degree-0 indicators are piecewise constant in x, so they enter the
    graph as constants; the recursion levels are differentiable ops.
    """
    t = bspline_knots(grid, order)
    xe = T.reshape(x, x.shape + (1,))
    b = Tensor(((x.data[..., None] >= t[:-1]) & (x.data[..., None] < t[1:]))
               .astype(np.float64))
    for deg in range(1, order):
        nb = len(t) - 1 - deg
        inv_l = 1.0 / (t[deg:deg + nb] - t[:nb])
        inv_r = 1.0 / (t[deg + 1:deg + 1 + nb] - t[1:1 + nb])
        left = T.mul(T.sub(xe, Tensor(t[:nb])), Tensor(inv_l))
        right = T.mul(T.sub(Tensor(t[deg + 1:deg + 1 + nb]), xe), Tensor(inv_r))
        b = T.add(T.mul(left, T.slice_axis(b, -1, 0, nb)),
                  T.mul(right, T.slice_axis(b, -1, 1, nb + 1)))
    return b


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _uniform(rng: np.random.Generator, bound: float, shape) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def _check_last_dim(x: Tensor, c_in: int, name: str) -> None:
    if x.ndim < 1 or x.shape[-1] != c_in:
        raise DimensionError(f"{name} expects last dim {c_in}, got input shape {x.shape}")


class AffineLayer:
    """y = x W^T + b, the baseline every KAN variant is measured against."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out})
        self.c_in = c_in
        self.c_out = c_out
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(_uniform(rng, 1.0 / np.sqrt(c_in), (c_out, c_in)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        _check_last_dim(x, self.c_in, "AffineLayer")
        return T.add(T.matmul(x, T.transpose(self.weight, (1, 0))), self.bias)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BSplineKanLayer:
    """Edge-function layer: y_q = sum_p [w_b silu(x_p) + w_s sum_i c_i B_i(x_p)].

    Every (output, input) edge owns a base weight, a spline scale and
    ``G + k_spline`` spline coefficients.
    """

    def __init__(self, c_in: int, c_out: int, grid: KanGrid | None = None,
                 k_spline: int = 3, rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out, "k_spline": k_spline})
        self.c_in = c_in
        self.c_out = c_out
        self.grid = grid or KanGrid()
        self.k_spline = k_spline
        self.n_basis = self.grid.G + k_spline
        rng = rng or np.random.default_rng(0)
        bound = 1.0 / np.sqrt(c_in)
        self.w_base = Tensor(_uniform(rng, bound, (c_out, c_in)), requires_grad=True)
        self.w_spline = Tensor(_uniform(rng, bound, (c_out, c_in)), requires_grad=True)
        self.coeff = Tensor(rng.normal(scale=0.1, size=(c_out, c_in, self.n_basis)),
                            requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        _check_last_dim(x, self.c_in, "BSplineKanLayer")
        base = T.matmul(T.silu(x), T.transpose(self.w_base, (1, 0)))
        basis = bspline_basis_expand(x, self.grid, self.k_spline)
        flat = T.reshape(basis, x.shape[:-1] + (self.c_in * self.n_basis,))
        edge_w = T.mul(T.reshape(self.w_spline, (self.c_out, self.c_in, 1)), self.coeff)
        spline = T.matmul(flat, T.transpose(
            T.reshape(edge_w, (self.c_out, self.c_in * self.n_basis)), (1, 0)))
        return T.add(base, spline)

    def parameters(self):
        return [("w_base", self.w_base), ("w_spline", self.w_spline),
                ("coeff", self.coeff)]


class ReLUKanLayer:
    """Squared-hinge basis layer integrated by a full (G+K, c_in) kernel.

    The kernel is exactly the convolution of the reshaped (B, 1, G+K, c_in)
    activation block with a same-sized filter per output channel, written as
    one flattened matmul: y_o = sum_{i,p} W[o,i,p] R_i(x_p) + bias_o.
    """

    def __init__(self, c_in: int, c_out: int, grid: KanGrid | None = None,
                 rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out})
        self.c_in = c_in
        self.c_out = c_out
        self.grid = grid or KanGrid()
        rng = rng or np.random.default_rng(0)
        nb = self.grid.n_basis
        self.kernel = Tensor(_uniform(rng, 1.0 / np.sqrt(c_in * nb), (c_out, nb, c_in)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        _check_last_dim(x, self.c_in, "ReLUKanLayer")
        nb = self.grid.n_basis
        basis = relukan_basis_expand(x, self.grid)          # [..., c_in, G+K]
        block = T.transpose(basis, tuple(range(basis.ndim - 2)) + (basis.ndim - 1,
                                                                   basis.ndim - 2))
        flat = T.reshape(block, x.shape[:-1] + (nb * self.c_in,))
        w = T.transpose(T.reshape(self.kernel, (self.c_out, nb * self.c_in)), (1, 0))
        return T.add(T.matmul(flat, w), self.bias)

    def parameters(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


class EfficientKanLayer(AffineLayer):
    """An ``AffineLayer`` over a fixed activation: y = q W^T + b, where
    q = (mean_i R_i(x))^2 averages each channel's G+K squared-hinge bells.

    ``activate`` computes q by one fused ``hinge_pool`` op and a square, and
    has no parameters; ``mix`` is the affine map. Parameters, their
    initialisation and their names are the ``AffineLayer``'s. ``activate``
    depends on the grid alone, so layers on one grid that read the same input
    can share its output.
    """

    def __init__(self, c_in: int, c_out: int, grid: KanGrid | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__(c_in, c_out, rng=rng)
        self.grid = grid or KanGrid()

    def activate(self, x: Tensor) -> Tensor:
        """q = (mean_i R_i(x))^2, elementwise; the expanded basis is never kept."""
        _check_last_dim(x, self.c_in, "EfficientKanLayer")
        return T.square(T.hinge_pool(x, self.grid.support_lo(),
                                     self.grid.support_hi()))

    # Bound at class level, so a wrapper put on AffineLayer.forward later sees
    # only the plain affine layers.
    mix = AffineLayer.forward

    def forward(self, x: Tensor) -> Tensor:
        return self.mix(self.activate(x))
