"""KAN layer variants.

Three ways to build a learnable-activation layer on a shared uniform grid:

* ``BSplineKanLayer``: every edge carries its own activation, a silu base
  term plus a coefficient-weighted B-spline expansion. Its order is
  ``max(grid.K, 1)``, so it carries the grid's G + K basis functions, as in
  KAN, and the piecewise constants on G + 1 at K = 0.
* ``ReLUKanLayer``: squared-hinge basis responses integrated by one dense
  kernel of size (G+K, c_in) per output channel.
* ``EfficientKanLayer``: an ``AffineLayer`` over a fixed activation. Each
  input channel's squared-hinge basis responses are averaged with fixed
  weights and squared, q = (mean_i R_i(x))^2. On the uniform grid the mean is
  one piecewise quartic in x, whose table is the ``act`` of ``tensor.affine``.
  The layer is one ``tensor.affine`` node with that activation inside it: it
  keeps x, and neither q nor a basis block. The layer adds no parameters to
  the affine map it inherits: its weights, their initialisation and its
  mixing map are the ``AffineLayer``'s.

An ``AffineLayer``, and so an EfficientKAN layer and the ReLU-KAN layer's
integration, is one ``tensor.affine`` node that adds its bias in place: no
bias-free product is kept. Its ``forward`` takes a ``residual`` that the node
adds in place too, so a block's residual add keeps no output of its own.

The ReLU-KAN and B-spline layers expand their input with one
``tensor.basis_expand`` node each. Its forward is the numpy basis below
(``relukan_basis``, ``bspline_basis``) and its backward recomputes the basis
slopes from x, so each basis is written once and only x is kept. The pooled
ReLU-KAN expansion, ``mean_last_axis(relukan_basis_expand(x, grid))``, is the
oracle that the EfficientKAN quartic is checked against. Layers built without a
``grid`` share the frozen default ``KanGrid()``, its cached ``pooled_bell_table``
and its ``act`` table.

The layers draw float64 parameters; a ``TransUKanModel`` stores its own as
float32. The bases and their slopes compute in the dtype of x.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor


@dataclass(frozen=True)
class KanGrid:
    """Uniform basis grid.

    ``G`` grid cells of width ``h = (range_hi - range_lo) / G`` carry
    ``G + K`` overlapping basis supports: ``s_i = range_lo + (i - K) * h``
    and ``e_i = s_i + (K + 1) * h``. The grid is frozen, so what is made from
    it alone, its ``pooled_bell_table`` and its ``act`` table, is made once.
    """

    G: int = 5
    K: int = 3
    range_lo: float = -1.0
    range_hi: float = 1.0

    def __post_init__(self):
        T.check_sizes({"grid G": self.G})
        T.check_sizes({"grid K": self.K}, least=0)
        for name, value in (("range_lo", self.range_lo), ("range_hi", self.range_hi)):
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ContractError(f"grid {name} must be a finite number, got {value!r}")
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

    @cached_property
    def pooled_bell_table(self) -> np.ndarray:
        """Coefficients of p(x) = mean_i R_i(x) as a piecewise quartic: the
        ``coef`` of a ``tensor.affine`` ``act`` table with x0 = s_0 and step h.

        The G + 2K cells between s_0 and e_{G+K-1} are one h wide. On cell j,
        at x = s_0 + (j + 1/2 + t) h, bell i = j - d (0 <= d <= K) reads
        16 [(K+1/2-d-t)(d+1/2+t)]^2 / (K+1)^4, which depends on d and t alone.
        """
        K, n = self.K, self.n_basis
        table = np.zeros((self.G + 2 * K + 2, 5))
        for d in range(K + 1):
            # (K+1/2-d-t)(d+1/2+t) = a + b t + c t^2, squared; exact in binary.
            a, b, c = (K + 0.5 - d) * (d + 0.5), K - 2 * d, -1.0
            quartic = [a * a, 2 * a * b, b * b + 2 * a * c, 2 * b * c, c * c]
            table[1 + d:1 + d + n] += quartic
        table *= 16.0 / ((K + 1) ** 4 * n)
        table /= self.h ** np.arange(5)  # powers of t to powers of x - midpoint
        table.flags.writeable = False
        return table

    @cached_property
    def act(self) -> tuple[float, float, np.ndarray]:
        """The ``tensor.affine`` ``act`` table ``(s_0, h, pooled_bell_table)``
        of the EfficientKAN activation, made once per grid; ``affine`` then
        checks it once per dtype."""
        return float(self.support_lo()[0]), self.h, self.pooled_bell_table


# ---------------------------------------------------------------------------
# Squared-hinge (ReLU product) basis
# ---------------------------------------------------------------------------

def _hinges(x, grid: KanGrid):
    """relu(e_i - x), relu(x - s_i) and the bell norms 16/(e_i - s_i)^4, in x's dtype."""
    T.check_type("relukan_basis", "grid", grid, KanGrid)
    xe = T.real_array(x, "relukan_basis: x")[..., None]
    s, e = grid.support_lo().astype(xe.dtype), grid.support_hi().astype(xe.dtype)
    return np.maximum(e - xe, 0.0), np.maximum(xe - s, 0.0), 16.0 / (e - s) ** 4


def relukan_basis(x, grid: KanGrid) -> np.ndarray:
    """Basis responses R_i(x) = [relu(e_i - x) * relu(x - s_i)]^2 * 16/(e_i - s_i)^4.

    The 16/(e-s)^4 factor normalizes each bell to peak at exactly 1 at the
    support midpoint. Returns shape ``x.shape + (G+K,)``.
    """
    a, b, norm = _hinges(x, grid)
    prod = a * b
    return prod * prod * norm


def _relukan_slopes(x, grid: KanGrid) -> np.ndarray:
    """dR_i/dx = 2 c_i a b (a - b), with a, b the hinges and c_i the norms."""
    a, b, norm = _hinges(x, grid)
    # a b first: it is 0 wherever one hinge is, so a far-away x cannot
    # overflow (a - b) a to inf and then turn it into inf * 0 = NaN.
    slope = a * b
    slope *= a - b
    slope *= 2.0 * norm
    return slope


def relukan_basis_expand(x: Tensor, grid: KanGrid) -> Tensor:
    """:func:`relukan_basis` as one graph node: Tensor[..., c] -> Tensor[..., c, G+K].

    Only x is kept; the backward recomputes the bells' slopes. The FLOPs are
    those of the elementwise graph it stands for: 2 subtractions, 2 hinges,
    the product, its square and the norm, 7 per basis element.
    """
    T.check_type("relukan_basis_expand", "x", x, Tensor)
    T.check_type("relukan_basis_expand", "grid", grid, KanGrid)
    return T.basis_expand(x, lambda v: relukan_basis(v, grid),
                          lambda v: _relukan_slopes(v, grid), 7 * x.size * grid.n_basis)


# ---------------------------------------------------------------------------
# B-spline basis (uniform extended knots)
# ---------------------------------------------------------------------------

def bspline_knots(grid: KanGrid, order: int) -> np.ndarray:
    """Uniform knot vector for ``G + order`` basis functions of the given order.

    Order 1 is piecewise constant (degree 0). The G+1 cell boundaries are
    extended by order-1 knots below and order knots above so the basis count
    comes out to exactly G + order while keeping uniform spacing.
    """
    T.check_type("bspline_knots", "grid", grid, KanGrid)
    T.check_sizes({"bspline_knots order": order})
    j = np.arange(grid.G + 2 * order)
    return grid.range_lo + (j - (order - 1)) * grid.h


def _cox_de_boor(x, t: np.ndarray, order: int) -> np.ndarray:
    """Basis of the given order on knots ``t``, in x's dtype; shape
    ``x.shape + (len(t) - order,)``."""
    xe = T.real_array(x, "bspline_basis: x")[..., None]
    t = t.astype(xe.dtype)
    # degree-0 indicators on half-open intervals [t_j, t_{j+1})
    b = ((xe >= t[:-1]) & (xe < t[1:])).astype(xe.dtype)
    for deg in range(1, order):
        nb = len(t) - 1 - deg
        left = (xe - t[:nb]) / (t[deg:deg + nb] - t[:nb])
        right = (t[deg + 1:deg + 1 + nb] - xe) / (t[deg + 1:deg + 1 + nb] - t[1:1 + nb])
        b = left * b[..., :nb] + right * b[..., 1:nb + 1]
    return b


def bspline_basis(x, grid: KanGrid, order: int) -> np.ndarray:
    """Cox-de Boor basis values, vectorized; shape ``x.shape + (G+order,)``.

    Zero outside the knot span; partition of unity on the grid interior.
    """
    return _cox_de_boor(x, bspline_knots(grid, order), order)


def _bspline_slopes(x, grid: KanGrid, order: int) -> np.ndarray:
    """dB_i/dx = (L_i - L_{i+1}) / h, with L the order - 1 basis on the same
    uniform knots; 0 at order 1. The half-open indicators make it the
    right-hand derivative at a knot."""
    if order == 1:
        xe = T.real_array(x, "bspline_basis: x")
        return np.zeros(xe.shape + (grid.G + 1,), dtype=xe.dtype)
    lower = _cox_de_boor(x, bspline_knots(grid, order), order - 1)
    slope = lower[..., :-1] - lower[..., 1:]
    slope /= grid.h
    return slope


def bspline_basis_expand(x: Tensor, grid: KanGrid, order: int) -> Tensor:
    """:func:`bspline_basis` as one graph node: Tensor[..., c] -> Tensor[..., c, G+order].

    Only x is kept; the backward recomputes the order - 1 basis for the
    slopes. The FLOPs are those of the elementwise graph it stands for: 7 per
    element of each recursion level (2 offsets, 2 scalings, 2 products and a
    sum), with the degree-0 indicators free.
    """
    T.check_type("bspline_basis_expand", "x", x, Tensor)
    n_knots = len(bspline_knots(grid, order))
    level_sizes = sum(n_knots - 1 - deg for deg in range(1, order))
    return T.basis_expand(x, lambda v: bspline_basis(v, grid, order),
                          lambda v: _bspline_slopes(v, grid, order), 7 * x.size * level_sizes)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _uniform(rng: np.random.Generator, bound: float, shape) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def named_parameters(parts) -> list[tuple[str, Tensor]]:
    """Each ``(name, part)``'s parameters, in order, with names prefixed by ``name.``."""
    T.check_type("named_parameters", "parts", parts, Iterable)
    named = []
    for pair in parts:
        if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
                and callable(getattr(pair[1], "parameters", None))):
            raise ContractError(f"named_parameters: each part must be a (name, layer) "
                                f"pair, got {pair!r:.60}")
        named += [(f"{pair[0]}.{n}", p) for n, p in pair[1].parameters()]
    return named


def _check_last_dim(x: Tensor, c_in: int, name: str) -> None:
    if x.ndim < 1 or x.shape[-1] != c_in:
        raise DimensionError(f"{name} expects last dim {c_in}, got input shape {x.shape}")


class AffineLayer:
    """y = x W^T + b, the baseline every KAN variant is measured against."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out})
        self.c_in = c_in
        self.c_out = c_out
        rng = T.check_rng("AffineLayer", rng)
        self.weight = Tensor(_uniform(rng, 1.0 / np.sqrt(c_in), (c_out, c_in)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        """x W^T + b, plus ``residual`` if given, as one node."""
        _check_last_dim(x, self.c_in, "AffineLayer")
        return T.affine(x, self.weight, self.bias, residual)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BSplineKanLayer:
    """Edge-function layer: y_q = sum_p [w_b silu(x_p) + w_s sum_i c_i B_i(x_p)].

    The spline order follows the grid, ``k_spline = max(grid.K, 1)``. Every
    (output, input) edge owns a base weight, a spline scale and
    ``G + k_spline`` spline coefficients.
    """

    def __init__(self, c_in: int, c_out: int, grid: KanGrid = KanGrid(),
                 rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out})
        self.c_in = c_in
        self.c_out = c_out
        self.grid = grid
        self.k_spline = max(self.grid.K, 1)
        self.n_basis = self.grid.G + self.k_spline
        rng = T.check_rng("BSplineKanLayer", rng)
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

    def __init__(self, c_in: int, c_out: int, grid: KanGrid = KanGrid(),
                 rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out})
        self.c_in = c_in
        self.c_out = c_out
        self.grid = grid
        rng = T.check_rng("ReLUKanLayer", rng)
        nb = self.grid.n_basis
        self.kernel = Tensor(_uniform(rng, 1.0 / np.sqrt(c_in * nb), (c_out, nb, c_in)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        _check_last_dim(x, self.c_in, "ReLUKanLayer")
        nb = self.grid.n_basis
        basis = relukan_basis_expand(x, self.grid)          # [..., c_in, G+K]
        flat = T.reshape(basis, x.shape[:-1] + (self.c_in * nb,))  # a view
        # The kernel, not the batch-sized basis, is permuted to (c_out, c_in, G+K).
        kernel = T.transpose(self.kernel, (0, 2, 1))
        return T.affine(flat, T.reshape(kernel, (self.c_out, self.c_in * nb)), self.bias)

    def parameters(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


class EfficientKanLayer(AffineLayer):
    """An ``AffineLayer`` over a fixed activation: y = q W^T + b, where
    q = (mean_i R_i(x))^2 averages each channel's G+K squared-hinge bells.

    ``forward`` is one ``tensor.affine`` node whose prologue is that
    activation, the grid's ``act`` table, which the grid makes once and
    ``affine`` checks once per dtype: it keeps x, not q, and takes a
    ``residual`` to add to its output in place. Parameters, their
    initialisation and their names are the ``AffineLayer``'s. The activation
    depends on the grid alone, so one layer of width c_out = n·c stands for n
    layers of width c that read the same input: their weights are its row
    blocks, drawn in order from the same rng, and their outputs its column
    blocks.
    """

    def __init__(self, c_in: int, c_out: int, grid: KanGrid = KanGrid(),
                 rng: np.random.Generator | None = None):
        super().__init__(c_in, c_out, rng=rng)
        self.grid = grid

    def forward(self, x: Tensor, residual: Tensor | None = None, norm=None) -> Tensor:
        """x W^T + b on the activation of x, plus ``residual`` if given, as one
        node. ``norm``, a ``kansformer.LayerNormParams`` of width c_in, first
        normalises x inside that node, its ``affine`` ``norm`` prologue: the
        node keeps x and two statistics per row, not the normalised input, and
        its ``gamma`` and ``beta`` get their gradients from it."""
        _check_last_dim(x, self.c_in, "EfficientKanLayer")
        # getattr: anything but a LayerNormParams fails affine's typed check
        pair = None if norm is None else (getattr(norm, "gamma", None),
                                          getattr(norm, "beta", None))
        return T.affine(x, self.weight, self.bias, residual, self.grid.act, pair)
