import numpy as np
import pytest

from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor
from transukan.kan import (
    AffineLayer,
    BSplineKanLayer,
    EfficientKanLayer,
    KanGrid,
    ReLUKanLayer,
    bspline_basis,
    bspline_basis_expand,
    bspline_knots,
    relukan_basis,
    relukan_basis_expand,
)


def cox_de_boor(x, deg, i, t):
    """Independent recursive B-spline evaluation (brute force oracle)."""
    if deg == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    left = 0.0
    if t[i + deg] != t[i]:
        left = (x - t[i]) / (t[i + deg] - t[i]) * cox_de_boor(x, deg - 1, i, t)
    right = 0.0
    if t[i + deg + 1] != t[i + 1]:
        right = (t[i + deg + 1] - x) / (t[i + deg + 1] - t[i + 1]) * cox_de_boor(
            x, deg - 1, i + 1, t)
    return left + right


def _silu_scalar(x: float) -> float:
    return x / (1.0 + np.exp(-x))


def phi_edge(x: float, w_b: float, w_s: float, c: np.ndarray, grid: KanGrid,
             k_spline: int) -> float:
    """Single edge activation: w_b * silu(x) + w_s * sum_i c_i B_i(x)."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (grid.G + k_spline,):
        raise DimensionError(f"phi_edge coefficient vector must have length "
                             f"{grid.G + k_spline}, got {c.shape}")
    return w_b * _silu_scalar(x) + w_s * float(np.dot(c, bspline_basis(x, grid, k_spline)))


def hinge_basis(x, s, e):
    """Inline squared-hinge bell, written independently of the library."""
    prod = max(e - x, 0.0) * max(x - s, 0.0)
    return prod * prod * 16.0 / (e - s) ** 4


def interior_points(grid, rng, n, margin=0.02):
    """Sample inside the grid range, away from every support endpoint."""
    edges = np.concatenate([grid.support_lo(), grid.support_hi()])
    out = []
    while len(out) < n:
        x = rng.uniform(grid.range_lo + margin, grid.range_hi - margin)
        if np.min(np.abs(edges - x)) > margin:
            out.append(x)
    return np.array(out)


class TestKanGrid:
    def test_uniform_supports(self):
        grid = KanGrid(G=5, K=3, range_lo=-1.0, range_hi=1.0)
        s, e = grid.support_lo(), grid.support_hi()
        assert grid.n_basis == 8
        widths = e - s
        np.testing.assert_allclose(widths, widths[0])
        assert np.all(e > s)

    def test_overlap_when_k_positive(self):
        grid = KanGrid(G=4, K=2, range_lo=0.0, range_hi=4.0)
        s, e = grid.support_lo(), grid.support_hi()
        assert np.all(e[:-1] > s[1:])  # consecutive supports overlap

    def test_pooled_bell_table_is_cached_and_read_only(self):
        grid = KanGrid(G=4, K=2)
        table = grid.pooled_bell_table
        assert table is grid.pooled_bell_table
        assert grid.act is grid.act
        assert grid.act == (grid.support_lo()[0], grid.h, table)
        assert table.shape == (grid.G + 2 * grid.K + 2, 5)
        assert not table.flags.writeable
        assert grid == KanGrid(G=4, K=2)

    def test_invalid_grids_rejected(self):
        with pytest.raises(ContractError):
            KanGrid(G=0)
        with pytest.raises(ContractError):
            KanGrid(K=-1)
        with pytest.raises(ContractError):
            KanGrid(range_lo=1.0, range_hi=1.0)
        for kwargs in ({"G": 2.5}, {"K": True}, {"G": np.int64(5)},
                       {"range_lo": -np.inf}, {"range_hi": np.nan}, {"range_lo": "0"}):
            with pytest.raises(ContractError, match=next(iter(kwargs))):
                KanGrid(**kwargs)


class TestReluKanBasis:
    def test_midpoint_peak_is_one(self):
        grid = KanGrid(G=1, K=0, range_lo=0.0, range_hi=1.0)
        np.testing.assert_allclose(relukan_basis(0.5, grid), [1.0], atol=1e-15)

    def test_outside_support_is_zero(self):
        grid = KanGrid(G=1, K=0, range_lo=0.0, range_hi=1.0)
        np.testing.assert_array_equal(relukan_basis(-0.2, grid), [0.0])

    def test_hand_value(self):
        # (0.75 * 0.25)^2 * 16 = 0.5625 at x = 0.25 on [0, 1]
        grid = KanGrid(G=1, K=0, range_lo=0.0, range_hi=1.0)
        np.testing.assert_allclose(relukan_basis(0.25, grid), [0.5625], atol=1e-15)

    def test_properties_random_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            lo = rng.uniform(-3, 0)
            hi = lo + rng.uniform(0.5, 4.0)
            grid = KanGrid(G=int(rng.integers(1, 8)), K=int(rng.integers(0, 4)),
                           range_lo=lo, range_hi=hi)
            s, e = grid.support_lo(), grid.support_hi()
            mids = (s + e) / 2.0
            vals = relukan_basis(mids, grid)
            np.testing.assert_allclose(np.diagonal(vals), 1.0, atol=1e-12)
            x = rng.uniform(lo - 2, hi + 2, size=200)
            v = relukan_basis(x, grid)
            assert np.all(v >= 0.0) and np.all(v <= 1.0 + 1e-12)
            outside = (x[:, None] <= s) | (x[:, None] >= e)
            assert np.all(v[outside] == 0.0)

    def test_expand_matches_numpy(self):
        rng = np.random.default_rng(23)
        grid = KanGrid()
        x = rng.uniform(-1.5, 1.5, size=(3, 4))
        out = relukan_basis_expand(Tensor(x), grid)
        np.testing.assert_allclose(out.data, relukan_basis(x, grid), atol=1e-15)

    def test_basis_gradcheck_interior(self):
        grid = KanGrid()
        rng = np.random.default_rng(29)
        # inside the range, then in the outer supports and past them
        x = Tensor(np.concatenate([interior_points(grid, rng, 6),
                                   [-2.5, -1.7, -1.3, 1.2, 1.6, 2.1]]).reshape(4, 3))
        w = np.random.default_rng(1).normal(size=(4, 3, grid.n_basis))
        rep = T.grad_check(
            lambda t: T.sum_all(T.mul(relukan_basis_expand(t, grid), Tensor(w))),
            x, tol=1e-6)
        assert rep.ok, rep


def _pooled_bells(x, grid):
    """mean_i R_i(x) through the graph: the oracle of the EfficientKAN activation."""
    return T.mean_last_axis(relukan_basis_expand(x, grid))


def _act(grid):
    """The ``act`` table of ``T.affine`` on ``grid``'s pooled bells."""
    return grid.support_lo()[0], grid.h, grid.pooled_bell_table


def _activate(x, act):
    """``T.affine``'s ``act`` prologue alone, elementwise on x of any shape:
    x as one column, an identity weight and a zero bias, which give q exactly."""
    q = T.affine(T.reshape(x, (x.size, 1)), Tensor(np.eye(1)), Tensor(np.zeros(1)), act=act)
    return T.reshape(q, x.shape)


def _quartic(x, grid):
    return _activate(x, _act(grid))


def _special_points(grid):
    """Breakpoints, supports, their float neighbours, and far-away points."""
    breaks = grid.support_lo()[0] + grid.h * np.arange(grid.G + 2 * grid.K + 1)
    edges = np.concatenate([breaks, grid.support_lo(), grid.support_hi()])
    return np.concatenate([edges, np.nextafter(edges, np.inf),
                           np.nextafter(edges, -np.inf),
                           [50.0, -50.0, 1e300, -1e300]])


class TestSquaredPiecewisePoly:
    """The squared piecewise-polynomial ``act`` prologue of ``T.affine``, on
    its own: on a grid's ``pooled_bell_table`` it is the EfficientKAN
    activation q = (mean_i R_i(x))²."""

    GRIDS = [KanGrid(), KanGrid(G=3, K=0), KanGrid(G=4, K=1, range_lo=-0.5, range_hi=2.0),
             KanGrid(G=1, K=0)]

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_matches_loop_oracle(self, grid):
        s, e = grid.support_lo(), grid.support_hi()
        x = np.random.default_rng(71).uniform(s[0] - 0.5, e[-1] + 0.5, size=(4, 9))
        expected = np.array([[np.mean([hinge_basis(v, s[i], e[i])
                                       for i in range(grid.n_basis)]) ** 2
                              for v in row] for row in x])
        np.testing.assert_allclose(_quartic(Tensor(x), grid).data, expected,
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_agrees_with_squared_hinge_pool(self, grid):
        width = grid.range_hi - grid.range_lo
        x = np.concatenate([_special_points(grid), np.random.default_rng(73).uniform(
            grid.range_lo - width, grid.range_hi + width, 200)])
        w = np.random.default_rng(79).normal(size=x.shape)
        values, grads = [], []
        for f in (_quartic, lambda t, g: T.square(_pooled_bells(t, g))):
            t = Tensor(x, requires_grad=True)
            q = f(t, grid)
            T.backward(T.sum_all(T.mul(q, Tensor(w))))
            values.append(q.data)
            grads.append(t.grad)
        np.testing.assert_allclose(values[0], values[1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_zero_beyond_outermost_supports(self, grid):
        s0, e_last = grid.support_lo()[0], grid.support_hi()[-1]
        x = Tensor(np.array([s0 - 1e-3 * grid.h, s0 - 1.0, e_last, e_last + 1e-3 * grid.h,
                             50.0, -50.0, 1e155, -1e155, 1e300, -1e300]),
                   requires_grad=True)
        q = _quartic(x, grid)
        T.backward(T.sum_all(q))
        assert np.array_equal(q.data, np.zeros(x.shape))
        assert np.array_equal(x.grad, np.zeros(x.shape))

    @pytest.mark.parametrize("v", [0.5, 1.5, -1e300])
    def test_scalar_input(self, v):
        grid = KanGrid()
        values, grads = [], []
        for f in (_quartic, lambda t, g: T.square(_pooled_bells(t, g))):
            t = Tensor(v, requires_grad=True)
            q = f(t, grid)
            T.backward(q)
            assert q.shape == () and t.grad.shape == ()
            values.append(q.data)
            grads.append(t.grad)
        np.testing.assert_allclose(values[0], values[1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("where", ["inside", "outside"])
    def test_gradcheck_on_grid(self, where):
        grid = KanGrid()
        rng = np.random.default_rng(83)
        if where == "inside":
            x = interior_points(grid, rng, 12)
        else:  # beyond [range_lo, range_hi], in the outer supports and past them
            x = np.array([-2.5, -2.0, -1.7, -1.3, 1.2, 1.6, 1.9, 2.1, 3.0, -9.0,
                          -1e300, 1e300])
        w = rng.normal(size=x.shape)
        rep = T.grad_check(lambda t: T.sum_all(T.mul(_quartic(t, grid), Tensor(w))),
                           Tensor(x), tol=1e-6)
        assert rep.ok, rep

    @pytest.mark.parametrize("grid", [KanGrid(), KanGrid(G=4, K=2),
                                      KanGrid(G=3, K=4, range_lo=-0.5, range_hi=2.0)],
                             ids=str)
    def test_gradcheck_on_cell_edges(self, grid):
        # p is C1 at a breakpoint but its curvature jumps, which biases
        # central differences by O(h). On a uniform grid p has slope 0 at the
        # outermost breakpoints and, by symmetry, at those between range_lo
        # and range_hi (at every breakpoint when K <= 1), where differences
        # carry no signal; so the check keeps the breakpoints at which the
        # oracle's slope is not 0.
        breaks = grid.support_lo()[0] + grid.h * np.arange(grid.G + 2 * grid.K + 1)
        oracle = Tensor(breaks, requires_grad=True)
        T.backward(T.sum_all(T.square(_pooled_bells(oracle, grid))))
        sloped = Tensor(breaks[np.abs(oracle.grad) > 1e-6])
        assert sloped.size >= 2
        w = np.random.default_rng(89).normal(size=sloped.shape)
        rep = T.grad_check(lambda t: T.sum_all(T.mul(_quartic(t, grid), Tensor(w))),
                           sloped, h=1e-7, tol=1e-5)
        assert rep.ok, rep

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        x = Tensor(np.array([[0.1], [bad]]))
        with pytest.raises(T.NumericsError, match="affine"):
            T.affine(x, Tensor(np.eye(1)), Tensor(np.zeros(1)), act=_act(KanGrid()))

    @pytest.mark.parametrize("x0,h,coef", [
        (0.0, 1.0, np.zeros((3, 5, 1))),
        (0.0, 1.0, np.zeros((2, 5))),
        (0.0, 1.0, np.zeros((4, 1))),
        (0.0, 1.0, np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 0.0]])),
        (0.0, 1.0, np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 1.0]])),
        (0.0, 1.0, np.array([[0.0, 0.0], [np.nan, 2.0], [0.0, 0.0]])),
        (0.0, 0.0, np.zeros((3, 2))),
        (0.0, -1.0, np.zeros((3, 2))),
        (np.inf, 1.0, np.zeros((3, 2))),
        (0.0, np.nan, np.zeros((3, 2))),
    ], ids=["not_2d", "no_cell", "degree_0", "first_row", "last_row", "nan_entry",
            "zero_step", "negative_step", "inf_x0", "nan_step"])
    def test_malformed_table_raises_contract_error(self, x0, h, coef):
        with pytest.raises(ContractError, match="affine"):
            _activate(Tensor(np.zeros(3)), (x0, h, coef))

    def test_backward_keeps_no_array_of_input_size(self):
        grid = KanGrid()
        x = Tensor(np.random.default_rng(97).uniform(-2, 2, (300, 1)), requires_grad=True)
        w, b = Tensor(np.eye(1)), Tensor(np.zeros(1))
        fn = T.affine(x, w, b, act=_act(grid))._backward_fn
        stack, seen, arrays = [fn], set(), []
        while stack:  # every array the closure can reach through nested closures
            f = stack.pop()
            if id(f) in seen:
                continue
            seen.add(id(f))
            for cell in f.__closure__ or ():
                held = cell.cell_contents
                for v in held if isinstance(held, tuple) else (held,):  # table, parents
                    if isinstance(v, np.ndarray):
                        arrays.append(v)
                    elif callable(v) and hasattr(v, "__closure__"):
                        stack.append(v)
                    elif isinstance(v, Tensor):
                        assert v is x or v is w or v is b
        assert arrays and all(a.size <= grid.pooled_bell_table.size for a in arrays)


class TestBSplineBasis:
    def test_order_one_indicator(self):
        grid = KanGrid(G=4, K=0, range_lo=0.0, range_hi=4.0)
        vals = bspline_basis(2.5, grid, order=1)
        expected = np.zeros(5)
        expected[2] = 1.0  # x in knot interval [2, 3)
        np.testing.assert_array_equal(vals, expected)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_partition_of_unity_interior(self, order):
        grid = KanGrid(G=5, K=3)
        x = np.linspace(-0.999, 0.999, 301)
        vals = bspline_basis(x, grid, order)
        np.testing.assert_allclose(vals.sum(axis=-1), 1.0, atol=1e-10)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_matches_recursive_oracle(self, order):
        grid = KanGrid(G=6, K=2, range_lo=-2.0, range_hi=1.0)
        t = bspline_knots(grid, order)
        rng = np.random.default_rng(31)
        xs = rng.uniform(-2.0, 1.0, size=25)
        for x in xs:
            vec = bspline_basis(x, grid, order)
            expected = [cox_de_boor(x, order - 1, i, t) for i in range(grid.G + order)]
            np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_mid_knot_cubic_value(self):
        # order 4 (cubic polynomial pieces) evaluated at a mid-knot point
        grid = KanGrid(G=4, K=0, range_lo=0.0, range_hi=4.0)
        t = bspline_knots(grid, 4)
        x = 2.0
        vec = bspline_basis(x, grid, 4)
        expected = [cox_de_boor(x, 3, i, t) for i in range(8)]
        np.testing.assert_allclose(vec, expected, atol=1e-14)

    def test_compact_support(self):
        grid = KanGrid(G=5, K=3)
        vals = bspline_basis(np.array([-50.0, 50.0]), grid, 3)
        np.testing.assert_array_equal(vals, 0.0)

    def test_basis_count(self):
        grid = KanGrid(G=5, K=3)
        for order in (1, 2, 3, 5):
            assert bspline_basis(0.0, grid, order).shape == (5 + order,)

    def test_expand_matches_numpy(self):
        grid = KanGrid()
        rng = np.random.default_rng(37)
        x = rng.uniform(-1.2, 1.2, size=(4, 3))
        out = bspline_basis_expand(Tensor(x), grid, 3)
        np.testing.assert_allclose(out.data, bspline_basis(x, grid, 3), atol=1e-14)

    def test_invalid_order(self):
        with pytest.raises(ContractError):
            bspline_knots(KanGrid(), 0)


_GRID = KanGrid()
# (expansion, its numpy basis) of the ReLU-KAN basis and B-spline orders 1-4.
EXPANSIONS = {"relukan": (lambda t: relukan_basis_expand(t, _GRID),
                          lambda v: relukan_basis(v, _GRID)),
              **{f"bspline{k}": (lambda t, k=k: bspline_basis_expand(t, _GRID, k),
                                 lambda v, k=k: bspline_basis(v, _GRID, k))
                 for k in (1, 2, 3, 4)}}


class TestBasisExpand:
    @pytest.mark.parametrize("name", EXPANSIONS)
    def test_records_one_node(self, name):
        expand, basis = EXPANSIONS[name]
        x = Tensor(np.random.default_rng(103).uniform(-2, 2, (5, 3)), requires_grad=True)
        out = expand(x)
        assert [n.op for n in T.Tape(out).nodes if n._backward_fn is not None] == [
            "basis_expand"]
        assert out._parents == (x,)
        assert np.array_equal(out.data, basis(x.data))

    @pytest.mark.parametrize("name", EXPANSIONS)
    @pytest.mark.parametrize("v", [50.0, -50.0, 1e160, -1e160, 1e300, -1e300])
    def test_zero_far_outside_the_grid(self, name, v):
        x = Tensor(np.array([v, 0.3]), requires_grad=True)
        out = EXPANSIONS[name][0](x)
        w = np.random.default_rng(107).normal(size=out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(w))))
        assert np.array_equal(out.data[0], np.zeros(out.shape[-1]))
        assert x.grad[0] == 0.0 and np.isfinite(x.grad[1])

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bspline_gradcheck_inside_cells(self, order):
        grid = KanGrid()
        rng = np.random.default_rng(109)
        # inside the range, then in the extended cells below and above it
        x = Tensor(np.concatenate([interior_points(grid, rng, 6),
                                   [-2.1, -1.7, -1.3, 1.2, 1.6, 2.1]]).reshape(4, 3))
        w = rng.normal(size=(4, 3, grid.G + order))
        rep = T.grad_check(
            lambda t: T.sum_all(T.mul(bspline_basis_expand(t, grid, order), Tensor(w))),
            x, tol=1e-6)
        assert rep.ok, rep

    @pytest.mark.parametrize("name", EXPANSIONS)
    def test_gradient_at_knots_is_right_hand(self, name):
        # The half-open indicators put a knot in the cell to its right. At
        # B-spline order 2 the slopes jump at every knot, by 1/h on each side
        # of a hat; the bells and the higher orders are C1 there.
        expand, basis = EXPANSIONS[name]
        knots = _GRID.range_lo + _GRID.h * np.arange(-4, _GRID.G + 5)
        x = Tensor(knots, requires_grad=True)
        out = expand(x)
        w = np.random.default_rng(113).normal(size=out.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(w))))
        right = knots + 1e-7
        difference = (np.sum(basis(right) * w, axis=-1)
                      - np.sum(basis(knots) * w, axis=-1)) / (right - knots)
        np.testing.assert_allclose(x.grad, difference, rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("name", [n for n in EXPANSIONS if n != "bspline1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, name, bad):
        with pytest.raises(T.NumericsError, match="basis_expand"):
            EXPANSIONS[name][0](Tensor(np.array([0.1, bad])))

    @pytest.mark.parametrize("name", EXPANSIONS)
    def test_backward_keeps_no_array_of_input_size(self, name):
        x = Tensor(np.random.default_rng(127).uniform(-2, 2, (6, 50)), requires_grad=True)
        out = EXPANSIONS[name][0](x)
        stack, seen, arrays = [out._backward_fn], set(), []
        while stack:  # every array the closure can reach through nested closures
            f = stack.pop()
            if id(f) in seen:
                continue
            seen.add(id(f))
            for cell in f.__closure__ or ():
                v = cell.cell_contents
                if isinstance(v, np.ndarray):
                    arrays.append(v)
                elif callable(v) and hasattr(v, "__closure__"):
                    stack.append(v)
                elif isinstance(v, Tensor):
                    assert v is x
        assert all(a.size < x.size for a in arrays)


class TestPhiEdge:
    def test_silu_term_vanishes_at_zero(self):
        grid = KanGrid()
        c = np.random.default_rng(2).normal(size=8)
        basis_sum = float(np.dot(c, bspline_basis(0.0, grid, 3)))
        got = phi_edge(0.0, w_b=5.0, w_s=2.0, c=c, grid=grid, k_spline=3)
        np.testing.assert_allclose(got, 2.0 * basis_sum, atol=1e-14)

    def test_zero_spline_scale_reduces_to_silu(self):
        grid = KanGrid()
        x = 0.63
        got = phi_edge(x, w_b=1.5, w_s=0.0, c=np.ones(8), grid=grid, k_spline=3)
        np.testing.assert_allclose(got, 1.5 * x / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_partition_of_unity_offset(self):
        grid = KanGrid()
        for x in (-0.7, 0.11, 0.83):
            got = phi_edge(x, w_b=1.0, w_s=1.0, c=np.ones(8), grid=grid, k_spline=3)
            np.testing.assert_allclose(got, x / (1.0 + np.exp(-x)) + 1.0, atol=1e-10)

    def test_wrong_coeff_length(self):
        with pytest.raises(DimensionError):
            phi_edge(0.0, 1.0, 1.0, np.ones(3), KanGrid(), 3)


class TestBSplineKanLayer:
    def test_zero_parameters_give_zero(self):
        layer = BSplineKanLayer(3, 4)
        for _, p in layer.parameters():
            p.data[...] = 0.0
        out = layer.forward(Tensor(np.random.default_rng(0).normal(size=(2, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_edge_silu_reduction(self):
        layer = BSplineKanLayer(1, 1)
        layer.w_base.data[...] = 1.0
        layer.w_spline.data[...] = 0.0
        x = np.array([[0.3], [-0.8]])
        out = layer.forward(Tensor(x))
        np.testing.assert_allclose(out.data, x / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_matches_edge_sum_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(10):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            # K = 0 and K = 1 are both order 1, so orders 1-4 are all drawn.
            grid = KanGrid(G=int(rng.integers(2, 7)), K=int(rng.integers(0, 5)))
            layer = BSplineKanLayer(c_in, c_out, grid, rng=rng)
            order = max(grid.K, 1)
            assert layer.k_spline == order
            x = rng.uniform(-1.4, 1.4, size=(3, c_in))
            out = layer.forward(Tensor(x)).data
            expected = np.zeros((3, c_out))
            for b in range(3):
                for q in range(c_out):
                    expected[b, q] = sum(
                        phi_edge(x[b, p], layer.w_base.data[q, p],
                                 layer.w_spline.data[q, p], layer.coeff.data[q, p],
                                 grid, order)
                        for p in range(c_in))
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            BSplineKanLayer(3, 2).forward(Tensor(np.zeros((2, 4))))

    def test_gradcheck_input_and_params(self):
        rng = np.random.default_rng(43)
        grid = KanGrid()
        layer = BSplineKanLayer(3, 2, grid, rng=rng)
        x = Tensor(interior_points(grid, rng, 6).reshape(2, 3))
        w = rng.normal(size=(2, 2))

        def objective(_):
            return T.sum_all(T.mul(layer.forward(x), Tensor(w)))

        for target in [x] + [p for _, p in layer.parameters()]:
            rep = T.grad_check(objective, target, tol=1e-5)
            assert rep.ok, rep


class TestReLUKanLayer:
    def test_zero_kernel_gives_bias(self):
        layer = ReLUKanLayer(3, 2)
        layer.kernel.data[...] = 0.0
        layer.bias.data[...] = np.array([1.5, -2.0])
        out = layer.forward(Tensor(np.random.default_rng(0).normal(size=(4, 3))))
        np.testing.assert_allclose(out.data, np.tile([1.5, -2.0], (4, 1)))

    def test_single_active_basis_peak(self):
        grid = KanGrid(G=3, K=0, range_lo=0.0, range_hi=3.0)
        layer = ReLUKanLayer(1, 1, grid)
        layer.kernel.data[...] = 1.0
        layer.bias.data[...] = 0.25
        out = layer.forward(Tensor(np.array([[1.5]])))  # midpoint of basis 1
        np.testing.assert_allclose(out.data, [[1.25]], atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(47)
        for trial in range(10):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            grid = KanGrid(G=int(rng.integers(1, 7)), K=int(rng.integers(0, 4)),
                           range_lo=-1.0, range_hi=1.0)
            layer = ReLUKanLayer(c_in, c_out, grid, rng=rng)
            x = rng.uniform(-1.5, 1.5, size=(3, c_in))
            out = layer.forward(Tensor(x)).data
            s, e = grid.support_lo(), grid.support_hi()
            expected = np.zeros((3, c_out))
            for b in range(3):
                for o in range(c_out):
                    acc = layer.bias.data[o]
                    for i in range(grid.n_basis):
                        for p in range(c_in):
                            acc += layer.kernel.data[o, i, p] * hinge_basis(
                                x[b, p], s[i], e[i])
                    expected[b, o] = acc
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(53)
        grid = KanGrid()
        layer = ReLUKanLayer(3, 2, grid, rng=rng)
        x = Tensor(interior_points(grid, rng, 6).reshape(2, 3))
        w = rng.normal(size=(2, 2))

        def objective(_):
            return T.sum_all(T.mul(layer.forward(x), Tensor(w)))

        for target in [x] + [p for _, p in layer.parameters()]:
            rep = T.grad_check(objective, target, tol=1e-5)
            assert rep.ok, rep

    def test_basis_is_flattened_as_a_view(self):
        grid = KanGrid()
        layer = ReLUKanLayer(3, 2, grid)
        out = layer.forward(Tensor(np.zeros((2, 5, 3)), requires_grad=True))
        buffers = {}
        for node in T.Tape(out).nodes:
            buf = node.data
            while buf.base is not None:
                buf = buf.base
            buffers[id(buf)] = buf.size
        assert list(buffers.values()).count(2 * 5 * 3 * grid.n_basis) == 1


class TestEfficientKanLayer:
    def test_dead_zone_returns_bias(self):
        grid = KanGrid()
        layer = EfficientKanLayer(3, 2, grid)
        layer.bias.data[...] = np.array([0.5, -1.0])
        x = Tensor(np.full((4, 3), 17.0))  # far outside every support
        out = layer.forward(x)
        np.testing.assert_allclose(out.data, np.tile([0.5, -1.0], (4, 1)))

    def test_single_basis_peak(self):
        grid = KanGrid(G=1, K=0, range_lo=0.0, range_hi=1.0)
        layer = EfficientKanLayer(1, 1, grid)
        layer.weight.data[...] = 2.75
        layer.bias.data[...] = 0.0
        out = layer.forward(Tensor(np.array([[0.5]])))
        np.testing.assert_allclose(out.data, [[2.75]], atol=1e-12)

    def test_matches_staged_oracle(self):
        rng = np.random.default_rng(59)
        for trial in range(10):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            grid = KanGrid(G=int(rng.integers(1, 7)), K=int(rng.integers(0, 4)))
            layer = EfficientKanLayer(c_in, c_out, grid, rng=rng)
            x = rng.uniform(-1.5, 1.5, size=(3, c_in))
            out = layer.forward(Tensor(x)).data
            s, e = grid.support_lo(), grid.support_hi()
            expected = np.zeros((3, c_out))
            for b in range(3):
                q = np.zeros(c_in)
                for p in range(c_in):
                    m = np.mean([hinge_basis(x[b, p], s[i], e[i])
                                 for i in range(grid.n_basis)])
                    q[p] = m * m
                for o in range(c_out):
                    expected[b, o] = np.dot(layer.weight.data[o], q) + layer.bias.data[o]
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_pooling_permutation_invariance(self):
        rng = np.random.default_rng(61)
        grid = KanGrid()
        x = rng.uniform(-1, 1, size=(5, 3))
        basis = relukan_basis(x, grid)
        perm = rng.permutation(grid.n_basis)
        np.testing.assert_allclose(basis.mean(axis=-1), basis[..., perm].mean(axis=-1),
                                   rtol=1e-15)

    @pytest.mark.parametrize("c_in,c_out", [(1, 1), (3, 5), (16, 16)])
    def test_shares_affine_parameters_and_map(self, c_in, c_out):
        eff = EfficientKanLayer(c_in, c_out, KanGrid(G=4, K=2),
                                rng=np.random.default_rng(3))
        aff = AffineLayer(c_in, c_out, rng=np.random.default_rng(3))
        assert isinstance(eff, AffineLayer)
        assert [n for n, _ in eff.parameters()] == [n for n, _ in aff.parameters()]
        for (_, pe), (_, pa) in zip(eff.parameters(), aff.parameters()):
            assert np.array_equal(pe.data, pa.data)
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 3, c_in)))
        q = _quartic(x, eff.grid)
        assert np.array_equal(eff.forward(x).data, aff.forward(q).data)

    def test_gradcheck(self):
        rng = np.random.default_rng(67)
        grid = KanGrid()
        layer = EfficientKanLayer(3, 2, grid, rng=rng)
        x = Tensor(interior_points(grid, rng, 6).reshape(2, 3))
        w = rng.normal(size=(2, 2))

        def objective(_):
            return T.sum_all(T.mul(layer.forward(x), Tensor(w)))

        for target in [x] + [p for _, p in layer.parameters()]:
            rep = T.grad_check(objective, target, tol=1e-5)
            assert rep.ok, rep

    def test_tape_keeps_no_basis_block(self):
        rows, c_in, c_out, grid = 5, 3, 4, KanGrid()
        layer = EfficientKanLayer(c_in, c_out, grid)
        x = Tensor(np.random.default_rng(53).uniform(-1, 1, (rows, c_in)),
                   requires_grad=True)
        nodes = [n for n in T.Tape(T.sum_all(layer.forward(x))).nodes
                 if n._backward_fn is not None]
        assert [n.op for n in nodes] == ["affine", "sum_all"]
        assert all(n.size != rows * c_in * grid.n_basis for n in nodes)


def n_params(layer):
    return sum(p.size for _, p in layer.parameters())


class TestParamCounts:
    def test_efficient_equals_affine(self):
        assert n_params(EfficientKanLayer(4, 8)) == 40
        assert n_params(AffineLayer(4, 8)) == 40

    def test_relukan_closed_form(self):
        grid = KanGrid(G=5, K=3)
        assert n_params(ReLUKanLayer(4, 8, grid)) == 8 * 8 * 4 + 8

    def test_bspline_closed_form(self):
        layer = BSplineKanLayer(2, 3, KanGrid(G=5, K=3))
        assert layer.n_basis == 8
        assert n_params(layer) == 2 * 3 * (2 + 8)

    @pytest.mark.parametrize("c_in,c_out", [(1, 1), (3, 5), (16, 16)])
    def test_counts_match_tensor_enumeration(self, c_in, c_out):
        rng = np.random.default_rng(3)
        grid = KanGrid()
        affine = c_in * c_out + c_out
        for layer, closed in ((AffineLayer(c_in, c_out, rng), affine),
                              (EfficientKanLayer(c_in, c_out, rng=rng), affine),
                              (ReLUKanLayer(c_in, c_out, rng=rng),
                               c_out * grid.n_basis * c_in + c_out),
                              (BSplineKanLayer(c_in, c_out, rng=rng),
                               c_in * c_out * (2 + grid.G + 3))):
            assert n_params(layer) == closed

    def test_ratio_laws(self):
        for c_in, c_out in [(2, 3), (8, 4), (7, 7)]:
            for gk in [(2, 0), (3, 2), (5, 3)]:
                grid = KanGrid(G=gk[0], K=gk[1])
                eff = n_params(EfficientKanLayer(c_in, c_out, grid))
                aff = n_params(AffineLayer(c_in, c_out))
                rel = n_params(ReLUKanLayer(c_in, c_out, grid))
                assert eff == aff
                assert rel - c_out == grid.n_basis * c_in * c_out


class TestLeadingDims:
    def test_layers_accept_token_batches(self):
        rng = np.random.default_rng(71)
        x = Tensor(rng.uniform(-1, 1, size=(2, 5, 3)))
        for layer in (EfficientKanLayer(3, 4, rng=rng),
                      ReLUKanLayer(3, 4, rng=rng),
                      BSplineKanLayer(3, 4, rng=rng),
                      AffineLayer(3, 4, rng)):
            flat = layer.forward(Tensor(x.data.reshape(10, 3))).data
            stacked = layer.forward(x).data
            np.testing.assert_allclose(stacked.reshape(10, 4), flat, atol=1e-12)


@pytest.mark.parametrize("build,named", [
    (lambda: AffineLayer(0, 4), "c_in .*0"),
    (lambda: AffineLayer(2.5, 4), "c_in .*2.5"),
    (lambda: AffineLayer(3, True), "c_out .*True"),
    (lambda: EfficientKanLayer(4, -1), "c_out .*-1"),
    (lambda: ReLUKanLayer(0, 2), "c_in .*0"),
], ids=["affine_zero", "affine_float", "affine_bool", "efficient_negative",
        "relu_zero"])
def test_bad_layer_sizes_raise_contract_error(build, named):
    with pytest.raises(ContractError, match=named):
        build()
