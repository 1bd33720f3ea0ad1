import ast
import contextlib
import inspect
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transukan import kan, kansformer, network, profiler
from transukan import tensor as T
from transukan.kan import AffineLayer
from transukan.tensor import (
    DimensionError,
    ContractError,
    NumericsError,
    StateError,
    Tensor,
)


def _scalar_through(f, x):
    """sum(f(x)) as a gradcheck objective."""
    return T.sum_all(f(x))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_gradcheck_both_operands(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        rep = T.grad_check(lambda t: T.sum_all(T.matmul(t, b)), a, tol=1e-6)
        assert rep.ok, rep
        rep = T.grad_check(lambda t: T.sum_all(T.matmul(a, t)), b, tol=1e-6)
        assert rep.ok, rep

    def test_batched_broadcast(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 5, 3, 4)))
        b = Tensor(rng.normal(size=(4, 6)))
        out = T.matmul(a, b)
        assert out.shape == (2, 5, 3, 6)
        rep = T.grad_check(lambda t: T.sum_all(T.matmul(a, t)), b, tol=1e-6)
        assert rep.ok


def _affine_graph(x, w, b):
    return T.add(T.matmul(x, T.transpose(w, (1, 0))), b)


def _outputs_and_grads(op, args, seed):
    """op(*args), and the gradient of each arg under sum(op(*args) * G) for a
    random G: the arrays a fused op must reproduce bit for bit."""
    for t in args:
        t.requires_grad = True
        t.zero_grad()
    out = op(*args)
    g = Tensor(np.random.default_rng(seed).normal(size=out.shape))
    T.backward(T.sum_all(T.mul(out, g)))
    return [out.data] + [t.grad for t in args]


class TestAffine:
    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 7, 3)], ids=["2d", "3d"])
    def test_bit_equal_to_the_graph_and_its_gradients(self, x_shape):
        rng = np.random.default_rng(61)
        args = [Tensor(rng.normal(size=shape)) for shape in (x_shape, (4, 3), (4,))]
        fused = _outputs_and_grads(T.affine, args, 62)
        for got, expected in zip(fused, _outputs_and_grads(_affine_graph, args, 62)):
            assert np.array_equal(got, expected)

    def test_one_node_of_the_graph_flops(self):
        rng = np.random.default_rng(63)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((2, 5, 3), (4, 3), (4,)))
        out = T.affine(x, w, b)
        assert out._parents == (x, w, b)
        graph = [n for n in T.Tape(_affine_graph(x, w, b)).nodes if n._backward_fn]
        assert out.flops == sum(n.flops for n in graph) == 2 * 40 * 3 + 40

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "w", "b"])
    def test_gradcheck(self, which):
        rng = np.random.default_rng(64)
        args = [Tensor(rng.normal(size=s)) for s in ((2, 3, 5), (4, 5), (4,))]
        weights = Tensor(rng.normal(size=(2, 3, 4)))

        def f(t):
            return T.sum_all(T.mul(T.affine(*args[:which], t, *args[which + 1:]), weights))

        rep = T.grad_check(f, args[which], tol=1e-6)
        assert rep.ok, rep

    @pytest.mark.parametrize("shapes", [
        ((3,), (4, 3), (4,)), ((2, 3), (4, 3, 1), (4,)), ((2, 5), (4, 3), (4,)),
        ((2, 3), (4, 3), (3,)), ((2, 3), (4, 3), (4, 1)),
    ], ids=["rank1_x", "rank3_w", "c_in", "bias_size", "bias_rank"])
    def test_bad_shapes_raise_dimension_error(self, shapes):
        with pytest.raises(DimensionError, match="affine"):
            T.affine(*(Tensor(np.zeros(s)) for s in shapes))


def _poly_table(rng, cells=4, degree=3):
    """A random ``(x0, h, coef)`` table of ``affine``'s ``act``."""
    coef = rng.normal(size=(cells + 2, degree + 1))
    coef[[0, -1]] = 0.0
    return -1.0, 0.5, coef


def _off_breakpoints(rng, shape, table):
    """x spread over every row of ``table``, the zero rows included, and at
    least h/10 from a breakpoint, where p may jump."""
    x0, h, coef = table
    cells = rng.integers(-1, coef.shape[0] - 1, size=shape)
    return x0 + h * (cells + rng.uniform(0.1, 0.9, size=shape))


# (residual, act) of each fused form of affine.
EPILOGUES = [(True, False), (False, True), (True, True)]
EPILOGUE_IDS = ["residual", "act", "act_and_residual"]


class TestAffineEpilogues:
    """``affine``'s residual and activation stages are the composed graph
    ``add(affine(activate(x), w, b), residual)``, where ``activate`` is the
    ``act`` prologue alone: an affine node with an identity weight and a zero
    bias, which gives q exactly."""

    @staticmethod
    def _args(rng, x_shape, residual, table):
        shapes = [x_shape, (4, x_shape[-1]), (4,)] + [x_shape[:-1] + (4,)] * residual
        args = [Tensor(rng.normal(size=s)) for s in shapes]
        if table:
            args[0] = Tensor(_off_breakpoints(rng, x_shape, table))
        return args

    @staticmethod
    def _fused(act):
        return lambda x, w, b, *r: T.affine(x, w, b, *r, act=act)

    @staticmethod
    def _activate(x, act):
        c = x.shape[-1]
        return T.affine(x, Tensor(np.eye(c)), Tensor(np.zeros(c)), act=act)

    @classmethod
    def _graph(cls, act):
        def run(x, w, b, *r):
            out = T.affine(cls._activate(x, act) if act else x, w, b)
            return T.add(out, *r) if r else out
        return run

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 7, 3)], ids=["2d", "3d"])
    @pytest.mark.parametrize("residual, act", EPILOGUES, ids=EPILOGUE_IDS)
    def test_bit_equal_to_the_composed_graph(self, x_shape, residual, act):
        rng = np.random.default_rng(81)
        table = _poly_table(rng) if act else None
        args = self._args(rng, x_shape, residual, table)
        fused = _outputs_and_grads(self._fused(table), args, 82)
        graph = _outputs_and_grads(self._graph(table), args, 82)
        for got, expected in zip(fused, graph):
            assert np.array_equal(got, expected)
        out = self._fused(table)(*args)
        assert out._parents == tuple(args)
        nodes = [n for n in T.Tape(self._graph(table)(*args)).nodes if n._backward_fn]
        c = x_shape[-1]
        identity_mix = 0 if table is None else out.size // 4 * c * (2 * c + 1)
        assert out.flops == sum(n.flops for n in nodes) - identity_mix

    @pytest.mark.parametrize("residual, act", EPILOGUES, ids=EPILOGUE_IDS)
    def test_gradcheck(self, residual, act):
        rng = np.random.default_rng(83)
        table = _poly_table(rng) if act else None
        args = self._args(rng, (2, 3, 5), residual, table)
        weights = Tensor(rng.normal(size=(2, 3, 4)))
        for which in range(len(args)):
            def f(t):
                operands = args[:which] + [t] + args[which + 1:]
                return T.sum_all(T.mul(self._fused(table)(*operands), weights))

            rep = T.grad_check(f, args[which], tol=1e-6)
            assert rep.ok, (which, rep)

    def test_residual_of_the_wrong_shape_raises(self):
        x, w, b = (Tensor(np.zeros(s)) for s in ((2, 3), (4, 3), (4,)))
        for shape in ((2, 3), (4,), (1, 2, 4)):
            with pytest.raises(DimensionError, match="affine residual"):
                T.affine(x, w, b, Tensor(np.zeros(shape)))
        with pytest.raises(ContractError, match="affine: residual must be a Tensor"):
            T.affine(x, w, b, np.zeros((2, 4)))

    @pytest.mark.parametrize("act, named", [
        ((0.0, 1.0), "affine act must be a tuple"),
        ([0.0, 1.0, np.zeros((3, 2))], "affine act must be a tuple"),
        ((0.0, 1.0, np.ones((3, 2))), "affine needs a finite table"),
        ((0.0, -1.0, np.zeros((3, 2))), "affine needs a finite x0 and h > 0"),
    ], ids=["pair", "list", "nonzero_edge_rows", "negative_h"])
    def test_act_must_be_a_table(self, act, named):
        x, w, b = (Tensor(np.zeros(s)) for s in ((2, 3), (4, 3), (4,)))
        with pytest.raises(ContractError, match=named):
            T.affine(x, w, b, act=act)

    def test_a_table_edited_in_place_is_not_served_stale(self):
        # The checked table is cached by content, so editing coef between two
        # calls gives the edited table's output, bit for bit a fresh call's.
        rng = np.random.default_rng(85)
        x0, h, coef = _poly_table(rng)
        x = Tensor(_off_breakpoints(rng, (5, 3), (x0, h, coef)))
        w, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=4))
        before = T.affine(x, w, b, act=(x0, h, coef)).data
        coef[1:-1] *= 2.0
        edited = T.affine(x, w, b, act=(x0, h, coef)).data
        assert not np.array_equal(edited, before)
        T._cached_table.cache_clear()
        fresh = T.affine(x, w, b, act=(x0, h, coef.copy())).data
        assert edited.tobytes() == fresh.tobytes()

    def test_a_bad_table_raises_on_every_call(self):
        # Only a table that passes its check is cached: a bad one with the
        # same x0 and h as a good one just used still raises, every time.
        x, w, b = (Tensor(np.zeros(s)) for s in ((2, 3), (4, 3), (4,)))
        x0, h, coef = _poly_table(np.random.default_rng(86))
        T.affine(x, w, b, act=(x0, h, coef))
        bad = coef.copy()
        bad[-1, 0] = 1.0
        for _ in range(2):
            with pytest.raises(ContractError, match="affine needs a finite table"):
                T.affine(x, w, b, act=(x0, h, bad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_cached_table_is_read_only_and_made_once(self, dtype):
        x0, h, coef = _poly_table(np.random.default_rng(87))
        table = T._poly_table(x0, h, coef, np.dtype(dtype))
        assert T._poly_table(x0, h, coef.copy(), np.dtype(dtype)) is table
        for a in table[2:]:
            assert a.dtype == dtype and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_backward_keeps_no_activation_sized_array(self):
        # The node keeps x, its parent, and rebuilds q = p(x)² in the backward;
        # with a norm prologue it also keeps each row's mean and 1/std, and
        # rebuilds the normalised input.
        rng = np.random.default_rng(84)
        table = _poly_table(rng)
        x, w, b, r = self._args(rng, (6, 5, 3), True, table)
        gamma, beta = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        for t in (x, w, b, r, gamma, beta):
            t.requires_grad = True
        for norm, row_stats in ((None, 0), ((gamma, beta), 2)):
            out = T.affine(x, w, b, r, act=table, norm=norm)
            held = [a for c in out._backward_fn.__closure__
                    for a in (c.cell_contents if isinstance(c.cell_contents, tuple)
                              else (c.cell_contents,))
                    if isinstance(a, np.ndarray)]
            rows = [a for a in held if a.shape == (6, 5, 1)]
            assert len(rows) == row_stats, [a.shape for a in held]
            assert held and all(a.size <= table[2].size for a in held if a.shape != (6, 5, 1)), \
                [a.shape for a in held]


# (residual, act) of each form the norm prologue is checked in.
NORM_FORMS = [(False, False), (True, False), (False, True), (True, True)]
NORM_IDS = ["plain", "residual", "act", "act_and_residual"]


class TestAffineNorm:
    """``affine``'s ``norm`` prologue is the composed graph
    ``affine(layer_norm(x, gamma, beta), w, b, residual, act)``: the output
    and all six gradients, x, w, b, residual, gamma and beta, bit for bit."""

    @staticmethod
    def _args(rng, x_shape, residual, dtype=np.float64):
        c = x_shape[-1]
        shapes = [x_shape, (4, c), (4,)] + [x_shape[:-1] + (4,)] * residual + [(c,), (c,)]
        return [Tensor(rng.normal(size=s).astype(dtype)) for s in shapes]

    @staticmethod
    def _fused(act):
        def run(x, w, b, *rest):
            *residual, gamma, beta = rest
            return T.affine(x, w, b, *residual, act=act, norm=(gamma, beta))
        return run

    @staticmethod
    def _graph(act):
        def run(x, w, b, *rest):
            *residual, gamma, beta = rest
            return T.affine(T.layer_norm(x, gamma, beta), w, b, *residual, act=act)
        return run

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residual, act", NORM_FORMS, ids=NORM_IDS)
    def test_bit_equal_to_layer_norm_then_affine(self, residual, act, dtype):
        rng = np.random.default_rng(91)
        table = _poly_table(rng) if act else None
        args = self._args(rng, (2, 7, 3), residual, dtype)
        fused = _outputs_and_grads(self._fused(table), args, 92)
        graph = _outputs_and_grads(self._graph(table), args, 92)
        assert fused[0].dtype == dtype and len(fused) == len(args) + 1
        for got, expected in zip(fused, graph):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        out = self._fused(table)(*args)
        assert out._parents == tuple(args)
        nodes = [n for n in T.Tape(self._graph(table)(*args)).nodes if n._backward_fn]
        assert [n.op for n in nodes] == ["layer_norm", "affine"]
        assert out.flops == sum(n.flops for n in nodes)

    @pytest.mark.parametrize("residual, act", [(False, False), (True, True)],
                             ids=["plain", "act_and_residual"])
    def test_gradcheck(self, residual, act):
        rng = np.random.default_rng(93)
        table = _poly_table(rng) if act else None
        args = self._args(rng, (2, 3, 5), residual)
        weights = Tensor(rng.normal(size=(2, 3, 4)))
        for which in (0, len(args) - 2, len(args) - 1):  # x, gamma and beta
            def f(t):
                operands = args[:which] + [t] + args[which + 1:]
                return T.sum_all(T.mul(self._fused(table)(*operands), weights))

            rep = T.grad_check(f, args[which], tol=1e-6)
            assert rep.ok, (which, rep)

    @pytest.mark.parametrize("norm, error, named", [
        (Tensor(np.ones(3)), ContractError, "affine norm must be a pair"),
        ([Tensor(np.ones(3)), Tensor(np.zeros(3))], ContractError,
         "affine norm must be a pair"),
        ((Tensor(np.ones(3)),), ContractError, "affine norm must be a pair"),
        ((np.ones(3), Tensor(np.zeros(3))), ContractError,
         "affine: gamma must be a Tensor, got ndarray"),
        ((Tensor(np.ones(3)), None), ContractError, "affine: beta must be a Tensor, got NoneType"),
        ((Tensor(np.ones(4)), Tensor(np.zeros(3))), DimensionError,
         r"affine norm params must have shape \(3,\), got \(4,\) and \(3,\)"),
        ((Tensor(np.ones(3)), Tensor(np.zeros((1, 3)))), DimensionError,
         r"affine norm params must have shape \(3,\)"),
    ], ids=["tensor", "list", "one", "gamma_ndarray", "beta_none", "gamma_width",
            "beta_rank"])
    def test_norm_must_be_a_pair_of_tensors_of_width_c_in(self, norm, error, named):
        x, w, b = (Tensor(np.zeros(s)) for s in ((2, 3), (4, 3), (4,)))
        with pytest.raises(error, match=named):
            T.affine(x, w, b, norm=norm)


class TestElementwise:
    def test_silu_zero(self):
        assert T.silu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_silu_one(self):
        # 1 / (1 + e^-1), evaluated directly
        expected = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(T.silu(Tensor(np.array([1.0]))).data[0],
                                   expected, rtol=1e-12)
        np.testing.assert_allclose(T.silu(Tensor(np.array([1.0]))).data[0],
                                   0.7310585786, atol=1e-10)

    def test_relu_signs(self):
        out = T.relu(Tensor(np.array([-3.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0.0, 3.0])

    def test_broadcast_failure(self):
        with pytest.raises(DimensionError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("op", [T.relu, T.silu, T.square])
    def test_unary_gradcheck(self, op):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(0.1, 2.0, size=(2, 5)))  # away from relu kink
        rep = T.grad_check(lambda t: _scalar_through(op, t), x, tol=1e-6)
        assert rep.ok, rep

    def test_binary_broadcast_gradcheck(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
        for op in (T.add, T.sub, T.mul):
            rep = T.grad_check(lambda t: T.sum_all(op(t, b)), a, tol=1e-6)
            assert rep.ok, (op.__name__, rep)
            rep = T.grad_check(lambda t: T.sum_all(op(a, t)), b, tol=1e-6)
            assert rep.ok, (op.__name__, rep)

    def test_nan_raises(self):
        with pytest.raises(NumericsError):
            T.mul(Tensor(np.full(2, 1e200)), Tensor(np.full(2, 1e200)))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_overflow_stability(self):
        out = T.softmax(Tensor(np.array([1000.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_direct_values(self):
        out = T.softmax(Tensor(np.array([1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.26894, 0.73106], atol=1e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            x = Tensor(np.random.default_rng(seed).normal(scale=5, size=(4, 7)))
            s = T.softmax(x)
            np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(s.data >= 0)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 5)))
        w = np.random.default_rng(9).normal(size=(3, 5))
        rep = T.grad_check(
            lambda t: T.sum_all(T.mul(T.softmax(t), Tensor(w))), x, tol=1e-6)
        assert rep.ok, rep


def _attention_graph(q, k, v, n_heads):
    """The graph ``T.attention`` stands for, op by op: split the heads, run
    matmul, scale, softmax and matmul on them, and merge the heads."""
    def split(x):
        b, t, d = x.shape
        return T.transpose(T.reshape(x, (b, t, n_heads, d // n_heads)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(q.shape[-1]))
    ctx = T.matmul(T.softmax(scores), v)
    b, _, t, _ = ctx.shape
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, -1))


def _attention_blocks(seed, b, h, t, e):
    """q, k and v in the token layout, (b, t, h·e) each, for h heads of width e."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(b, t, h * e)) for _ in "qkv"]


def _packed(blocks):
    """The (..., t, 3d) input of ``T.attention``: q, k and v as column blocks."""
    return Tensor(np.concatenate(blocks, axis=-1), requires_grad=True)


class TestAttention:
    # (batch, heads, tokens, head width); "model" is ModelConfig()'s at batch 4.
    @pytest.mark.parametrize("shape", [(2, 3, 5, 4), (2, 3, 1, 4), (4, 4, 64, 16)],
                             ids=["t5", "t1", "model"])
    def test_bit_equal_to_the_graph_and_its_gradients(self, shape):
        b, h, t, e = shape
        w = Tensor(np.random.default_rng(1).normal(size=(b, t, h * e)))
        blocks = _attention_blocks(0, *shape)
        qkv = _packed(blocks)
        out = T.attention(qkv, h)
        T.backward(T.sum_all(T.mul(out, w)))
        q, k, v = (Tensor(x, requires_grad=True) for x in blocks)
        expected = _attention_graph(q, k, v, h)
        T.backward(T.sum_all(T.mul(expected, w)))
        assert np.array_equal(out.data, expected.data)
        for got, oracle in zip(np.split(qkv.grad, 3, axis=-1), (q.grad, k.grad, v.grad)):
            assert np.array_equal(got, oracle)

    def test_leading_dims_are_batch_dims(self):
        qkv = _packed(_attention_blocks(2, 6, 2, 5, 3))
        flat = T.attention(qkv, 2)
        split = T.attention(Tensor(qkv.data.reshape((2, 3) + qkv.shape[1:])), 2)
        assert np.array_equal(split.data.reshape(flat.shape), flat.data)

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
    @pytest.mark.parametrize("shape", [(1, 2, 4, 3), (2, 1, 3, 4)], ids=["self", "b2_h1"])
    def test_gradcheck(self, which, shape):
        blocks = [Tensor(x) for x in _attention_blocks(3, *shape)]
        b, h, t, e = shape
        w = Tensor(np.random.default_rng(4).normal(size=(b, t, h * e)))

        def objective(x):
            qkv = T.concat(blocks[:which] + [x] + blocks[which + 1:], axis=-1)
            return T.sum_all(T.mul(T.attention(qkv, h), w))

        rep = T.grad_check(objective, blocks[which], tol=1e-6)
        assert rep.ok, rep

    @pytest.mark.parametrize("shape, heads, named", [
        ((12,), 1, "rank >= 2"),
        ((5, 10), 1, r"got \(5, 10\)"),
        ((0, 12), 1, r"t, d > 0 .*got \(0, 12\)"),
        ((5, 0), 1, r"t, d > 0 .*got \(5, 0\)"),
        ((5, 18), 4, "dividing d.* n_heads 4"),
        ((5, 12), 0, "n_heads 0"),
        ((5, 12), 2.0, "n_heads 2.0"),
    ], ids=["rank_1", "feature_dims", "empty_t", "empty_d", "heads_split_d", "zero_heads",
            "float_heads"])
    def test_bad_shapes_raise_dimension_error(self, shape, heads, named):
        with pytest.raises(DimensionError, match=f"attention .*{named}"):
            T.attention(_zeros(*shape), heads)


class TestLayerNorm:
    def test_constant_row(self):
        x = Tensor(np.array([[5.0, 5.0, 5.0]]))
        out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_normalization_moments(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 9), scale=3.0) + 2.0)
        out = T.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        v = x.data.var(axis=-1)  # the normalised variance is v / (v + eps), eps = 1e-5
        np.testing.assert_allclose(out.data.var(axis=-1), v / (v + 1e-5), atol=1e-6)

    def test_gradcheck_all_inputs(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 4)))
        gamma = Tensor(rng.normal(size=(4,)) + 1.0)
        beta = Tensor(rng.normal(size=(4,)))
        w = np.random.default_rng(1).normal(size=(2, 4))
        for target in (x, gamma, beta):
            rep = T.grad_check(
                lambda t, target=target: T.sum_all(T.mul(
                    T.layer_norm(x, gamma, beta), Tensor(w))),
                target, tol=1e-5)
            assert rep.ok, rep


class TestConv2d:
    def test_1x1_identity(self):
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, w, Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_3x3_padded(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, Tensor(np.zeros(1)), padding=1)
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0
        assert out.data[0, 0, 0, 2] == 4.0

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
                     Tensor(np.zeros(1)))

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 2, 11, 9)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        out = T.conv2d(x, w, Tensor(np.zeros(3)), stride=2, padding=1)
        assert out.shape == (1, 3, 6, 5)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros(out.shape)
        for bi in range(2):
            for o in range(4):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        patch = xp[bi, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        expected[bi, o, i, j] = np.sum(patch * w[o]) + b[o]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=(3,)))
        for target in (x, w, b):
            rep = T.grad_check(
                lambda t: T.sum_all(T.square(T.conv2d(x, w, b, padding=1))),
                target, tol=1e-5)
            assert rep.ok, rep

    @pytest.mark.parametrize("name, value", [("padding", -1), ("padding", 1.5),
                                             ("stride", 0), ("stride", 1.5)])
    def test_bad_stride_or_padding_raise_contract_error(self, name, value):
        x = Tensor(np.zeros((1, 1, 6, 6)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ContractError, match=f"{name} .*{value}"):
            T.conv2d(x, w, Tensor(np.zeros(1)), **{name: value})

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_oracle_and_gradient_grid(self, stride, padding):
        """Kernels 1x1 to 3x3 on inputs whose last rows and columns go unused
        at stride > 1, one and three input channels, batch 2."""
        rng = np.random.default_rng(100 + 10 * stride + padding)
        cases = [(kernel, size, c_in)
                 for kernel in ((1, 1), (2, 2), (3, 2), (3, 3))
                 for size in ((7, 6), (5, 5), (8, 4))
                 for c_in in (1, 3)]
        for kernel, size, c_in in cases:
            x = Tensor(rng.normal(size=(2, c_in, *size)))
            w = Tensor(rng.normal(size=(2, c_in, *kernel)))
            b = Tensor(rng.normal(size=2))
            out = T.conv2d(x, w, b, stride=stride, padding=padding)
            expected = _naive_conv2d(x.data, w.data, b.data, stride, padding)
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
            weights = Tensor(rng.normal(size=out.shape))
            for target in (x, w, b):
                rep = T.grad_check(
                    lambda t: T.sum_all(T.mul(
                        T.conv2d(x, w, b, stride=stride, padding=padding), weights)),
                    target, tol=1e-6, sample=4)
                assert rep.ok, (kernel, size, c_in, rep)

    def test_forward_in_chunks_matches_oracle(self):
        # One image per slice, and each image's 9 x 8 phase cells in chunks
        # of ``step`` columns, the last one short: 27 rows of im2col scratch
        # in a budget of 150 elements for the widening conv (3 -> 4
        # channels), which keeps im2col; 36 rows in 720 for the narrowing
        # one (4 -> 3), which runs each slice's four chunks as kernel rows.
        # The plan at the default budget, one slice, is made first, so a
        # plan cached without its budget shows.
        rng = np.random.default_rng(5)
        for c, o, budget, step, rows in ((3, 4, 150, 5, 0), (4, 3, 720, 18, 2)):
            x = rng.normal(size=(2, c, 7, 6))
            w = rng.normal(size=(o, c, 3, 3))
            b = rng.normal(size=o)
            assert len(T._batch_slices(x.shape, o, 1, 1)) == 1
            with (mock.patch.object(T, "_IM2COL_BUDGET", budget),
                  mock.patch.object(T, "_conv_forward", wraps=T._conv_forward) as slices,
                  mock.patch.object(T, "_kernel_rows", wraps=T._kernel_rows) as kernel_rows):
                assert T._chunk_columns(9 * 8, 9 * c) == step
                out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
            assert (slices.call_count, kernel_rows.call_count) == (2, rows)
            np.testing.assert_allclose(out.data, _naive_conv2d(x, w, b, 1, 1),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, kernel, stride, padding",
                             [((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
                              ((2, 3, 8, 6), (4, 3, 3, 3), 2, 1),
                              ((1, 2, 6, 6), (3, 2, 2, 2), 1, 0)])
    def test_backward_keeps_only_the_padded_input(self, shape, kernel, stride, padding):
        # Not even that: the backward rebuilds the padded input from x.data,
        # so its closure holds no array larger than the kernel.
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=kernel), requires_grad=True)
        out = T.conv2d(x, w, Tensor(np.zeros(kernel[0])), stride=stride, padding=padding)
        held = [cell.cell_contents for cell in out._backward_fn.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert all(a.size <= w.size for a in held), [a.shape for a in held]

    def test_backward_in_chunks_matches_one_chunk(self, monkeypatch):
        # A budget of 150 elements runs the backward image by image, the dw
        # tap products in tiles of 5 of an image's 72 phase cells and the dx
        # ones in tiles of 2, the last ones short. The default budget runs
        # the same shapes whole, so a plan cached without its budget shows.
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        g = rng.normal(size=(2, 4, 7, 6))
        slices = mock.patch.object(T, "_grad_grid", wraps=T._grad_grid)
        with slices as whole_slices:
            whole = T.conv2d(x, w, b, padding=1)._backward_fn(g)
        monkeypatch.setattr(T, "_IM2COL_BUDGET", 150)
        with slices as chunked_slices:
            chunked = T.conv2d(x, w, b, padding=1)._backward_fn(g)
        assert (whole_slices.call_count, chunked_slices.call_count) == (1, 2)
        assert (T._chunk_columns(72, 4 * (4 + 3)), T._chunk_columns(72, 18 * 3)) == (5, 2)
        for got, expected in zip(chunked, whole):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_stride_past_the_input_costs_no_memory_per_stride(self):
        # At a stride past the padded input, every stride reads the same pixels
        # into a 1x1 output, and the phase grid stores only the kernel's 3x3
        # phases of c·b cells: not stride² of them, 33.6 MB at stride 1024.
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        results = []
        for stride in (3, 2 ** 40, 1024):
            for t in (x, w, b):
                t.zero_grad()
            tracemalloc.start()
            try:
                out = T.conv2d(x, w, b, stride=stride, relu=True)
                T.backward(T.sum_all(T.square(out)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (stride, peak)
            results.append([out.data] + [t.grad.copy() for t in (x, w, b)])
        expected = np.maximum(_naive_conv2d(x.data, w.data, b.data, 3, 0), 0.0)
        np.testing.assert_allclose(results[0][0], expected, rtol=0, atol=1e-12)
        for result in results[1:]:
            for got, expected in zip(result, results[0]):
                assert np.array_equal(got, expected)

    def test_a_stride_past_one_axis_costs_no_memory_per_stride(self):
        # A 1x1 kernel at stride 1024 reads one pixel of a 1x1024 input. The
        # phase grid stores only the phases some tap reads, one here, not
        # 1024² phases of one cell each (8.39 MB in either pass); the pixels
        # that no tap reads get a zero gradient.
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 1, 1, 1024)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 1, 1, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=1), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, b, stride=1024)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            T.backward(T.sum_all(out))
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_peak < 100_000 and backward_peak < 100_000, (forward_peak, backward_peak)
        np.testing.assert_allclose(out.data, _naive_conv2d(x.data, w.data, b.data, 1024, 0),
                                   rtol=0, atol=1e-12)
        expected = np.zeros(x.shape)
        expected[0, 0, 0, 0] = w.data.item()
        assert np.array_equal(x.grad, expected)
        assert w.grad.item() == x.data[0, 0, 0, 0] and b.grad.item() == 1.0

    def test_no_input_gradient_when_input_needs_none(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = T.conv2d(x, w, Tensor(np.zeros(3)), padding=1)
        dx, dw, _ = out._backward_fn(np.ones(out.shape))
        assert dx is None
        assert dw.shape == w.shape


def _naive_conv2d_grads(x, w, g, stride, padding):
    """Loop oracle of the gradients (dx, dw, db) of sum(conv2d(x, w, b) * g)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp, dw = np.zeros(xp.shape), np.zeros(w.shape)
    kh, kw = w.shape[2:]
    for n in range(g.shape[0]):
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                at = np.s_[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                dw += g[n, :, i, j, None, None, None] * xp[at]
                dxp[at] += np.tensordot(g[n, :, i, j], w, axes=1)
    h, wd = x.shape[2:]
    return dxp[:, :, padding:padding + h, padding:padding + wd], dw, g.sum(axis=(0, 2, 3))


def _naive_conv2d(x, w, b, stride, padding):
    """Loop oracle for NCHW x OIHW cross-correlation."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = w.shape[2:]
    h_out = (xp.shape[2] - kh) // stride + 1
    w_out = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], h_out, w_out))
    for n in range(x.shape[0]):
        for o in range(w.shape[0]):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    return out


class TestMeanLastAxis:
    def test_hand_value(self):
        out = T.mean_last_axis(Tensor(np.array([1.0, 2.0, 3.0, 4.0])))
        assert out.item() == 2.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=12)
        perm = rng.permutation(12)
        a = T.mean_last_axis(Tensor(x)).item()
        b = T.mean_last_axis(Tensor(x[perm])).item()
        np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_single_element_identity(self):
        out = T.mean_last_axis(Tensor(np.array([[3.5]])))
        np.testing.assert_array_equal(out.data, [3.5])

    def test_gradient_distributes(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        T.backward(T.mean_last_axis(x))
        np.testing.assert_allclose(x.grad, 0.25)


class TestUpsample:
    def test_single_pixel(self):
        out = T.upsample_nearest_2x(Tensor(np.array([[[[1.0]]]])))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))

    def test_block_replication(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = T.upsample_nearest_2x(x)
        expected = np.array([[[[1, 1, 2, 2], [1, 1, 2, 2],
                               [3, 3, 4, 4], [3, 3, 4, 4]]]], dtype=float)
        np.testing.assert_array_equal(out.data, expected)

    def test_sum_property(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)))
        out = T.upsample_nearest_2x(x)
        np.testing.assert_allclose(out.data.sum(), 4.0 * x.data.sum(), rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(1, 2, 3, 3)))
        rep = T.grad_check(lambda t: T.sum_all(T.square(T.upsample_nearest_2x(t))),
                           x, tol=1e-6)
        assert rep.ok


def _upsample_concat(x, skip):
    return T.concat([T.upsample_nearest_2x(x), skip], axis=1)


def _upsample_concat_conv2d_oracle(x, skip, w, bias):
    return T.conv2d(_upsample_concat(x, skip), w, bias, padding=1, relu=True)


def _decoder_inputs(rng, batch, c_up, h, wd, c_skip, c_out):
    return (Tensor(rng.normal(size=(batch, c_up, h, wd)), requires_grad=True),
            Tensor(rng.normal(size=(batch, c_skip, 2 * h, 2 * wd)), requires_grad=True),
            Tensor(rng.normal(size=(c_out, c_up + c_skip, 3, 3)), requires_grad=True),
            Tensor(rng.normal(size=c_out), requires_grad=True))


class TestUpsampleConcatConv2d:
    # (batch, c_up, h, w, c_skip, c_out): the default decoder's three blocks,
    # a 1x1 map, non-square maps, batch 3, and the three blocks of perfbench's
    # TINY config (image_size 16, d_model 8).
    SHAPES = [(2, 64, 8, 8, 64, 32), (2, 32, 16, 16, 32, 16), (1, 16, 32, 32, 16, 16),
              (2, 3, 1, 1, 2, 4), (2, 3, 2, 5, 4, 2), (1, 2, 5, 3, 1, 3),
              (3, 4, 4, 4, 3, 5), (1, 8, 2, 2, 64, 32), (1, 32, 4, 4, 32, 16),
              (1, 16, 8, 8, 16, 16)]

    @pytest.mark.parametrize("shape", SHAPES, ids=[
        "decoder0", "decoder1", "decoder2", "1x1", "2x5", "5x3", "batch3",
        "tiny0", "tiny1", "tiny2"])
    def test_matches_composed_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        args = _decoder_inputs(rng, *shape)
        g = Tensor(rng.normal(size=(shape[0], shape[5], 2 * shape[2], 2 * shape[3])))
        results = []
        for op in (T.upsample_concat_conv2d, _upsample_concat_conv2d_oracle):
            for t in args:
                t.zero_grad()
            out = op(*args)
            T.backward(T.sum_all(T.mul(out, g)))
            results.append([out.data] + [t.grad.copy() for t in args])
        assert 0 < np.count_nonzero(results[0][0]) < results[0][0].size  # the relu clamps
        for got, expected in zip(*results):
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-13 * max(1.0, np.abs(expected).max()))

    def test_gradcheck(self):
        rng = np.random.default_rng(31)
        args = _decoder_inputs(rng, 2, 3, 3, 2, 2, 4)
        weights = Tensor(rng.normal(size=(2, 4, 6, 4)))
        for target in args:
            rep = T.grad_check(
                lambda t: T.sum_all(T.mul(T.upsample_concat_conv2d(*args), weights)),
                target, tol=1e-6)
            assert rep.ok, (target.shape, rep)

    def test_flops_count_what_each_output_needs(self):
        x, skip, w, bias = _decoder_inputs(np.random.default_rng(33), 2, 5, 3, 4, 7, 6)
        out = T.upsample_concat_conv2d(x, skip, w, bias)
        assert out.flops == out.size * (2 * (9 * 7 + 4 * 5) + 1)  # the relu: 1 per output

    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 1), (5, 5)])
    def test_kernel_other_than_3x3_raises_contract_error(self, kernel):
        x, skip, _, bias = _decoder_inputs(np.random.default_rng(34), 1, 2, 2, 2, 3, 4)
        with pytest.raises(ContractError, match="3x3"):
            T.upsample_concat_conv2d(x, skip, Tensor(np.zeros((4, 5) + kernel)), bias)

    @pytest.mark.parametrize("x_shape, skip_shape, w_shape", [
        ((1, 2, 2, 2), (2, 3, 4, 4), (4, 5, 3, 3)),
        ((1, 2, 2, 2), (1, 3, 4, 5), (4, 5, 3, 3)),
        ((1, 2, 2, 3), (1, 3, 4, 4), (4, 5, 3, 3)),
        ((1, 2, 2, 2), (1, 3, 4, 4), (4, 6, 3, 3)),
        ((1, 2, 2, 2), (1, 3, 4, 4), (4, 4, 3, 3)),
        ((2, 2, 2), (1, 3, 4, 4), (4, 5, 3, 3)),
    ], ids=["batch", "width", "height", "too_many_channels", "too_few_channels",
            "rank"])
    def test_mismatched_operands_raise_dimension_error(self, x_shape, skip_shape, w_shape):
        args = [Tensor(np.zeros(shape)) for shape in (x_shape, skip_shape, w_shape, (4,))]
        with pytest.raises(DimensionError):
            T.upsample_concat_conv2d(*args)

    @pytest.mark.parametrize("operand", [0, 1])
    def test_nan_input_raises(self, operand):
        args = list(_decoder_inputs(np.random.default_rng(35), 1, 2, 2, 2, 3, 4))
        args[operand].data[0, 0, 1, 0] = np.nan
        with pytest.raises(NumericsError):
            T.upsample_concat_conv2d(*args)


def _closure_arrays(out):
    return [cell.cell_contents for cell in out._backward_fn.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]


class TestFusedRelu:
    """``conv2d``'s ``relu=True`` is the bare conv followed by ``T.relu``, and
    ``upsample_concat_conv2d`` always clamps its output the same way."""

    # (x shape, kernel, stride, padding): the conv oracle grid's kernels and
    # strides, and the model's 3x3 convs at stride 1 and 2.
    CONVS = [((2, 3, 7, 6), (2, 3, 3, 3), 1, 1), ((2, 3, 8, 6), (4, 3, 3, 3), 2, 1),
             ((2, 1, 8, 4), (2, 1, 3, 2), 3, 2), ((1, 2, 6, 6), (3, 2, 2, 2), 1, 0),
             ((2, 3, 5, 5), (2, 3, 1, 1), 2, 0)]
    CONV_IDS = ["3x3", "3x3_stride2", "3x2_stride3", "2x2_unpadded", "1x1_stride2"]

    @pytest.mark.parametrize("shape, kernel, stride, padding", CONVS, ids=CONV_IDS)
    def test_conv2d_equals_conv_then_relu(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(71)
        args = [Tensor(rng.normal(size=s)) for s in (shape, kernel, kernel[:1])]
        kw = {"stride": stride, "padding": padding}
        fused = _outputs_and_grads(lambda *a: T.conv2d(*a, **kw, relu=True), args, 72)
        graph = _outputs_and_grads(lambda *a: T.relu(T.conv2d(*a, **kw)), args, 72)
        assert 0 < np.count_nonzero(fused[0]) < fused[0].size
        for got, expected in zip(fused, graph):
            assert np.array_equal(got, expected)
        bare = T.conv2d(*args, **kw)
        assert T.conv2d(*args, **kw, relu=True).flops == bare.flops + bare.size

    @staticmethod
    def _away_from_the_kink(op, args):
        # A finite-difference step of 1e-5 moves no pre-activation across 0.
        with T.no_grad():
            assert np.abs(op(*args).data).min() > 1e-3

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "w", "bias"])
    def test_conv2d_gradcheck(self, which):
        rng = np.random.default_rng(75)
        args = [Tensor(rng.normal(size=s)) for s in ((2, 2, 5, 5), (3, 2, 3, 3), (3,))]
        self._away_from_the_kink(lambda *a: T.conv2d(*a, stride=2, padding=1), args)
        weights = Tensor(rng.normal(size=(2, 3, 3, 3)))
        rep = T.grad_check(lambda t: T.sum_all(T.mul(
            T.conv2d(*args, stride=2, padding=1, relu=True), weights)), args[which], tol=1e-6)
        assert rep.ok, rep

    @pytest.mark.parametrize("which", [0, 1, 2, 3], ids=["x", "skip", "w", "bias"])
    def test_upsample_concat_conv2d_gradcheck(self, which):
        rng = np.random.default_rng(76)
        args = _decoder_inputs(rng, 2, 3, 3, 2, 2, 4)
        self._away_from_the_kink(
            lambda x, skip, w, b: T.conv2d(_upsample_concat(x, skip), w, b, padding=1), args)
        weights = Tensor(rng.normal(size=(2, 4, 6, 4)))
        rep = T.grad_check(lambda t: T.sum_all(T.mul(
            T.upsample_concat_conv2d(*args), weights)), args[which], tol=1e-6)
        assert rep.ok, rep

    def test_backward_keeps_only_its_own_output(self):
        # Nor the padded inputs, which the backward rebuilds from its inputs,
        # nor the decoder op's upsample or concat: no array larger than the kernel.
        rng = np.random.default_rng(77)
        x = Tensor(rng.normal(size=(2, 3, 8, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        x2, skip, w2, bias2 = _decoder_inputs(rng, 2, 16, 32, 32, 16, 16)
        for out, kernel in ((T.conv2d(x, w, Tensor(np.zeros(4)), stride=2, padding=1,
                                      relu=True), w),
                            (T.upsample_concat_conv2d(x2, skip, w2, bias2), w2)):
            held = [a for a in _closure_arrays(out) if a is not out.data]
            assert len(held) < len(_closure_arrays(out))
            assert all(a.size <= kernel.size for a in held), [a.shape for a in held]

    @pytest.mark.parametrize("call, op", [
        (lambda: T.conv2d(_zeros(1, 1, 4, 4), _zeros(2, 1, 3, 3), _zeros(2), relu=1),
         "conv2d"),
    ], ids=["conv2d"])
    def test_relu_must_be_a_bool(self, call, op):
        with pytest.raises(ContractError, match=f"{op} relu"):
            call()


@st.composite
def _conv_cases(draw):
    """(x, w, bias, stride, padding, budget) of a conv2d call: batch 1-3,
    1-4 channels in and out, kernels and strides 1-3, padding 0-2 and maps of
    1-9 pixels a side that the padded kernel fits. A budget of 64 elements
    runs the backward image by image in tiles of a few columns."""
    b, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * padding), 9))
    wd = draw(st.integers(max(1, kw - 2 * padding), 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, w, bias = (Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((b, c, h, wd), (o, c, kh, kw), (o,)))
    return x, w, bias, stride, padding, draw(st.sampled_from([64, 2 ** 19]))


def _slices_by_rule(x_shape, o, stride, padding, budget):
    """How many batch slices a conv of x to o channels runs on at ``budget``:
    equal runs of as many images (at least one) as keep 4·max(c, o) rows of
    an image's phase cells within the budget."""
    b, c, h, wd = x_shape
    cells = -(-(h + 2 * padding) // stride) * -(-(wd + 2 * padding) // stride)
    return -(-b // max(1, budget // (4 * max(c, o) * cells)))


class TestConvProperties:
    """Both conv ops on drawn shapes, strides and paddings, their backward
    run whole and image by image."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_conv_cases())
    def test_conv2d_matches_the_loop_oracle(self, case):
        x, w, bias, stride, padding, budget = case
        slices = _slices_by_rule(x.shape, w.shape[0], stride, padding, budget)
        T._batch_slices(x.shape, w.shape[0], stride, padding)  # the default budget's plan
        with mock.patch.object(T, "_IM2COL_BUDGET", budget):
            with mock.patch.object(T, "_conv_forward", wraps=T._conv_forward) as run:
                out = T.conv2d(x, w, bias, stride=stride, padding=padding)
            assert run.call_count == slices  # the patched budget's plan
            np.testing.assert_allclose(
                out.data, _naive_conv2d(x.data, w.data, bias.data, stride, padding),
                rtol=0, atol=1e-12)
            g = np.random.default_rng(x.size).normal(size=out.shape)
            with mock.patch.object(T, "_grad_grid", wraps=T._grad_grid) as run:
                got = out._backward_fn(g)
            assert run.call_count == slices
            for got_grad, expected in zip(got, _naive_conv2d_grads(x.data, w.data, g,
                                                                   stride, padding)):
                np.testing.assert_allclose(got_grad, expected, rtol=0, atol=1e-12)
            weights = Tensor(g)
            for target in (x, w, bias):
                rep = T.grad_check(lambda t: T.sum_all(T.mul(
                    T.conv2d(x, w, bias, stride=stride, padding=padding), weights)),
                    target, tol=1e-6, sample=6)
                assert rep.ok, rep

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 4), st.sampled_from([64, 2 ** 19]),
           st.integers(0, 2 ** 32 - 1))
    def test_upsample_concat_conv2d_matches_the_composed_graph(
            self, batch, c_up, h, wd, c_skip, c_out, budget, seed):
        rng = np.random.default_rng(seed)
        args = _decoder_inputs(rng, batch, c_up, h, wd, c_skip, c_out)
        # The skip half's slices, then the folded x half's, in both passes.
        slices = (_slices_by_rule(args[1].shape, c_out, 1, 1, budget)
                  + _slices_by_rule(args[0].shape, 4 * c_out, 1, 1, budget))
        with mock.patch.object(T, "_IM2COL_BUDGET", budget):
            with (mock.patch.object(T, "_conv_forward", wraps=T._conv_forward) as fwd,
                  mock.patch.object(T, "_grad_grid", wraps=T._grad_grid) as bwd):
                fused = _outputs_and_grads(T.upsample_concat_conv2d, args, seed)
            assert (fwd.call_count, bwd.call_count) == (slices, slices)
            graph = _outputs_and_grads(_upsample_concat_conv2d_oracle, args, seed)
        for got, expected in zip(fused, graph):
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-13 * max(1.0, np.abs(expected).max()))


def _bytes_above_result(call):
    """``(result, bytes)``: what ``call()`` returns and tracemalloc's peak
    during it, less the bytes of the result's first array (a Tensor's data,
    or the first gradient of an adjoint's tuple)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first = result.data if isinstance(result, Tensor) else result[0]
    return result, peak - first.nbytes


class TestConvScratch:
    """The conv ops' scratch is one slice's: at the model's 64x64 maps a slice
    is one image, so from batch 1 to 4 the bytes a call holds above its result
    grow by at most one image of the result, which the first slice's scratch
    overlaps at batch 1 and not after (plus 64 kB of slack). Measured on
    16-channel 64x64 maps: each forward held 1.90 MB above its output at
    batch 1 and 2.42 MB at batch 4 (3.12 and 3.64 MB with im2col chunks,
    6.40 MB when the forward ran the whole batch at once); the conv2d
    backward held 1.02 MB above dx at batch 1 and 1.54 MB at batch 4 (2.12 MB
    when it kept a slice's phase-split input while building the next)."""

    IMAGE = 16 * 64 * 64 * 8  # bytes of one image of the result, 0.52 MB

    @staticmethod
    def _conv2d(batch):
        rng = np.random.default_rng(batch)
        x = Tensor(rng.normal(size=(batch, 16, 64, 64)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=16))
        return _bytes_above_result(lambda: T.conv2d(x, w, bias, padding=1, relu=True))

    def test_conv2d_forward(self):
        one, four = (self._conv2d(batch)[1] for batch in (1, 4))
        assert four - one <= self.IMAGE + 65_536, (one, four)

    def test_upsample_concat_conv2d_forward(self):
        grown = []
        for batch in (1, 4):
            rng = np.random.default_rng(batch)
            x = Tensor(rng.normal(size=(batch, 16, 32, 32)), requires_grad=True)
            skip = Tensor(rng.normal(size=(batch, 16, 64, 64)), requires_grad=True)
            w = Tensor(rng.normal(size=(16, 32, 3, 3)), requires_grad=True)
            bias = Tensor(rng.normal(size=16))
            grown.append(_bytes_above_result(
                lambda: T.upsample_concat_conv2d(x, skip, w, bias))[1])
        assert grown[1] - grown[0] <= self.IMAGE + 65_536, grown

    def test_conv2d_backward(self):
        held = []
        for batch in (1, 4):
            out = self._conv2d(batch)[0]
            g = np.random.default_rng(batch).normal(size=out.shape)
            held.append(_bytes_above_result(lambda: out._backward_fn(g))[1])
        assert held[1] - held[0] <= self.IMAGE + 65_536, held

    def test_a_narrowing_conv_runs_in_less_scratch_than_im2col(self):
        # The decoder.block2 skip half of the default model at batch 1, 16 ->
        # 16 channels on 64x64 maps in float32, as kernel rows: 1.21 MB at its
        # peak, against the 1.82 MB that its phase-split input, output and
        # im2col chunk hold together. The kernel rows' chunk is kw copies of
        # the chunk's columns plus a halo of (kh - 1) grid rows, and one
        # product buffer; beside it come the reordered kernel and numpy's
        # buffer for the strided add (~64 kB).
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 16, 64, 64)).astype(np.float32)
        w = rng.normal(size=(16, 16, 3, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            T._conv_forward(x, w, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        wq = 66
        n, k = wq * wq, 16 * 9
        step = T._chunk_columns(n, k)
        held = 16 * (n + 2 * wq + 2) + 16 * n  # the phase-split input and the output
        im2col = 4 * (held + k * step)
        rows = 4 * (held + 3 * 16 * (step + 2 * wq) + 16 * step)
        assert peak < im2col and peak <= rows + 100_000, (peak, im2col, rows)


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_hand_derivative(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_composed_chain_matches_fd(self):
        rng = np.random.default_rng(30)
        w = Tensor(rng.normal(size=(4, 4)))
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        w2 = Tensor(rng.normal(size=(2, 4)))

        def f(t):
            out = T.layer_norm(T.silu(T.matmul(t, w)), gamma, beta)
            return T.sum_all(T.mul(out, w2))

        x = Tensor(rng.normal(size=(2, 4)))
        rep = T.grad_check(f, x, tol=1e-5)
        assert rep.ok, rep

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.mul(x, x))

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = T.sum_all(x)
        T.backward(loss)
        with pytest.raises(StateError):
            T.backward(loss)

    def test_empty_tape_rejected(self):
        with pytest.raises(StateError):
            T.backward(Tensor(np.array(1.0), requires_grad=True))

    def test_gradient_accumulation_is_additive(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.backward(T.sum_all(x))
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_fanout(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = T.mul(x, x)
        loss = T.sum_all(T.add(y, y))
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_tape_topological_order(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = T.mul(x, x)
        z = T.add(y, x)
        tape = T.Tape(T.sum_all(z))
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                if id(parent) in pos:
                    assert pos[id(parent)] < pos[id(node)]

    def test_tape_lists_ops_in_forward_order(self):
        # The profiler's rows follow this order: first input first.
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        u, v = T.relu(a), T.relu(b)
        s = T.add(u, v)
        ops = [n for n in T.Tape(s).nodes if n._backward_fn is not None]
        assert [id(n) for n in ops] == [id(u), id(v), id(s)]

    @pytest.mark.parametrize("name", ["", "block0"])
    def test_backward_through_a_released_node_rejected(self, name):
        # A second loss on a finished graph's output would have reused z's
        # stale gradient (w.grad 15 where 9 is right); it must raise instead.
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        w = Tensor(np.array([[2.0]]), requires_grad=True)
        with T.scope(name) if name else contextlib.nullcontext():
            z = T.relu(T.matmul(x, w))
        T.backward(T.sum_all(z))
        with pytest.raises(StateError) as exc:
            T.backward(T.sum_all(T.scale(z, 2.0)))
        message = str(exc.value)
        assert "relu" in message
        assert ("[block0]" in message) == bool(name) and "[]" not in message
        np.testing.assert_array_equal(w.grad, [[3.0]])  # the first pass only


@pytest.mark.parametrize("call, error, named", [
    (lambda: T.backward(3.0), ContractError, "Tensor loss"),
    (lambda: T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3))),
                      None), DimensionError, "bias"),
    (lambda: T.upsample_concat_conv2d(Tensor(np.ones((1, 2, 2, 2))),
                                      Tensor(np.ones((1, 1, 4, 4))),
                                      Tensor(np.ones((3, 3, 3, 3))), None),
     DimensionError, "bias"),
    (lambda: T.softmax(_zeros(2, 0)), DimensionError, "softmax .*non-empty"),
    (lambda: T.log_softmax(_zeros(2, 0, 3), axis=1), DimensionError,
     r"log_softmax axis 1 invalid or empty .*\(2, 0, 3\)"),
    (lambda: T.layer_norm(_zeros(2, 0), _zeros(0), _zeros(0)), DimensionError,
     r"layer_norm .*non-empty .*\(2, 0\)"),
    (lambda: T.add(_zeros(2), 3), ContractError, "add: b must be a Tensor, got int"),
    (lambda: T.sum_all(3), ContractError, "sum_all: x must be a Tensor, got int"),
    (lambda: T.relu([1.0]), ContractError, "relu: x must be a Tensor, got list"),
    (lambda: AffineLayer(2, 3).forward(np.zeros((4, 2))), ContractError,
     "affine: x must be a Tensor, got ndarray"),
    (lambda: T.conv2d(np.ones((1, 2, 4, 4)), _zeros(3, 2, 3, 3), _zeros(3)), ContractError,
     "conv2d: x must be a Tensor, got ndarray"),
    (lambda: network.forward(np.zeros((1, 1, 16, 16)), network.TransUKanModel(
        network.ModelConfig(image_size=16, d_model=8, depth=1, n_heads=2))), ContractError,
     "forward: image must be a Tensor, got ndarray"),
    (lambda: T.matmul(_zeros(2, 3), np.zeros((3, 2))), ContractError,
     "matmul: b must be a Tensor, got ndarray"),
    (lambda: Tensor("a"), ContractError, "Tensor data must be real numbers, got 'a'"),
    (lambda: Tensor(object()), ContractError, "Tensor data must be real numbers"),
    (lambda: T.affine(_zeros(2, 2), _zeros(2, 2), _zeros(2), act=(0, 1, "ab")),
     ContractError, "affine needs a numeric table"),
    (lambda: Tensor(None), ContractError, "Tensor data must be real numbers, got None"),
    (lambda: Tensor([None]), ContractError, r"Tensor data must be real numbers, got \[None\]"),
    (lambda: Tensor(np.array([1 + 2j])), ContractError, "Tensor data must be real numbers"),
    (lambda: T.grad_check(lambda t: 3.0, _zeros(2)), ContractError,
     "grad_check target must return a Tensor, got float"),
    # An f that returns None: tol is refused before f runs.
    (lambda: T.grad_check(lambda t: None, _zeros(2), tol="a"), ContractError,
     "grad_check tol .*'a'"),
    (lambda: _zeros(2).item(), ContractError, r"expected scalar tensor, got shape \(2,\)"),
    (lambda: T.matmul(_zeros(3), _zeros(3, 2)), DimensionError, "matmul needs rank >= 2"),
    (lambda: T.matmul(_zeros(2, 2, 3), _zeros(3, 3, 4)), DimensionError,
     "matmul batch dims not broadcastable"),
    (lambda: T.layer_norm(_zeros(2, 3), _zeros(2), _zeros(3)), DimensionError,
     r"layer_norm params must have shape \(3,\)"),
    (lambda: T.conv2d(_zeros(2, 4, 4), _zeros(3, 2, 3, 3), _zeros(3)), DimensionError,
     "conv2d needs 4-d input"),
    (lambda: T.conv2d(_zeros(1, 2, 4, 4), _zeros(3, 1, 3, 3), _zeros(3)), DimensionError,
     "conv2d channel mismatch: input 2, kernel expects 1"),
    (lambda: T.upsample_nearest_2x(_zeros(2, 2, 2)), DimensionError,
     "upsample_nearest_2x needs 4-d input"),
    (lambda: T.mean_last_axis(_zeros(2, 0)), DimensionError,
     "mean_last_axis needs a non-empty last axis"),
    (lambda: T.reshape(_zeros(6), (4,)), DimensionError, r"cannot reshape \(6,\) to \(4,\)"),
    (lambda: T.concat([], axis=0), ContractError, "concat needs a non-empty list"),
    (lambda: T.concat([_zeros(2, 3), _zeros(2, 4)], axis=0), DimensionError,
     "concat shapes incompatible"),
    (lambda: T.grad_check(lambda t: t, _zeros(3)), ContractError,
     "grad_check target must return a scalar"),
    (lambda: T.grad_check(lambda t: T.sum_all(Tensor(np.zeros(2), requires_grad=True)),
                          _zeros(3)), StateError, "f does not depend on x"),
    (lambda: kansformer.kansformer_block(_zeros(1, 4, 6), kansformer.KansformerBlockParams(
        8, 2)), DimensionError, r"kansformer_block expects \(B, T, 8\)"),
    (lambda: network.ModelConfig(n_classes=1), ContractError, "at least 2 classes, got 1"),
    (lambda: network.cnn_encode(_zeros(1, 16, 16), network.CnnEncoderParams(1, (4, 4, 4))),
     DimensionError, r"cnn_encode expects \(B, C, H, W\)"),
    (lambda: network.forward(_zeros(1, 1, 16, 16), "m"), ContractError,
     "forward: model must be a TransUKanModel, got str"),
    (lambda: network.cnn_encode(_zeros(1, 1, 16, 16), None), ContractError,
     "cnn_encode: p must be a CnnEncoderParams, got NoneType"),
    (lambda: kansformer.encoder_forward(_zeros(1, 4, 8), None), ContractError,
     "encoder_forward: stack must be an EncoderStack, got NoneType"),
    (lambda: kansformer.msa_kan(_zeros(1, 4, 8), None), ContractError,
     "msa_kan: p must be a MsaKanParams, got NoneType"),
    (lambda: kansformer.kansformer_block(_zeros(1, 4, 8), None), ContractError,
     "kansformer_block: p must be a KansformerBlockParams, got NoneType"),
    (lambda: network.save_checkpoint(None, "model.tukn"), ContractError,
     "save_checkpoint: model must be a TransUKanModel, got NoneType"),
    (lambda: profiler.variant_report("mlp", None), ContractError,
     "variant_report: config must be a ModelConfig, got NoneType"),
    (lambda: T.Tape(3), ContractError, "Tape: root must be a Tensor, got int"),
    (lambda: T.check_sizes(3), ContractError, "check_sizes: sizes must be a dict, got int"),
    (lambda: network.DecoderParams(8, (4, 4, 4), (8, 8, 8), 2).forward(_zeros(1, 8, 2, 2),
                                                                       None),
     ContractError, "DecoderParams.forward: skips must be a list of 3 skips, got None"),
    (lambda: network.DecoderParams(8, (4, 4, 4), (8, 8, 8), 2).forward(
        _zeros(1, 8, 2, 2), [_zeros(1, 4, 16, 16), _zeros(1, 4, 8, 8)]),
     ContractError, "DecoderParams.forward: skips must be a list of 3 skips"),
    (lambda: network.load_checkpoint(123), ContractError,
     "load_checkpoint: path must be a str or a PathLike, got int"),
    (lambda: network.save_checkpoint(network.TransUKanModel(network.ModelConfig(
        image_size=16, d_model=8, depth=1, n_heads=2)), 123), ContractError,
     "save_checkpoint: path must be a str or a PathLike, got int"),
    (lambda: kan.relukan_basis("a", kan.KanGrid()), ContractError,
     "relukan_basis: x must be real numbers, got 'a'"),
    (lambda: kan.bspline_knots(kan.KanGrid(), "a"), ContractError,
     "bspline_knots order must be an int >= 1, got 'a'"),
    (lambda: kan.named_parameters(None), ContractError,
     "named_parameters: parts must be an Iterable, got NoneType"),
    (lambda: T.basis_expand(_zeros(2), None, None, 0), ContractError,
     "basis_expand: basis must be a Callable, got NoneType"),
    (lambda: _huge_padding_conv2d(), DimensionError,
     "conv2d padded input 2199023255555x2199023255555 is larger than an array can be"),
    (lambda: kan.relukan_basis(np.zeros(2), None), ContractError,
     "relukan_basis: grid must be a KanGrid, got NoneType"),
    (lambda: kan.relukan_basis_expand(None, kan.KanGrid()), ContractError,
     "relukan_basis_expand: x must be a Tensor, got NoneType"),
    (lambda: kan.bspline_basis(np.zeros(2), None, 2), ContractError,
     "bspline_knots: grid must be a KanGrid, got NoneType"),
    (lambda: kan.bspline_basis_expand(None, kan.KanGrid(), 2), ContractError,
     "bspline_basis_expand: x must be a Tensor, got NoneType"),
    (lambda: kan.named_parameters([None]), ContractError,
     r"named_parameters: each part must be a \(name, layer\) pair, got None"),
    (lambda: T.basis_expand(_zeros(2), lambda v: "ab", lambda v: v, 0), ContractError,
     "basis_expand: basis output must be real numbers, got 'ab'"),
    (lambda: T.grad_check(T.sum_all, Tensor(np.zeros(2, dtype=np.float32))), ContractError,
     "grad_check x must be float64, got float32"),
    (lambda: T.grad_check(lambda t: T.sum_all(T.astype(t, np.float32)), _zeros(2)),
     ContractError, "grad_check target must return a float64 Tensor, got float32"),
    (lambda: T.astype(_zeros(2), np.int32), ContractError,
     "astype: dtype must be float32 or float64, got <class 'numpy.int32'>"),
    (lambda: network.TransUKanModel(network.ModelConfig(
        image_size=16, d_model=8, depth=1, n_heads=2)).astype("f2"), ContractError,
     "TransUKanModel.astype: dtype must be float32 or float64, got 'f2'"),
    (lambda: kan.EfficientKanLayer(3, 2).forward(_zeros(2, 3), norm="ln"), ContractError,
     "affine: gamma must be a Tensor, got NoneType"),
], ids=["backward_of_float", "conv2d_no_bias", "upsample_concat_conv2d_no_bias",
        "softmax_empty_axis", "log_softmax_empty_axis", "layer_norm_empty_axis",
        "add_int", "sum_all_int", "relu_list", "affine_layer_ndarray", "conv2d_ndarray",
        "network_forward_ndarray", "matmul_ndarray", "tensor_of_str", "tensor_of_object",
        "squared_piecewise_poly_str_table", "tensor_of_none", "tensor_of_none_list",
        "tensor_of_complex", "grad_check_float_target", "grad_check_str_tol",
        "item_of_vector", "matmul_rank_1", "matmul_batch_dims", "layer_norm_param_shape",
        "conv2d_3d_input", "conv2d_channel_mismatch", "upsample_nearest_2x_3d_input",
        "mean_last_axis_empty", "reshape_size", "concat_empty_list", "concat_shapes",
        "grad_check_vector_target", "grad_check_independent_target",
        "kansformer_block_shape", "model_config_one_class", "cnn_encode_3d_input",
        "network_forward_str_model", "cnn_encode_none_params", "encoder_forward_none_stack",
        "msa_kan_none_params", "kansformer_block_none_params", "save_checkpoint_none_model",
        "variant_report_none_config", "tape_of_int", "check_sizes_int",
        "decoder_forward_none_skips", "decoder_forward_two_skips",
        "load_checkpoint_int_path", "save_checkpoint_int_path", "relukan_basis_str",
        "bspline_knots_str_order", "named_parameters_none", "basis_expand_none",
        "conv2d_huge_padding", "relukan_basis_none_grid", "relukan_basis_expand_none_x",
        "bspline_basis_none_grid", "bspline_basis_expand_none_x",
        "named_parameters_none_part", "basis_expand_str_basis", "grad_check_float32_x",
        "grad_check_float32_target", "astype_int_dtype", "model_astype_half",
        "efficientkan_forward_str_norm"])
def test_public_entry_points_raise_typed_errors(call, error, named):
    with pytest.raises(error, match=named):
        call()


def _huge_padding_conv2d():
    return T.conv2d(_zeros(1, 1, 3, 3), _zeros(1, 1, 3, 3), _zeros(1), padding=2 ** 40)


def test_huge_padding_is_refused_before_any_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="conv2d"):
            _huge_padding_conv2d()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call, named", [
    (lambda: T.conv2d(_zeros(0, 2, 4, 4), _zeros(3, 2, 3, 3), _zeros(3)), "conv2d .*batch 0"),
    (lambda: T.conv2d(_zeros(1, 0, 4, 4), _zeros(3, 0, 3, 3), _zeros(3)),
     "conv2d .*input channels 0"),
    (lambda: T.upsample_concat_conv2d(_zeros(0, 2, 2, 2), _zeros(0, 1, 4, 4),
                                      _zeros(3, 3, 3, 3), _zeros(3)),
     "upsample_concat_conv2d .*batch 0"),
    (lambda: T.upsample_concat_conv2d(_zeros(1, 0, 2, 2), _zeros(1, 1, 4, 4),
                                      _zeros(3, 1, 3, 3), _zeros(3)),
     "upsample_concat_conv2d .*x channels 0"),
    (lambda: T.upsample_concat_conv2d(_zeros(1, 2, 2, 2), _zeros(1, 0, 4, 4),
                                      _zeros(3, 2, 3, 3), _zeros(3)),
     "upsample_concat_conv2d .*skip channels 0"),
], ids=["conv2d_batch", "conv2d_channels", "decoder_batch", "decoder_x_channels",
        "decoder_skip_channels"])
def test_conv_on_an_empty_axis_raises_dimension_error(call, named):
    with pytest.raises(DimensionError, match=named):
        call()


@pytest.mark.parametrize("kernel", [(3, 2, 0, 3), (3, 2, 3, 0)])
def test_an_empty_kernel_axis_is_refused_before_any_allocation(kernel):
    x, w, bias = _zeros(1, 2, 4, 4), _zeros(*kernel), _zeros(3)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="conv2d .*kernel " + re.escape(str(kernel))):
            T.conv2d(x, w, bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_an_empty_output_axis_is_allowed():
    x = Tensor(np.ones((2, 2, 4, 4)), requires_grad=True)
    w = Tensor(np.ones((0, 2, 3, 3)), requires_grad=True)
    bias = Tensor(np.ones(0), requires_grad=True)
    out = T.conv2d(x, w, bias, padding=1, relu=True)
    assert out.shape == (2, 0, 4, 4)
    T.backward(T.sum_all(out))
    assert np.array_equal(x.grad, np.zeros(x.shape))
    assert w.grad.shape == w.shape and bias.grad.shape == (0,)


@pytest.mark.parametrize("call, error, named", [
    (lambda: T.conv2d(_zeros(1, 1, 6, 6), _zeros(1, 1, 3, 3), _zeros(1), stride=True),
     ContractError, "stride"),
    (lambda: T.conv2d(_zeros(1, 1, 6, 6), _zeros(1, 1, 3, 3), _zeros(1), padding=True),
     ContractError, "padding"),
    (lambda: T.reshape(_zeros(6), (2, 3.0)), DimensionError, "reshape shape .*3.0"),
    (lambda: T.reshape(_zeros(6), (True, 6)), DimensionError, "reshape shape .*True"),
    (lambda: T.transpose(_zeros(2, 3), (1, 0.0)), DimensionError, "transpose axes .*0.0"),
    (lambda: T.log_softmax(_zeros(2, 3), axis=0.5), DimensionError, "axis 0.5"),
    (lambda: T.scale(_zeros(2), "a"), ContractError, "scale factor"),
    (lambda: T.scale(_zeros(2), True), ContractError, "scale factor"),
    (lambda: profiler.estimate_flops(AffineLayer(2, 2), 5), ContractError, "input_shape"),
    (lambda: T.softmax(Tensor(1.0)), DimensionError, "softmax"),
    (lambda: T.transpose(_zeros(2, 3), 1), DimensionError, "transpose axes 1"),
    (lambda: T.concat([_zeros(2), _zeros(3)], axis=0.5), DimensionError, "concat axis 0.5"),
    (lambda: T.concat([_zeros(2), _zeros(3)], axis=True), DimensionError, "concat axis True"),
    (lambda: T.grad_check(T.sum_all, _zeros(3), h="a"), ContractError, "step h .*'a'"),
    (lambda: T.layer_norm(Tensor(1.0), _zeros(1), _zeros(1)), DimensionError,
     "layer_norm"),
], ids=["conv2d_bool_stride", "conv2d_bool_padding", "reshape_float", "reshape_bool",
        "transpose_float", "log_softmax_float_axis", "scale_str", "scale_bool",
        "estimate_flops_int_shape", "softmax_0d", "transpose_int_axes", "concat_float_axis",
        "concat_bool_axis", "grad_check_str_h", "layer_norm_0d"])
def test_non_integer_arguments_raise_typed_errors(call, error, named):
    with pytest.raises(error, match=named):
        call()


class TestGradCheckHarness:
    def test_linear_function_exact(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 3)))
        rep = T.grad_check(T.sum_all, x, tol=1e-10)
        assert rep.ok and rep.max_rel_err < 1e-10

    def test_silu_sum(self):
        x = Tensor(np.random.default_rng(2).normal(size=7))
        rep = T.grad_check(lambda t: T.sum_all(T.silu(t)), x, h=1e-5, tol=1e-6)
        assert rep.ok

    def test_injected_fault_detected(self):
        # negative control: op with a deliberately wrong adjoint must fail
        def broken_square(x):
            return T._node(x.data * x.data, "broken", (x,),
                           lambda g: (g * 3.0 * x.data,), flops=x.size)

        x = Tensor(np.random.default_rng(3).uniform(1.0, 2.0, size=4))
        rep = T.grad_check(lambda t: T.sum_all(broken_square(t)), x, tol=1e-6)
        assert not rep.ok

    def test_coordinate_sampling(self):
        x = Tensor(np.random.default_rng(4).normal(size=100))
        rep = T.grad_check(lambda t: T.sum_all(T.square(t)), x, sample=10, tol=1e-6)
        assert rep.ok and rep.n_checked == 10

    def test_empty_sample_rejected(self):
        # a check of no coordinates would report ok without checking anything
        x = Tensor(np.ones(5))
        for sample in (0, -1):
            with pytest.raises(ContractError, match="sample"):
                T.grad_check(lambda t: T.sum_all(t), x, sample=sample)

    @pytest.mark.parametrize("sample", [2.5, True, np.int64(3)],
                             ids=["float", "bool", "numpy_int"])
    def test_non_int_sample_rejected(self, sample):
        x = Tensor(np.ones(5))
        with pytest.raises(ContractError, match="sample"):
            T.grad_check(lambda t: T.sum_all(t), x, sample=sample)

    def test_nonfinite_objective_raises(self):
        def f(t):
            out = T.sum_all(t)
            out.data = np.array(np.inf)
            return out

        x = Tensor(np.ones(2))
        with pytest.raises(NumericsError):
            T.grad_check(f, x)


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 6)))
            w = Tensor(rng.normal(size=(6, 6)))
            return T.layer_norm(T.silu(T.matmul(x, w)),
                                Tensor(np.ones(6)), Tensor(np.zeros(6))).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_invariant_product_shape_equals_size(self):
        t = Tensor(np.zeros((3, 4, 5)))
        assert int(np.prod(t.shape)) == t.size


class TestShapeOps:
    def test_concat_and_split_grads(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        T.backward(T.sum_all(T.mul(out, out)))
        np.testing.assert_allclose(a.grad, 2.0)
        np.testing.assert_allclose(b.grad, 2.0)

    def test_transpose_reshape_roundtrip_grad(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        rep = T.grad_check(
            lambda t: T.sum_all(T.square(T.reshape(T.transpose(t, (1, 0, 2)), (3, 8)))),
            x, tol=1e-6)
        assert rep.ok


ROOT = Path(__file__).resolve().parents[1]
# Public functions kept without a caller: grad_check is the package's
# finite-difference checker, exported for users and for the tests.
UNCALLED_BY_DESIGN = ("grad_check",)


def test_every_public_function_has_a_caller():
    """A public ``tensor`` function is called as ``T.<name>`` or
    ``tensor.<name>`` by the package or the benchmark, or perfbench's tracer
    patches it by name; otherwise it is dead and goes."""
    sources = [p for d in ("src/transukan", "perfbench") for p in (ROOT / d).glob("*.py")
               if not p.name.startswith("test_")]
    text = "\n".join(p.read_text() for p in sources)
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(ast.literal_eval(n.value) for n in spans.body if isinstance(n, ast.Assign)
                  and getattr(n.targets[0], "id", None) == "OPS")
    uncalled = [name for name, f in vars(T).items()
                if inspect.isfunction(f) and f.__module__ == T.__name__
                and not name.startswith("_") and name not in traced
                and name not in UNCALLED_BY_DESIGN
                and not re.search(rf"\b(T|tensor)\.{name}\b", text)]
    assert uncalled == []
