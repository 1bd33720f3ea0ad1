import ast
import contextlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from transukan import profiler
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


class TestLayerNorm:
    def test_constant_row(self):
        x = Tensor(np.array([[5.0, 5.0, 5.0]]))
        out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_normalization_moments(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 9), scale=3.0) + 2.0)
        out = T.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)), eps=1e-10)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

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

    def test_forward_in_chunks_matches_oracle(self, monkeypatch):
        # 27 rows of im2col scratch in a budget of 150 elements: chunks of
        # 5 columns, the last one short.
        monkeypatch.setattr(T, "_IM2COL_BUDGET", 150)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
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
        # 27 rows of scratch in a budget of 150 elements: the dx tap products
        # run in chunks of 5 columns, the last one short.
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        g = rng.normal(size=(2, 4, 7, 6))
        whole = T.conv2d(x, w, b, padding=1)._backward_fn(g)
        monkeypatch.setattr(T, "_IM2COL_BUDGET", 150)
        chunked = T.conv2d(x, w, b, padding=1)._backward_fn(g)
        for got, expected in zip(chunked, whole):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_no_input_gradient_when_input_needs_none(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = T.conv2d(x, w, Tensor(np.zeros(3)), padding=1)
        dx, dw, _ = out._backward_fn(np.ones(out.shape))
        assert dx is None
        assert dw.shape == w.shape


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


def _upsample_concat_conv2d_oracle(x, skip, w, bias):
    return T.conv2d(T.concat([T.upsample_nearest_2x(x), skip], axis=1), w, bias,
                    padding=1)


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

    def test_backward_keeps_neither_the_upsample_nor_the_concat(self):
        b, c_up, h, wd, c_skip, c_out = 2, 16, 32, 32, 16, 16
        x, skip, w, bias = _decoder_inputs(np.random.default_rng(32), b, c_up, h, wd,
                                           c_skip, c_out)
        out = T.upsample_concat_conv2d(x, skip, w, bias)
        held = [cell.cell_contents for cell in out._backward_fn.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        # Nor the padded inputs, which the backward rebuilds from x and skip:
        # no array larger than the kernel.
        assert all(a.size <= w.size for a in held), [a.shape for a in held]

    def test_flops_count_what_each_output_needs(self):
        x, skip, w, bias = _decoder_inputs(np.random.default_rng(33), 2, 5, 3, 4, 7, 6)
        out = T.upsample_concat_conv2d(x, skip, w, bias)
        assert out.flops == 2 * out.size * (9 * 7 + 4 * 5)

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
], ids=["backward_of_float", "conv2d_no_bias", "upsample_concat_conv2d_no_bias"])
def test_public_entry_points_raise_typed_errors(call, error, named):
    with pytest.raises(error, match=named):
        call()


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
], ids=["conv2d_bool_stride", "conv2d_bool_padding", "reshape_float", "reshape_bool",
        "transpose_float", "log_softmax_float_axis", "scale_str", "scale_bool",
        "estimate_flops_int_shape", "softmax_0d"])
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
