"""The dtype rule of ``tensor.py``: an op allocates and computes in the
result type of its Tensor operands, and each tensor gets its gradient in its
own dtype; and the float32 model it serves."""

import numpy as np
import pytest

from transukan import kan, train
from transukan import tensor as T
from transukan.network import (
    ModelConfig,
    TransUKanModel,
    load_checkpoint,
    save_checkpoint,
)
from transukan.tensor import Tensor

GRID = kan.KanGrid()
ACT = (GRID.support_lo()[0], GRID.h, GRID.pooled_bell_table)

# name -> (op on the operands, operand shapes). Every public op with a
# gradient; each case's operands are drawn from N(0, 1).
CASES = {
    "add": (T.add, [(3, 4), (4,)]),
    "sub": (T.sub, [(3, 4), (3, 1)]),
    "mul": (T.mul, [(3, 4), (3, 4)]),
    "scale": (lambda x: T.scale(x, 0.3), [(3, 4)]),
    "relu": (T.relu, [(3, 4)]),
    "silu": (T.silu, [(3, 4)]),
    "square": (T.square, [(3, 4)]),
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)]),
    "affine": (T.affine, [(2, 3, 4), (5, 4), (5,)]),
    "affine_residual": (T.affine, [(2, 3, 4), (5, 4), (5,), (2, 3, 5)]),
    "affine_act": (lambda x, w, b: T.affine(x, w, b, act=ACT), [(2, 3, 4), (5, 4), (5,)]),
    "affine_norm": (lambda x, w, b, r, gamma, beta: T.affine(x, w, b, r, ACT, (gamma, beta)),
                    [(2, 3, 4), (5, 4), (5,), (2, 3, 5), (4,), (4,)]),
    "softmax": (T.softmax, [(3, 4)]),
    "attention": (lambda qkv: T.attention(qkv, 2), [(2, 5, 12)]),
    "log_softmax": (lambda x: T.log_softmax(x, axis=1), [(2, 3, 4)]),
    "layer_norm": (T.layer_norm, [(3, 6), (6,), (6,)]),
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, stride=2, padding=1, relu=True),
               [(2, 3, 7, 7), (4, 3, 3, 3), (4,)]),
    # stride 1 to fewer channels than it reads: the kernel-row forward
    "conv2d_narrowing": (lambda x, w, b: T.conv2d(x, w, b, padding=1, relu=True),
                         [(2, 4, 7, 7), (3, 4, 3, 3), (3,)]),
    "upsample_concat_conv2d": (T.upsample_concat_conv2d,
                               [(2, 3, 4, 4), (2, 2, 8, 8), (4, 5, 3, 3), (4,)]),
    "upsample_nearest_2x": (T.upsample_nearest_2x, [(2, 3, 4, 4)]),
    "mean_last_axis": (T.mean_last_axis, [(3, 4)]),
    "relukan_basis_expand": (lambda x: kan.relukan_basis_expand(x, GRID), [(3, 4)]),
    "bspline_basis_expand": (lambda x: kan.bspline_basis_expand(x, GRID, 3), [(3, 4)]),
    "sum_all": (T.sum_all, [(3, 4)]),
    "reshape": (lambda x: T.reshape(x, (4, 3)), [(3, 4)]),
    "transpose": (lambda x: T.transpose(x, (1, 0)), [(3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(3, 4), (3, 2)]),
}

# Largest |float32 - float64| of an output or gradient, relative to the
# float64 tensor's largest entry. Measured at most 7.9e-7, on sum_all's
# output, a sum of 12 terms of either sign; 2.4e-7 on every other case.
OP_TOLERANCE = 2e-6


def _run(op, arrays, dtype):
    """``op``'s output and each operand's gradient, the operands in ``dtype``,
    for the loss sum(out * weights) with fixed weights."""
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = op(*tensors)
    weights = np.random.default_rng(1).normal(size=out.shape).astype(dtype)
    T.backward(T.sum_all(T.mul(out, Tensor(weights))))
    return out.data, [t.grad for t in tensors]


def _relative(approx, exact):
    return np.abs(approx.astype(np.float64) - exact).max() / np.abs(exact).max()


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_operands_give_float32_outputs_and_gradients(name):
    op, shapes = CASES[name]
    rng = np.random.default_rng(0)
    # The float64 run reads the same float32-rounded operands, so only the
    # arithmetic's dtype differs.
    arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
    out32, grads32 = _run(op, arrays, np.float32)
    out64, grads64 = _run(op, arrays, np.float64)
    assert out32.dtype == np.float32 and out64.dtype == np.float64
    assert _relative(out32, out64) <= OP_TOLERANCE
    for g32, g64 in zip(grads32, grads64):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert _relative(g32, g64) <= OP_TOLERANCE


def test_a_float32_by_float64_mul_computes_in_float64():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    g = rng.normal(size=(3, 4))
    out = T.mul(a, b)
    assert out.data.dtype == np.float64
    np.testing.assert_array_equal(out.data, a.data.astype(np.float64) * b.data)
    T.backward(T.sum_all(T.mul(out, Tensor(g))))
    assert (a.grad.dtype, b.grad.dtype) == (np.float32, np.float64)
    np.testing.assert_array_equal(b.grad, g * a.data.astype(np.float64))
    np.testing.assert_array_equal(a.grad, (g * b.data).astype(np.float32))


def test_astype_casts_and_hands_the_gradient_back_in_its_input_dtype():
    x = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3), requires_grad=True)
    assert T.astype(x, np.float32) is x
    y = T.astype(x, np.float64)
    assert y.data.dtype == np.float64 and y.op == "astype" and y.flops == 0
    T.backward(T.sum_all(T.scale(y, 0.1)))
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 0.1, dtype=np.float32))


@pytest.mark.parametrize("data,dtype", [
    (np.ones(2, dtype=np.float32), np.float32),
    (np.ones(2, dtype=np.float64), np.float64),
    (np.ones(2, dtype=np.float16), np.float64),
    (np.ones(2, dtype=np.int32), np.float64),
    ([True, False], np.float64),
    (np.float32(1.5), np.float32),
    (1.5, np.float64),
])
def test_a_tensor_keeps_float32_and_float64_and_widens_the_rest(data, dtype):
    assert Tensor(data).data.dtype == dtype


def _recording_backward(monkeypatch):
    """The nodes of each tape that ``T.backward`` runs from now on, as lists
    of ``(op, scope, data)``, taken before the backward releases them."""
    tapes = []
    run = T.backward

    def recording(loss):
        tapes.append([(n.op, n.scope, n.data) for n in T.Tape(loss).nodes])
        run(loss)
    monkeypatch.setattr(T, "backward", recording)
    return tapes


def test_the_default_model_runs_every_op_and_gradient_in_float32(monkeypatch):
    """A ``train.step`` on a float64 image, which ``forward`` casts: every
    node of its tape, the parameters, the 36 op nodes of the forward and the
    four of the loss, holds float32, and so does every gradient."""
    tapes = _recording_backward(monkeypatch)
    model = TransUKanModel(ModelConfig())
    rng = np.random.default_rng(3)
    img = Tensor(rng.uniform(size=(1, 1, 64, 64)))
    loss, _ = train.step(model, img, rng.integers(0, 2, size=(1, 64, 64)))
    [nodes] = tapes
    assert len(nodes) == len(model.parameters()) + 36 + 4
    assert [op for op, _, _ in nodes[-4:]] == ["log_softmax", "mul", "sum_all", "scale"]
    assert [(op, scope) for op, scope, data in nodes if data.dtype != np.float32] == []
    assert loss.data.dtype == np.float32
    assert [name for name, p in model.parameters() if p.grad.dtype != np.float32] == []


# A model small enough that both steps take ~0.1 s.
_SMALL = ModelConfig(image_size=32, d_model=16, depth=1, n_heads=2,
                     decoder_channels=(8, 8, 8))


def _step(model, img, labels, tapes):
    """Logits, every parameter gradient and the (op, scope, relu mask) of each
    conv node of one ``train.step``, whose tape lands in ``tapes``."""
    _, logits = train.step(model, img, labels)
    masks = [(op, scope, data > 0) for op, scope, data in tapes.pop()
             if op in ("conv2d", "upsample_concat_conv2d") and scope != "decoder.head"]
    return logits.data, {name: p.grad for name, p in model.parameters()}, masks


def test_a_training_step_agrees_across_dtypes(monkeypatch):
    """One step of the float32 model against its float64 copy on the same
    input. The logits agree to 1e-6 of their largest entry (measured
    4.1e-7) and every parameter gradient to 1e-5 of its own largest entry
    (measured 2.4e-6 at most, in ``encoder.block0.ln1.gamma``). The gradient
    bound holds while every relu keeps its mask: a pre-activation within
    float32 rounding of 0 can flip, and the layers below it then see a
    different gradient (one flipped pixel of ``cnn.stage1.conv_a`` moved its
    gradients by 3e-2 at seed 1), so the masks are checked first."""
    tapes = _recording_backward(monkeypatch)
    m32 = TransUKanModel(_SMALL, rng=np.random.default_rng(0))
    m64 = m32.astype(np.float64)
    rng = np.random.default_rng(0)
    img = Tensor(rng.uniform(size=(2, 1, 32, 32)))
    labels = rng.integers(0, 2, size=(2, 32, 32))
    logits32, grads32, masks32 = _step(m32, img, labels, tapes)
    logits64, grads64, masks64 = _step(m64, img, labels, tapes)
    assert logits32.dtype == np.float32 and logits64.dtype == np.float64
    assert _relative(logits32, logits64) <= 1e-6
    assert [(op, scope) for (op, scope, a), (_, _, b) in zip(masks32, masks64)
            if not np.array_equal(a, b)] == []
    for name, g64 in grads64.items():
        assert grads32[name].dtype == np.float32, name
        assert _relative(grads32[name], g64) <= 1e-5, name


def test_astype_round_trips_the_float32_values():
    model = TransUKanModel(_SMALL)
    wide = model.astype(np.float64)
    assert (model.dtype, wide.dtype) == (np.float32, np.float64)
    back = wide.astype(np.float32)
    for (name, p), (_, q), (_, r) in zip(model.parameters(), wide.parameters(),
                                         back.parameters()):
        assert q.data.dtype == np.float64 and q.requires_grad, name
        np.testing.assert_array_equal(q.data, p.data)
        assert r.data is not p.data and np.array_equal(r.data, p.data), name


def test_a_value_past_float32_range_loads_as_float64(tmp_path):
    model = TransUKanModel(_SMALL).astype(np.float64)
    model.parameters()[0][1].data[0, 0, 0, 0] = 1e300
    path = tmp_path / "model.tukn"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float64
    assert loaded.parameters()[0][1].data[0, 0, 0, 0] == 1e300
