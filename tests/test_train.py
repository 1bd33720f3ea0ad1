"""``transukan.train``: the pixel loss against a numpy oracle and finite
differences, and ``step`` against its parts composed by hand."""

import numpy as np
import pytest

from transukan import tensor as T
from transukan import train
from transukan.network import ModelConfig, TransUKanModel, forward
from transukan.tensor import Tensor

TINY = ModelConfig(image_size=16, d_model=8, depth=1, n_heads=2, decoder_channels=(8, 8, 8))


def _oracle(logits, labels):
    """-mean over pixels of log softmax(logits)[label], in numpy float64."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -np.take_along_axis(log_p, labels[:, None], axis=1).mean()


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 2, 1, 1), (3, 5, 2, 7)])
def test_pixel_loss_is_the_mean_negative_log_probability_of_the_label(shape):
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=3.0, size=shape)
    labels = rng.integers(0, shape[1], size=shape[:1] + shape[2:])
    loss = train.pixel_loss(Tensor(logits), labels)
    assert loss.data.dtype == np.float64
    np.testing.assert_allclose(loss.data, _oracle(logits, labels), rtol=1e-12, atol=0)


def test_pixel_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(2, 3, 4, 4)))
    labels = rng.integers(0, 3, size=(2, 4, 4))
    rep = T.grad_check(lambda t: train.pixel_loss(t, labels), logits)
    assert rep.ok and rep.n_checked == logits.size, rep


def test_any_integer_labels_give_the_same_float32_loss_and_gradient():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    labels = rng.integers(0, 3, size=(2, 4, 4))
    runs = []
    for dtype in (np.int64, np.int32, np.uint8):
        logits = Tensor(data, requires_grad=True)
        loss = train.pixel_loss(logits, labels.astype(dtype))
        T.backward(loss)
        assert (loss.data.dtype, logits.grad.dtype) == (np.float32, np.float32)
        runs.append((loss.data.tobytes(), logits.grad.tobytes()))
    assert runs[1:] == runs[:1] * 2


def test_step_is_forward_pixel_loss_and_backward_bit_for_bit():
    rng = np.random.default_rng(3)
    img = Tensor(rng.uniform(size=(2, 1, 16, 16)))
    labels = rng.integers(0, 2, size=(2, 16, 16))
    stepped = TransUKanModel(TINY, rng=np.random.default_rng(0))
    by_hand = TransUKanModel(TINY, rng=np.random.default_rng(0))

    loss, logits = train.step(stepped, img, labels)
    hand_logits = forward(img, by_hand)
    hand_loss = train.pixel_loss(hand_logits, labels)
    T.backward(hand_loss)

    assert loss.data.tobytes() == hand_loss.data.tobytes()
    assert logits.data.tobytes() == hand_logits.data.tobytes()
    for (name, p), (_, q) in zip(stepped.parameters(), by_hand.parameters()):
        assert p.grad.tobytes() == q.grad.tobytes(), name
