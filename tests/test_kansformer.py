import tracemalloc

import numpy as np
import pytest

from transukan import kansformer, train
from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor
from transukan.kan import EfficientKanLayer
from transukan.kansformer import (
    EncoderStack,
    KansformerBlockParams,
    LayerNormParams,
    MsaKanParams,
    encoder_forward,
    kansformer_block,
    msa_kan,
)
from transukan.network import ModelConfig, TransUKanModel, forward


def naive_msa(x, p):
    """Per-head loop oracle using plain numpy on the layer outputs."""
    b, t, d = x.shape
    with T.no_grad():
        q, k, v = np.split(p.qkv.forward(Tensor(x)).data, 3, axis=-1)
    hd = d // p.n_heads
    ctx = np.zeros((b, t, d))
    for bi in range(b):
        for h in range(p.n_heads):
            qh = q[bi, :, h * hd:(h + 1) * hd]
            kh = k[bi, :, h * hd:(h + 1) * hd]
            vh = v[bi, :, h * hd:(h + 1) * hd]
            scores = qh @ kh.T / np.sqrt(hd)
            scores -= scores.max(axis=-1, keepdims=True)
            w = np.exp(scores)
            w /= w.sum(axis=-1, keepdims=True)
            ctx[bi, :, h * hd:(h + 1) * hd] = w @ vh
    return ctx @ p.out_proj.weight.data.T + p.out_proj.bias.data


def attention_probs(x, p):
    """The attention probabilities of ``msa_kan(x, p)``, (b, heads, t, t):
    ``T.attention`` of its projections with v swapped for columns of the
    identity, one head width of tokens at a time, so that head h's output
    columns are columns of P itself."""
    b, t, d = x.shape
    e = d // p.n_heads
    qkv = p.qkv.forward(x).data.copy()
    cols = []
    for first in range(0, t, e):
        qkv[..., 2 * d:] = np.tile(np.eye(t, e, -first), (1, p.n_heads))
        out = T.attention(Tensor(qkv), p.n_heads).data
        cols.append(out.reshape(b, t, p.n_heads, e).transpose(0, 2, 1, 3))
    return np.concatenate(cols, axis=-1)[..., :t]


class TestMsaKan:
    def test_single_token_attention_is_identity(self):
        rng = np.random.default_rng(3)
        p = MsaKanParams(8, 2, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 1, 8)))
        attn = attention_probs(x, p)
        np.testing.assert_array_equal(attn, np.ones((2, 2, 1, 1)))
        out = msa_kan(x, p)
        v = Tensor(p.qkv.forward(x).data[..., 2 * p.d_model:])
        expected = p.out_proj.forward(v)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_attention_rows_are_probabilities(self):
        rng = np.random.default_rng(5)
        p = MsaKanParams(8, 4, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 6, 8)))
        attn = attention_probs(x, p)
        assert attn.shape == (2, 4, 6, 6)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(attn >= 0)

    def test_matches_per_head_loop_oracle(self):
        rng = np.random.default_rng(7)
        p = MsaKanParams(8, 2, rng=rng)
        x = rng.uniform(-1.2, 1.2, size=(2, 5, 8))
        out = msa_kan(Tensor(x), p)
        np.testing.assert_allclose(out.data, naive_msa(x, p), atol=1e-12)

    def test_packed_projection_equals_the_three_projections(self):
        d = 16
        p = MsaKanParams(d, 4, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        projections = [EfficientKanLayer(d, d, rng=rng) for _ in "qkv"]
        assert np.array_equal(p.qkv.weight.data,
                              np.concatenate([proj.weight.data for proj in projections]))
        x = Tensor(np.random.default_rng(12).uniform(-1.3, 1.3, size=(2, 5, d)))
        packed = p.qkv.forward(x).data
        for i, proj in enumerate(projections):
            assert np.array_equal(packed[..., i * d:(i + 1) * d], proj.forward(x).data)

    def test_dimension_checks(self):
        p = MsaKanParams(8, 2)
        with pytest.raises(DimensionError):
            msa_kan(Tensor(np.zeros((2, 3, 9))), p)
        with pytest.raises(ContractError):
            MsaKanParams(8, 3)


def test_model_tape_holds_no_attention_score_buffer():
    """No op output of a grad-enabled forward at ``ModelConfig()``, nor any
    array its backward keeps, has the (batch, heads, t, t) shape of attention
    scores or probabilities: attention keeps O(t) state per head, not t²."""
    config = ModelConfig()
    logits = forward(Tensor(np.zeros((2, 1, 64, 64))),
                     TransUKanModel(config, rng=np.random.default_rng(0)))
    t2 = (2, config.n_heads, config.n_tokens, config.n_tokens)
    held = []
    for node in T.Tape(logits).nodes:
        cells = getattr(node._backward_fn, "__closure__", None) or ()
        held += [(node.op, node.scope, a.shape)
                 for a in (node.data, *(c.cell_contents for c in cells))
                 if isinstance(a, np.ndarray) and a.shape == t2]
    assert held == []


def test_encoder_blocks_record_no_add_and_one_activation_each():
    """Each block's residual adds ride in the affine nodes before them, each
    of its KAN maps, kan1, the packed Q/K/V projection and kan2, keeps its
    activation inside its one affine node, and ln1 and ln2 run inside kan1's
    and kan2's: a block records five op nodes, the forward no layer_norm, and
    the one add left in the encoder is the positional embedding's."""
    config = ModelConfig()
    logits = forward(Tensor(np.zeros((1, 1, 64, 64))),
                     TransUKanModel(config, rng=np.random.default_rng(0)))
    ops = [(n.op, n.scope) for n in T.Tape(logits).nodes if n._backward_fn is not None]
    assert len(ops) == 36
    assert [op for op, scope in ops if scope.startswith("encoder.block0")] == [
        "affine", "affine", "attention", "affine", "affine"]
    assert [scope for op, scope in ops if scope.startswith("encoder.block3")] == [
        f"encoder.block3.{s}" for s in ("kan1", "msa.qkv", "msa", "msa.out_proj", "kan2")]
    in_blocks = [op for op, scope in ops if scope.startswith("encoder.block")]
    assert len(in_blocks) == 5 * config.depth
    assert [scope for op, scope in ops if op == "add"] == ["encoder"]
    assert "layer_norm" not in [op for op, _ in ops]


def _block_with_norm_nodes(z_prev, p):
    """``kansformer_block`` with ln1 and ln2 as ``layer_norm`` nodes of their
    own, in their own scopes, each feeding a KAN node without a norm."""
    with T.scope("ln1"):
        h = p.ln1.forward(z_prev)
    with T.scope("kan1"):
        h = p.kan1.forward(h)
    with T.scope("msa"):
        z_mid = msa_kan(h, p.msa, z_prev)
    with T.scope("ln2"):
        h = p.ln2.forward(z_mid)
    with T.scope("kan2"):
        return p.kan2.forward(h, z_mid)


def _random_batch(model, batch, seed=0):
    """``(image, labels)``: a random image in the model's dtype and a random
    labelling."""
    cfg = model.config
    rng = np.random.default_rng(seed)
    shape = (batch, cfg.in_channels, cfg.image_size, cfg.image_size)
    img = Tensor(rng.uniform(size=shape).astype(model.dtype))
    return img, rng.integers(0, cfg.n_classes, size=(batch, cfg.image_size, cfg.image_size))


def test_norm_inside_the_kan_nodes_is_the_layer_norm_nodes_bit_for_bit(monkeypatch):
    """The default model's logits and all 71 parameter gradients are those of
    the same step with ln1 and ln2 as layer_norm nodes, bit for bit."""
    model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
    img, labels = _random_batch(model, 2)

    def run():
        _, logits = train.step(model, img, labels)
        grads = [p.grad.tobytes() for _, p in model.parameters()]
        for _, p in model.parameters():
            p.zero_grad()
        return [logits.data.tobytes()] + grads

    fused = run()
    monkeypatch.setattr(kansformer, "kansformer_block", _block_with_norm_nodes)
    assert run() == fused


def test_a_training_step_forward_holds_eight_normalised_copies_less(monkeypatch):
    """The forward of one training step at ``ModelConfig()``, batch 4, holds
    exactly 8 x 4·64·64·4 bytes of arrays less than the same step with ln1
    and ln2 as layer_norm nodes: the four blocks' two normalised (b, t, d)
    float32 inputs, and nothing more. Counted by tracemalloc in numpy's
    array domain, after a first step has filled the caches: the fused step
    holds the op outputs of the profiler's count (5,832,704 B), the loss's,
    the loss's one-hot target (4·2·64·64·4 B, built inside the step by
    ``train.pixel_loss``) and the row statistics of attention and the
    norms."""
    model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
    img, labels = _random_batch(model, 4)
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

    def step():
        return train.pixel_loss(forward(img, model), labels)

    def held():
        step()
        tracemalloc.start()
        try:
            loss = step()
            traces = tracemalloc.take_snapshot().filter_traces([arrays]).traces
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        return sum(t.size for t in traces)

    fused = held()
    monkeypatch.setattr(kansformer, "kansformer_block", _block_with_norm_nodes)
    assert held() - fused == 8 * 4 * 64 * 64 * 4
    assert fused == 6_275_128


class TestKansformerBlock:
    def test_residual_identity_with_zero_parameters(self):
        p = KansformerBlockParams(8, 2, rng=np.random.default_rng(1))
        for _, param in p.parameters():
            param.data[...] = 0.0
        z = Tensor(np.random.default_rng(2).normal(size=(2, 4, 8)))
        out = kansformer_block(z, p)
        np.testing.assert_array_equal(out.data, z.data)

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("d", [8, 16])
    def test_shape_preservation(self, b, t, d):
        p = KansformerBlockParams(d, 2, rng=np.random.default_rng(4))
        z = Tensor(np.random.default_rng(5).uniform(-1, 1, size=(b, t, d)))
        assert kansformer_block(z, p).shape == (b, t, d)

    def test_matches_step_by_step_composition(self):
        rng = np.random.default_rng(11)
        p = KansformerBlockParams(8, 2, rng=rng)
        z = Tensor(rng.uniform(-1, 1, size=(2, 3, 8)))
        out = kansformer_block(z, p)
        branch = msa_kan(p.kan1.forward(p.ln1.forward(z)), p.msa)
        z_mid = T.add(branch, z)
        expected = T.add(p.kan2.forward(p.ln2.forward(z_mid)), z_mid)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


class TestEncoder:
    def test_depth_zero_adds_positional_embedding(self):
        stack = EncoderStack(8, 0, 2, n_tokens=4, rng=np.random.default_rng(1))
        tokens = Tensor(np.random.default_rng(2).normal(size=(2, 4, 8)))
        out = encoder_forward(tokens, stack)
        np.testing.assert_allclose(out.data, tokens.data + stack.pos_embed.data,
                                   atol=1e-15)

    def test_depth_two_equals_double_block_application(self):
        rng = np.random.default_rng(3)
        stack = EncoderStack(8, 2, 2, n_tokens=3, rng=rng)
        tokens = Tensor(np.random.default_rng(4).uniform(-1, 1, size=(1, 3, 8)))
        out = encoder_forward(tokens, stack)
        z = T.add(tokens, stack.pos_embed)
        z = kansformer_block(z, stack.blocks[0])
        z = kansformer_block(z, stack.blocks[1])
        np.testing.assert_allclose(out.data, z.data, atol=1e-12)

    def test_token_count_mismatch(self):
        stack = EncoderStack(8, 1, 2, n_tokens=4)
        with pytest.raises(DimensionError):
            encoder_forward(Tensor(np.zeros((1, 5, 8))), stack)

    def test_gradcheck_depth_one(self):
        rng = np.random.default_rng(17)
        stack = EncoderStack(8, 1, 2, n_tokens=4, rng=rng)
        # generic parameter magnitudes so every gradient is FD-resolvable
        for _, p in stack.parameters():
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        x = Tensor(rng.uniform(-0.9, 0.9, size=(1, 4, 8)))
        w = rng.normal(size=(1, 4, 8))

        def objective(_):
            return T.sum_all(T.mul(encoder_forward(x, stack), Tensor(w)))

        rep = T.grad_check(objective, x, tol=1e-4, sample=16)
        assert rep.ok, rep
        for name, p in stack.parameters()[:8]:
            # h = 1e-4 keeps the rounding error of the central difference
            # well below tol; at 1e-5 it alone nears tol on ln1.gamma.
            rep = T.grad_check(objective, p, h=1e-4, tol=1e-4, sample=8,
                               sample_largest=True)
            assert rep.ok, (name, rep)

    def test_gradients_reach_every_parameter(self):
        stack = EncoderStack(8, 1, 2, n_tokens=3, rng=np.random.default_rng(23))
        params = stack.parameters()
        touched = {name: False for name, _ in params}
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            for _, p in params:
                p.zero_grad()
            x = Tensor(rng.uniform(-1, 1, size=(2, 3, 8)))
            w = Tensor(rng.normal(size=(2, 3, 8)))
            T.backward(T.sum_all(T.mul(encoder_forward(x, stack), w)))
            for name, p in params:
                if p.grad is not None and np.any(p.grad != 0.0):
                    touched[name] = True
        dead = [name for name, hit in touched.items() if not hit]
        assert not dead, f"no gradient reached: {dead}"

    def test_determinism(self):
        def run():
            stack = EncoderStack(8, 2, 2, n_tokens=4, rng=np.random.default_rng(7))
            x = Tensor(np.random.default_rng(8).uniform(-1, 1, size=(2, 4, 8)))
            return encoder_forward(x, stack).data

        assert np.array_equal(run(), run())


@pytest.mark.parametrize("build,named", [
    (lambda: LayerNormParams(0), "d .*0"),
    (lambda: MsaKanParams(8, 0), "n_heads must be an int >= 1"),
    (lambda: MsaKanParams(8.0, 2), "d_model .*8.0"),
    (lambda: KansformerBlockParams(8, 0), "n_heads .*0"),
    (lambda: EncoderStack(8, 1, 2, n_tokens=0), "n_tokens .*0"),
    (lambda: EncoderStack(8, -1, 2, n_tokens=4), "depth .*-1"),
], ids=["layer_norm_zero", "msa_zero_heads", "msa_float_width", "block_zero_heads",
        "stack_zero_tokens", "stack_negative_depth"])
def test_bad_sizes_raise_contract_error(build, named):
    with pytest.raises(ContractError, match=named):
        build()
