import numpy as np
import pytest

from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor
from transukan.kan import KanGrid
from transukan.kansformer import (
    EncoderStack,
    KansformerBlockParams,
    LayerNormParams,
    MsaKanParams,
    _split_heads,
    encoder_forward,
    kansformer_block,
    msa_kan,
)


def naive_msa(x, p):
    """Per-head loop oracle using plain numpy on the layer outputs."""
    with T.no_grad():
        q = p.q_proj.forward(Tensor(x)).data
        k = p.k_proj.forward(Tensor(x)).data
        v = p.v_proj.forward(Tensor(x)).data
    b, t, d = x.shape
    hd = p.head_dim
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


def msa_with_attention(x, p):
    """msa_kan's output and its attention probabilities, read off the tape as
    the softmax node under the ``msa`` scope."""
    with T.scope("msa"):
        out = msa_kan(x, p)
    [attn] = [n for n in T.Tape(out).nodes if n.op == "softmax" and n.scope == "msa"]
    return out, attn


class TestMsaKan:
    def test_single_token_attention_is_identity(self):
        rng = np.random.default_rng(3)
        p = MsaKanParams(8, 2, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 1, 8)))
        out, attn = msa_with_attention(x, p)
        np.testing.assert_array_equal(attn.data, np.ones((2, 2, 1, 1)))
        v = p.v_proj.forward(x)
        expected = p.out_proj.forward(v)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_attention_rows_are_probabilities(self):
        rng = np.random.default_rng(5)
        p = MsaKanParams(8, 4, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 6, 8)))
        _, attn = msa_with_attention(x, p)
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(attn.data >= 0)

    def test_matches_per_head_loop_oracle(self):
        rng = np.random.default_rng(7)
        p = MsaKanParams(8, 2, rng=rng)
        x = rng.uniform(-1.2, 1.2, size=(2, 5, 8))
        out = msa_kan(Tensor(x), p)
        np.testing.assert_allclose(out.data, naive_msa(x, p), atol=1e-12)

    def test_shared_activation_bit_equal_to_separate_projections(self):
        rng = np.random.default_rng(11)
        p = MsaKanParams(8, 2, KanGrid(G=4, K=2), rng=rng)
        x = Tensor(rng.uniform(-1.3, 1.3, size=(2, 5, 8)))
        heads = [_split_heads(proj.forward(x), p.n_heads, p.head_dim)
                 for proj in (p.q_proj, p.k_proj, p.v_proj)]
        q, k, v = heads
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                         1.0 / np.sqrt(p.head_dim))
        ctx = T.matmul(T.softmax(scores), v)
        merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), x.shape)
        expected = p.out_proj.forward(merged)
        assert np.array_equal(msa_kan(x, p).data, expected.data)

    def test_dimension_checks(self):
        p = MsaKanParams(8, 2)
        with pytest.raises(DimensionError):
            msa_kan(Tensor(np.zeros((2, 3, 9))), p)
        with pytest.raises(ContractError):
            MsaKanParams(8, 3)


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
