"""Transformer encoder blocks with EfficientKAN sublayers.

The block applies, in order: layer norm, an EfficientKAN map, multi-head
self-attention whose Q/K/V projections are themselves single EfficientKAN
layers (sharing one activation of their input), a residual add, then a
second norm + EfficientKAN + residual. The attention output projection stays
affine. The KAN layers of a block or stack share its ``grid``, ``KanGrid()`` by default.
"""

from __future__ import annotations

import numpy as np

from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor
from transukan.kan import AffineLayer, EfficientKanLayer, KanGrid, named_parameters


class LayerNormParams:
    def __init__(self, d: int):
        T.check_sizes({"d": d})
        self.d = d
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class MsaKanParams:
    """Multi-head self-attention with EfficientKAN Q/K/V projections."""

    def __init__(self, d_model: int, n_heads: int, grid: KanGrid = KanGrid(),
                 rng: np.random.Generator | None = None):
        T.check_sizes({"d_model": d_model, "n_heads": n_heads})
        if d_model % n_heads != 0:
            raise ContractError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        rng = rng or np.random.default_rng(0)
        self.q_proj = EfficientKanLayer(d_model, d_model, grid, rng=rng)
        self.k_proj = EfficientKanLayer(d_model, d_model, grid, rng=rng)
        self.v_proj = EfficientKanLayer(d_model, d_model, grid, rng=rng)
        self.out_proj = AffineLayer(d_model, d_model, rng=rng)

    def parameters(self):
        return named_parameters((("q_proj", self.q_proj), ("k_proj", self.k_proj),
                                 ("v_proj", self.v_proj), ("out_proj", self.out_proj)))


def _split_heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    b, t, _ = x.shape
    return T.transpose(T.reshape(x, (b, t, n_heads, head_dim)), (0, 2, 1, 3))


def msa_kan(x: Tensor, p: MsaKanParams) -> Tensor:
    """Scaled dot-product attention over KAN-projected Q, K, V.

    The three projections share one grid and one input, so the KAN
    activation is computed once and mixed by each projection's own weights.
    """
    if x.ndim != 3 or x.shape[-1] != p.d_model:
        raise DimensionError(f"msa_kan expects (B, T, {p.d_model}), got {x.shape}")
    b, t, d = x.shape
    with T.scope("qkv"):
        phi = p.q_proj.activate(x)
    heads = []
    for name, proj in (("q_proj", p.q_proj), ("k_proj", p.k_proj),
                       ("v_proj", p.v_proj)):
        with T.scope(name):
            y = proj.mix(phi)
        heads.append(_split_heads(y, p.n_heads, p.head_dim))
    q, k, v = heads
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                     1.0 / np.sqrt(p.head_dim))
    attn = T.softmax(scores)
    ctx = T.matmul(attn, v)
    merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
    with T.scope("out_proj"):
        return p.out_proj.forward(merged)


class KansformerBlockParams:
    """One encoder block: LN -> EfficientKAN -> MSA -> +residual, then
    LN -> EfficientKAN -> +residual."""

    def __init__(self, d_model: int, n_heads: int, grid: KanGrid = KanGrid(),
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.ln1 = LayerNormParams(d_model)
        self.ln2 = LayerNormParams(d_model)
        self.kan1 = EfficientKanLayer(d_model, d_model, grid, rng=rng)
        self.kan2 = EfficientKanLayer(d_model, d_model, grid, rng=rng)
        self.msa = MsaKanParams(d_model, n_heads, grid, rng=rng)

    def parameters(self):
        return named_parameters((("ln1", self.ln1), ("ln2", self.ln2), ("kan1", self.kan1),
                                 ("kan2", self.kan2), ("msa", self.msa)))


def kansformer_block(z_prev: Tensor, p: KansformerBlockParams) -> Tensor:
    if z_prev.ndim != 3 or z_prev.shape[-1] != p.d_model:
        raise DimensionError(f"kansformer_block expects (B, T, {p.d_model}), "
                             f"got {z_prev.shape}")
    with T.scope("ln1"):
        h = p.ln1.forward(z_prev)
    with T.scope("kan1"):
        h = p.kan1.forward(h)
    with T.scope("msa"):
        h = msa_kan(h, p.msa)
    z_mid = T.add(h, z_prev)
    with T.scope("ln2"):
        h = p.ln2.forward(z_mid)
    with T.scope("kan2"):
        h = p.kan2.forward(h)
    return T.add(h, z_mid)


class EncoderStack:
    """Learned positional embedding followed by ``depth`` Kansformer blocks."""

    def __init__(self, d_model: int, depth: int, n_heads: int, n_tokens: int,
                 grid: KanGrid = KanGrid(), rng: np.random.Generator | None = None):
        T.check_sizes({"d_model": d_model, "n_tokens": n_tokens})
        T.check_sizes({"depth": depth}, least=0)
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.n_tokens = n_tokens
        self.pos_embed = Tensor(rng.uniform(-0.02, 0.02, size=(n_tokens, d_model)),
                                requires_grad=True)
        self.blocks = [KansformerBlockParams(d_model, n_heads, grid, rng=rng)
                       for _ in range(depth)]

    def parameters(self):
        return [("pos_embed", self.pos_embed),
                *named_parameters((f"block{i}", b) for i, b in enumerate(self.blocks))]


def encoder_forward(tokens: Tensor, stack: EncoderStack) -> Tensor:
    if tokens.ndim != 3 or tokens.shape[1] != stack.n_tokens \
            or tokens.shape[2] != stack.d_model:
        raise DimensionError(f"encoder expects (B, {stack.n_tokens}, "
                             f"{stack.d_model}), got {tokens.shape}")
    z = T.add(tokens, stack.pos_embed)
    for i, block in enumerate(stack.blocks):
        with T.scope(f"block{i}"):
            z = kansformer_block(z, block)
    return z
