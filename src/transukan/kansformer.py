"""Transformer encoder blocks with EfficientKAN sublayers.

The block applies, in order: layer norm, an EfficientKAN map, multi-head
self-attention whose Q/K/V projections are EfficientKAN layers, a residual
add, then a second norm + EfficientKAN + residual. The three projections read
one input through one parameter-free activation, so they are one d -> 3d
EfficientKAN layer, ``qkv``: one ``tensor.affine`` node. Attention is one
``tensor.attention`` node on its (B, T, 3 d_model) output, which reads q, k,
v and the heads as numpy views and keeps O(t) state per head, not t x t
scores. Its output projection is affine.
A block is five op nodes, all ``tensor.affine`` but attention: kan1 with ln1
inside it, qkv, attention, the output projection, and kan2 with ln2 inside it.
Each LayerNorm runs as the ``norm`` prologue of the KAN node it feeds, which
keeps its input and two statistics per row, not the normalised copy; the
``ln1`` and ``ln2`` owners keep their parameters, which their kan node reads.
Both residual adds ride in the ``tensor.affine`` node before them, the output
projection's and the second KAN map's, and kan1 and kan2 each keep their
activation inside that node too: a block records no ``add`` nor
``layer_norm`` node, and keeps no normalised input, activation q nor
pre-residual output.
The KAN layers of a block or stack share its ``grid``, ``KanGrid()`` by default.
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
    """Multi-head self-attention with EfficientKAN Q/K/V projections, packed
    into one d_model -> 3 d_model layer: its rows and output columns are q's,
    then k's, then v's."""

    def __init__(self, d_model: int, n_heads: int, grid: KanGrid = KanGrid(),
                 rng: np.random.Generator | None = None):
        T.check_sizes({"d_model": d_model, "n_heads": n_heads})
        if d_model % n_heads != 0:
            raise ContractError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        rng = rng or np.random.default_rng(0)
        self.qkv = EfficientKanLayer(d_model, 3 * d_model, grid, rng=rng)
        self.out_proj = AffineLayer(d_model, d_model, rng=rng)

    def parameters(self):
        return named_parameters((("qkv", self.qkv), ("out_proj", self.out_proj)))


def msa_kan(x: Tensor, p: MsaKanParams, residual: Tensor | None = None) -> Tensor:
    """Multi-head scaled dot-product attention (one ``T.attention`` node,
    which splits and merges the heads itself) over KAN-projected Q, K, V,
    plus ``residual`` if given, which the output projection adds in place.

    Q, K and V come from one ``affine`` node, whose output attention reads as
    three column blocks.
    """
    T.check_type("msa_kan", "p", p, MsaKanParams)
    if x.ndim != 3 or x.shape[-1] != p.d_model:
        raise DimensionError(f"msa_kan expects (B, T, {p.d_model}), got {x.shape}")
    with T.scope("qkv"):
        qkv = p.qkv.forward(x)
    ctx = T.attention(qkv, p.n_heads)
    with T.scope("out_proj"):
        return p.out_proj.forward(ctx, residual)


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
    T.check_type("kansformer_block", "p", p, KansformerBlockParams)
    if z_prev.ndim != 3 or z_prev.shape[-1] != p.d_model:
        raise DimensionError(f"kansformer_block expects (B, T, {p.d_model}), "
                             f"got {z_prev.shape}")
    with T.scope("kan1"):
        h = p.kan1.forward(z_prev, norm=p.ln1)
    with T.scope("msa"):
        z_mid = msa_kan(h, p.msa, z_prev)
    with T.scope("kan2"):
        return p.kan2.forward(z_mid, z_mid, p.ln2)


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
    T.check_type("encoder_forward", "stack", stack, EncoderStack)
    if tokens.ndim != 3 or tokens.shape[1] != stack.n_tokens \
            or tokens.shape[2] != stack.d_model:
        raise DimensionError(f"encoder expects (B, {stack.n_tokens}, "
                             f"{stack.d_model}), got {tokens.shape}")
    z = T.add(tokens, stack.pos_embed)
    for i, block in enumerate(stack.blocks):
        with T.scope(f"block{i}"):
            z = kansformer_block(z, block)
    return z
