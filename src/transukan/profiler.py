"""Analytic cost models: parameter counts, FLOP estimates, retained-activation memory.

Conventions (fixed so reports are deterministic and comparable):

* 1 multiply-accumulate = 2 flops; a dense map of an (m, k) input to n outputs
  costs 2*m*k*n flops, bias included in the MAC convention.
* transcendentals (the exp inside silu and softmax) cost ``EXP_FLOPS`` = 4.
* activation memory counts tensors retained for the backward pass at 8 bytes
  per element: every layer accounts for its own retained inputs and outputs,
  so tensors shared across a layer boundary are counted once per consumer.
* the B-spline law charges basis activations per edge
  (rows * c_in * c_out * n_basis elements); the hinge-basis laws charge one
  basis block shared across output channels (rows * c_in * (1 + n_basis)).

The memory laws are a model, not a measurement. ``BSplineKanLayer.forward``
keeps one shared rows * c_in * n_basis basis block, not one per edge: for one
64 -> 64 layer at 64 rows the tape holds about 4.3 MB against 16.9 MB
modelled. The EfficientKAN hinge expansion keeps seven intermediates per
basis value: about 2.0 MB on the tape against 0.39 MB modelled for the same
layer. The measured gap of the whole model, op by op, is tabulated in
``perfbench/README.md``. Only orderings and closed-form ratios are
load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from transukan.kan import (
    AffineLayer,
    BSplineKanLayer,
    EfficientKanLayer,
    KanGrid,
    ReLUKanLayer,
)
from transukan.kansformer import (
    EncoderStack,
    KansformerBlockParams,
    LayerNormParams,
    MsaKanParams,
)
from transukan.network import TransUKanModel
from transukan.tensor import ContractError

EXP_FLOPS = 4
SILU_FLOPS = EXP_FLOPS + 3          # exp, add, divide, multiply
HINGE_BASIS_FLOPS = 7               # 2 subs, 2 hinges, product, square, scale
SOFTMAX_FLOPS = EXP_FLOPS + 3       # shift, exp, accumulate, divide
LAYER_NORM_FLOPS = 8                # mean, centered square, normalize, affine
BYTES_PER_ELEMENT = 8


def bspline_basis_flops(n_basis: int, order: int) -> int:
    """Per-scalar cost of the iterative basis evaluation."""
    width = n_basis + order - 1     # degree-0 indicator count
    total = width                   # one comparison per indicator
    for deg in range(1, order):
        total += 7 * (width - deg)  # two ratios, two products, one add per basis
    return total


@dataclass
class CostEntry:
    name: str
    params: int = 0
    flops: int = 0
    activation_bytes: int = 0


@dataclass
class CostReport:
    variant: str
    entries: list[CostEntry] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.entries)

    @property
    def total_activation_bytes(self) -> int:
        return sum(e.activation_bytes for e in self.entries)

    def to_tsv(self) -> str:
        lines = [f"{self.variant}\t{e.name}\t{e.params}\t{e.flops}"
                 f"\t{e.activation_bytes}" for e in self.entries]
        lines.append(f"{self.variant}\tTOTAL\t{self.total_params}"
                     f"\t{self.total_flops}\t{self.total_activation_bytes}")
        return "\n".join(lines)

    def to_pretty(self) -> str:
        header = f"{'layer':<34} {'params':>12} {'flops':>14} {'act bytes':>12}"
        rows = [f"[{self.variant}]", header, "-" * len(header)]
        for e in self.entries:
            rows.append(f"{e.name:<34} {e.params:>12} {e.flops:>14} "
                        f"{e.activation_bytes:>12}")
        rows.append("-" * len(header))
        rows.append(f"{'TOTAL':<34} {self.total_params:>12} "
                    f"{self.total_flops:>14} {self.total_activation_bytes:>12}")
        return "\n".join(rows)


def _e(name, params=0, flops=0, mem_elems=0) -> CostEntry:
    return CostEntry(name, int(params), int(flops),
                     int(mem_elems) * BYTES_PER_ELEMENT)


# ---------------------------------------------------------------------------
# Closed-form building blocks, shared by object dispatch and variant tables
# ---------------------------------------------------------------------------

def _affine_entries(name, rows, c_in, c_out, *_):
    return [_e(name, params=c_in * c_out + c_out, flops=2 * rows * c_in * c_out,
               mem_elems=rows * (c_in + c_out))]


def _effkan_entries(name, rows, c_in, c_out, nb, *_):
    return [
        _e(f"{name}.expand", flops=rows * c_in * nb * HINGE_BASIS_FLOPS,
           mem_elems=rows * c_in * (1 + nb)),
        _e(f"{name}.pool", flops=rows * c_in * nb, mem_elems=rows * c_in),
        _e(f"{name}.square", flops=rows * c_in, mem_elems=rows * c_in),
        _e(f"{name}.affine", params=c_in * c_out + c_out,
           flops=2 * rows * c_in * c_out, mem_elems=rows * c_out),
    ]


def _relukan_entries(name, rows, c_in, c_out, nb, *_):
    return [
        _e(f"{name}.expand", flops=rows * c_in * nb * HINGE_BASIS_FLOPS,
           mem_elems=rows * c_in * (1 + nb)),
        _e(f"{name}.integrate", params=c_out * nb * c_in + c_out,
           flops=2 * rows * nb * c_in * c_out, mem_elems=rows * c_out),
    ]


def _bspline_entries(name, rows, c_in, c_out, nb, order):
    return [
        _e(f"{name}.base", params=c_in * c_out,
           flops=rows * c_in * SILU_FLOPS + 2 * rows * c_in * c_out,
           mem_elems=rows * (2 * c_in + c_out)),
        _e(f"{name}.basis", flops=rows * c_in * bspline_basis_flops(nb, order),
           mem_elems=rows * c_in * c_out * nb),
        _e(f"{name}.spline", params=c_in * c_out + c_in * c_out * nb,
           flops=2 * rows * c_in * nb * c_out, mem_elems=rows * c_out),
    ]


def _mlp_entries(name, rows, d, ratio):
    hidden = int(round(ratio * d))
    return [
        _e(f"{name}.fc1", params=d * hidden + hidden, flops=2 * rows * d * hidden,
           mem_elems=rows * (d + hidden)),
        _e(f"{name}.act", flops=rows * hidden * SILU_FLOPS, mem_elems=rows * hidden),
        _e(f"{name}.fc2", params=hidden * d + d, flops=2 * rows * hidden * d,
           mem_elems=rows * (hidden + d)),
    ]


def _layer_norm_entries(name, rows, d):
    return [_e(name, params=2 * d, flops=rows * d * LAYER_NORM_FLOPS,
               mem_elems=2 * rows * d)]


def _attention_core_entries(name, batch, t, d, heads):
    head_dim = d // heads
    att = batch * heads * t * t
    return [
        _e(f"{name}.scores", flops=2 * att * head_dim + att, mem_elems=att),
        _e(f"{name}.softmax", flops=att * SOFTMAX_FLOPS, mem_elems=att),
        _e(f"{name}.context", flops=2 * att * head_dim, mem_elems=batch * t * d),
    ]


def _conv_entries(name, batch, c_in, c_out, k, h_in, w_in, stride, padding):
    h_out = (h_in + 2 * padding - k) // stride + 1
    w_out = (w_in + 2 * padding - k) // stride + 1
    entry = _e(name, params=c_out * c_in * k * k + c_out,
               flops=2 * batch * c_out * c_in * k * k * h_out * w_out,
               mem_elems=batch * (c_in * h_in * w_in + c_out * h_out * w_out))
    return [entry], (h_out, w_out)


# Each layer class: its entry name in a single-layer report, and its cost law
# (name, rows, c_in, c_out, n_basis, spline order) -> entries. Laws ignore the
# trailing geometry they do not use.
LAYER_LAWS = {
    AffineLayer: ("affine", _affine_entries),
    EfficientKanLayer: ("efficientkan", _effkan_entries),
    ReLUKanLayer: ("relukan", _relukan_entries),
    BSplineKanLayer: ("bspline_kan", _bspline_entries),
}

# The layer each variant puts in Q/K/V and in the KAN sublayers of a block.
VARIANT_LAYERS = {
    "mlp": AffineLayer,
    "efficientkan": EfficientKanLayer,
    "relukan": ReLUKanLayer,
    "bspline_kan": BSplineKanLayer,
}

VARIANTS = tuple(VARIANT_LAYERS)


# ---------------------------------------------------------------------------
# Encoder layout, shared by the object walk and the variant comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchConfig:
    """Encoder geometry for the variant comparison.

    The ``mlp`` variant is the conventional block: affine Q/K/V and a
    two-layer feed-forward with ``mlp_ratio`` expansion. Every KAN variant
    replaces Q/K/V and carries two d->d KAN sublayers per block (one inside
    the attention branch, one as the feed-forward), all on the same basis
    budget of G+K functions per input channel.
    """

    d_model: int = 64
    depth: int = 4
    n_heads: int = 4
    grid: KanGrid = field(default_factory=KanGrid)
    mlp_ratio: float = 4.0
    n_tokens: int = 64
    batch: int = 1


def _sublayer_entries(name, variant, arch: ArchConfig):
    """One d -> d layer of the variant on the arch's basis budget."""
    order = max(arch.grid.K, 1)     # spline order on the same budget
    _, law = LAYER_LAWS[VARIANT_LAYERS[variant]]
    return law(name, arch.batch * arch.n_tokens, arch.d_model, arch.d_model,
               arch.grid.n_basis, order)


def _msa_entries(name, variant, arch: ArchConfig):
    d = arch.d_model
    entries = []
    for sub in ("q", "k", "v"):
        entries += _sublayer_entries(f"{name}.{sub}_proj", variant, arch)
    entries += _attention_core_entries(f"{name}.attn", arch.batch,
                                       arch.n_tokens, d, arch.n_heads)
    entries += _affine_entries(f"{name}.out_proj", arch.batch * arch.n_tokens,
                               d, d)
    return entries


def _block_entries(name, variant, arch: ArchConfig):
    rows = arch.batch * arch.n_tokens
    d = arch.d_model
    entries = _layer_norm_entries(f"{name}.ln1", rows, d)
    if variant != "mlp":
        entries += _sublayer_entries(f"{name}.kan1", variant, arch)
    entries += _msa_entries(f"{name}.msa", variant, arch)
    entries.append(_e(f"{name}.residual1", flops=rows * d, mem_elems=rows * d))
    entries += _layer_norm_entries(f"{name}.ln2", rows, d)
    if variant == "mlp":
        entries += _mlp_entries(f"{name}.ffn", rows, d, arch.mlp_ratio)
    else:
        entries += _sublayer_entries(f"{name}.kan2", variant, arch)
    entries.append(_e(f"{name}.residual2", flops=rows * d, mem_elems=rows * d))
    return entries


def _encoder_entries(prefix, variant, arch: ArchConfig):
    t, d = arch.n_tokens, arch.d_model
    entries = [_e(f"{prefix}pos_embed", params=t * d, flops=arch.batch * t * d,
                  mem_elems=arch.batch * t * d)]
    for i in range(arch.depth):
        entries += _block_entries(f"{prefix}block{i}", variant, arch)
    return entries


# ---------------------------------------------------------------------------
# Object walk: geometry read off the built objects, laid out as above with
# the EfficientKAN variant (the only sublayer the encoder builds)
# ---------------------------------------------------------------------------

def _msa_arch(p: MsaKanParams, batch, t, depth=1) -> ArchConfig:
    return ArchConfig(d_model=p.d_model, depth=depth, n_heads=p.n_heads,
                      grid=p.q_proj.grid, n_tokens=t, batch=batch)


def _stack_arch(stack: EncoderStack, batch) -> ArchConfig:
    if not stack.blocks:
        return ArchConfig(d_model=stack.d_model, depth=0,
                          n_tokens=stack.n_tokens, batch=batch)
    return _msa_arch(stack.blocks[0].msa, batch, stack.n_tokens,
                     depth=len(stack.blocks))


def _model_entries(model: TransUKanModel, batch):
    cfg = model.config
    h = w = cfg.image_size
    entries = []
    c_prev = cfg.in_channels
    for i, (conv_a, conv_b) in enumerate(model.cnn.stages):
        ch = cfg.cnn_channels[i]
        sub, (h, w) = _conv_entries(f"cnn.stage{i}.conv_a", batch, c_prev, ch, 3,
                                    h, w, 1, 1)
        entries += sub
        entries.append(_e(f"cnn.stage{i}.relu_a", flops=batch * ch * h * w,
                          mem_elems=batch * ch * h * w))
        sub, (h, w) = _conv_entries(f"cnn.stage{i}.conv_b", batch, ch, ch, 3,
                                    h, w, 2, 1)
        entries += sub
        entries.append(_e(f"cnn.stage{i}.relu_b", flops=batch * ch * h * w,
                          mem_elems=batch * ch * h * w))
        c_prev = ch
    t = cfg.n_tokens
    entries += _affine_entries("embed.proj", batch * t, cfg.cnn_channels[-1],
                               cfg.d_model)
    entries += _encoder_entries("encoder.", "efficientkan",
                                _stack_arch(model.encoder, batch))
    ch_prev = cfg.d_model
    size = cfg.image_size // 8
    for i, out_ch in enumerate(cfg.decoder_channels):
        size *= 2
        skip_ch = cfg.cnn_channels[len(cfg.cnn_channels) - 1 - i]
        entries.append(_e(f"decoder.block{i}.upsample",
                          mem_elems=batch * ch_prev * size * size))
        sub, _ = _conv_entries(f"decoder.block{i}.conv", batch,
                               ch_prev + skip_ch, out_ch, 3, size, size, 1, 1)
        entries += sub
        entries.append(_e(f"decoder.block{i}.relu", flops=batch * out_ch * size * size,
                          mem_elems=batch * out_ch * size * size))
        ch_prev = out_ch
    sub, _ = _conv_entries("decoder.head", batch, ch_prev, cfg.n_classes, 1,
                           size, size, 1, 0)
    entries += sub
    return entries


def _dispatch(obj, rows) -> list[CostEntry]:
    if isinstance(obj, LayerNormParams):
        return _layer_norm_entries("layer_norm", rows, obj.d)
    if type(obj) not in LAYER_LAWS:
        raise ContractError(f"cannot profile a {type(obj).__name__}: pass a "
                            f"TransUKanModel, an encoder part or a layer")
    name, law = LAYER_LAWS[type(obj)]
    if isinstance(obj, BSplineKanLayer):
        nb, order = obj.n_basis, obj.k_spline
    elif isinstance(obj, AffineLayer):
        nb, order = 0, 1
    else:
        nb, order = obj.grid.n_basis, 1
    return law(name, rows, obj.c_in, obj.c_out, nb, order)


def _entries_for(obj, input_shape=None, batch=1) -> list[CostEntry]:
    if isinstance(obj, TransUKanModel):
        return _model_entries(obj, batch)
    if isinstance(obj, EncoderStack):
        return _encoder_entries("encoder.", "efficientkan",
                                _stack_arch(obj, batch))
    t = input_shape[1] if input_shape is not None else 1
    if isinstance(obj, KansformerBlockParams):
        return _block_entries("block", "efficientkan",
                              _msa_arch(obj.msa, batch, t))
    if isinstance(obj, MsaKanParams):
        return _msa_entries("msa", "efficientkan", _msa_arch(obj, batch, t))
    rows = batch
    if input_shape is not None:
        rows = int(np.prod(input_shape[:-1])) if len(input_shape) > 1 else 1
    return _dispatch(obj, rows)


def count_params(model_or_layer) -> CostReport:
    """Closed-form parameter counts; agrees exactly with tensor enumeration."""
    entries = _entries_for(model_or_layer)
    stripped = [CostEntry(e.name, params=e.params) for e in entries]
    return CostReport(type(model_or_layer).__name__, stripped)


def estimate_flops(model_or_layer, input_shape) -> CostReport:
    """Deterministic multiply-accumulate counting for one forward pass."""
    batch = int(input_shape[0])
    entries = _entries_for(model_or_layer, input_shape=tuple(input_shape),
                           batch=batch)
    stripped = [CostEntry(e.name, flops=e.flops) for e in entries]
    return CostReport(type(model_or_layer).__name__, stripped)


def estimate_activation_memory(model_or_layer, batch: int) -> CostReport:
    """Bytes of forward activations retained for the backward pass."""
    if batch < 1:
        raise ContractError(f"activation memory needs batch >= 1, got {batch}")
    entries = _entries_for(model_or_layer, batch=batch)
    stripped = [CostEntry(e.name, activation_bytes=e.activation_bytes)
                for e in entries]
    return CostReport(type(model_or_layer).__name__, stripped)


# ---------------------------------------------------------------------------
# Variant comparison (Kansformer encoder with substituted sublayers)
# ---------------------------------------------------------------------------

def variant_report(variant: str, arch: ArchConfig) -> CostReport:
    if variant not in VARIANTS:
        raise ContractError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    return CostReport(variant, _encoder_entries("", variant, arch))


@dataclass
class VariantComparison:
    arch: ArchConfig
    reports: dict[str, CostReport]

    @property
    def params_ordering_ok(self) -> bool:
        p = {v: r.total_params for v, r in self.reports.items()}
        needed = [k for k in ("efficientkan", "mlp", "relukan") if k in p]
        return all(p[a] < p[b] for a, b in zip(needed, needed[1:]))

    @property
    def memory_ordering_ok(self) -> bool:
        m = {v: r.total_activation_bytes for v, r in self.reports.items()}
        if "bspline_kan" not in m or "efficientkan" not in m:
            return True
        return m["bspline_kan"] > m["efficientkan"]

    def ratios_vs(self, base: str = "mlp") -> dict[str, float]:
        if base not in self.reports:
            return {}
        base_params = self.reports[base].total_params
        return {v: r.total_params / base_params for v, r in self.reports.items()}

    def to_tsv(self) -> str:
        return "\n".join(r.to_tsv() for r in self.reports.values())

    def to_pretty(self) -> str:
        header = (f"{'variant':<14} {'params':>12} {'flops':>14} "
                  f"{'act bytes':>14} {'params/mlp':>11}")
        lines = [header, "-" * len(header)]
        ratios = self.ratios_vs("mlp")
        for v, r in self.reports.items():
            ratio = f"{ratios[v]:.3f}" if v in ratios else "-"
            lines.append(f"{v:<14} {r.total_params:>12} {r.total_flops:>14} "
                         f"{r.total_activation_bytes:>14} {ratio:>11}")
        return "\n".join(lines)


def compare_variants(arch: ArchConfig, variants=VARIANTS) -> VariantComparison:
    """Cost table for MLP/B-spline/ReLU/Efficient KAN encoder substitutions."""
    reports = {v: variant_report(v, arch) for v in variants}
    return VariantComparison(arch=arch, reports=reports)
