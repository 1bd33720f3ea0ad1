"""Cost reports read off the real graph: parameters, FLOPs and retained-activation bytes.

Parameters come from ``parameters()``, one entry per owner (the dotted name
prefix; ``ROOT`` for none). FLOPs and bytes come from one walk over the tape of
one forward on a zero input of the parameters' dtype (float32 for a
``TransUKanModel``), one entry per ``tensor.scope`` path, which the
model names after the owners whose parameters it reads. The forward is the
package's own: ``network.forward``, an encoder part's module function or a
layer's ``forward()``. ``tensor.Tape`` lists the nodes in forward order, and
the rows keep it. The FLOP conventions live next to each op in
``tensor.py`` (1 multiply-accumulate = 2). Memory is the op-output buffers the
tape owns, by the rule of perfbench's ``tape_accounting``: a buffer counts
once, at the first op in forward order that outputs it; views of it or of a
parameter count zero. By the retention rule of ``tensor._node``, that count is
the bytes one forward retains less the row statistics that attention and
a LayerNorm keep. A LayerNorm that runs as the ``norm`` prologue of the
affine node it feeds (a Kansformer block's ln1 and ln2) counts in that node's
scope: its owner's row keeps only its parameters. The variant comparison measures
``TransUKanModel(config).encoder`` and swaps its KAN scopes for real layers,
cast to the encoder's dtype.
"""

from dataclasses import dataclass, field

import numpy as np

from transukan import tensor as T
from transukan.kan import (AffineLayer, BSplineKanLayer, EfficientKanLayer,
                           ReLUKanLayer)
from transukan.kansformer import (EncoderStack, KansformerBlockParams, LayerNormParams,
                                  MsaKanParams, encoder_forward, kansformer_block,
                                  msa_kan)
from transukan.network import ModelConfig, TransUKanModel, forward
from transukan.tensor import ContractError, Tensor

ROOT = "(root)"
VARIANTS = ("mlp", "efficientkan", "relukan", "bspline_kan")

# Classes that run through a module function -> that function; the rest, forward().
_RUN_BY = {TransUKanModel: forward, EncoderStack: encoder_forward,
           KansformerBlockParams: kansformer_block, MsaKanParams: msa_kan}
_PROFILED = (*_RUN_BY, LayerNormParams, AffineLayer, EfficientKanLayer, ReLUKanLayer,
             BSplineKanLayer)


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


def _checked(obj):
    if type(obj) not in _PROFILED:
        raise ContractError(f"cannot profile a {type(obj).__name__}: pass a "
                            f"TransUKanModel, an encoder part or a layer")
    return obj


def _input_shape(obj, batch: int) -> tuple[int, ...]:
    """Input of one forward at ``batch``; blocks and attention see one token."""
    if isinstance(obj, TransUKanModel):
        return (batch, obj.config.in_channels) + (obj.config.image_size,) * 2
    if isinstance(obj, EncoderStack):
        return (batch, obj.n_tokens, obj.d_model)
    if isinstance(obj, (KansformerBlockParams, MsaKanParams)):
        return (batch, 1, obj.d_model)
    return (batch, obj.d if isinstance(obj, LayerNormParams) else obj.c_in)


def _buffer(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def _add_params(obj, rows: dict[str, list[int]]) -> dict[str, list[int]]:
    """Add each owner's parameter count to ``rows`` (name -> [params, flops, bytes])."""
    for name, p in obj.parameters():
        rows.setdefault(name.rpartition(".")[0], [0, 0, 0])[0] += p.size
    return rows


def _dtype(obj) -> np.dtype:
    """The dtype of ``obj``'s parameters, in which its forward runs."""
    return np.result_type(*(p.data.dtype for _, p in obj.parameters()))


def _cast(layer, dtype):
    """``layer``, its parameters cast to ``dtype`` in place."""
    for _, p in layer.parameters():
        p.data = p.data.astype(dtype)
    return layer


def _walk(obj, input_shape) -> dict[str, list[int]]:
    """Rows of one forward of ``obj`` on an input of its parameters' dtype:
    its scopes in forward order, then owners."""
    x = Tensor(np.zeros(input_shape, dtype=_dtype(obj)), requires_grad=True)
    run = _RUN_BY.get(type(obj))
    out = run(x, obj) if run else obj.forward(x)
    if out._backward_fn is None:
        raise ContractError("profiling walks the recorded graph: call it outside no_grad")
    nodes = [n for n in T.Tape(out).nodes if n._backward_fn is not None]
    counted = {id(_buffer(p.data)) for n in nodes for p in n._parents
               if p._backward_fn is None}
    rows: dict[str, list[int]] = {}
    for n in nodes:
        row = rows.setdefault(n.scope, [0, 0, 0])
        row[1] += n.flops
        buf = _buffer(n.data)
        if id(buf) not in counted:
            counted.add(id(buf))
            row[2] += buf.nbytes
    return _add_params(obj, rows)


def count_params(model_or_layer) -> CostReport:
    """Parameters per owner; the total equals the tensor enumeration."""
    rows = _add_params(_checked(model_or_layer), {})
    return CostReport(type(model_or_layer).__name__,
                      [CostEntry(o or ROOT, params=n) for o, (n, _, _) in rows.items()])


def estimate_flops(model_or_layer, input_shape) -> CostReport:
    """FLOPs per scope of one forward on an input of ``input_shape``."""
    if not isinstance(input_shape, (tuple, list)):
        raise ContractError(f"input_shape must be a tuple of sizes, got {input_shape!r}")
    T.check_sizes({f"input_shape[{i}]": n for i, n in enumerate(input_shape)})
    rows = _walk(_checked(model_or_layer), input_shape)
    return CostReport(type(model_or_layer).__name__,
                      [CostEntry(s or ROOT, flops=f) for s, (_, f, _) in rows.items()])


def estimate_activation_memory(model_or_layer, batch: int) -> CostReport:
    """Bytes per scope of the op outputs one forward at ``batch`` keeps."""
    T.check_sizes({"batch": batch})
    obj = _checked(model_or_layer)
    rows = _walk(obj, _input_shape(obj, batch))
    return CostReport(type(obj).__name__, [CostEntry(s or ROOT, activation_bytes=b)
                                           for s, (_, _, b) in rows.items()])


class _MlpFfn:
    """fc1 -> silu -> fc2, the feed-forward of the ``mlp`` block."""

    def __init__(self, d: int, hidden: int):
        self.fc1, self.fc2 = AffineLayer(d, hidden), AffineLayer(hidden, d)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2.forward(T.silu(self.fc1.forward(x)))

    def parameters(self):
        return self.fc1.parameters() + self.fc2.parameters()


class _PlusInput:
    """``layer`` with its input added to its output: a block's second
    sublayer and its residual add, which an EfficientKAN block fuses."""

    def __init__(self, layer):
        self.layer = layer

    def forward(self, x: Tensor) -> Tensor:
        return T.add(self.layer.forward(x), x)

    def parameters(self):
        return self.layer.parameters()


def _swaps(variant: str, config: ModelConfig, shape: tuple[int, ...],
           dtype: np.dtype) -> dict[str, dict[str, list[int]]]:
    """Block-relative KAN scope -> the rows of the measured layers that stand in,
    their parameters in ``dtype``, the encoder's. An EfficientKAN kan1 or kan2
    node runs its block's LayerNorm inside it, so each stand-in for one starts
    with the LayerNorm that the other variants run as a node of its own, in an
    ``ln1`` or ``ln2`` row of its FLOPs and bytes, whose parameters the
    encoder's own row adds. The stand-in for kan2 carries the residual add that
    the kan2 node fuses, and the packed ``msa.qkv`` projection becomes three
    d -> d projections."""
    if variant == "efficientkan":
        return {}
    d, grid = config.d_model, config.grid
    norm = [0, *_walk(_cast(LayerNormParams(d), dtype), shape)[""][1:]]
    if variant == "mlp":
        proj = _walk(_cast(AffineLayer(d, d), dtype), shape)[""]
        ffn = _walk(_PlusInput(_cast(_MlpFfn(d, 4 * d), dtype)), shape)[""]
        swaps = {"kan1": {"ln1": norm}, "kan2": {"ln2": norm, "ffn": ffn}}
    else:
        layer = (ReLUKanLayer if variant == "relukan" else BSplineKanLayer)(d, d, grid)
        proj = _walk(_cast(layer, dtype), shape)[""]
        swaps = {"kan1": {"ln1": norm, "kan1": proj},
                 "kan2": {"ln2": norm, "kan2": _walk(_PlusInput(layer), shape)[""]}}
    return {**swaps, "msa.qkv": {f"msa.{x}_proj": proj for x in "qkv"}}


def variant_report(variant: str, config: ModelConfig) -> CostReport:
    """Costs of the encoder ``TransUKanModel(config)`` builds, with ``variant``'s
    layers in its KAN scopes, on one input. The ``mlp`` block has affine
    Q/K/V and an fc1 -> silu -> fc2 feed-forward of hidden width 4·d; a KAN
    block has its layer in Q/K/V and in two d -> d sublayers, on G+K basis
    functions per input. Rows of one name add up, at the first one's place."""
    if variant not in VARIANTS:
        raise ContractError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    T.check_type("variant_report", "config", config, ModelConfig)
    shape = (1, config.n_tokens, config.d_model)
    encoder = TransUKanModel(config).encoder
    swaps = _swaps(variant, config, shape, _dtype(encoder))
    rows: dict[str, list[int]] = {}
    for name, row in _walk(encoder, shape).items():
        block, _, inner = name.partition(".")
        parts = ({f"{block}.{n}": r for n, r in swaps[inner].items()}
                 if inner in swaps else {name: row})
        for n, r in parts.items():
            rows[n] = [a + b for a, b in zip(rows.get(n, (0, 0, 0)), r)]
    return CostReport(variant, [CostEntry(n or ROOT, *row) for n, row in rows.items()])


def compare_variants(config: ModelConfig) -> dict[str, CostReport]:
    """``variant_report`` of every variant in ``VARIANTS``, by name."""
    return {v: variant_report(v, config) for v in VARIANTS}
