"""Cost reports read off the real graph: parameters, FLOPs and retained-activation bytes.

Parameters come from ``parameters()``, one entry per owner (the dotted name
prefix; ``ROOT`` for none). FLOPs and bytes come from one walk over the tape of
one forward on a zero input of the parameters' dtype (float32 for a
``TransUKanModel``), one entry per ``tensor.scope`` path, which the
model names after the owners whose parameters it reads. The forward is the
package's own, and one table, ``_PROFILED``, gives it and its input for each
class that can be profiled: ``network.forward``, an encoder part's module
function or a layer's ``forward()``. ``tensor.Tape`` lists the nodes in forward
order, and the rows keep it. The FLOP conventions live next to each op in
``tensor.py`` (1 multiply-accumulate = 2). Memory is the op-output buffers the
tape owns, by the rule of perfbench's ``tape_accounting``: a buffer counts
once, at the first op in forward order that outputs it; views of it or of a
parameter count zero. ``_owned_outputs`` holds that rule, and
``tools/peak_timeline.py --held`` reads it too. By the retention rule of
``tensor._node``, that count is the bytes one forward retains less the row
statistics that attention and a LayerNorm keep. A LayerNorm that runs as the
``norm`` prologue of the affine node it feeds (a Kansformer block's ln1 and
ln2) counts in that node's scope: its owner's row keeps only its parameters.
The variant comparison measures ``TransUKanModel(config).encoder`` and swaps
its KAN scopes for real layers, cast to the encoder's dtype, each measured as
the expression it stands in for.
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

# Each profiled class -> (its forward, run as run(x, obj); the shape of its
# input at a batch). Blocks and attention see one token.
_PROFILED = {
    TransUKanModel: (forward, lambda m, b: (b, m.config.in_channels)
                     + (m.config.image_size,) * 2),
    EncoderStack: (encoder_forward, lambda s, b: (b, s.n_tokens, s.d_model)),
    KansformerBlockParams: (kansformer_block, lambda p, b: (b, 1, p.d_model)),
    MsaKanParams: (msa_kan, lambda p, b: (b, 1, p.d_model)),
    LayerNormParams: (lambda x, p: p.forward(x), lambda p, b: (b, p.d)),
    **dict.fromkeys((AffineLayer, EfficientKanLayer, ReLUKanLayer, BSplineKanLayer),
                    (lambda x, layer: layer.forward(x), lambda layer, b: (b, layer.c_in))),
}


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


def _profiled(obj):
    """``(run, shape)`` of ``obj`` by ``_PROFILED``: ``run(x)`` is its forward
    and ``shape(batch)`` the shape of its input."""
    if type(obj) not in _PROFILED:
        raise ContractError(f"cannot profile a {type(obj).__name__}: pass a "
                            f"TransUKanModel, an encoder part or a layer")
    run, shape = _PROFILED[type(obj)]
    return (lambda x: run(x, obj)), (lambda batch: shape(obj, batch))


def _buffer(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def _owned_outputs(nodes: list[Tensor]):
    """``(node, buffer)`` of each op node of ``nodes``, a tape in forward
    order, that first outputs a buffer no leaf's data views: the buffers the
    tape owns, each once, by the rule of perfbench's ``tape_accounting``."""
    seen = {id(_buffer(p.data)) for n in nodes for p in n._parents
            if p._backward_fn is None}
    for n in nodes:
        buf = _buffer(n.data)
        if n._backward_fn is not None and id(buf) not in seen:
            seen.add(id(buf))
            yield n, buf


def _add_params(params, rows: dict[str, list[int]]) -> dict[str, list[int]]:
    """Add each owner's count of the named ``params`` to ``rows`` (name ->
    [params, flops, bytes])."""
    for name, p in params:
        rows.setdefault(name.rpartition(".")[0], [0, 0, 0])[0] += p.size
    return rows


def _cast(dtype, *layers) -> list:
    """The named parameters of ``layers``, cast to ``dtype`` in place."""
    params = [named for layer in layers for named in layer.parameters()]
    for _, p in params:
        p.data = p.data.astype(dtype)
    return params


def _walk(run, params, input_shape) -> dict[str, list[int]]:
    """Rows of one forward ``run(x)`` over the named ``params`` it reads, on a
    zero x of ``input_shape`` in their dtype: its scopes in forward order,
    then owners."""
    dtype = np.result_type(*(p.data.dtype for _, p in params))
    out = run(Tensor(np.zeros(input_shape, dtype=dtype), requires_grad=True))
    if out._backward_fn is None:
        raise ContractError("profiling walks the recorded graph: call it outside no_grad")
    nodes = T.Tape(out).nodes
    rows: dict[str, list[int]] = {}
    for n in nodes:
        if n._backward_fn is not None:
            rows.setdefault(n.scope, [0, 0, 0])[1] += n.flops
    for n, buf in _owned_outputs(nodes):
        rows[n.scope][2] += buf.nbytes
    return _add_params(params, rows)


def count_params(model_or_layer) -> CostReport:
    """Parameters per owner; the total equals the tensor enumeration."""
    _profiled(model_or_layer)  # raises for what cannot be profiled
    rows = _add_params(model_or_layer.parameters(), {})
    return CostReport(type(model_or_layer).__name__,
                      [CostEntry(o or ROOT, params=n) for o, (n, _, _) in rows.items()])


def estimate_flops(model_or_layer, input_shape) -> CostReport:
    """FLOPs per scope of one forward on an input of ``input_shape``."""
    if not isinstance(input_shape, (tuple, list)):
        raise ContractError(f"input_shape must be a tuple of sizes, got {input_shape!r}")
    T.check_sizes({f"input_shape[{i}]": n for i, n in enumerate(input_shape)})
    rows = _walk(_profiled(model_or_layer)[0], model_or_layer.parameters(), input_shape)
    return CostReport(type(model_or_layer).__name__,
                      [CostEntry(s or ROOT, flops=f) for s, (_, f, _) in rows.items()])


def estimate_activation_memory(model_or_layer, batch: int) -> CostReport:
    """Bytes per scope of the op outputs one forward at ``batch`` keeps."""
    T.check_sizes({"batch": batch})
    run, shape = _profiled(model_or_layer)
    rows = _walk(run, model_or_layer.parameters(), shape(batch))
    return CostReport(type(model_or_layer).__name__,
                      [CostEntry(s or ROOT, activation_bytes=b) for s, (_, _, b) in rows.items()])


def _swaps(variant: str, config: ModelConfig, shape: tuple[int, ...],
           dtype: np.dtype) -> dict[str, dict[str, list[int]]]:
    """Block-relative KAN scope -> the rows of the measured layers that stand in,
    their parameters in ``dtype``, the encoder's. An EfficientKAN kan1 or kan2
    node runs its block's LayerNorm inside it, so each stand-in for one starts
    with the LayerNorm that the other variants run as a node of its own, in an
    ``ln1`` or ``ln2`` row of its FLOPs and bytes, whose parameters the
    encoder's own row adds. The stand-in for kan2 carries the residual add that
    the kan2 node fuses: it is ``fc2(silu(fc1(x))) + x`` for ``mlp`` and
    ``layer(x) + x`` for a KAN. The packed ``msa.qkv`` projection becomes three
    d -> d projections."""
    if variant == "efficientkan":
        return {}
    d, grid = config.d_model, config.grid
    ln = LayerNormParams(d)
    norm = [0, *_walk(ln.forward, _cast(dtype, ln), shape)[""][1:]]
    if variant == "mlp":
        affine, fc1, fc2 = AffineLayer(d, d), AffineLayer(d, 4 * d), AffineLayer(4 * d, d)
        proj = _walk(affine.forward, _cast(dtype, affine), shape)[""]
        ffn = _walk(lambda x: T.add(fc2.forward(T.silu(fc1.forward(x))), x),
                    _cast(dtype, fc1, fc2), shape)[""]
        swaps = {"kan1": {"ln1": norm}, "kan2": {"ln2": norm, "ffn": ffn}}
    else:
        layer = (ReLUKanLayer if variant == "relukan" else BSplineKanLayer)(d, d, grid)
        params = _cast(dtype, layer)
        proj = _walk(layer.forward, params, shape)[""]
        plus = _walk(lambda x: T.add(layer.forward(x), x), params, shape)[""]
        swaps = {"kan1": {"ln1": norm, "kan1": proj}, "kan2": {"ln2": norm, "kan2": plus}}
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
    model = TransUKanModel(config)
    swaps = _swaps(variant, config, shape, model.dtype)
    rows: dict[str, list[int]] = {}
    for name, row in _walk(lambda x: encoder_forward(x, model.encoder),
                           model.encoder.parameters(), shape).items():
        block, _, inner = name.partition(".")
        parts = ({f"{block}.{n}": r for n, r in swaps[inner].items()}
                 if inner in swaps else {name: row})
        for n, r in parts.items():
            rows[n] = [a + b for a, b in zip(rows.get(n, (0, 0, 0)), r)]
    return CostReport(variant, [CostEntry(n or ROOT, *row) for n, row in rows.items()])


def compare_variants(config: ModelConfig) -> dict[str, CostReport]:
    """``variant_report`` of every variant in ``VARIANTS``, by name."""
    return {v: variant_report(v, config) for v in VARIANTS}
