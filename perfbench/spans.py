"""In-memory span tracer that instruments the public ``transukan`` API from outside.

While :meth:`Tracer.installed` is active, the ``transukan.tensor`` ops in
:data:`OPS` and the layer entry points below are replaced by wrappers that
open a span on entry and close it on return; on exit the originals are put
back. Every tensor an op returns has its backward closure wrapped once, by
the innermost op, so the time spent replaying that op's adjoint is a span of
its own (``tensor.op.<op>.bwd``) under the ``tensor.backward`` span.

A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

from transukan import kan, kansformer, network
from transukan import tensor as T

OPS = ("conv2d", "matmul", "add", "sub", "mul", "relu", "square",
       "mean_last_axis", "softmax", "log_softmax", "layer_norm",
       "upsample_nearest_2x", "concat", "reshape", "transpose", "scale",
       "sum_all")

# (owner, attribute, span name) of every wrapped layer entry point. The
# network module calls ``cnn_encode`` and ``encoder_forward`` through its own
# globals, so those are patched there.
LAYER_ENTRY_POINTS = (
    (network, "cnn_encode", "network.cnn_encode"),
    (network.PatchEmbedParams, "forward", "network.PatchEmbedParams.forward"),
    (network, "encoder_forward", "kansformer.encoder_forward"),
    (network.DecoderParams, "forward", "network.DecoderParams.forward"),
    (kansformer, "msa_kan", "kansformer.msa_kan"),
    (kan.EfficientKanLayer, "forward", "kan.EfficientKanLayer.forward"),
    (kan, "relukan_basis_expand", "kan.relukan_basis_expand"),
    (kan.AffineLayer, "forward", "kan.AffineLayer.forward"),
)

# Spans opened by the benchmark itself around its own calls.
BENCH_SPANS = ("network.forward", "bench.loss", "tensor.backward", "bench.sgd_update")

# Span record fields.
NAME, STEP, START, END, PARENT, CHILD = range(6)


class TimedBackward:
    """Backward closure of one ``op`` output, recorded as a span when called."""

    __slots__ = ("tracer", "op", "fn", "span_name")

    def __init__(self, tracer: "Tracer", op: str, fn):
        self.tracer = tracer
        self.op = op
        self.fn = fn
        self.span_name = f"tensor.op.{op}.bwd"

    def __call__(self, g):
        self.tracer.open(self.span_name)
        try:
            return self.fn(g)
        finally:
            self.tracer.close()


class Tracer:
    """Spans kept in memory as ``[name, step, start, end, parent, child_time]``.

    ``step`` tags every span opened until it is changed, so the spans of one
    benchmark operation share an identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.step = -1
        self.enabled = False
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.step, perf_counter(), 0.0, parent, 0.0])

    def close(self) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = perf_counter()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span while the tracer is installed; otherwise do nothing."""
        if not self.enabled:
            yield
            return
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def _wrap_op(self, op: str, fn):
        name = f"tensor.op.{op}"

        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            backward_fn = out._backward_fn
            if backward_fn is not None and not isinstance(backward_fn, TimedBackward):
                out._backward_fn = TimedBackward(self, op, backward_fn)
            return out
        return traced

    def _wrap_block(self, fn, model):
        names = {id(block): f"kansformer.kansformer_block.{i}"
                 for i, block in enumerate(model.encoder.blocks)}

        def traced(z_prev, p):
            self.open(names[id(p)])
            try:
                return fn(z_prev, p)
            finally:
                self.close()
        return traced

    @contextlib.contextmanager
    def installed(self, model):
        """Patch the ops and layer entry points of ``model``'s package."""
        patches = [(T, op, self._wrap_op(op, getattr(T, op))) for op in OPS]
        patches += [(owner, attr, self._wrap(name, getattr(owner, attr)))
                    for owner, attr, name in LAYER_ENTRY_POINTS]
        patches.append((kansformer, "kansformer_block",
                        self._wrap_block(kansformer.kansformer_block, model)))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self) -> dict[int, dict[str, list[float]]]:
        """Per step: span name -> [inclusive seconds, self seconds, calls]."""
        out: dict[int, dict[str, list[float]]] = {}
        for name, step, start, end, _, child in self.spans:
            entry = out.setdefault(step, {}).setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start
            entry[1] += end - start - child
            entry[2] += 1
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON, times in microseconds from the first span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[names.setdefault(s[NAME], len(names)), s[STEP],
                 round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1),
                 s[PARENT]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": list(names),
                       "columns": ["name", "step", "start_us", "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
