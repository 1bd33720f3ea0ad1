"""Memory timeline of one training step, one row per adjoint of the backward.

    python3 tools/peak_timeline.py [--config JSON] [--batch B] [--seed S]
                                   [--forward [--infer]] [--time N] [--held]

Builds ``TransUKanModel`` at ``ModelConfig()`` with the fields of ``--config``
(a JSON object, e.g. ``'{"image_size": 128}'``) put over it, and runs one
training step on a random image and labelling drawn from ``--seed``: forward,
``transukan.train.pixel_loss`` and ``T.backward``, the parts of
``transukan.train.step`` (run here one by one, so that the backward's adjoints
can be wrapped before it starts). Memory is tracemalloc's, counted
from just before the forward, so the parameters are not in it and their
gradients are.

Prints one TSV row per adjoint, in the order the backward runs them: the op,
its scope, the bytes held when the adjoint starts and the peak while it runs
(tracemalloc's peak, reset as it starts). The peak covers the adjoint's own
call only; adding its gradients to the parents' ones comes after. The last row,
op ``(step)``, gives the bytes the forward left held and the whole step's peak.

With ``--time N`` it traces no memory and instead times the adjoints: after
one warm-up step, it runs N training steps and prints one TSV row per
adjoint, in the same order, with its op, its scope and its median wall time
over the N steps (``median_ms``).

With ``--forward`` it runs only the step's forward, loss included, and prints
one TSV row per op, in the order the forward runs them, with the same columns
as the default: the bytes held when the op starts (when the previous op's
output was made) and its peak, which counts anything made between the two
ops. The rows come from wrapping ``T._node``, which each op calls last, and
resetting tracemalloc's peak there. The rows' own bytes are left out, but
they take objects from the interpreter's free lists that later ops then
allocate anew, so a row can read ~35 bytes per earlier op high.

With both ``--forward`` and ``--time N`` it traces no memory and times the
forward's ops: after one warm-up forward, it runs N forwards, loss included,
and prints one TSV row per op, in the order the forward runs them, with its
op, its scope and its median wall time over the N forwards (``median_ms``).
An op's time runs from the previous op's output (or from the forward's start)
to its own, so it counts the layer code between the two ops, and shows the
fixed cost each call pays as well as its arithmetic.

``--infer`` makes either ``--forward`` run an inference forward instead, as
perfbench's ``infer-*`` workloads run it: the model alone under
``T.no_grad()``, with no loss, on an image drawn before the trace (or the
clock) starts. No graph holds the op outputs, so each dies once the next op
has read it, and the rows show which op sets the inference peak.

With ``--held`` it lists what the peak adjoint sits on: it runs the default
timeline, picks the adjoint with the largest peak (the step's peak when the
backward sets it, the first such adjoint on a tie), and runs the same step
again, untraced, with a weak reference to each op output taken before the
backward starts. It prints one TSV row per op output still alive when that
adjoint starts, largest first: the op that made it, its scope and its bytes.
An output counts once, at the first op in forward order that outputs its
buffer, and views of a parameter's buffer not at all, by the byte rule of
``transukan.profiler``. The last row, op ``(held)``, gives the adjoint's scope
and the bytes held when it starts, as in its row of the timeline; the listed
bytes are a part of those, beside gradients and the row statistics.
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from transukan import tensor as T
from transukan import train
from transukan.network import ModelConfig, TransUKanModel, forward
from transukan.tensor import Tensor


class Timeline:
    """Rows ``(op, scope, held, peak)`` of the adjoints run so far, in bytes
    above ``base``, and the step's peak before the last reset."""

    def __init__(self):
        self.base = tracemalloc.get_traced_memory()[0]
        self.rows: list[tuple[str, str, int, int]] = []
        self.peak = 0

    def wrap(self, op: str, scope: str, fn):
        """``fn``, an adjoint, recording its row; it holds no node."""
        def recorded(g):
            held, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak - self.base)
            tracemalloc.reset_peak()
            try:
                return fn(g)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.rows.append((op, scope, held - self.base, peak - self.base))
        return recorded

    def step_peak(self) -> int:
        return max(self.peak, tracemalloc.get_traced_memory()[1] - self.base)


def random_loss(model: TransUKanModel, batch: int, seed: int) -> Tensor:
    """``train.pixel_loss`` of ``model`` on :func:`random_batch`."""
    img, labels = random_batch(model, batch, seed)
    return train.pixel_loss(forward(img, model), labels)


def random_batch(model: TransUKanModel, batch: int, seed: int) -> tuple[Tensor, np.ndarray]:
    """``(image, labels)``: a random image, drawn in float64 and stored in
    the model's dtype, and a random integer labelling."""
    cfg = model.config
    rng = np.random.default_rng(seed)
    size = cfg.image_size
    img = Tensor(rng.uniform(size=(batch, cfg.in_channels, size, size)).astype(model.dtype))
    return img, rng.integers(0, cfg.n_classes, size=(batch, size, size))


def instrument(loss: Tensor, wrap) -> None:
    """Replace the adjoint ``fn`` of every op node below ``loss`` by
    ``wrap(op, scope, fn)``; the tape dies here."""
    for node in T.Tape(loss).nodes:
        if node._backward_fn is not None:
            node._backward_fn = wrap(node.op, node.scope, node._backward_fn)


def step_timeline(cfg: ModelConfig, batch: int, seed: int):
    """``(rows, forward bytes, step peak)`` of one training step at ``cfg``."""
    model = TransUKanModel(cfg, rng=np.random.default_rng(seed))
    tracemalloc.start()
    try:
        timeline = Timeline()
        loss = random_loss(model, batch, seed + 1)
        held = tracemalloc.get_traced_memory()[0] - timeline.base
        instrument(loss, timeline.wrap)
        T.backward(loss)
        return timeline.rows, held, timeline.step_peak()
    finally:
        tracemalloc.stop()


def run_forward(model: TransUKanModel, inputs: tuple[Tensor, np.ndarray], infer: bool) -> None:
    """The forward of ``model`` on the image of ``inputs``, ``(image, labels)``,
    and ``train.pixel_loss`` against their labels; with ``infer`` the forward
    alone, under ``T.no_grad()``."""
    img, labels = inputs
    if not infer:
        train.pixel_loss(forward(img, model), labels)
        return
    with T.no_grad():
        forward(img, model)


def forward_timeline(cfg: ModelConfig, batch: int, seed: int, infer: bool = False):
    """Rows ``(op, scope, held, peak)`` of each op of the forward of a
    training step at ``cfg``, or with ``infer`` of an inference forward (see
    :func:`run_forward`), in the order it runs them, in bytes above the
    trace's start; ``T._node`` is restored on return. A training forward
    draws its batch inside the trace, an inference forward before it."""
    model = TransUKanModel(cfg, rng=np.random.default_rng(seed))
    inputs = random_batch(model, batch, seed + 1) if infer else None
    make_node = T._node
    rows = []

    def node(data, op, parents, backward_fn, flops):
        nonlocal base, held
        out = make_node(data, op, parents, backward_fn, flops)
        now, peak = tracemalloc.get_traced_memory()
        rows.append((out.op, out.scope, held - base, peak - base))
        held = tracemalloc.get_traced_memory()[0]
        base += held - now  # the row's own bytes are not the step's
        tracemalloc.reset_peak()
        return out

    tracemalloc.start()
    T._node = node
    try:
        base = held = tracemalloc.get_traced_memory()[0]
        run_forward(model, inputs or random_batch(model, batch, seed + 1), infer)
        return rows
    finally:
        T._node = make_node
        tracemalloc.stop()


def weak_outputs(loss: Tensor):
    """``(op, scope, weak reference, bytes)`` of each buffer that the tape
    below ``loss`` owns, by the profiler's rule, in forward order; the tape
    dies here."""
    # Imported here, not above: tools/same_bits.py imports this module against
    # trees whose profiler may lack it.
    from transukan.profiler import _owned_outputs
    return [(node.op, node.scope, weakref.ref(buf), buf.nbytes)
            for node, buf in _owned_outputs(T.Tape(loss).nodes)]


def held_outputs(cfg: ModelConfig, batch: int, seed: int):
    """``(row, alive)``: the row ``(op, scope, held, peak)`` of
    :func:`step_timeline` with the largest peak, and ``(op, scope, bytes)`` of
    each op output alive when that adjoint starts, in a second, untraced run
    of the same step, largest first."""
    rows, _, _ = step_timeline(cfg, batch, seed)
    at = max(range(len(rows)), key=lambda i: rows[i][3])
    model = TransUKanModel(cfg, rng=np.random.default_rng(seed))
    loss = random_loss(model, batch, seed + 1)
    outputs = weak_outputs(loss)
    alive = []
    started = 0

    def wrap(op: str, scope: str, fn):
        def run(g):
            nonlocal started
            if started == at:
                alive.extend((o, s, n) for o, s, ref, n in outputs if ref() is not None)
            started += 1
            return fn(g)
        return run

    instrument(loss, wrap)
    T.backward(loss)
    return rows[at], sorted(alive, key=lambda row: -row[2])


def timed(rows: list):
    """A ``wrap`` for :func:`instrument` that appends ``(op, scope, seconds)``
    to ``rows`` for each adjoint it runs."""
    def wrap(op: str, scope: str, fn):
        def run(g):
            start = time.perf_counter()
            try:
                return fn(g)
            finally:
                rows.append((op, scope, time.perf_counter() - start))
        return run
    return wrap


def step_times(cfg: ModelConfig, batch: int, seed: int, steps: int):
    """``(op, scope, median ms)`` of each adjoint of a training step at
    ``cfg``, in the order the backward runs them: the median over ``steps``
    steps that follow one warm-up step, untraced."""
    model = TransUKanModel(cfg, rng=np.random.default_rng(seed))
    runs = []
    for _ in range(steps + 1):
        rows = []
        loss = random_loss(model, batch, seed + 1)
        instrument(loss, timed(rows))
        T.backward(loss)
        for _, p in model.parameters():
            p.zero_grad()
        runs.append(rows)
    return [(*calls[0][:2], 1e3 * statistics.median(t for *_, t in calls))
            for calls in zip(*runs[1:])]


def forward_times(cfg: ModelConfig, batch: int, seed: int, runs: int, infer: bool = False):
    """``(op, scope, median ms)`` of each op of the forward of a training step
    at ``cfg``, or with ``infer`` of an inference forward, in the order it
    runs them: the median over ``runs`` forwards that follow one warm-up
    forward, on one batch drawn before the clock starts; ``T._node`` is
    restored on return."""
    model = TransUKanModel(cfg, rng=np.random.default_rng(seed))
    inputs = random_batch(model, batch, seed + 1)
    make_node = T._node
    rows = []
    last = 0.0

    def node(data, op, parents, backward_fn, flops):
        nonlocal last
        out = make_node(data, op, parents, backward_fn, flops)
        now = time.perf_counter()
        rows.append((out.op, out.scope, now - last))
        last = time.perf_counter()  # the row's own time is not the next op's
        return out

    T._node = node
    try:
        forwards = []
        for _ in range(runs + 1):
            rows = []
            last = time.perf_counter()
            run_forward(model, inputs, infer)
            forwards.append(rows)
    finally:
        T._node = make_node
    return [(*calls[0][:2], 1e3 * statistics.median(t for *_, t in calls))
            for calls in zip(*forwards[1:])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="{}", help="ModelConfig fields as a JSON object")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time", type=int, metavar="N",
                        help="print each adjoint's (with --forward, each forward op's) "
                             "median wall time over N steps instead")
    parser.add_argument("--forward", action="store_true",
                        help="print each forward op's held bytes and peak instead")
    parser.add_argument("--infer", action="store_true",
                        help="with --forward, run an inference forward under no_grad, "
                             "with no loss")
    parser.add_argument("--held", action="store_true",
                        help="print the op outputs alive when the peak adjoint starts instead")
    args = parser.parse_args()
    if args.time is not None and args.time < 1:
        parser.error(f"--time needs at least 1 step, got {args.time}")
    if args.infer and not args.forward:
        parser.error("--infer needs --forward")
    if args.held and (args.forward or args.time is not None):
        parser.error("--held takes neither --forward nor --time")
    cfg = ModelConfig.from_dict({**ModelConfig().to_dict(), **json.loads(args.config)})
    if args.held:
        (_, adjoint_scope, held, _), alive = held_outputs(cfg, args.batch, args.seed)
        print("op\tscope\tbytes")
        for op, scope, nbytes in alive + [("(held)", adjoint_scope, held)]:
            print(f"{op}\t{scope}\t{nbytes}")
        return
    if args.time is not None:
        if args.forward:
            times = forward_times(cfg, args.batch, args.seed, args.time, args.infer)
        else:
            times = step_times(cfg, args.batch, args.seed, args.time)
        print("op\tscope\tmedian_ms")
        for op, scope, ms in times:
            print(f"{op}\t{scope}\t{ms:.3f}")
        return
    if args.forward:
        rows = forward_timeline(cfg, args.batch, args.seed, args.infer)
    else:
        rows, held, peak = step_timeline(cfg, args.batch, args.seed)
        rows.append(("(step)", "", held, peak))
    print("op\tscope\theld_bytes\tpeak_bytes")
    for op, scope, held_on_entry, peak_during in rows:
        print(f"{op}\t{scope}\t{held_on_entry}\t{peak_during}")


if __name__ == "__main__":
    main()
