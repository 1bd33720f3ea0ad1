"""Workloads, timed loops, output checks and metrics of the TransUKAN benchmark.

Each workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned. A training operation is
forward, pixel cross-entropy, ``backward`` and a plain SGD update; an
inference operation is one forward under ``no_grad``. The package has no loss
or optimizer, so both are built here from public ``transukan.tensor`` ops.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import math
import os
import platform
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from transukan import network, profiler
from transukan import tensor as T
from transukan.network import CheckpointError, ModelConfig
from transukan.tensor import TensorError

import synth
from spans import BENCH_SPANS, LAYER_ENTRY_POINTS, OPS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT_PATH = os.path.join(HERE, "fingerprint.json")


@dataclass(frozen=True)
class Workload:
    name: str
    image_size: int
    batch: int
    train: bool


WORKLOADS = {w.name: w for w in (
    Workload("train-64-b4", 64, 4, True),
    Workload("infer-64-b1", 64, 1, False),
    Workload("train-128-b1", 128, 1, True),
)}

DEFAULT_SEED = 0
SETUP_REPEATS = 7       # set-ups per run; setup_s is their median
N_BATCHES = 4           # distinct inputs per workload, used in turn
EVAL_IMAGES = 4         # held-out images the loss is measured on
LOSS_END_STEPS = 10     # SGD steps after the first loss at which loss_end is taken
LR = 0.05
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
# The tail percentile is capped here: at p99, the ~1000 inference samples of a
# run spread by 0.2-0.4 of their median from run to run on a shared 2-core box.
TAIL_MAX = 0.90
MB = 1e6

END_TO_END = {
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "images_per_s": "1/s",
    "peak_mb": "MB",
    "loss_end": "nats",
    "ok_rate": "ratio",
    "setup_s": "s",
}


def per_layer_units(depth: int) -> dict[str, str]:
    """Name -> unit of every per-layer metric for an encoder of ``depth`` blocks."""
    units = {}
    for op in OPS:
        units.update({f"tensor.op.{op}.fwd_ms": "ms", f"tensor.op.{op}.bwd_ms": "ms",
                      f"tensor.op.{op}.calls": "count",
                      f"tensor.op.{op}.tape_mb": "MB"})
    units.update({
        "tensor.backward.ms": "ms",
        "tensor.backward.accumulate_ms": "ms",
        "tensor.tape.nodes": "count",
        "tensor.tape.mb": "MB",
        "tensor.tape.view_mb": "MB",
        "tensor.retained_mb": "MB",
        "tensor.fwd_gflop_per_s": "GFLOP/s",
        "kan.EfficientKanLayer.forward.ms": "ms",
        "kan.EfficientKanLayer.forward.calls": "count",
        "kan.relukan_basis_expand.ms": "ms",
        "kan.AffineLayer.forward.ms": "ms",
        "kansformer.encoder_forward.ms": "ms",
        **{f"kansformer.kansformer_block.{i}.ms": "ms" for i in range(depth)},
        "kansformer.msa_kan.ms": "ms",
        "network.forward.ms": "ms",
        "network.cnn_encode.ms": "ms",
        "network.PatchEmbedParams.forward.ms": "ms",
        "network.DecoderParams.forward.ms": "ms",
        "network.save_checkpoint.ms": "ms",
        "network.load_checkpoint.ms": "ms",
        "profiler.fwd_gflop": "GFLOP",
        "profiler.activation_mb": "MB",
        "profiler.activation_gap": "ratio",
        "bench.loss.ms": "ms",
        "bench.sgd_update.ms": "ms",
        "trace.step_ms": "ms",
        "trace.uncovered_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


# ---------------------------------------------------------------------------
# Inputs, loss and update
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Generated arrays wrapped as tensors: (image, one-hot target) batches
    used in turn, plus held-out batches for the loss."""

    batches: list
    held_out: list


def make_inputs(seed: int, w: Workload, cfg: ModelConfig) -> Inputs:
    rng = np.random.default_rng(seed)
    n_eval = -(-EVAL_IMAGES // w.batch)
    batches = [synth.make_batch(rng, w.batch, cfg.image_size)
               for _ in range(N_BATCHES + n_eval)]
    tensors = [(T.Tensor(x), T.Tensor(synth.one_hot(y, cfg.n_classes))) for x, y in batches]
    return Inputs(tensors[:N_BATCHES], tensors[N_BATCHES:])


def pixel_cross_entropy(logits: T.Tensor, target: T.Tensor) -> T.Tensor:
    """Mean over pixels of -sum_c target_c * log_softmax(logits)_c."""
    b, _, h, w = logits.shape
    picked = T.mul(T.log_softmax(logits, axis=1), target)
    return T.scale(T.sum_all(picked), -1.0 / (b * h * w))


def sgd_update(model) -> None:
    for _, p in model.parameters():
        if p.grad is not None:
            p.data -= LR * p.grad
            p.grad = None


def eval_loss(model, inputs: Inputs) -> float:
    """Mean pixel cross-entropy over the held-out batches."""
    with T.no_grad():
        return float(np.mean([pixel_cross_entropy(network.forward(x, model), y).item()
                              for x, y in inputs.held_out]))


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """State of one run: the model under test, its inputs and the tallies."""

    w: Workload
    cfg: ModelConfig
    model: object
    inputs: Inputs
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    sgd_steps: int = 0
    loss_start: float | None = None
    loss_end: float | None = None
    reference_logits: dict = field(default_factory=dict)

    def operation(self, i: int):
        """Run operation ``i``; return ``(logits, loss)``, loss None for inference."""
        x, target = self.inputs.batches[i % N_BATCHES]
        span = self.tracer.span
        if not self.w.train:
            with T.no_grad(), span("network.forward"):
                return network.forward(x, self.model), None
        with span("network.forward"):
            logits = network.forward(x, self.model)
        with span("bench.loss"):
            loss = pixel_cross_entropy(logits, target)
        with span("tensor.backward"):
            T.backward(loss)
        with span("bench.sgd_update"):
            sgd_update(self.model)
        self.sgd_steps += 1
        return logits, loss

    def output_ok(self, i: int, logits, loss) -> bool:
        """Shape and finiteness always; bit-identical repeats for inference."""
        cfg = self.cfg
        if logits.shape != (self.w.batch, cfg.n_classes, cfg.image_size, cfg.image_size):
            return False
        if not np.all(np.isfinite(logits.data)):
            return False
        if loss is not None:
            return bool(np.isfinite(loss.item()))
        ref = self.reference_logits.setdefault(i % N_BATCHES, logits.data)
        return bool(np.array_equal(ref, logits.data))

    def attempt(self, i: int):
        """Run and check operation ``i``; return its seconds, or None if it failed.

        Package errors are counted as failures and do not stop the run.
        """
        self.attempted += 1
        try:
            t0 = perf_counter()
            logits, loss = self.operation(i)
            ok = self.output_ok(i, logits, loss)
            # Releasing the graph is part of the step; the check costs microseconds.
            del logits, loss
            seconds = perf_counter() - t0
        except (TensorError, CheckpointError):
            ok = False
        if not ok:
            self.failed += 1
            return None
        return seconds

    def retried(self, fn):
        """Return ``fn(i)`` for the first input i that raises no package error.

        This is for the untimed passes; each call counts as an operation, and
        each package error as a failed one.
        """
        for i in range(N_BATCHES):
            self.attempted += 1
            try:
                return fn(i)
            except (TensorError, CheckpointError):
                self.failed += 1
        raise RuntimeError(f"every input of {self.w.name} failed")

    def held_out_loss(self) -> float:
        return self.retried(lambda _: eval_loss(self.model, self.inputs))

    def take_loss_end_when_due(self) -> None:
        """Take loss_end once ``LOSS_END_STEPS`` SGD steps have run."""
        if self.w.train and self.loss_end is None and self.sgd_steps >= LOSS_END_STEPS:
            self.loss_end = self.held_out_loss()

    def finish_training(self, next_i: int) -> None:
        """Take loss_end even if the timed window ended before enough steps,
        going on from operation ``next_i`` so the inputs keep their order.

        Inference takes it without training; so does a run whose failures
        kept it from reaching ``LOSS_END_STEPS``, which is then not correct.
        """
        if self.w.train:
            for i in range(next_i, next_i + LOSS_END_STEPS):
                self.take_loss_end_when_due()
                if self.loss_end is not None:
                    break
                self.attempt(i)
        if self.loss_end is None:
            self.loss_end = self.held_out_loss()


def _setup(w: Workload, cfg: ModelConfig, seed: int, ckpt_path: str):
    """Build, save, reload, make inputs and warm up; the cost of resuming."""
    t0 = perf_counter()
    model = network.TransUKanModel(cfg)
    t1 = perf_counter()
    network.save_checkpoint(model, ckpt_path)
    t2 = perf_counter()
    model = network.load_checkpoint(ckpt_path, expect_config=cfg)
    t3 = perf_counter()
    session = Session(w, cfg, model, make_inputs(seed, w, cfg), Tracer())
    logits, loss = session.operation(0)
    ok = session.output_ok(0, logits, loss)
    t4 = perf_counter()
    return session, ok, {"setup_s": t4 - t0, "save_ms": (t2 - t1) * 1e3,
                         "load_ms": (t3 - t2) * 1e3}


class Setups:
    """The set-ups of one run and their costs.

    The first set-up of a process runs cold and those soon after it run
    while the allocator is still growing, so the benchmark spreads its
    ``SETUP_REPEATS`` set-ups over the timed window and reports the median.
    """

    def __init__(self, w: Workload, cfg: ModelConfig, seed: int, ckpt_path: str):
        self.w, self.cfg, self.seed, self.ckpt_path = w, cfg, seed, ckpt_path
        self.costs: list[dict] = []
        self.failures = 0

    @property
    def done(self) -> int:
        return len(self.costs) + self.failures

    def once(self) -> Session | None:
        """One set-up; its session, or None if it failed."""
        try:
            session, ok, cost = _setup(self.w, self.cfg, self.seed, self.ckpt_path)
        except (TensorError, CheckpointError):
            ok = False
        if not ok:
            self.failures += 1
            return None
        self.costs.append(cost)
        return session

    def first_session(self) -> Session:
        while self.done < SETUP_REPEATS:
            session = self.once()
            if session is not None:
                return session
        raise RuntimeError(f"all {SETUP_REPEATS} set-ups of {self.w.name} failed")

    def finish(self, session: Session) -> dict:
        """Run the set-ups still due, count them all as operations of
        ``session``, remove the checkpoint and return the median costs."""
        while self.done < SETUP_REPEATS:
            self.once()
        if os.path.exists(self.ckpt_path):
            os.remove(self.ckpt_path)
        session.attempted += self.done
        session.failed += self.failures
        return {k: statistics.median(c[k] for c in self.costs) for k in self.costs[0]}


def _traced_memory_mb(fn) -> tuple[float, float]:
    """tracemalloc MB of ``fn``: (still held when it returns, peak while it ran)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return (current - base) / MB, (peak - base) / MB


def tape_accounting(nodes) -> dict[str, float]:
    """Bytes of op-node data among tape ``nodes``, by op, split into owned and views.

    A node owns its buffer when it is the first node on the tape whose data
    lives there; later nodes on the same buffer, and nodes whose data views a
    parameter, are views. Owned bytes count the whole buffer once.
    """
    def root(a):
        while a.base is not None:
            a = a.base
        return a

    leaf_roots = {id(root(n.data)) for n in nodes if n._backward_fn is None}
    seen: set[int] = set()
    per_op = dict.fromkeys(OPS, 0)
    owned = view = count = 0
    for n in nodes:
        fn = n._backward_fn
        if fn is None:
            continue
        count += 1
        buf = root(n.data)
        if id(buf) in leaf_roots or id(buf) in seen:
            size = n.data.nbytes
            view += size
        else:
            seen.add(id(buf))
            size = buf.nbytes
            owned += size
        op = getattr(fn, "op", None)
        if op in per_op:
            per_op[op] += size
    out = {f"tensor.op.{op}.tape_mb": b / MB for op, b in per_op.items()}
    out.update({"tensor.tape.nodes": count, "tensor.tape.mb": owned / MB,
                "tensor.tape.view_mb": view / MB})
    return out


def _forward_loss(session: Session, i: int):
    """Forward and loss of input ``i`` with the graph recorded, no backward."""
    x, target = session.inputs.batches[i]
    return pixel_cross_entropy(network.forward(x, session.model), target)


def _forward(session: Session, i: int):
    """What operation ``i`` holds after its forward: the loss graph when
    training, the logits when inferring."""
    if session.w.train:
        return _forward_loss(session, i)
    with T.no_grad():
        return network.forward(session.inputs.batches[i][0], session.model)


def _tape_pass(session: Session, i: int) -> dict:
    """Tape of one forward + loss recorded under the tracer's patches, so every
    node's backward closure names its op. Inference records no tape."""
    if not session.w.train:
        return tape_accounting([])
    tracer = session.tracer
    try:
        with tracer.installed(session.model):
            loss = _forward_loss(session, i)
    finally:
        tracer.spans.clear()
    return tape_accounting(T.Tape(loss).nodes)


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, up to TAIL_MAX, that has
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(0, min(n - TAIL_BEYOND - 1, math.ceil(TAIL_MAX * n) - 1))
    return ordered[idx], 100.0 * (idx + 1) / n


def _first_logits(session: Session):
    return session.reference_logits[0].reshape(-1)


def fingerprint(session: Session, stride: int = 64, atol: float = 1e-6) -> dict:
    """Fingerprint of input 0's logits, in the layout ``fingerprint.json`` stores."""
    flat = _first_logits(session)
    return {"stride": stride, "atol": atol, "sum": float(flat.sum()),
            "sample": [float(v) for v in flat[::stride]]}


def _check_fingerprint(session: Session, seed: int, overrides) -> bool | None:
    """Compare input 0's logits with the stored fingerprint; inference at the
    default seed and config only, None elsewhere."""
    if session.w.train or seed != DEFAULT_SEED or overrides:
        return None
    with open(FINGERPRINT_PATH) as fh:
        fp = json.load(fh)[session.w.name]
    flat = _first_logits(session)
    sample = flat[::fp["stride"]]
    return bool(len(sample) == len(fp["sample"])
                and np.allclose(sample, fp["sample"], rtol=0.0, atol=fp["atol"])
                and abs(flat.sum() - fp["sum"]) <= fp["atol"] * flat.size)


def _timed_loop(session: Session, seconds: float, traced: bool, setups: Setups):
    """Closed loop until the deadline. Untraced, every operation is a plain
    sample; traced, operations alternate plain and traced, the latter inside
    the tracer's patches with their index as step id. The remaining set-ups
    run between operations, evenly spaced over the window."""
    plain, with_trace, traced_steps = [], [], []
    tracer = session.tracer
    start = perf_counter()
    deadline = start + seconds
    setups_due = [start + seconds * k / SETUP_REPEATS
                  for k in range(setups.done, SETUP_REPEATS)]
    i = 0
    while perf_counter() < deadline or i < 2:
        if setups_due and perf_counter() >= setups_due[0]:
            setups_due.pop(0)
            setups.once()
        if traced and i % 2 == 1:
            tracer.step = i
            with tracer.installed(session.model), tracer.span("bench.step"):
                dt = session.attempt(i)
            if dt is not None:
                with_trace.append(dt)
                traced_steps.append(i)
        else:
            dt = session.attempt(i)
            if dt is not None:
                plain.append(dt)
        session.take_loss_end_when_due()
        i += 1
    if not plain or (traced and not with_trace):
        raise RuntimeError(f"no operation of {session.w.name} succeeded")
    return plain, with_trace, traced_steps, i


def _untraced_metrics(session: Session, times, peak_mb: float, setup_costs: dict):
    tail, pct = _tail(times)
    metrics = {
        "step_ms_p50": statistics.median(times) * 1e3,
        "step_ms_tail": tail * 1e3,
        "images_per_s": session.w.batch * len(times) / sum(times),
        "peak_mb": peak_mb,
        "loss_end": session.loss_end,
        "ok_rate": (session.attempted - session.failed) / session.attempted,
        "setup_s": setup_costs["setup_s"],
    }
    return metrics, {"tail_percentile": pct, "samples": len(times)}


def _traced_metrics(session: Session, plain, with_trace, traced_steps,
                    tape: dict, retained_mb: float, setup_costs: dict) -> dict:
    totals = session.tracer.totals()
    per_step = [totals[s] for s in traced_steps]

    def median(name, field_):
        """Median over traced operations of one [inclusive, self, calls] field."""
        return statistics.median(t.get(name, (0.0, 0.0, 0))[field_] for t in per_step)

    def uncovered(t):
        return t["bench.step"][0] - sum(t.get(n, (0.0,))[0] for n in BENCH_SPANS)

    m = dict(tape)
    for op in OPS:
        m[f"tensor.op.{op}.fwd_ms"] = median(f"tensor.op.{op}", 1) * 1e3
        m[f"tensor.op.{op}.bwd_ms"] = median(f"tensor.op.{op}.bwd", 1) * 1e3
        m[f"tensor.op.{op}.calls"] = median(f"tensor.op.{op}", 2)
    m["tensor.backward.accumulate_ms"] = median("tensor.backward", 1) * 1e3
    m["tensor.retained_mb"] = retained_mb
    m["kan.EfficientKanLayer.forward.calls"] = median("kan.EfficientKanLayer.forward", 2)
    inclusive = [name for _, _, name in LAYER_ENTRY_POINTS] + list(BENCH_SPANS) + [
        f"kansformer.kansformer_block.{i}" for i in range(session.cfg.depth)]
    for name in inclusive:
        m[f"{name}.ms"] = median(name, 0) * 1e3
    m["network.save_checkpoint.ms"] = setup_costs["save_ms"]
    m["network.load_checkpoint.ms"] = setup_costs["load_ms"]

    cfg, w = session.cfg, session.w
    shape = (w.batch, cfg.in_channels, cfg.image_size, cfg.image_size)
    gflop = profiler.estimate_flops(session.model, shape).total_flops / 1e9
    activation_mb = profiler.estimate_activation_memory(
        session.model, w.batch).total_activation_bytes / MB
    m["profiler.fwd_gflop"] = gflop
    m["profiler.activation_mb"] = activation_mb
    m["profiler.activation_gap"] = m["tensor.tape.mb"] / activation_mb
    m["tensor.fwd_gflop_per_s"] = gflop / (m["network.forward.ms"] / 1e3)
    m["trace.step_ms"] = median("bench.step", 0) * 1e3
    m["trace.uncovered_ms"] = statistics.median(map(uncovered, per_step)) * 1e3
    m["trace.overhead_pct"] = (statistics.median(with_trace) / statistics.median(plain)
                               - 1.0) * 100.0
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str,
        overrides: dict | None = None) -> dict:
    """One benchmark run; returns its full record, whose ``result`` is the result line.

    ``overrides`` replace ``ModelConfig`` fields, for small smoke-test models.
    """
    w = WORKLOADS[workload]
    cfg = ModelConfig(**{"image_size": w.image_size, **(overrides or {})})
    os.makedirs(out_dir, exist_ok=True)
    setups = Setups(w, cfg, seed, os.path.join(out_dir, f"{w.name}.tukn"))
    session = setups.first_session()
    checks = {"fingerprint": _check_fingerprint(session, seed, overrides)}

    if trace:
        retained_mb, _ = session.retried(
            lambda i: _traced_memory_mb(lambda: _forward(session, i)))
        tape = session.retried(lambda i: _tape_pass(session, i))
    else:
        _, peak_mb = session.retried(
            lambda i: _traced_memory_mb(lambda: session.operation(i)))
        # To 10 kB: interpreter bookkeeping varies by tens of bytes from
        # process to process, which at 1 kB already flips the last digit.
        peak_mb = round(peak_mb, 2)
    if w.train:
        session.loss_start = session.held_out_loss()
        session.sgd_steps = 0
    plain, with_trace, traced_steps, next_i = _timed_loop(session, seconds, trace, setups)
    session.finish_training(next_i)
    setup_costs = setups.finish(session)
    if w.train:
        checks["loss_decreased"] = session.loss_end < session.loss_start

    if trace:
        metrics = _traced_metrics(session, plain, with_trace, traced_steps, tape,
                                  retained_mb, setup_costs)
        units = per_layer_units(cfg.depth)
        session.tracer.dump(os.path.join(out_dir, f"spans-{w.name}.json"))
        info = {"traced_samples": len(with_trace), "plain_samples": len(plain),
                "spans": len(session.tracer.spans)}
    else:
        metrics, info = _untraced_metrics(session, plain, peak_mb, setup_costs)
        units = END_TO_END
    correct = session.failed == 0 and all(v is not False for v in checks.values())
    line = {"correct": correct, "attempted": session.attempted, "failed": session.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    record = {"workload": w.name, "trace": trace, "config": cfg.to_dict(),
              "batch": w.batch, "seconds": seconds, "loss_start": session.loss_start,
              "loss_end_steps": LOSS_END_STEPS, "checks": checks, **info,
              "provenance": provenance(seed), "result": line}
    with open(os.path.join(out_dir, f"result-{w.name}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, or Nones."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get_config = lib.scipy_openblas_get_config64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None, None
    get_config.restype = ctypes.c_char_p
    get_config.argtypes = []
    get_threads.restype = ctypes.c_int
    get_threads.argtypes = []
    return get_config().decode(), get_threads()


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    blas_config, blas_threads = _openblas()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas_config,
            "blas_threads": blas_threads, "commit": _git_commit(), "seed": seed}
