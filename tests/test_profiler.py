import hashlib
import tracemalloc

import numpy as np
import pytest

from transukan import profiler as P
from transukan import tensor as T
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
from transukan.network import Conv2dLayer, ModelConfig, TransUKanModel, forward
from transukan.tensor import ContractError, Tensor


@pytest.fixture(scope="module")
def model():
    return TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))


class TestModelReports:
    def test_param_count_matches_enumeration(self, model):
        report = P.count_params(model)
        assert report.total_params == 231_698 == sum(p.size for _, p in model.parameters())
        assert len(report.entries) == 36

    @pytest.mark.parametrize("batch,flops", [(1, 108_097_536), (4, 432_390_144)],
                             ids=["b1", "b4"])
    def test_flops(self, model, batch, flops):
        assert P.estimate_flops(model, (batch, 1, 64, 64)).total_flops == flops

    @pytest.mark.parametrize("batch,nbytes", [(1, 1_458_176), (4, 5_832_704)],
                             ids=["b1", "b4"])
    def test_activation_memory(self, model, batch, nbytes):
        report = P.estimate_activation_memory(model, batch)
        assert report.total_activation_bytes == nbytes


def _buffer(a):
    while a.base is not None:
        a = a.base
    return a


def _owned_tape_bytes(root):
    """Bytes of the op-output buffers on ``T.Tape(root)``: each buffer once,
    none for views of a leaf's buffer."""
    nodes = T.Tape(root).nodes
    seen = {id(_buffer(n.data)) for n in nodes if n._backward_fn is None}
    total = 0
    for n in nodes:
        buf = _buffer(n.data)
        if n._backward_fn is not None and id(buf) not in seen:
            seen.add(id(buf))
            total += buf.nbytes
    return total


# FLOPs per output element of the elementwise ops, by the documented conventions.
_PER_ELEMENT = {"layer_norm": 8, "softmax": 7, "silu": 7, "add": 1, "sub": 1, "mul": 1,
                "scale": 1, "relu": 1, "square": 1}
_COUNTED_OPS = ("conv2d", "upsample_concat_conv2d", "matmul", "affine", "attention",
                "basis_expand", "reshape", "transpose", "concat", "upsample_nearest_2x",
                *_PER_ELEMENT)


def _op_flops(op, out, args, kwargs):
    """FLOPs of one call of ``op``, from its arguments and its output."""
    relu = out.size if kwargs.get("relu") else 0  # conv2d's fused relu: 1 per output
    if op == "conv2d":
        w = args[1]
        return 2 * out.size * (w.size // w.shape[0]) + relu
    if op == "upsample_concat_conv2d":  # its relu is always fused
        x, skip = args[:2]
        return 2 * out.size * (9 * skip.shape[1] + 4 * x.shape[1]) + out.size
    if op == "matmul":
        return 2 * out.size * args[0].shape[-1]
    if op == "affine":  # matmul, the bias add, a fused residual add, activation and norm
        residual, act, norm = (args[3:] + (None,) * 3)[:3]
        residual, act, norm = (kwargs.get(k, v) for k, v in
                               (("residual", residual), ("act", act), ("norm", norm)))
        poly = 0 if act is None else (2 * np.shape(act[2])[1] + 3) * args[0].size
        ln = 0 if norm is None else _PER_ELEMENT["layer_norm"] * args[0].size
        return (2 * out.size * args[0].shape[-1] + out.size * (1 + (residual is not None))
                + poly + ln)
    if op == "attention":  # per head, the matmul, scale, softmax, matmul graph
        qkv, heads = args
        t, e = qkv.shape[-2], qkv.shape[-1] // (3 * heads)
        return int(np.prod(qkv.shape[:-2])) * heads * t * t * (4 * e + 8)
    if op == "basis_expand":
        return args[3]  # the count of the graph its caller stands it for
    return _PER_ELEMENT.get(op, 0) * out.size


def _counted_flops(run, monkeypatch):
    """FLOPs of ``run()``, summed over the calls of the ops it makes."""
    total = [0]

    def counting(op, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            total[0] += _op_flops(op, out, args, kwargs)
            return out
        return wrapped

    with monkeypatch.context() as m:
        for op in _COUNTED_OPS:
            m.setattr(T, op, counting(op, getattr(T, op)))
        run()
    return total[0]


class TestReconciliation:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_activation_memory_equals_owned_tape_bytes(self, model, batch):
        logits = forward(Tensor(np.zeros((batch, 1, 64, 64))), model)
        assert P.estimate_activation_memory(model, batch).total_activation_bytes \
            == _owned_tape_bytes(logits)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_flops_equal_a_per_op_count(self, model, batch, monkeypatch):
        shape = (batch, 1, 64, 64)
        counted = _counted_flops(lambda: forward(Tensor(np.zeros(shape)), model),
                                 monkeypatch)
        assert P.estimate_flops(model, shape).total_flops == counted

    def test_retained_bytes_beyond_the_count_are_row_statistics(self, model):
        """The bytes a grad-enabled forward holds exceed the profiler's count
        by the row statistics of attention and layer_norm (36 KiB more at
        batch 4 than at 1, in float32) plus costs that do not grow with the
        batch, on an image in the model's dtype, which needs no cast: no
        backward keeps an activation-sized array, by the retention rule of
        ``tensor._node``. A relu mask or a normalized input kept beside the
        op outputs grew the gap by 1.5 MB."""
        def gap(batch):
            x = Tensor(np.zeros((batch, 1, 64, 64), dtype=model.dtype))
            forward(x, model)  # fills the caches the first forward builds
            tracemalloc.start()
            try:
                logits = forward(x, model)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            op_nodes.append(sum(n._backward_fn is not None for n in T.Tape(logits).nodes))
            return held - P.estimate_activation_memory(model, batch).total_activation_bytes

        op_nodes = []
        assert gap(4) - gap(1) <= 100_000
        assert op_nodes == [36, 36]

    def test_every_owner_is_the_scope_of_an_op_reading_it(self, model):
        """A block's ln1 and ln2 are read by its kan1 and kan2 node, whose
        ``norm`` prologue they are; every other owner only by ops in its own
        scope."""
        logits = forward(Tensor(np.zeros((1, 1, 64, 64))), model)
        scopes = {}
        for n in T.Tape(logits).nodes:
            for p in n._parents:
                scopes.setdefault(id(p), set()).add(n.scope)
        reader = {"ln1": "kan1", "ln2": "kan2"}
        for name, p in model.parameters():
            owner = name.rpartition(".")[0]
            block, _, last = owner.rpartition(".")
            if last in reader:
                owner = f"{block}.{reader[last]}"
            assert scopes.get(id(p)) == {owner}, name


class TestVariantComparison:
    @pytest.mark.parametrize("variant,params,flops,nbytes", [
        ("mlp", 204_032, 30_789_632, 1_130_496),
        ("efficientkan", 104_960, 18_337_792, 475_136),
        ("relukan", 678_400, 95_686_656, 5_914_624),
        ("bspline_kan", 840_960, 112_562_176, 6_897_664),
    ], ids=["mlp", "efficientkan", "relukan", "bspline_kan"])
    def test_totals(self, variant, params, flops, nbytes):
        report = P.variant_report(variant, ModelConfig())
        assert (report.total_params, report.total_flops,
                report.total_activation_bytes) == (params, flops, nbytes)

    def test_orderings(self):
        reports = P.compare_variants(ModelConfig())
        assert list(reports) == list(P.VARIANTS)
        params = {v: r.total_params for v, r in reports.items()}
        assert params["efficientkan"] < params["mlp"] < params["relukan"]
        nbytes = {v: r.total_activation_bytes for v, r in reports.items()}
        assert nbytes["bspline_kan"] > nbytes["efficientkan"]

    def test_efficientkan_qkv_share_one_activation(self):
        config = ModelConfig(depth=1)
        flops = {e.name: e.flops for e in P.variant_report("efficientkan", config).entries}
        assert [n for n in flops if n.startswith("block0.msa.")] == [
            "block0.msa.qkv", "block0.msa.out_proj"]
        # kan1 is its block's LayerNorm, one activation and one d -> d mix;
        # qkv is the same activation plus three such mixes.
        d = config.d_model
        mix = config.n_tokens * d * (2 * d + 1)
        norm = 8 * config.n_tokens * d
        assert flops["block0.msa.qkv"] == flops["block0.kan1"] - norm + 2 * mix

    def test_bspline_basis_count_at_zero_overlap(self):
        grid = KanGrid(G=3, K=0)
        report = P.variant_report("bspline_kan", ModelConfig(
            d_model=8, depth=1, n_heads=2, grid=grid))
        kan1 = sum(e.params for e in report.entries if e.name == "block0.kan1")
        layer = BSplineKanLayer(8, 8, grid)
        assert kan1 == 384 == sum(p.size for _, p in layer.parameters())

    def test_object_walk_agrees_with_variant_table(self):
        config = ModelConfig()
        stack = TransUKanModel(config).encoder
        walk = P.estimate_activation_memory(stack, 1)
        flops = P.estimate_flops(stack, (1, config.n_tokens, config.d_model))
        table = P.variant_report("efficientkan", config)
        assert [e.name for e in walk.entries] == [e.name for e in table.entries]
        assert [e.activation_bytes for e in walk.entries] == \
            [e.activation_bytes for e in table.entries]
        assert [e.flops for e in flops.entries] == [e.flops for e in table.entries]
        params = {e.name: e.params for e in P.count_params(stack).entries}
        assert params == {e.name: e.params for e in table.entries if e.params}


def _under_no_grad(fn, *args):
    with T.no_grad():
        return fn(*args)


@pytest.mark.parametrize("call,named", [
    (lambda m: P.count_params(Conv2dLayer(1, 2, 3)), "Conv2dLayer"),
    (lambda m: P.count_params(m.cnn), "CnnEncoderParams"),
    (lambda m: P.variant_report("x", ModelConfig()), "'x'"),
    (lambda m: P.estimate_activation_memory(m, 0), "got 0"),
    (lambda m: P.estimate_activation_memory(m, 1.5), "batch .*1.5"),
    (lambda m: _under_no_grad(P.estimate_flops, AffineLayer(3, 5), (2, 3)), "no_grad"),
    (lambda m: P.estimate_flops(AffineLayer(3, 5), (-1, 3)), r"input_shape\[0\] .*-1"),
    (lambda m: P.estimate_flops(AffineLayer(3, 5), (2.5, 3)), r"input_shape\[0\] .*2.5"),
], ids=["conv_layer", "cnn_encoder", "unknown_variant", "zero_batch", "float_batch",
        "no_grad", "negative_input_dim", "float_input_dim"])
def test_bad_requests_raise_contract_error(model, call, named):
    with pytest.raises(ContractError, match=named):
        call(model)


# sha256 of each report's to_tsv() text. They pin every entry name, the entry
# order and every number; change them only with a deliberate change of an op's
# FLOP count, of the byte rule, of the scopes or of the model's dtype. The
# default model's reports and the variant tables are float32; the standalone
# encoder parts and layers below are float64.
def _golden_reports():
    grid = KanGrid()
    model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
    stack = EncoderStack(16, 2, 2, n_tokens=9, grid=grid)
    block = KansformerBlockParams(16, 2, grid)
    msa = MsaKanParams(16, 4, grid)
    return {
        "model.params": lambda: P.count_params(model),
        "model.flops.b1": lambda: P.estimate_flops(model, (1, 1, 64, 64)),
        "model.flops.b4": lambda: P.estimate_flops(model, (4, 1, 64, 64)),
        "model.memory.b1": lambda: P.estimate_activation_memory(model, 1),
        "model.memory.b4": lambda: P.estimate_activation_memory(model, 4),
        "variants": lambda: P.compare_variants(ModelConfig()),
        "variants.small": lambda: P.compare_variants(ModelConfig(
            image_size=16, d_model=8, depth=2, n_heads=2, grid=KanGrid(G=3, K=0))),
        "encoder.flops": lambda: P.estimate_flops(stack, (2, 9, 16)),
        "encoder.memory": lambda: P.estimate_activation_memory(stack, 2),
        "block.flops": lambda: P.estimate_flops(block, (3, 7, 16)),
        "msa.flops": lambda: P.estimate_flops(msa, (2, 5, 16)),
        "layers.flops": lambda: [P.estimate_flops(layer, (4, 6, 3)) for layer in (
            AffineLayer(3, 5), EfficientKanLayer(3, 5, grid),
            ReLUKanLayer(3, 5, grid), BSplineKanLayer(3, 5, KanGrid(K=2)),
            LayerNormParams(3))],
    }


GOLDEN_SHA256 = {
    "model.params": "1c7c187a44fa10a271bb8392ed940c0af1b586a8fc0c43bf4ff214016a50bae8",
    "model.flops.b1": "92ec0c533ea3c3dab67c04f6601859f0b0acd9f3f08b947479dd0e3e11c343e3",
    "model.flops.b4": "55983ea78285d18e2b721b28cd0a039081dabb97e5d56e21404f4aafdc4545b5",
    "model.memory.b1": "2feed2a35336e6c8acbaad83335fba37c2432443710e14ea7ce18d0a0945dc26",
    "model.memory.b4": "cda21507e927cb77d4a07f820ca5008f0c319ec8eb783e6e707e595c4713ae28",
    "variants": "09956ea56f75303747bdaf11d54c283472d4509fc04da9cf61ebb309277a797a",
    "variants.small": "d1200624c2f87efc98e1d086e7a3aca0a09aa4c180f4787aaf7e1a3f80dc0852",
    "encoder.flops": "e517e30c717e760baa8bdb13190155faa51bb7e4df65db484f955ac40c47654e",
    "encoder.memory": "b3932c26e39c68e45afee5057a382e15403711844e08a159f66e8fe0a1b6862a",
    "block.flops": "37058040467319bd228f33bbceba59c97b0456d5c8a90321a5d454b14a078b75",
    "msa.flops": "319bdb6323ceaa59eec83e5090bac8e00a9549c1b287b27545b97e1640b43cf9",
    "layers.flops": "a6b6426f09c16dff5ea00ae37dfe72f44d8bae991c9891578797aca5be636f32",
}


def _tsv(report) -> str:
    if isinstance(report, dict):
        report = list(report.values())
    if isinstance(report, list):
        return "\n".join(r.to_tsv() for r in report)
    return report.to_tsv()


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_report_text_is_unchanged(case):
    text = _tsv(_golden_reports()[case]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[case]
