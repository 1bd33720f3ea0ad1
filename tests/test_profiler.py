import hashlib

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
        assert report.total_params == 231_698 == model.n_params()
        assert len(report.entries) == 44

    @pytest.mark.parametrize("batch,flops", [(1, 108_097_536), (4, 432_390_144)],
                             ids=["b1", "b4"])
    def test_flops(self, model, batch, flops):
        assert P.estimate_flops(model, (batch, 1, 64, 64)).total_flops == flops

    @pytest.mark.parametrize("batch,nbytes", [(1, 8_224_768), (4, 32_899_072)],
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
_COUNTED_OPS = ("conv2d", "upsample_concat_conv2d", "matmul", "basis_expand",
                "squared_piecewise_poly", "reshape", "transpose", "concat",
                "upsample_nearest_2x", *_PER_ELEMENT)


def _op_flops(op, out, args):
    """FLOPs of one call of ``op``, from its arguments and its output."""
    if op == "conv2d":
        w = args[1]
        return 2 * out.size * (w.size // w.shape[0])
    if op == "upsample_concat_conv2d":
        x, skip = args[:2]
        return 2 * out.size * (9 * skip.shape[1] + 4 * x.shape[1])
    if op == "matmul":
        return 2 * out.size * args[0].shape[-1]
    if op == "basis_expand":
        return args[3]  # the count of the graph its caller stands it for
    if op == "squared_piecewise_poly":
        degree = np.shape(args[3])[1] - 1
        return (2 * degree + 5) * out.size
    return _PER_ELEMENT.get(op, 0) * out.size


def _counted_flops(run, monkeypatch):
    """FLOPs of ``run()``, summed over the calls of the ops it makes."""
    total = [0]

    def counting(op, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            total[0] += _op_flops(op, out, args)
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

    def test_every_owner_is_the_scope_of_an_op_reading_it(self, model):
        logits = forward(Tensor(np.zeros((1, 1, 64, 64))), model)
        readers = {(n.scope, id(p)) for n in T.Tape(logits).nodes for p in n._parents}
        for name, p in model.parameters():
            assert (name.rpartition(".")[0], id(p)) in readers, name


class TestVariantComparison:
    @pytest.mark.parametrize("variant,params,flops,nbytes", [
        ("mlp", 204_032, 30_789_632, 5_275_648),
        ("efficientkan", 104_960, 18_337_792, 4_358_144),
        ("relukan", 678_400, 95_686_656, 14_450_688),
        ("bspline_kan", 840_960, 112_562_176, 15_761_408),
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
        flops = {e.name: e.flops for e in P.variant_report(
            "efficientkan", ModelConfig(depth=1)).entries}
        assert [n for n in flops if n.startswith("block0.msa.")] == [
            "block0.msa.qkv", "block0.msa.q_proj", "block0.msa.k_proj",
            "block0.msa.v_proj", "block0.msa.out_proj"]
        # kan1 is one activation plus one mix; each projection is a mix only.
        proj = flops["block0.msa.q_proj"]
        assert flops["block0.msa.k_proj"] == flops["block0.msa.v_proj"] == proj
        assert flops["block0.msa.qkv"] + proj == flops["block0.kan1"]

    def test_bspline_basis_count_at_zero_overlap(self):
        grid = KanGrid(G=3, K=0)
        report = P.variant_report("bspline_kan", ModelConfig(
            d_model=8, depth=1, n_heads=2, grid=grid))
        kan1 = sum(e.params for e in report.entries if e.name == "block0.kan1")
        layer = BSplineKanLayer(8, 8, grid, k_spline=1)
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
], ids=["conv_layer", "cnn_encoder", "unknown_variant", "zero_batch", "float_batch",
        "no_grad"])
def test_bad_requests_raise_contract_error(model, call, named):
    with pytest.raises(ContractError, match=named):
        call(model)


# sha256 of each report's to_tsv() text. They pin every entry name, the entry
# order and every number; change them only with a deliberate change of an op's
# FLOP count, of the byte rule or of the scopes.
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
            ReLUKanLayer(3, 5, grid), BSplineKanLayer(3, 5, grid, k_spline=2),
            LayerNormParams(3))],
    }


GOLDEN_SHA256 = {
    "model.params": "b2b5f3e04ed4671c35fdd5d15b8c18c6da42a93976bacb80a206cbfa0f4b996a",
    "model.flops.b1": "419cc03294139f2bdb418b7a51dd889d5ffca3184b636117da65af335c8a6756",
    "model.flops.b4": "f245850f9c7412dd8e3035f3f22bab3012012ec225f02445f37542f4e5218dbb",
    "model.memory.b1": "3530297b67d5e5490e523c3dfa378c5f50bfd7099a2188b1225940333c56a39d",
    "model.memory.b4": "9c398b1a18a29e1dd942b3b60cd95d529ebd28db461660d4c895967ad25bc0c6",
    "variants": "94f9c2d72c2c84c661a8d2b7753681ee386cb966fab9744cd52cd4d387d5fbe9",
    "variants.small": "77781251e6a0bdb47c2bcca7bf349b634a6a80d930d43fe0f8ff06d827eda23c",
    "encoder.flops": "b0f356d9a6390bad9165bc68df5ce8b8b93911a411c3cff7295372aa15a840f1",
    "encoder.memory": "747cccc25271de08cc8c8f7da927057ab083adc17d99d31fd59746c9a20dd23b",
    "block.flops": "8b0647a9e3c4b3272ba35283e39a19c5fdee172e6c5cf2ebb82afbb03a3c5362",
    "msa.flops": "fb984fef38ae4cc5262cfa973bb950f8b79e15339fa028d404e87edd1ba1a695",
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
