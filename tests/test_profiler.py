import hashlib

import numpy as np
import pytest

from transukan import profiler as P
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
from transukan.network import Conv2dLayer, ModelConfig, TransUKanModel
from transukan.tensor import ContractError


@pytest.fixture(scope="module")
def model():
    return TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))


class TestModelReports:
    def test_param_count_matches_enumeration(self, model):
        report = P.count_params(model)
        assert report.total_params == 231_698 == model.n_params()
        assert len(report.entries) == 112

    @pytest.mark.parametrize("batch,flops", [(1, 131_522_560), (4, 526_090_240)])
    def test_flops(self, model, batch, flops):
        assert P.estimate_flops(model, (batch, 1, 64, 64)).total_flops == flops

    @pytest.mark.parametrize("batch,nbytes", [(1, 12_386_304), (4, 49_545_216)])
    def test_activation_memory(self, model, batch, nbytes):
        report = P.estimate_activation_memory(model, batch)
        assert report.total_activation_bytes == nbytes


class TestVariantComparison:
    @pytest.mark.parametrize("variant,params,flops,nbytes", [
        ("mlp", 204_032, 30_642_176, 4_882_432),
        ("efficientkan", 104_960, 20_795_392, 4_096_000),
        ("relukan", 678_400, 95_588_352, 8_814_592),
        ("bspline_kan", 840_960, 112_627_712, 340_426_752),
    ])
    def test_totals(self, variant, params, flops, nbytes):
        report = P.compare_variants(P.ArchConfig()).reports[variant]
        assert (report.total_params, report.total_flops,
                report.total_activation_bytes) == (params, flops, nbytes)

    def test_orderings(self):
        comparison = P.compare_variants(P.ArchConfig())
        assert list(comparison.reports) == list(P.VARIANTS)
        assert comparison.params_ordering_ok
        assert comparison.memory_ordering_ok

    def test_efficientkan_qkv_share_one_activation(self):
        names = [e.name for e in P.variant_report("efficientkan",
                                                  P.ArchConfig(depth=1)).entries]
        msa = [n for n in names if n.startswith("block0.msa.")]
        assert msa[:6] == ["block0.msa.qkv.expand", "block0.msa.qkv.pool",
                           "block0.msa.qkv.square", "block0.msa.q_proj.affine",
                           "block0.msa.k_proj.affine", "block0.msa.v_proj.affine"]

    def test_bspline_basis_count_at_zero_overlap(self):
        grid = KanGrid(G=3, K=0)
        report = P.variant_report("bspline_kan", P.ArchConfig(
            d_model=8, depth=1, n_heads=2, grid=grid))
        kan1 = sum(e.params for e in report.entries
                   if e.name.startswith("block0.kan1."))
        assert kan1 == 384 == BSplineKanLayer(8, 8, grid, k_spline=1).param_count().total

    def test_object_walk_agrees_with_variant_table(self):
        arch = P.ArchConfig()
        stack = EncoderStack(arch.d_model, arch.depth, arch.n_heads,
                             arch.n_tokens, grid=arch.grid)
        walk = P.estimate_activation_memory(stack, arch.batch)
        table = P.variant_report("efficientkan", arch)
        assert [e.name for e in walk.entries] == \
            [f"encoder.{e.name}" for e in table.entries]
        assert [e.activation_bytes for e in walk.entries] == \
            [e.activation_bytes for e in table.entries]
        assert P.count_params(stack).total_params == table.total_params


@pytest.mark.parametrize("call,named", [
    (lambda m: P.count_params(Conv2dLayer(1, 2, 3)), "Conv2dLayer"),
    (lambda m: P.count_params(m.cnn), "CnnEncoderParams"),
    (lambda m: P.variant_report("x", P.ArchConfig()), "'x'"),
    (lambda m: P.estimate_activation_memory(m, 0), "got 0"),
], ids=["conv_layer", "cnn_encoder", "unknown_variant", "zero_batch"])
def test_bad_requests_raise_contract_error(model, call, named):
    with pytest.raises(ContractError, match=named):
        call(model)


# sha256 of each report's to_tsv() text. They pin every entry name, the entry
# order and every number; change them only with a deliberate change of a law.
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
        "variants": lambda: P.compare_variants(P.ArchConfig()),
        "variants.small": lambda: P.compare_variants(P.ArchConfig(
            d_model=8, depth=2, n_heads=2, grid=KanGrid(G=3, K=0),
            mlp_ratio=2.0, n_tokens=5, batch=3)),
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
    "model.params": "69d641ec38189addde31f1f9a33825617386af761c0a82bbd442e17fe9486e9c",
    "model.flops.b1": "9bb91c222b6f0dc849c99bfbf75a97bc4f75ad780d95394faab6b8d55bf164ca",
    "model.flops.b4": "c45d89b7ee5978ba1db17c2caac19523cd23d6feebe4337866e4271c1a41f09d",
    "model.memory.b1": "e4814e5103cc0fe846a2b0821f9d55db253e22e04663141d275e63f7431049d7",
    "model.memory.b4": "568a973c0d8ea85f59abd510e0119b593dba6bbb8c8ee8101d70dd0d0cfea9c9",
    "variants": "f51b3717fcd46de2b816173ecb4ba74ae00486fe10ccc9375f836c1e0cbcbfaa",
    "variants.small": "86acac4db5f005485692188af6363cc407777bf51ccfec1c758121bc3435caac",
    "encoder.flops": "87da9d81bf19c2defe4abae496bc0986eb134a6d80865aa2d61ba5ad8f6f44f7",
    "encoder.memory": "e671c2fc51a9810ce6848176b399d7e99f06d207762881c56a52851414a75666",
    "block.flops": "87dc5d046f9f078f4541aad81aa336d7d9ce61e23a8fd492f7bb11e143fedf97",
    "msa.flops": "da4b699a642639d0512951ecdc66c6b077315289c8ee78bbd311432e890343e3",
    "layers.flops": "4f6347504db3a468e416566c4237366891c735d8dc187c7ea3ffffae17aa3245",
}


def _tsv(report) -> str:
    if isinstance(report, list):
        return "\n".join(r.to_tsv() for r in report)
    return report.to_tsv()


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_report_text_is_unchanged(case):
    text = _tsv(_golden_reports()[case]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[case]
