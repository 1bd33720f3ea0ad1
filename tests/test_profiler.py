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
        assert len(report.entries) == 136

    @pytest.mark.parametrize("batch,flops", [(1, 133_652_480), (4, 534_609_920)])
    def test_flops(self, model, batch, flops):
        assert P.estimate_flops(model, (batch, 1, 64, 64)).total_flops == flops

    @pytest.mark.parametrize("batch,nbytes", [(1, 18_415_616), (4, 73_662_464)])
    def test_activation_memory(self, model, batch, nbytes):
        report = P.estimate_activation_memory(model, batch)
        assert report.total_activation_bytes == nbytes


class TestVariantComparison:
    @pytest.mark.parametrize("variant,params,flops,nbytes", [
        ("mlp", 204_032, 30_642_176, 4_882_432),
        ("efficientkan", 104_960, 22_925_312, 10_125_312),
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
    "model.params": "1261bdf7ba0755e5cea5864a78e8c09f73a753dc89d2d8c952a3ec11faacb487",
    "model.flops.b1": "b40c4dbcc5a6c2f343b13a56399253e0d2222068f56dbf51b96d1b5941fb13b1",
    "model.flops.b4": "a5b27b221ff4973ec4856aba82f3dee7c9d1820690f906a04e6902ed7256efd5",
    "model.memory.b1": "50258221ae9f34ab151e4ba249182e39abf7428e96687707364e18ea39685bd3",
    "model.memory.b4": "2f957b3b9cb9486fe55a0f2ee7a1c4dfc4768aef88c097a7008d4f74de414d6f",
    "variants": "eb998c99ae9848714a6528ea20d27941f2a22b6bcfc80823178debd3f12d772a",
    "variants.small": "b589ee3e4d580c2950445cb42326a77647760fa5d1cb6e3f4f727ca300dfda35",
    "encoder.flops": "d7b3b10f4ff9bf410858eb18dec818a3aa9eab3ddcf4f6515b50e57d2710dd5c",
    "encoder.memory": "b9b0e19c4c4c59b4c95423cbb65bb9eb657394dbacb413c52f476fd0a937a694",
    "block.flops": "400a8484dcc4ec408e53ef4b0b4127c7ea4ea288d9d44ef9cbba1ff1c863f6de",
    "msa.flops": "3c47ea10e7f34fbac28f16e0864544e5086f6206238fdf96c2c340507d396c64",
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
