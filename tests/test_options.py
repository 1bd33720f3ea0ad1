"""The package's settable options, pinned by name so that a new or removed knob
shows up in review.

An option is a parameter of the constructor of a public class defined in a
``transukan`` module, exceptions aside; for a dataclass those are its fields.
"""

import importlib
import inspect
import pkgutil

import transukan

# Public class -> its constructor parameters, in module and definition order.
OPTIONS = {
    "kan.KanGrid": ("G", "K", "range_lo", "range_hi"),
    "kan.AffineLayer": ("c_in", "c_out", "rng"),
    "kan.BSplineKanLayer": ("c_in", "c_out", "grid", "rng"),
    "kan.ReLUKanLayer": ("c_in", "c_out", "grid", "rng"),
    "kan.EfficientKanLayer": ("c_in", "c_out", "grid", "rng"),
    "kansformer.LayerNormParams": ("d",),
    "kansformer.MsaKanParams": ("d_model", "n_heads", "grid", "rng"),
    "kansformer.KansformerBlockParams": ("d_model", "n_heads", "grid", "rng"),
    "kansformer.EncoderStack": ("d_model", "depth", "n_heads", "n_tokens", "grid", "rng"),
    "network.ModelConfig": ("in_channels", "n_classes", "image_size", "d_model", "depth",
                            "n_heads", "grid", "cnn_channels", "decoder_channels"),
    "network.Conv2dLayer": ("c_in", "c_out", "ksize", "stride", "rng"),
    "network.CnnEncoderParams": ("in_channels", "channels", "rng"),
    "network.PatchEmbedParams": ("c_feat", "d_model", "rng"),
    "network.DecoderParams": ("d_model", "skip_channels", "out_channels", "n_classes",
                              "rng"),
    "network.TransUKanModel": ("config", "rng"),
    "profiler.CostEntry": ("name", "params", "flops", "activation_bytes"),
    "profiler.CostReport": ("variant", "entries"),
    "tensor.Tensor": ("data", "requires_grad"),
    "tensor.Tape": ("root",),
    "tensor.GradCheckReport": ("max_rel_err", "ok", "n_checked"),
}


def options_by_class() -> dict[str, tuple[str, ...]]:
    out = {}
    for info in pkgutil.iter_modules(transukan.__path__):
        module = importlib.import_module(f"transukan.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and not issubclass(obj, BaseException)):
                out[f"{info.name}.{name}"] = tuple(inspect.signature(obj).parameters)
    return out


def settable_options() -> list[str]:
    return [f"{cls}.{p}" for cls, params in options_by_class().items() for p in params]


def test_settable_option_count_is_pinned():
    assert len(settable_options()) == 73


def test_settable_option_names_are_pinned():
    assert options_by_class() == OPTIONS
