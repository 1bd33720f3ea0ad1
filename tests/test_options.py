"""The package's settable options and function knobs, pinned by name so that a
new or removed knob shows up in review.

An option is a parameter of the constructor of a public class defined in a
``transukan`` module, exceptions aside; for a dataclass those are its fields.
A function knob is a parameter with a default of a public function defined in
a ``transukan`` module.
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

# Public function with a defaulted parameter -> those parameters, in module and
# definition order.
KNOBS = {
    "network.load_checkpoint": ("expect_config",),
    "tensor.check_sizes": ("least",),
    "tensor.log_softmax": ("axis",),
    "tensor.layer_norm": ("eps",),
    "tensor.conv2d": ("stride", "padding"),
    "tensor.grad_check": ("h", "tol", "sample", "sample_largest"),
}


def public_objects():
    """(``module.name``, object) of every public name a ``transukan`` module defines."""
    for info in pkgutil.iter_modules(transukan.__path__):
        module = importlib.import_module(f"transukan.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__ and not name.startswith("_"):
                yield f"{info.name}.{name}", obj


def options_by_class() -> dict[str, tuple[str, ...]]:
    return {name: tuple(inspect.signature(obj).parameters)
            for name, obj in public_objects()
            if inspect.isclass(obj) and not issubclass(obj, BaseException)}


def knobs_by_function() -> dict[str, tuple[str, ...]]:
    out = {}
    for name, obj in public_objects():
        if inspect.isfunction(obj):
            knobs = tuple(p.name for p in inspect.signature(obj).parameters.values()
                          if p.default is not p.empty)
            if knobs:
                out[name] = knobs
    return out


def settable_options() -> list[str]:
    return [f"{cls}.{p}" for cls, params in options_by_class().items() for p in params]


def test_settable_option_count_is_pinned():
    assert len(settable_options()) == 73


def test_settable_option_names_are_pinned():
    assert options_by_class() == OPTIONS


def test_function_knob_count_is_pinned():
    assert sum(len(knobs) for knobs in knobs_by_function().values()) == 10


def test_function_knob_names_are_pinned():
    assert knobs_by_function() == KNOBS
