"""The package's settable options and function knobs, pinned by name so that a
new or removed knob shows up in review.

An option is a parameter of the constructor of a public class defined in a
``transukan`` module, exceptions aside; for a dataclass those are its fields.
A function knob is a parameter with a default of a public function defined in
a ``transukan`` module.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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
    "kansformer.msa_kan": ("residual",),
    "network.load_checkpoint": ("expect_config",),
    "tensor.check_sizes": ("least",),
    "tensor.affine": ("residual", "act", "norm"),
    "tensor.log_softmax": ("axis",),
    "tensor.conv2d": ("stride", "padding", "relu"),
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
    assert sum(len(knobs) for knobs in knobs_by_function().values()) == 14


def test_function_knob_names_are_pinned():
    assert knobs_by_function() == KNOBS


ROOT = Path(__file__).resolve().parents[1]
# Knobs kept without a caller that sets them: grad_check is the package's
# finite-difference checker, exported for users and for the tests.
UNSET_BY_DESIGN = ("tensor.grad_check",)


def knobs_set_by_callers() -> set[str]:
    """``module.function.knob`` of every knob that a call in the non-test
    sources of the package or the benchmark sets, by keyword or by position.
    A call names its function by the bare name, as ``T.conv2d`` or ``conv2d``."""
    objects = dict(public_objects())
    params = {name.rsplit(".", 1)[1]: (name, list(inspect.signature(objects[name]).parameters))
              for name in knobs_by_function()}
    sources = [p for d in ("src/transukan", "perfbench") for p in (ROOT / d).glob("*.py")
               if not p.name.startswith("test_")]
    set_knobs = set()
    for path in sources:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            bare = getattr(call.func, "attr", getattr(call.func, "id", None))
            if bare not in params:
                continue
            name, names = params[bare]
            positional = [names[i] for i, arg in enumerate(call.args)
                          if i < len(names) and not isinstance(arg, ast.Starred)]
            set_knobs.update(f"{name}.{knob}"
                             for knob in positional + [kw.arg for kw in call.keywords])
    return set_knobs


def test_every_function_knob_is_set_by_a_caller():
    """A knob no caller sets is a constant spelled as an option; it goes."""
    set_knobs = knobs_set_by_callers()
    unset = [f"{name}.{knob}" for name, knobs in knobs_by_function().items()
             if name not in UNSET_BY_DESIGN for knob in knobs
             if f"{name}.{knob}" not in set_knobs]
    assert unset == []
