"""Toy-scale encoder/decoder segmentation network.

A small CNN pyramid extracts features at 1/8 resolution, every spatial
location becomes a token for the Kansformer encoder, and a cascaded
upsampling decoder with skip connections restores full resolution before a
1x1 segmentation head. Each decoder block's upsample, skip concat, 3x3 conv
and relu run as one op that never forms the upsampled map. Every {conv, relu}
pair, in the CNN and in the decoder, is one node: the conv op clamps its own
output in place (the CNN's with ``relu=True``), so no pre-activation map is
kept. The head is a bare conv.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import secrets
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, Tensor
from transukan.kan import AffineLayer, KanGrid, named_parameters
from transukan.kansformer import EncoderStack, encoder_forward


class CheckpointError(Exception):
    """Base for checkpoint read/write failures."""


class CheckpointFormatError(CheckpointError):
    """Magic/version/config mismatch."""


class CheckpointCorruptError(CheckpointError):
    """File truncated or structurally inconsistent."""


class CheckpointIOError(CheckpointError, OSError):
    """The checkpoint path could not be read or written. It is also the
    ``OSError`` it was raised from (its ``__cause__``): ``errno`` is that
    error's, and ``filename`` is the checkpoint path."""


@contextlib.contextmanager
def _path_errors(path: str, doing: str):
    """Re-raise an ``OSError`` of the block as a ``CheckpointIOError`` on ``path``."""
    try:
        yield
    except OSError as exc:
        raise CheckpointIOError(exc.errno, f"cannot {doing} checkpoint: "
                                f"{exc.strerror or exc}", path) from exc


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 1
    n_classes: int = 2
    image_size: int = 64
    d_model: int = 64
    depth: int = 4
    n_heads: int = 4
    grid: KanGrid = field(default_factory=KanGrid)
    cnn_channels: tuple[int, int, int] = (16, 32, 64)
    decoder_channels: tuple[int, int, int] = (32, 16, 16)

    def __post_init__(self):
        if not isinstance(self.grid, KanGrid):
            raise ContractError(f"grid must be a KanGrid, got {self.grid!r}")
        sizes = {"in_channels": self.in_channels, "n_classes": self.n_classes,
                 "image_size": self.image_size, "d_model": self.d_model,
                 "depth": self.depth, "n_heads": self.n_heads}
        for name in ("cnn_channels", "decoder_channels"):
            channels = getattr(self, name)
            if not isinstance(channels, tuple) or len(channels) != 3:
                raise ContractError(f"{name} must be a tuple of 3 sizes, "
                                    f"got {channels!r}")
            sizes.update({f"{name}[{i}]": c for i, c in enumerate(channels)})
        T.check_sizes(sizes)
        if self.image_size % 8 != 0:
            raise ContractError(f"image_size must be divisible by 8, got {self.image_size}")
        if self.d_model % self.n_heads != 0:
            raise ContractError(f"d_model {self.d_model} not divisible by "
                                f"n_heads {self.n_heads}")
        if self.n_classes < 2:
            raise ContractError(f"need at least 2 classes, got {self.n_classes}")

    @property
    def n_tokens(self) -> int:
        return (self.image_size // 8) ** 2

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """The config ``to_dict`` wrote; a ``ContractError`` names a bad field."""
        if not isinstance(d, dict):
            raise ContractError(f"a config must be a dict, got {type(d).__name__}")
        d = dict(d)
        # Configs written before the block layout was fixed carry this key.
        if d.pop("conventional_order", False):
            raise CheckpointFormatError("conventional_order=true blocks are "
                                        "no longer supported")
        names = {f.name for f in fields(ModelConfig)}
        if d.keys() != names:
            raise ContractError(f"config fields missing: {sorted(names - d.keys())}, "
                                f"unknown: {sorted(d.keys() - names)}")
        for name, build in (("grid", lambda v: KanGrid(**v)), ("cnn_channels", tuple),
                            ("decoder_channels", tuple)):
            try:
                d[name] = build(d[name])
            except TypeError as exc:  # not a mapping or not iterable, or an unknown key
                raise ContractError(f"config field {name!r}: {exc}") from exc
        return ModelConfig(**d)


class Conv2dLayer:
    """``ksize``×``ksize`` conv with bias, padded by ``ksize // 2``: an odd
    kernel at stride 1 keeps the spatial size, and stride 2 halves an even one."""

    def __init__(self, c_in: int, c_out: int, ksize: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        T.check_sizes({"c_in": c_in, "c_out": c_out, "ksize": ksize, "stride": stride})
        rng = T.check_rng("Conv2dLayer", rng)
        bound = 1.0 / np.sqrt(c_in * ksize * ksize)
        self.stride = stride
        self.padding = ksize // 2
        self.weight = Tensor(rng.uniform(-bound, bound, (c_out, c_in, ksize, ksize)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, relu=relu)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class CnnEncoderParams:
    """Three stages of {3x3 conv, relu, stride-2 3x3 conv, relu}.

    The pre-downsampling activation of each stage is kept as a skip output,
    so skips carry the channel plan at resolutions H, H/2 and H/4.
    """

    def __init__(self, in_channels: int, channels: tuple[int, int, int],
                 rng: np.random.Generator | None = None):
        rng = T.check_rng("CnnEncoderParams", rng)
        self.stages = []
        prev = in_channels
        for ch in channels:
            conv_a = Conv2dLayer(prev, ch, 3, rng=rng)
            conv_b = Conv2dLayer(ch, ch, 3, stride=2, rng=rng)
            self.stages.append((conv_a, conv_b))
            prev = ch

    def parameters(self):
        return named_parameters((f"stage{i}.{name}", conv)
                                for i, stage in enumerate(self.stages)
                                for name, conv in zip(("conv_a", "conv_b"), stage))


def cnn_encode(image: Tensor, p: CnnEncoderParams):
    """Returns (features at 1/8 resolution, skips ordered shallow to deep)."""
    T.check_type("cnn_encode", "p", p, CnnEncoderParams)
    if image.ndim != 4:
        raise DimensionError(f"cnn_encode expects (B, C, H, W), got {image.shape}")
    if image.shape[2] % 8 or image.shape[3] % 8:
        raise ContractError(f"spatial dims must be divisible by 8, got "
                            f"{image.shape[2]}x{image.shape[3]}")
    x = image
    skips = []
    for i, (conv_a, conv_b) in enumerate(p.stages):
        with T.scope(f"stage{i}.conv_a"):
            skip = conv_a.forward(x, relu=True)
        skips.append(skip)
        with T.scope(f"stage{i}.conv_b"):
            x = conv_b.forward(skip, relu=True)
    return x, skips


class PatchEmbedParams:
    """Linear projection of each 1/8-resolution feature vector to d_model."""

    def __init__(self, c_feat: int, d_model: int, rng: np.random.Generator | None = None):
        self.proj = AffineLayer(c_feat, d_model, rng=rng)

    def forward(self, features: Tensor) -> Tensor:
        b, c, h, w = features.shape
        tokens = T.transpose(T.reshape(features, (b, c, h * w)), (0, 2, 1))
        with T.scope("proj"):
            return self.proj.forward(tokens)

    def parameters(self):
        return named_parameters((("proj", self.proj),))


class DecoderParams:
    """Cascaded upsampler: {2x nearest upsample, concat skip, 3x3 conv, relu}
    repeated for each skip, then a 1x1 head to class logits.

    Three doublings take the 1/8-resolution encoder output back to full
    resolution, consuming skips deep to shallow. The upsample, concat, conv
    and relu of a block are one ``T.upsample_concat_conv2d`` op on the block's
    ``Conv2dLayer`` parameters, which keep the shapes of a conv over the
    concat.
    """

    def __init__(self, d_model: int, skip_channels: tuple[int, int, int],
                 out_channels: tuple[int, int, int], n_classes: int,
                 rng: np.random.Generator | None = None):
        rng = T.check_rng("DecoderParams", rng)
        self.blocks = []
        prev = d_model
        for skip_ch, out_ch in zip(reversed(skip_channels), out_channels):
            self.blocks.append(Conv2dLayer(prev + skip_ch, out_ch, 3, rng=rng))
            prev = out_ch
        self.head = Conv2dLayer(prev, n_classes, 1, rng=rng)

    def forward(self, x: Tensor, skips) -> Tensor:
        """Logits from the encoder map x and the CNN's three skips, shallow to deep."""
        if not isinstance(skips, (list, tuple)) or len(skips) != len(self.blocks):
            raise ContractError(f"DecoderParams.forward: skips must be a list of "
                                f"{len(self.blocks)} skips, got {skips!r:.60}")
        for i, (conv, skip) in enumerate(zip(self.blocks, reversed(skips))):
            with T.scope(f"block{i}"):
                x = T.upsample_concat_conv2d(x, skip, conv.weight, conv.bias)
        with T.scope("head"):
            return self.head.forward(x)

    def parameters(self):
        blocks = [(f"block{i}", conv) for i, conv in enumerate(self.blocks)]
        return named_parameters(blocks + [("head", self.head)])


class TransUKanModel:
    """The whole network. Its parameters are float32: the layers draw their
    initial values in float64 from ``rng``, and the model stores them rounded
    to float32. ``astype`` gives a copy in float64, the oracles' dtype."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        T.check_type("TransUKanModel", "config", config, ModelConfig)
        rng = T.check_rng("TransUKanModel", rng)
        self.config = config
        self.cnn = CnnEncoderParams(config.in_channels, config.cnn_channels, rng=rng)
        self.embed = PatchEmbedParams(config.cnn_channels[-1], config.d_model, rng=rng)
        self.encoder = EncoderStack(config.d_model, config.depth, config.n_heads,
                                    config.n_tokens, grid=config.grid, rng=rng)
        self.decoder = DecoderParams(config.d_model, config.cnn_channels,
                                     config.decoder_channels, config.n_classes,
                                     rng=rng)
        for _, p in self.parameters():
            p.data = p.data.astype(np.float32)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, read off the first layer's weight: the dtype
        ``forward`` casts the image to."""
        return self.cnn.stages[0][0].weight.data.dtype

    def astype(self, dtype) -> TransUKanModel:
        """A new model of this config whose parameters hold this one's values
        as ``dtype``, float32 or float64; anything else raises a
        ``ContractError``. The float64 copy of a float32 model computes in
        float64 from the float32 values."""
        dtype = T.float_dtype("TransUKanModel.astype", dtype)
        model = TransUKanModel(self.config)
        for (_, mine), (_, theirs) in zip(self.parameters(), model.parameters()):
            theirs.data = mine.data.astype(dtype)
        return model

    def parameters(self):
        return named_parameters((("cnn", self.cnn), ("embed", self.embed),
                                 ("encoder", self.encoder), ("decoder", self.decoder)))


def forward(image: Tensor, model: TransUKanModel) -> Tensor:
    """Full pipeline to per-pixel class logits of the input's spatial size,
    in the model's dtype: the image is cast to it first."""
    T.check_type("forward", "image", image, Tensor)
    T.check_type("forward", "model", model, TransUKanModel)
    cfg = model.config
    if image.ndim != 4 or image.shape[1] != cfg.in_channels:
        raise DimensionError(f"expected (B, {cfg.in_channels}, H, W), got {image.shape}")
    b, _, h, w = image.shape
    image = T.astype(image, model.dtype)
    with T.scope("cnn"):
        features, skips = cnn_encode(image, model.cnn)
    with T.scope("embed"):
        tokens = model.embed.forward(features)
    with T.scope("encoder"):
        encoded = encoder_forward(tokens, model.encoder)
    grid_hw = (h // 8, w // 8)
    enc_map = T.reshape(T.transpose(encoded, (0, 2, 1)),
                        (b, cfg.d_model) + grid_hw)
    with T.scope("decoder"):
        return model.decoder.forward(enc_map, skips)


# ---------------------------------------------------------------------------
# Checkpoint format: magic "TUKN", version byte, length-prefixed JSON config,
# then each parameter tensor in declaration order as
# (rank: u32) (dims: u32 * rank) (data: little-endian float64).
# A model of either dtype writes float64, which holds every float32 value
# exactly; the loader gives back a float32 model when every stored value is a
# float32, and a float64 model otherwise.
# ---------------------------------------------------------------------------

_MAGIC = b"TUKN"
_VERSION = 1


def save_checkpoint(model: TransUKanModel, path: str) -> None:
    """Write ``model`` to ``path`` atomically: the file there is either the
    previous one or the whole new one, never a partial write. A failed read
    or write of the path raises a ``CheckpointIOError``."""
    T.check_type("save_checkpoint", "model", model, TransUKanModel)
    T.check_type("save_checkpoint", "path", path, (str, os.PathLike))
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<B", _VERSION))
    config_blob = json.dumps(model.config.to_dict()).encode("utf-8")
    buf.write(struct.pack("<I", len(config_blob)))
    buf.write(config_blob)
    params = model.parameters()
    buf.write(struct.pack("<I", len(params)))
    for _, p in params:
        buf.write(struct.pack("<I", p.ndim))
        buf.write(struct.pack(f"<{p.ndim}I", *p.shape))
        buf.write(p.data.astype("<f8").tobytes())
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        with _path_errors(path, "write"):
            with open(tmp, "xb") as fh:
                fh.write(buf.getvalue())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointCorruptError(f"checkpoint truncated: wanted {n} bytes, "
                                     f"got {len(data)}")
    return data


def load_checkpoint(path: str, expect_config: ModelConfig | None = None) -> TransUKanModel:
    """Rebuild a model from a checkpoint; bit-exact round trip with save.

    The model is float32 when every stored value is exactly a float32, as a
    float32 model's are, and float64 otherwise, so each dtype round-trips to
    itself with no dtype field in the file. ``expect_config``, when given,
    must match the embedded config exactly. A path that cannot be read raises
    a ``CheckpointIOError``.
    """
    T.check_type("load_checkpoint", "path", path, (str, os.PathLike))
    with _path_errors(path, "read"), open(path, "rb") as fh:
        if _read_exact(fh, 4) != _MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<B", _read_exact(fh, 1))
        if version != _VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")
        (config_len,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            config = ModelConfig.from_dict(json.loads(_read_exact(fh, config_len)))
        except (ValueError, ContractError) as exc:
            raise CheckpointCorruptError(f"{path}: unreadable config block: "
                                         f"{exc}") from exc
        if expect_config is not None and config != expect_config:
            raise CheckpointFormatError(f"{path}: checkpoint config {config} is "
                                        f"incompatible with expected {expect_config}")
        model = TransUKanModel(config)
        params = model.parameters()
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        if n_params != len(params):
            raise CheckpointCorruptError(f"{path}: has {n_params} tensors, model "
                                         f"declares {len(params)}")
        raws = []
        for name, p in params:
            (rank,) = struct.unpack("<I", _read_exact(fh, 4))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
            if dims != p.shape:
                raise CheckpointCorruptError(f"{path}: tensor {name} has shape "
                                             f"{dims}, model expects {p.shape}")
            raws.append(_read_exact(fh, 8 * p.size))
        if fh.read(1):
            raise CheckpointCorruptError(f"{path}: trailing bytes after parameters")
    # One exactness check over the whole payload, a NaN counting as exact; the
    # parameters are views of one buffer in the dtype it picks.
    stored = np.frombuffer(b"".join(raws), dtype="<f8")
    with np.errstate(over="ignore"):  # a value past float32's range casts to inf
        values = stored.astype(np.float32)
    if not ((values == stored) | np.isnan(stored)).all():
        values = stored.astype(np.float64)
    at = 0
    for _, p in params:
        p.data = values[at:at + p.size].reshape(p.shape)
        at += p.size
    return model
