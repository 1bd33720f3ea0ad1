import ctypes
import errno
import gc
import hashlib
import io
import json
import os
import statistics
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from transukan import network, train
from transukan import tensor as T
from transukan.tensor import ContractError, DimensionError, NumericsError, Tensor
from transukan.kan import KanGrid
from transukan.kansformer import encoder_forward
from transukan.network import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointIOError,
    CnnEncoderParams,
    ModelConfig,
    TransUKanModel,
    cnn_encode,
    forward,
    load_checkpoint,
    save_checkpoint,
)

MICRO = ModelConfig(image_size=16, d_model=8, depth=1, n_heads=2,
                    decoder_channels=(8, 8, 8))


class TestCnnEncode:
    def test_shape_plan(self):
        p = CnnEncoderParams(1, (16, 32, 64), rng=np.random.default_rng(0))
        img = Tensor(np.random.default_rng(1).uniform(size=(2, 1, 64, 64)))
        features, skips = cnn_encode(img, p)
        assert features.shape == (2, 64, 8, 8)
        assert [s.shape for s in skips] == [(2, 16, 64, 64), (2, 32, 32, 32),
                                            (2, 64, 16, 16)]

    def test_zero_weights_give_zero_features(self):
        p = CnnEncoderParams(1, (16, 32, 64), rng=np.random.default_rng(0))
        for _, t in p.parameters():
            t.data[...] = 0.0
        img = Tensor(np.random.default_rng(2).uniform(size=(1, 1, 16, 16)))
        features, skips = cnn_encode(img, p)
        np.testing.assert_array_equal(features.data, 0.0)
        for s in skips:
            np.testing.assert_array_equal(s.data, 0.0)

    @pytest.mark.parametrize("kwargs,named", [
        ({"ksize": 0}, "ksize .*0"),
        ({"ksize": 3.0}, "ksize .*3.0"),
        ({"stride": 0}, "stride .*0"),
    ], ids=["zero_kernel", "float_kernel", "zero_stride"])
    def test_bad_conv_sizes_raise_contract_error(self, kwargs, named):
        with pytest.raises(ContractError, match=named):
            network.Conv2dLayer(**{"c_in": 1, "c_out": 2, "ksize": 3, **kwargs})

    def test_indivisible_dims_rejected(self):
        p = CnnEncoderParams(1, (16, 32, 64))
        with pytest.raises(ContractError):
            cnn_encode(Tensor(np.zeros((1, 1, 60, 64))), p)

    def test_outputs_finite_across_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = CnnEncoderParams(1, (4, 8, 8), rng=rng)
            img = Tensor(rng.uniform(size=(1, 1, 16, 16)))
            features, _ = cnn_encode(img, p)
            assert np.all(np.isfinite(features.data))


class TestForward:
    def test_logit_shape_contract(self):
        model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
        img = Tensor(np.random.default_rng(1).uniform(size=(2, 1, 64, 64)))
        assert forward(img, model).shape == (2, 2, 64, 64)

    def test_shape_contract_other_sizes(self):
        cfg = ModelConfig(image_size=32, d_model=16, depth=1, n_heads=2,
                          decoder_channels=(8, 8, 8))
        model = TransUKanModel(cfg, rng=np.random.default_rng(2))
        img = Tensor(np.random.default_rng(3).uniform(size=(1, 1, 32, 32)))
        assert forward(img, model).shape == (1, 2, 32, 32)

    def test_matches_stage_by_stage_composition(self):
        model = TransUKanModel(MICRO, rng=np.random.default_rng(4)).astype(np.float64)
        img = Tensor(np.random.default_rng(5).uniform(size=(2, 1, 16, 16)))
        out = forward(img, model)

        features, skips = cnn_encode(img, model.cnn)
        tokens = model.embed.forward(features)
        encoded = encoder_forward(tokens, model.encoder)
        enc_map = T.reshape(T.transpose(encoded, (0, 2, 1)), (2, 8, 2, 2))
        expected = model.decoder.forward(enc_map, skips)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_decoder_matches_upsample_concat_conv_composition(self):
        model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0)).astype(np.float64)
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 64, 8, 8)))
        skips = [Tensor(rng.uniform(size=(2, c, 64 >> i, 64 >> i)))
                 for i, c in enumerate(model.config.cnn_channels)]
        expected = x
        for conv, skip in zip(model.decoder.blocks, reversed(skips)):
            cat = T.concat([T.upsample_nearest_2x(expected), skip], axis=1)
            expected = T.relu(conv.forward(cat))
        expected = model.decoder.head.forward(expected)
        out = model.decoder.forward(x, skips)
        np.testing.assert_allclose(out.data, expected.data, rtol=0, atol=1e-14)

    def test_the_act_table_is_checked_once_per_dtype(self):
        # Every EfficientKAN layer of the model shares one grid, so its act
        # table is checked once for the float32 model, however many forwards
        # run, and once more for the float64 copy: not once per layer call.
        model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
        img = Tensor(np.random.default_rng(1).uniform(size=(1, 1, 64, 64)))
        T._cached_table.cache_clear()
        with mock.patch.object(T, "_check_table", wraps=T._check_table) as check, \
                T.no_grad():
            for _ in range(2):
                forward(img, model)
            assert check.call_count == 1
            forward(img, model.astype(np.float64))
            assert check.call_count == 2
        assert [c.args[3] for c in check.call_args_list] == [np.float32, np.float64]

    def test_stage_name_attached_to_errors(self):
        model = TransUKanModel(MICRO, rng=np.random.default_rng(6))
        with pytest.raises(ContractError) as exc:
            forward(Tensor(np.zeros((1, 1, 20, 20))), model)
        assert exc.value.scope == "cnn"
        assert str(exc.value).startswith("[cnn] spatial dims")
        with pytest.raises(DimensionError) as exc:
            # divisible by 8 but wrong token count for the built encoder
            forward(Tensor(np.zeros((1, 1, 24, 24))), model)
        assert exc.value.scope == "encoder"
        assert str(exc.value).startswith("[encoder] encoder expects")

    def test_non_finite_parameter_named_by_its_layer(self):
        cfg = ModelConfig(image_size=16, d_model=8, depth=2, n_heads=2,
                          decoder_channels=(8, 8, 8))
        model = TransUKanModel(cfg, rng=np.random.default_rng(9))
        dict(model.parameters())["encoder.block1.kan2.weight"].data[0, 0] = np.nan
        with pytest.raises(NumericsError) as exc:
            forward(Tensor(np.zeros((1, 1, 16, 16))), model)
        assert exc.value.scope == "encoder.block1.kan2"
        assert str(exc.value).count("encoder.block1.kan2") == 1

    def test_wrong_channel_count(self):
        model = TransUKanModel(MICRO)
        with pytest.raises(DimensionError):
            forward(Tensor(np.zeros((1, 3, 16, 16))), model)

    def test_gradcheck_micro_model(self):
        rng = np.random.default_rng(7)
        model = TransUKanModel(MICRO, rng=rng).astype(np.float64)
        img = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 16, 16)))
        w = rng.normal(size=(1, 2, 16, 16)) / 100.0

        def objective(_):
            return T.sum_all(T.mul(forward(img, model), Tensor(w)))

        rep = T.grad_check(objective, img, tol=1e-4, sample=6,
                           sample_largest=True)
        assert rep.ok, rep
        params = dict(model.parameters())
        for name in ("cnn.stage0.conv_a.weight", "embed.proj.weight",
                     "encoder.block0.msa.qkv.weight", "decoder.head.weight",
                     "decoder.block2.bias"):
            rep = T.grad_check(objective, params[name], tol=1e-4, sample=6,
                               sample_largest=True)
            assert rep.ok, (name, rep)

    def test_parameter_count_additivity(self):
        model = TransUKanModel(MICRO)
        total = sum(p.size for _, p in model.parameters())
        by_component = sum(p.size for _, p in model.cnn.parameters()) \
            + sum(p.size for _, p in model.embed.parameters()) \
            + sum(p.size for _, p in model.encoder.parameters()) \
            + sum(p.size for _, p in model.decoder.parameters())
        assert total == by_component


def _pixel_loss(model, batch, seed=11):
    """``train.pixel_loss`` of ``model`` on a random image and labelling."""
    cfg = model.config
    rng = np.random.default_rng(seed)
    size = cfg.image_size
    img = Tensor(rng.uniform(size=(batch, cfg.in_channels, size, size)))
    labels = rng.integers(0, cfg.n_classes, size=(batch, size, size))
    return train.pixel_loss(forward(img, model), labels)


# A model small enough that tracemalloc of its backward takes well under a
# second, with every stage of the default one.
_PEAK_CONFIG = ModelConfig(image_size=32, d_model=16, depth=1, n_heads=2,
                           decoder_channels=(8, 8, 8))


def _keeping_backward(loss):
    """The backward loop before nodes were released: every node keeps its
    closure and parents, and every gradient is an owned copy in its tensor's
    dtype."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(T.Tape(loss).nodes):
        fn = node._backward_fn
        if fn is None or node.grad is None:
            continue
        for parent, pgrad in zip(node._parents, fn(node.grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(pgrad, dtype=parent.data.dtype, copy=True)
            else:
                parent.grad += pgrad


class TestBackwardRelease:
    def test_graph_released_and_gradients_match_keeping_backward(self):
        model = TransUKanModel(ModelConfig(image_size=32),
                               rng=np.random.default_rng(0)).astype(np.float64)
        params = dict(model.parameters())
        _keeping_backward(_pixel_loss(model, batch=2))
        reference = {name: p.grad for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        loss = _pixel_loss(model, batch=2)
        ops = [n for n in T.Tape(loss).nodes if n._backward_fn is not None]
        T.backward(loss)
        assert all(n._backward_fn is None and n._parents == () and n.grad is None
                   for n in ops)
        scale = max(np.abs(g).max() for g in reference.values())
        for name, p in params.items():
            assert p.grad.flags.owndata and p.grad.flags.writeable, name
            np.testing.assert_allclose(p.grad, reference[name], rtol=0,
                                       atol=1e-15 * scale, err_msg=name)

    def test_every_adjoint_receives_an_array(self):
        # The scale adjoint of a 0-d gradient, g * s, is a numpy scalar; the
        # sum_all below it must still receive an ndarray.
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
        for loss in (T.scale(T.sum_all(x), 2.0), _pixel_loss(model, batch=1)):
            received = []

            def recording(node, fn):
                def record(g):
                    received.append((node.op, type(g)))
                    return fn(g)
                return record

            ops = [n for n in T.Tape(loss).nodes if n._backward_fn is not None]
            for node in ops:
                node._backward_fn = recording(node, node._backward_fn)
            T.backward(loss)
            assert len(received) == len(ops)
            assert [r for r in received if r[1] is not np.ndarray] == []

    def test_no_adjoint_writes_into_its_gradient(self):
        # backward hands op gradients on without a copy, so an adjoint that
        # wrote into its g would corrupt another node's gradient.
        model = TransUKanModel(ModelConfig(), rng=np.random.default_rng(0))
        loss = _pixel_loss(model, batch=1)
        calls = []

        def read_only(fn):
            def guarded(g):
                view = g.view()
                view.flags.writeable = False
                calls.append(fn)
                return fn(view)
            return guarded

        ops = [n for n in T.Tape(loss).nodes if n._backward_fn is not None]
        for node in ops:
            node._backward_fn = read_only(node._backward_fn)
        T.backward(loss)
        assert len(calls) == len(ops)

    def test_backward_peak_stays_near_the_forward_bytes(self):
        # The bytes a backward adds over the forward's, against those of the
        # keeping backward on the same graph: releasing each node and letting
        # go of it as its adjoint runs adds 0.46x as much; releasing each
        # node but holding them all until the pass ends added 0.69x.
        model = TransUKanModel(_PEAK_CONFIG, rng=np.random.default_rng(0))

        def added_bytes(run_backward):
            gc.collect()
            tracemalloc.start()
            try:
                loss = _pixel_loss(model, batch=2)
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run_backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            for _, p in model.parameters():
                p.zero_grad()
            return peak - held

        keeping, releasing = added_bytes(_keeping_backward), added_bytes(T.backward)
        assert releasing <= 0.55 * keeping, (releasing, keeping)

    def test_activations_die_during_the_backward(self):
        # When the first forward op's adjoint starts, every other op output
        # has had its last reader. Less the parameter gradients, the pass then
        # holds 0.58x the forward's bytes; a backward that holds every node
        # until it returns held 1.21x.
        model = TransUKanModel(_PEAK_CONFIG, rng=np.random.default_rng(0))
        param_bytes = sum(p.data.nbytes for _, p in model.parameters())
        on_entry = []
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = _pixel_loss(model, batch=2)
            forward_bytes = tracemalloc.get_traced_memory()[0] - base
            first = next(n for n in T.Tape(loss).nodes if n._backward_fn is not None)
            assert (first.op, first.scope) == ("conv2d", "cnn.stage0.conv_a")
            fn = first._backward_fn

            def recording(g):
                on_entry.append(tracemalloc.get_traced_memory()[0] - base)
                return fn(g)

            first._backward_fn = recording
            del first
            T.backward(loss)
        finally:
            tracemalloc.stop()
        assert on_entry[0] - param_bytes <= 0.7 * forward_bytes, (on_entry, forward_bytes)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Eight SGD steps of the default model at batch 4; prints the minor page
# faults of each step.
_TRAINING_FAULTS = """
import json, resource
import numpy as np
from transukan import train
from transukan.network import ModelConfig, TransUKanModel
from transukan.tensor import Tensor

cfg = ModelConfig()
model = TransUKanModel(cfg, rng=np.random.default_rng(0))
rng = np.random.default_rng(1)
size = cfg.image_size
img = Tensor(rng.uniform(size=(4, cfg.in_channels, size, size)))
labels = rng.integers(0, cfg.n_classes, size=(4, size, size))

def step():
    train.step(model, img, labels)
    for _, p in model.parameters():
        p.data -= 0.05 * p.grad
        p.zero_grad()

faults = []
for _ in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


class TestHeapReuse:
    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_training_steps_fault_in_no_new_memory(self):
        # A step frees tens of MB; the pinned allocator thresholds keep that
        # heap mapped, so later steps reuse it. With glibc's default trimming
        # each step of the float32 model faults in ~1.9k pages (~4.8k of its
        # float64 copy).
        src = str(Path(network.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _TRAINING_FAULTS], env=env,
                             capture_output=True, text=True, check=True)
        faults = json.loads(out.stdout.strip().splitlines()[-1])
        assert statistics.median(faults[2:]) <= 100, faults


def _v1_bytes(model, split_qkv):
    """A TUKN v1 file of ``model``'s parameters. With ``split_qkv``, each packed
    ``msa.qkv`` (weight, bias) pair is written as the three (weight, bias)
    pairs of the q, k and v projections it stacks, in their order."""
    arrays = []
    for name, p in model.parameters():
        if not (split_qkv and ".msa.qkv." in name):
            arrays.append(p.data)
        elif name.endswith(".weight"):
            weights = np.split(p.data, 3)
        else:
            for w, b in zip(weights, np.split(p.data, 3)):
                arrays += [w, b]
    config = json.dumps(model.config.to_dict()).encode("utf-8")
    blob = b"TUKN" + struct.pack("<BI", 1, len(config)) + config
    blob += struct.pack("<I", len(arrays))
    for a in arrays:
        blob += struct.pack(f"<I{a.ndim}I", a.ndim, *a.shape) + a.astype("<f8").tobytes()
    return blob


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        """A float32 file and a float64 file each come back in their own
        dtype: normal draws stored in a float64 model are not float32 values,
        so that file loads as float64."""
        rng = np.random.default_rng(11)
        for dtype in (np.float32, np.float64):
            model = TransUKanModel(MICRO, rng=rng).astype(dtype)
            for _, p in model.parameters():
                p.data[...] = rng.normal(size=p.shape)
            path = str(tmp_path / "model.tukn")
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.config == model.config and loaded.dtype == dtype
            for (n1, p1), (n2, p2) in zip(model.parameters(), loaded.parameters()):
                assert n1 == n2
                assert p2.data.dtype == dtype and np.array_equal(p1.data, p2.data)

    def test_the_dtype_rule_reads_the_whole_payload(self, tmp_path):
        """NaN and inf are float32 values, so a float32 model holding them in
        its first and last tensors comes back float32; one value past
        float32's range, in its last tensor, makes the whole file float64."""
        model = TransUKanModel(MICRO, rng=np.random.default_rng(12))
        model.parameters()[0][1].data.flat[0] = np.nan
        path = str(tmp_path / "model.tukn")
        for dtype, value in ((np.float32, -np.inf), (np.float64, 1e300)):
            model = model.astype(dtype)
            model.parameters()[-1][1].data.flat[-1] = value
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.dtype == dtype
            for (_, p1), (_, p2) in zip(model.parameters(), loaded.parameters()):
                assert p2.data.dtype == dtype
                assert np.array_equal(p1.data, p2.data, equal_nan=True)

    def test_default_model_bytes_are_pinned(self, tmp_path):
        """Parameter names, shapes, order and initial values of the default
        model, float32 values written as float64, and the TUKN v1 layout, in
        one digest."""
        path = str(tmp_path / "model.tukn")
        save_checkpoint(TransUKanModel(ModelConfig()), path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "8456b622232f1f108895d40ee6c3a274752eabe63ceb51d57f174f293969f56a"

    def test_default_model_parameter_names_are_pinned(self):
        """The ordered names a future checkpoint version writes; the v1 bytes
        above carry shapes and values but no names."""
        names = [name for name, _ in TransUKanModel(ModelConfig()).parameters()]
        assert len(names) == 71
        assert (names[0], names[-1]) == ("cnn.stage0.conv_a.weight", "decoder.head.bias")
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert digest == "be142b849ecd7747c8652041a64dcc8cdba0615f8670c72f8d148301778edbb3"

    def test_per_projection_layout_refused(self, tmp_path):
        """A v1 file written before Q, K and V were packed into one layer has
        87 tensors at ``ModelConfig()``, not 71, and is refused unread."""
        model = TransUKanModel(ModelConfig())
        path = tmp_path / "model.tukn"
        save_checkpoint(model, path)
        assert _v1_bytes(model, split_qkv=False) == path.read_bytes()
        path.write_bytes(_v1_bytes(model, split_qkv=True))
        with pytest.raises(CheckpointCorruptError, match="has 87 tensors, model declares 71"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tukn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path))

    def test_truncated_rejected(self, tmp_path):
        model = TransUKanModel(MICRO, rng=np.random.default_rng(12))
        path = str(tmp_path / "model.tukn")
        save_checkpoint(model, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_incompatible_config_refused(self, tmp_path):
        model = TransUKanModel(MICRO, rng=np.random.default_rng(13))
        path = str(tmp_path / "model.tukn")
        save_checkpoint(model, path)
        other = ModelConfig(image_size=16, d_model=8, depth=2, n_heads=2,
                            decoder_channels=(8, 8, 8))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path, expect_config=other)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        model = TransUKanModel(MICRO, rng=np.random.default_rng(16))
        path = str(tmp_path / "model.tukn")
        save_checkpoint(model, path)
        before = open(path, "rb").read()

        class TornFile(io.FileIO):
            """Writes half of what it is given, then fails as a full disk does."""

            def write(self, data):
                super().write(bytes(data)[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        for _, p in model.parameters():
            p.data += 1.0
        with monkeypatch.context() as m:
            m.setattr(network, "open", TornFile, raising=False)
            with pytest.raises(OSError):
                save_checkpoint(model, path)
        assert os.listdir(tmp_path) == ["model.tukn"]
        assert open(path, "rb").read() == before
        load_checkpoint(path, expect_config=MICRO)

    def test_unsupported_version_rejected(self, tmp_path):
        model = TransUKanModel(MICRO, rng=np.random.default_rng(14))
        path = str(tmp_path / "model.tukn")
        save_checkpoint(model, path)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


@pytest.mark.parametrize("action, name, code", [
    ("load", ".", errno.EISDIR),
    ("load", "missing.tukn", errno.ENOENT),
    ("save", "missing/model.tukn", errno.ENOENT),
], ids=["load_directory", "load_missing_path", "save_into_missing_directory"])
def test_unusable_path_raises_checkpoint_io_error(tmp_path, action, name, code):
    """A checkpoint path raises only ``CheckpointError`` subclasses: an
    ``OSError`` of the path does not pass through as it is. It becomes a
    ``CheckpointIOError`` chained from it, which is also an ``OSError`` with
    its errno and the checkpoint path, so a caller that catches either sees it."""
    path = str(tmp_path / name)
    with pytest.raises(CheckpointIOError) as exc:
        if action == "load":
            load_checkpoint(path)
        else:
            save_checkpoint(TransUKanModel(MICRO), path)
    err = exc.value
    assert isinstance(err, OSError) and isinstance(err.__cause__, OSError)
    assert (err.errno, err.__cause__.errno, err.filename) == (code, code, path)
    assert os.listdir(tmp_path) == []


def test_a_file_descriptor_is_not_a_checkpoint_path(tmp_path):
    """A path is a str or an ``os.PathLike``. ``open`` would take an int as a
    file descriptor, and the loader's ``with`` block would then close the
    caller's descriptor, so an int is refused before anything is opened."""
    model = TransUKanModel(MICRO)
    save_checkpoint(model, tmp_path / "model.tukn")  # a PathLike round trip
    assert load_checkpoint(tmp_path / "model.tukn").config == MICRO
    fd = os.open(tmp_path / "model.tukn", os.O_RDONLY)
    try:
        for call, name in ((lambda: load_checkpoint(fd), "load_checkpoint"),
                           (lambda: save_checkpoint(model, fd), "save_checkpoint")):
            with pytest.raises(ContractError, match=f"{name}: path must be a str or a "
                                                    f"PathLike, got int"):
                call()
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert os.listdir(tmp_path) == ["model.tukn"]


def _rewrite_config(path, mutate):
    """Replace the JSON config block of a saved checkpoint by ``mutate(config)``."""
    blob = open(path, "rb").read()
    (config_len,) = struct.unpack("<I", blob[5:9])
    config = mutate(json.loads(blob[9:9 + config_len]))
    new_blob = json.dumps(config).encode("utf-8")
    open(path, "wb").write(blob[:5] + struct.pack("<I", len(new_blob)) + new_blob
                           + blob[9 + config_len:])


@pytest.mark.parametrize("mutate,error", [
    (lambda c: {**c, "image_size": 12}, CheckpointCorruptError),
    (lambda c: {**c, "grid": {**c["grid"], "G": 0}}, CheckpointCorruptError),
    (lambda c: {**c, "n_heads": 0}, CheckpointCorruptError),
    (lambda c: {**c, "depth": -1}, CheckpointCorruptError),
    (lambda c: "not a mapping", CheckpointCorruptError),
    (lambda c: {**c, "conventional_order": False}, None),
    (lambda c: {**c, "conventional_order": True}, CheckpointFormatError),
    (lambda c: {**c, "depth": 1.5}, CheckpointCorruptError),
    (lambda c: {**c, "d_model": 8.0}, CheckpointCorruptError),
    (lambda c: {**c, "image_size": 16.0}, CheckpointCorruptError),
    (lambda c: {**c, "n_classes": 2.0}, CheckpointCorruptError),
    (lambda c: {**c, "in_channels": True}, CheckpointCorruptError),
    (lambda c: {**c, "n_heads": 2.0}, CheckpointCorruptError),
    (lambda c: {**c, "grid": {**c["grid"], "G": 2.5}}, CheckpointCorruptError),
    (lambda c: {**c, "grid": {**c["grid"], "range_lo": -float("inf")}},
     CheckpointCorruptError),
    (lambda c: {**c, "grid": {**c["grid"], "range_lo": False}}, CheckpointCorruptError),
], ids=["image_size_12", "grid_G_0", "n_heads_0", "depth_-1", "not_a_mapping",
        "v1_conventional_order_false", "v1_conventional_order_true",
        "depth_1.5", "d_model_8.0", "image_size_16.0", "n_classes_2.0",
        "in_channels_true", "n_heads_2.0", "grid_G_2.5",
        "grid_range_lo_-inf", "grid_range_lo_false"])
def test_embedded_config_checked_on_load(tmp_path, mutate, error):
    model = TransUKanModel(MICRO, rng=np.random.default_rng(15))
    path = str(tmp_path / "model.tukn")
    save_checkpoint(model, path)
    _rewrite_config(path, mutate)
    if error is not None:
        with pytest.raises(error):
            load_checkpoint(path)
        return
    loaded = load_checkpoint(path, expect_config=MICRO)
    for (_, p1), (_, p2) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(p1.data, p2.data)


def _count_at(blob):
    """Offset of the u32 tensor count that follows a checkpoint's config block."""
    (config_len,) = struct.unpack("<I", blob[5:9])
    return 9 + config_len


@pytest.mark.parametrize("rewrite,named", [
    (lambda blob, at: struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + 1),
     r"has \d+ tensors, model declares \d+"),
    (lambda blob, at: struct.pack_into("<I", blob, at + 8, 17),  # first dim of tensor 0
     r"tensor cnn.stage0.conv_a.weight has shape \(17, 1, 3, 3\)"),
    (lambda blob, at: blob.extend(b"\0"), "trailing bytes after parameters"),
], ids=["tensor_count", "tensor_shape", "trailing_bytes"])
def test_rewritten_tensor_block_refused(tmp_path, rewrite, named):
    path = str(tmp_path / "model.tukn")
    save_checkpoint(TransUKanModel(MICRO, rng=np.random.default_rng(17)), path)
    blob = bytearray(open(path, "rb").read())
    rewrite(blob, _count_at(blob))
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointCorruptError, match=named):
        load_checkpoint(path)


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            ModelConfig(image_size=20)
        with pytest.raises(ContractError):
            ModelConfig(d_model=10, n_heads=4)
        # sizes must be ints, as a JSON config block writes them
        for field, value, named in (
                ("depth", 1.5, "depth"), ("d_model", 64.0, "d_model"),
                ("n_heads", 2.0, "n_heads"), ("n_classes", 2.0, "n_classes"),
                ("in_channels", True, "in_channels"),
                ("image_size", np.int64(64), "image_size"),
                ("cnn_channels", (16, 32.0, 64), r"cnn_channels\[1\]"),
                ("decoder_channels", (32, 16), "decoder_channels")):
            with pytest.raises(ContractError, match=named):
                ModelConfig(**{field: value})

    @pytest.mark.parametrize("field,value,named", [
        ("depth", 0, "depth"),
        ("depth", -1, "depth"),
        ("image_size", 0, "image_size"),
        ("d_model", 0, "d_model"),
        ("in_channels", 0, "in_channels"),
        ("cnn_channels", (16, 0, 64), r"cnn_channels\[1\]"),
        ("decoder_channels", (32, 16, -2), r"decoder_channels\[2\]"),
    ])
    def test_sizes_below_one_rejected(self, field, value, named):
        with pytest.raises(ContractError, match=named):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("grid", [{"G": 5, "K": 3}, None, (5, 3)])
    def test_grid_must_be_a_kan_grid(self, grid):
        with pytest.raises(ContractError, match="grid"):
            ModelConfig(grid=grid)

    @pytest.mark.parametrize("mutate,named", [
        (lambda c: {}, r"missing: \[.*'grid'"),
        (lambda c: {**c, "grid": [1]}, "'grid'.*mapping"),
        (lambda c: {**c, "cnn_channels": None}, "'cnn_channels'.*not iterable"),
        (lambda c: {**c, "grid": {**c["grid"], "H": 1}}, "'grid'.*'H'"),
        (lambda c: {k: v for k, v in c.items() if k != "depth"}, r"missing: \['depth'\]"),
        (lambda c: {**c, "colour": 1}, r"unknown: \['colour'\]"),
        (lambda c: [1], "must be a dict"),
    ], ids=["empty", "grid_list", "cnn_channels_none", "grid_unknown_key", "depth_missing",
            "unknown_field", "list"])
    def test_from_dict_names_a_bad_field(self, mutate, named):
        with pytest.raises(ContractError, match=named):
            ModelConfig.from_dict(mutate(ModelConfig().to_dict()))

    def test_dict_round_trip(self):
        cfg = ModelConfig(grid=KanGrid(G=4, K=1, range_lo=-2.0, range_hi=2.0))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
