"""``tools/peak_timeline.py`` on a tiny model, run as a user runs it."""

import functools
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = {"image_size": 16, "d_model": 8, "depth": 1, "n_heads": 2,
        "decoder_channels": [8, 8, 8]}
# Small too, but with the default decoder, so that its batch-2 step peaks in
# the backward, in the decoder.block2 adjoint (by ~50 kB over the next one).
SMALL = {"image_size": 32, "d_model": 16, "depth": 1, "n_heads": 2}


@functools.cache
def _rows(*args, config=json.dumps(TINY)):
    """The TSV lines of ``tools/peak_timeline.py`` on ``config``, ``TINY`` by
    default, at batch 2."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_timeline.py"),
         "--config", config, "--batch", "2", *args],
        capture_output=True, text=True, check=True)
    return tuple(line.split("\t") for line in out.stdout.splitlines())


def test_each_adjoint_peaks_within_the_step_peak():
    header, *rows, (step, _, forward_held, step_peak) = _rows()
    assert header == ["op", "scope", "held_bytes", "peak_bytes"]
    assert step == "(step)" and 0 < int(forward_held) <= int(step_peak)
    # The backward runs the forward's first op last.
    assert rows[-1][:2] == ["conv2d", "cnn.stage0.conv_a"]
    assert all(0 < int(held) <= int(peak) for _, _, held, peak in rows)
    assert max(int(peak) for *_, peak in rows) <= int(step_peak)


def test_time_prints_a_median_per_adjoint_in_backward_order():
    header, *rows = _rows("--time", "1")
    assert header == ["op", "scope", "median_ms"]
    traced = [row[:2] for row in _rows()[1:-1]]
    assert [row[:2] for row in rows] == traced
    assert all(float(ms) > 0 for *_, ms in rows)


def test_forward_time_prints_a_median_per_op_in_forward_order():
    header, *rows = _rows("--forward", "--time", "2")
    assert header == ["op", "scope", "median_ms"]
    assert [row[:2] for row in rows] == [row[:2] for row in _rows("--forward")[1:]]
    assert all(float(ms) > 0 for *_, ms in rows)


def test_forward_prints_each_op_in_forward_order():
    header, *rows = _rows("--forward")
    assert header == ["op", "scope", "held_bytes", "peak_bytes"]
    assert rows[0][:2] == ["conv2d", "cnn.stage0.conv_a"]
    adjoints = [row[:2] for row in _rows()[1:-1]]
    assert [row[:2] for row in rows] == adjoints[::-1]
    assert all(0 <= int(held) <= int(peak) for _, _, held, peak in rows)
    # The forward sets TINY's step peak, so the two runs meet at it; the
    # tool's rows take ~35 bytes per op from the interpreter's free lists,
    # and two processes differ by tens of bytes, hence 2 kB of slack.
    assert max(int(peak) for *_, peak in rows) <= int(_rows()[-1][3]) + 2048


def test_forward_infer_prints_the_model_ops_of_a_no_grad_forward():
    header, *rows = _rows("--forward", "--infer")
    assert header == ["op", "scope", "held_bytes", "peak_bytes"]
    # The training forward's ops, less the loss that follows decoder.head.
    forward = [row[:2] for row in _rows("--forward")[1:]]
    assert [row[:2] for row in rows] == forward[:len(rows)]
    assert rows[-1][:2] == ["conv2d", "decoder.head"]
    assert all(0 <= int(held) <= int(peak) for _, _, held, peak in rows)
    # No graph keeps the op outputs, so the inference forward holds less and
    # peaks no higher than the training one.
    held = {tuple(row[:2]): int(row[2]) for row in _rows("--forward")[1:]}
    assert int(rows[-1][2]) < held[("conv2d", "decoder.head")]
    assert (max(int(peak) for *_, peak in rows)
            <= max(int(row[3]) for row in _rows("--forward")[1:]))


def test_held_lists_the_outputs_alive_at_the_peak_adjoint():
    header, *alive, (held, scope, held_bytes) = _rows("--held", config=json.dumps(SMALL))
    assert header == ["op", "scope", "bytes"]
    assert (held, scope) == ("(held)", "decoder.block2")
    _, *timeline, _ = _rows(config=json.dumps(SMALL))
    peak_row = max(timeline, key=lambda row: int(row[3]))
    assert peak_row[:2] == ["upsample_concat_conv2d", "decoder.block2"]
    sizes = [int(n) for *_, n in alive]
    assert sizes == sorted(sizes, reverse=True) and all(n > 0 for n in sizes)
    assert sum(sizes) <= int(held_bytes)
    # Both inputs of decoder.block2 wait for its adjoint: the decoder.block1
    # output it upsamples and the skip from the CNN's first stage.
    listed = [row[:2] for row in alive]
    assert ["upsample_concat_conv2d", "decoder.block1"] in listed
    assert ["conv2d", "cnn.stage0.conv_b"] in listed


def test_default_train_step_peaks_below_the_fused_encoder_bound():
    """One batch-4 training step at ``ModelConfig()`` peaks at ~8.84 MB, in
    the ``decoder.block2`` adjoint, now that the model is float32 and each
    block's LayerNorms run inside its KAN nodes: the same step of the float64
    model peaked at ~18.64 MB, and at ~9.37 MB in float32 with the eight
    normalised copies kept. Both conv forwards run on the backward's slices
    of the batch and Q, K and V are one affine output, so the forward, which
    set the float64 peak at ~20.08 MB with whole-batch scratch, peaks at ~7.97 MB."""
    spec = importlib.util.spec_from_file_location(
        "peak_timeline", ROOT / "tools" / "peak_timeline.py")
    peak_timeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(peak_timeline)
    rows, _, peak = peak_timeline.step_timeline(peak_timeline.ModelConfig(), 4, 0)
    assert peak <= 8.9e6
    block2, = [during for op, scope, _, during in rows
               if (op, scope) == ("upsample_concat_conv2d", "decoder.block2")]
    assert block2 == peak  # the decoder.block2 adjoint sets the peak
