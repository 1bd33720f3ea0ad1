"""``tools/peak_timeline.py`` on a tiny model, run as a user runs it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = {"image_size": 16, "d_model": 8, "depth": 1, "n_heads": 2,
        "decoder_channels": [8, 8, 8]}


def test_each_adjoint_peaks_within_the_step_peak():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_timeline.py"),
         "--config", json.dumps(TINY), "--batch", "2"],
        capture_output=True, text=True, check=True)
    header, *rows, (step, _, forward_held, step_peak) = (
        line.split("\t") for line in out.stdout.splitlines())
    assert header == ["op", "scope", "held_bytes", "peak_bytes"]
    assert step == "(step)" and 0 < int(forward_held) <= int(step_peak)
    # The backward runs the forward's first op last.
    assert rows[-1][:2] == ["conv2d", "cnn.stage0.conv_a"]
    assert all(0 < int(held) <= int(peak) for _, _, held, peak in rows)
    assert max(int(peak) for *_, peak in rows) <= int(step_peak)


def test_default_train_step_peaks_below_the_fused_encoder_bound():
    """One batch-4 training step at ``ModelConfig()`` peaks at ~21.15 MB now
    that each encoder block keeps neither its residual sums' inputs nor the
    activations of kan1 and kan2; keeping them, it peaked at ~23.27 MB."""
    spec = importlib.util.spec_from_file_location(
        "peak_timeline", ROOT / "tools" / "peak_timeline.py")
    peak_timeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(peak_timeline)
    _, _, peak = peak_timeline.step_timeline(peak_timeline.ModelConfig(), 4, 0)
    assert peak <= 21.5e6
