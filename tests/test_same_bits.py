"""``tools/same_bits.py`` on a tiny model, run as a user runs it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = {"image_size": 16, "d_model": 8, "depth": 1, "n_heads": 2,
        "decoder_channels": [8, 8, 8]}


def _same_bits(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_bits.py"), str(parent), str(change),
         "--config", json.dumps(TINY), "--batch", "2"],
        capture_output=True, text=True)


def _rows(out):
    header, *rows, last = out.stdout.splitlines()
    assert header == "tensor\trelative_difference"
    return [row.split("\t") for row in rows], last


def test_a_tree_against_itself_is_identical():
    out = _same_bits(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    rows, last = _rows(out)
    assert last == "identical"
    # The logits, then the 35 parameter gradients of the tiny model.
    assert [name for name, _ in rows][:2] == ["logits", "cnn.stage0.conv_a.weight"]
    assert len(rows) == 36 and all(float(rel) == 0.0 for _, rel in rows)


def test_a_changed_epsilon_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "transukan", tmp_path / "src" / "transukan",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tensor = tmp_path / "src" / "transukan" / "tensor.py"
    text = tensor.read_text()
    assert "_LAYER_NORM_EPS = 1e-5" in text
    tensor.write_text(text.replace("_LAYER_NORM_EPS = 1e-5", "_LAYER_NORM_EPS = 2e-5"))
    out = _same_bits(ROOT, tmp_path)
    assert out.returncode == 1, out.stderr
    rows, last = _rows(out)
    rel = dict(rows)
    assert 0.0 < float(rel["logits"]) < 1e-3
    assert last.endswith("of 36 tensors differ")


def test_a_tree_without_train_py_runs_this_checkouts_step(tmp_path):
    # A parent tree from before the package had a loss and a step: both
    # trees run this checkout's train.py over their own tensor and network.
    shutil.copytree(ROOT / "src" / "transukan", tmp_path / "src" / "transukan",
                    ignore=shutil.ignore_patterns("__pycache__", "train.py"))
    assert not (tmp_path / "src" / "transukan" / "train.py").exists()
    out = _same_bits(tmp_path, ROOT)
    assert out.returncode == 0, out.stderr
    rows, last = _rows(out)
    assert last == "identical" and len(rows) == 36
