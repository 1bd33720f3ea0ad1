"""Whether two source trees compute one training step to the same bits.

    python3 tools/same_bits.py PARENT_TREE CHANGE_TREE [--config JSON] [--batch B] [--seed S]

Runs one ``transukan.train.step`` (forward, ``train.pixel_loss`` and
``T.backward``) with the package under each tree's ``src``, each in a process
of its own: ``TransUKanModel`` at ``ModelConfig()`` with the fields of
``--config`` (a JSON object, e.g. ``'{"image_size": 128}'``) put over it, on
the random batch of ``tools/peak_timeline.py``. Both trees run this
checkout's ``train.py``, loaded from its file path as ``transukan.train`` over
the tree's own ``tensor`` and ``network``, so trees that have no ``train.py``
compare too, and both run the same loss and step.

Prints one TSV row per tensor, the logits first and then each parameter's
gradient in ``model.parameters()`` order: its name and the largest
|difference| between the trees relative to the parent's largest |value|. The
last line reads ``identical`` when every tensor has the same bytes in both
trees; otherwise it gives the count of tensors that differ, and the exit
status is 1.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
TRAIN = TOOLS.parent / "src" / "transukan" / "train.py"
# A child process imports the tree's package and this checkout's train.py
# before peak_timeline, whose own imports of them then find them loaded.
_CHILD = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_bits; "
          f"same_bits.save_step(*sys.argv[1:])")


def save_step(tree: str, config: str, batch: str, seed: str, out: str) -> None:
    """Save to ``out`` (.npz) the logits and parameter gradients of one
    training step of the package under ``tree``."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    import transukan
    from transukan.network import ModelConfig, TransUKanModel
    spec = importlib.util.spec_from_file_location("transukan.train", TRAIN)
    train = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = transukan.train = train
    spec.loader.exec_module(train)
    from peak_timeline import random_batch

    cfg = ModelConfig.from_dict({**ModelConfig().to_dict(), **json.loads(config)})
    model = TransUKanModel(cfg, rng=np.random.default_rng(int(seed)))
    _, logits = train.step(model, *random_batch(model, int(batch), int(seed) + 1))
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad
             for name, p in model.parameters()}
    np.savez(out, logits=logits.data, **grads)


def relative_difference(parent: np.ndarray, change: np.ndarray) -> float:
    """max |change - parent| / max |parent|; inf if only the parent is all 0."""
    diff = float(np.max(np.abs(change - parent), initial=0.0))
    scale = float(np.max(np.abs(parent), initial=0.0))
    return diff / scale if scale else (0.0 if diff == 0.0 else float("inf"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--config", default="{}", help="ModelConfig fields as a JSON object")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate((args.parent, args.change)):
            out = os.path.join(tmp, f"{i}.npz")
            subprocess.run([sys.executable, "-c", _CHILD, tree, args.config, str(args.batch),
                            str(args.seed), out], check=True)
            with np.load(out) as saved:
                runs.append({name: saved[name] for name in saved.files})
    parent, change = runs
    differ = 0
    print("tensor\trelative_difference")
    for name in [*parent, *(n for n in change if n not in parent)]:
        a, b = parent.get(name), change.get(name)
        if a is None or b is None or a.shape != b.shape:
            shapes = [None if t is None else t.shape for t in (a, b)]
            print(f"{name}\tshapes {shapes[0]} and {shapes[1]}")
            differ += 1
            continue
        print(f"{name}\t{relative_difference(a, b):.3g}")
        differ += a.tobytes() != b.tobytes()
    print("identical" if not differ else f"{differ} of {len(parent)} tensors differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
