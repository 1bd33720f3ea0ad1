"""Whether two source trees compute one training step to the same bits.

    python3 tools/same_bits.py PARENT_TREE CHANGE_TREE [--config JSON] [--batch B] [--seed S]

Runs the training step of ``tools/peak_timeline.py`` with the package under
each tree's ``src``, each in a process of its own: ``TransUKanModel`` at
``ModelConfig()`` with the fields of ``--config`` (a JSON object, e.g.
``'{"image_size": 128}'``) put over it, its ``pixel_loss`` on a random batch,
and ``T.backward``. Prints one TSV row per tensor, the logits first and then
each parameter's gradient in ``model.parameters()`` order: its name and the
largest |difference| between the trees relative to the parent's largest
|value|. The last line reads ``identical`` when every tensor has the same
bytes in both trees; otherwise it gives the count of tensors that differ, and
the exit status is 1.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
# A child process imports the tree's package before peak_timeline, whose own
# import of this checkout's package then finds it already loaded.
_CHILD = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_bits; "
          f"same_bits.save_step(*sys.argv[1:])")


def save_step(tree: str, config: str, batch: str, seed: str, out: str) -> None:
    """Save to ``out`` (.npz) the logits and parameter gradients of one
    training step of the package under ``tree``."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from transukan import tensor as T
    from transukan.network import ModelConfig, TransUKanModel
    from peak_timeline import pixel_loss

    cfg = ModelConfig.from_dict({**ModelConfig().to_dict(), **json.loads(config)})
    model = TransUKanModel(cfg, rng=np.random.default_rng(int(seed)))
    loss = pixel_loss(model, int(batch), int(seed) + 1)
    # The logits are what the loss's log_softmax reads.
    logits = next(n for n in T.Tape(loss).nodes if n.op == "log_softmax")._parents[0]
    T.backward(loss)
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
