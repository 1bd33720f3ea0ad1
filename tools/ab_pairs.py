"""A/B timing of two source trees with perfbench, in alternating pairs.

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE [--json PATH]

For each workload that the parent tree's ``BENCHMARK.json`` declares, each
pair runs ``perfbench/run.py --workload W`` once in each tree, at perfbench's
default seed and duration, the parent first in even pairs and the change first
in odd ones. The unused environment variable ``AB_PAD`` gets a new length in
every pair, since the process layout alone can move perfbench timings by ~25%.
Prints one TSV row per run with every metric the run reports, plus
``minflt``: the minor page faults of the run's process, from
``getrusage(RUSAGE_CHILDREN)``, which show when a change moves how the
allocator hands memory back to the system and takes it again, and
``minflt_per_op``: ``minflt`` divided by the ``attempted`` count of the run's
result line. Runs of equal length attempt different numbers of operations, so
only the second compares across runs. Then come per workload the median of
each side and their ratio, change / parent, for every column, the two fault
columns included; they get no verdict row. Last comes
one verdict row per workload and end-to-end metric: the pairs the change won,
in the direction ``better`` gives (ties count for neither side), the parent's
quartiles, the gap between the medians and a mark. The mark reads

- ``gain`` when the change won at least 9 in 10 pairs and the gap exceeds the
  parent's interquartile range, so that the change's median lies outside it;
- ``worse`` when the change's median is worse than the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``, taken as a share of the
  parent's median;
- ``unresolved`` when the parent's interquartile range is wider than that
  bound, so that no regression within it could show, unless every run of the
  change reads better than every run of the parent.

With ``--json PATH`` it also writes, per workload, each side's median and
quartiles of every end-to-end metric and the verdict rows to one JSON file:
``{"pairs": N, "workloads": {W: {"parent": {metric: {"median", "q1", "q3"}},
"change": {...}, "verdicts": [{"metric", "better", "wins", "pairs",
"parent_q1", "parent_q3", "gap", "mark"}]}}}``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on


def run(tree, workload, pad):
    env = dict(os.environ, AB_PAD="x" * pad)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload],
                         cwd=tree, env=env, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    result = json.loads(out.stdout.strip().splitlines()[-1])
    attempted = result["attempted"]
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            "minflt": faults,
            "minflt_per_op": faults / attempted if attempted else float("nan")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the medians, quartiles and verdicts here")
    args = parser.parse_args()
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    names = None
    summary = {}
    for workload in workloads:
        rows = {"parent": [], "change": []}
        for pair in range(PAIRS):
            pad = pair * 23 % 64
            for side in ("parent", "change")[::-1 if pair % 2 else 1]:
                metrics = run(getattr(args, side), workload, pad)
                if names is None:
                    names = list(metrics)
                    print("\t".join(["workload", "pair", "side", "pad"] + names))
                rows[side].append([metrics[n] for n in names])
                print("\t".join([workload, str(pair), side, str(pad)]
                                + [f"{v:.6g}" for v in rows[side][-1]]), flush=True)
        medians = {side: [statistics.median(c) for c in zip(*r)] for side, r in rows.items()}
        for side, med in medians.items():
            print("\t".join([workload, "median", side, ""] + [f"{v:.6g}" for v in med]))
        ratio = [c / p if p else float("nan") for p, c in zip(*medians.values())]
        print("\t".join([workload, "median", "change/parent", ""] + [f"{r:.4f}" for r in ratio]))
        print("\t".join(["workload", "verdict", "metric", "better", "wins", "pairs",
                         "parent_q1", "parent_q3", "gap", "mark"]))
        judged = {"parent": {}, "change": {}, "verdicts": []}
        for k, name in enumerate(names):
            if name in end_to_end:
                judged["verdicts"].append(judge(end_to_end[name], rows, k))
                print("\t".join([workload, "verdict"] + fields(judged["verdicts"][-1])),
                      flush=True)
                for side in ("parent", "change"):
                    judged[side][name] = spread([r[k] for r in rows[side]])
        summary[workload] = judged
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"pairs": PAIRS, "workloads": summary}, f, indent=1)
            f.write("\n")


def spread(values):
    """The median and quartiles of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def judge(metric, rows, k):
    """The verdict on ``metric``, an ``end_to_end`` entry of ``BENCHMARK.json``,
    from column ``k`` of each side's ``rows``: the pairs the change won, the
    parent's quartiles, the gap between the medians (the change's better by
    that much when positive) and the mark."""
    parent = [r[k] for r in rows["parent"]]
    change = [r[k] for r in rows["change"]]
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    median = statistics.median(parent)
    gap = sign * (median - statistics.median(change)) + 0.0  # no -0
    bound = metric["bound"] * abs(median)
    if wins >= 0.9 * len(parent) and gap > q3 - q1:
        mark = "gain"
    elif -gap > bound:
        mark = "worse"
    elif q3 - q1 > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        mark = "unresolved"
    else:
        mark = ""
    return {"metric": metric["name"], "better": metric["better"], "wins": wins,
            "pairs": len(parent), "parent_q1": q1, "parent_q3": q3, "gap": gap, "mark": mark}


def fields(v):
    """The TSV fields of ``v``, a verdict of :func:`judge`."""
    return [v["metric"], v["better"], str(v["wins"]), str(v["pairs"]), f"{v['parent_q1']:.6g}",
            f"{v['parent_q3']:.6g}", f"{v['gap']:.6g}", v["mark"]]


def verdict(metric, rows, k):
    """:func:`judge`'s verdict on column ``k`` as the fields of its TSV row."""
    return fields(judge(metric, rows, k))


if __name__ == "__main__":
    main()
