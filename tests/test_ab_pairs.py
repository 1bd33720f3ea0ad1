"""The verdict rule of ``tools/ab_pairs.py``, on made-up runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [170.0, 172.0, 174.0, 176.0, 178.0, 180.0, 182.0, 184.0, 186.0, 188.0]


def _verdict(change, better="lower", parent=PARENT, bound=0.25):
    rows = {"parent": [[v] for v in parent], "change": [[v] for v in change]}
    metric = {"name": "step_ms_p50", "better": better, "bound": bound}
    return ab_pairs.verdict(metric, rows, 0)


def test_gain_needs_nine_wins_and_a_gap_beyond_the_parent_iqr():
    # Parent quartiles 174.5 and 183.5; the change's median is 10 ms lower.
    change = [v - 12.0 for v in PARENT]
    change[0] = 171.0  # one lost pair: 9 of 10 won
    row = _verdict(change)
    assert row == ["step_ms_p50", "lower", "9", "10", "174.5", "183.5", "10", "gain"]


@pytest.mark.parametrize("change, wins", [
    ([v - 5.0 for v in PARENT], "10"),  # every pair won, gap 5 within the IQR of 9
    ([v - 10.0 for v in PARENT[:8]] + PARENT[8:], "8"),  # two ties count for neither
])
def test_no_gain(change, wins):
    row = _verdict(change)
    assert row[2] == wins and row[-1] == ""


def test_higher_is_better_counts_the_other_way():
    row = _verdict([v + 20.0 for v in PARENT], better="higher")
    assert row[2] == "10" and row[-1] == "gain"
    assert _verdict([v + 20.0 for v in PARENT])[2] == "0"


@pytest.mark.parametrize("better, shift, mark", [
    ("lower", 50.0, "worse"),  # the median loses 50 ms against a bound of 44.75
    ("lower", 40.0, ""),  # within the bound
    ("higher", -50.0, "worse"),
], ids=["lower_beyond_bound", "lower_within_bound", "higher_beyond_bound"])
def test_worse_when_the_median_loses_more_than_the_bound(better, shift, mark):
    # Parent median 179; a bound of 0.25 allows 44.75 either way.
    assert _verdict([v + shift for v in PARENT], better=better)[-1] == mark


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # A bound of 0.02 allows 3.58 ms, less than the parent's IQR of 9.
    assert _verdict(PARENT, bound=0.02)[-1] == "unresolved"
    # Unless every change run beats every parent run: median 105, IQR 27.5,
    # and a gap of 6 that is no gain.
    parent = [100.0] * 5 + [110.0, 120.0, 130.0, 140.0, 150.0]
    row = _verdict([99.0] * 10, parent=parent, bound=0.02)
    assert row[2] == "10" and row[-1] == ""
    assert _verdict([101.0] * 10, parent=parent, bound=0.02)[-1] == "unresolved"


def _stand_in(tree, body="", attempted=4):
    """A stand-in ``perfbench/run.py`` in ``tree`` that runs ``body``, then
    prints a result line of one metric and ``attempted`` operations."""
    script = tree / "perfbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(
        "import json\n" + body
        + "print(json.dumps({'attempted': %d, 'metrics': "
          "{'step_ms_p50': {'value': 1.5, 'unit': 'ms'}}}))\n" % attempted)


def test_each_run_reports_the_minor_page_faults_of_its_process(tmp_path):
    # A stand-in benchmark that writes to each page of 8 MiB it allocates.
    _stand_in(tmp_path, "buf = bytearray(8 << 20)\n"
                        "for i in range(0, len(buf), 4096):\n"
                        "    buf[i] = 1\n")
    row = ab_pairs.run(str(tmp_path), "train-64-b4", 0)
    assert list(row) == ["step_ms_p50", "minflt", "minflt_per_op"]
    assert row["step_ms_p50"] == 1.5
    assert row["minflt"] >= (8 << 20) // 4096
    assert row["minflt_per_op"] == row["minflt"] / 4


def test_fault_columns_show_in_rows_and_medians_with_no_verdict(tmp_path, monkeypatch,
                                                                capsys):
    for side, attempted in (("parent", 4), ("change", 8)):
        _stand_in(tmp_path / side, attempted=attempted)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "step_ms_p50", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(ab_pairs, "PAIRS", 2)
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", str(tmp_path / "parent"),
                                      str(tmp_path / "change")])
    ab_pairs.main()
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert lines[0][-2:] == ["minflt", "minflt_per_op"]
    runs = [r for r in lines[1:] if r[1] in ("0", "1")]
    assert len(runs) == 4 and all(len(r) == len(lines[0]) for r in runs)
    for r in runs:
        assert float(r[-1]) == float(r[-2]) / (4 if r[2] == "parent" else 8)
    medians = [r for r in lines if r[1] == "median"]
    assert [r[2] for r in medians] == ["parent", "change", "change/parent"]
    assert all(len(r) == len(lines[0]) for r in medians)
    verdicts = [r[2] for r in lines if r[:2] == ["w", "verdict"]]
    assert verdicts == ["step_ms_p50"]


def test_json_holds_each_side_s_spread_and_the_verdicts(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "step_ms_p50", "better": "lower", "bound": 0.25},
                       {"name": "peak_mb", "better": "lower", "bound": 0.1}]}))
    steps = {str(parent): iter(PARENT), str(change): iter(v - 12.0 for v in PARENT)}

    def made_up(tree, workload, pad):
        assert workload == "w"
        return {"step_ms_p50": next(steps[tree]),
                "peak_mb": 23.38 if tree == str(parent) else 21.26,
                "minflt": 7, "minflt_per_op": 1.75}

    out = tmp_path / "bench.json"
    monkeypatch.setattr(ab_pairs, "run", made_up)
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", str(parent), str(change),
                                      "--json", str(out)])
    ab_pairs.main()
    printed = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    saved = json.loads(out.read_text())
    assert saved["pairs"] == 10 and list(saved["workloads"]) == ["w"]
    w = saved["workloads"]["w"]
    # Only end-to-end metrics: the fault columns get no spread.
    assert w["parent"] == {"step_ms_p50": {"median": 179.0, "q1": 174.5, "q3": 183.5},
                           "peak_mb": {"median": 23.38, "q1": 23.38, "q3": 23.38}}
    assert w["change"]["step_ms_p50"] == {"median": 167.0, "q1": 162.5, "q3": 171.5}
    assert w["change"]["peak_mb"]["median"] == 21.26
    assert [(v["metric"], v["wins"], v["mark"]) for v in w["verdicts"]] == [
        ("step_ms_p50", 10, "gain"), ("peak_mb", 10, "gain")]
    # The JSON verdicts are the printed verdict rows.
    rows = [r[2:] for r in printed if r[:2] == ["w", "verdict"]]
    assert rows == [ab_pairs.fields(v) for v in w["verdicts"]]
    assert rows[0][2:] == ["10", "10", "174.5", "183.5", "12", "gain"]
