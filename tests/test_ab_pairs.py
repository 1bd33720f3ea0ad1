"""The verdict rule of ``tools/ab_pairs.py``, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [170.0, 172.0, 174.0, 176.0, 178.0, 180.0, 182.0, 184.0, 186.0, 188.0]


def _verdict(change, better="lower", parent=PARENT):
    rows = {"parent": [[v] for v in parent], "change": [[v] for v in change]}
    return ab_pairs.verdict("step_ms_p50", better, rows, 0)


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


def test_each_run_reports_the_minor_page_faults_of_its_process(tmp_path):
    # A stand-in benchmark that writes to each page of 8 MiB it allocates.
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        "import json\n"
        "buf = bytearray(8 << 20)\n"
        "for i in range(0, len(buf), 4096):\n"
        "    buf[i] = 1\n"
        "print(json.dumps({'metrics': {'step_ms_p50': {'value': 1.5, 'unit': 'ms'}}}))\n")
    row = ab_pairs.run(str(tmp_path), "train-64-b4", 0)
    assert list(row) == ["step_ms_p50", "minflt"]
    assert row["step_ms_p50"] == 1.5
    assert row["minflt"] >= (8 << 20) // 4096
