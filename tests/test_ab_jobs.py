"""The claim rule of scripts_calib/ab_jobs.py on fixed numbers: the change
must be lower in at least nine tenths of the pairs, ties counting for
neither, and its median must be below the parent's by more than the
parent's interquartile range. Also the columns a process reports (time,
peak RSS, system seconds) and the summary built on them."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts_calib" / "ab_jobs.py"
_SPEC = importlib.util.spec_from_file_location("ab_jobs", _PATH)
ab_jobs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_jobs)

PARENT = [100.0 + i for i in range(10)]  # quartiles 102.25 / 104.5 / 106.75


@pytest.mark.parametrize("values", [[3.0, 1.0, 4.0, 1.5], PARENT,
                                    [7.0, 2.0, 9.0]])
def test_quartiles_match_numpy_percentile(values):
    assert ab_jobs.quartiles(values) == pytest.approx(
        tuple(np.percentile(values, [25, 50, 75])), rel=1e-12)


def test_one_run_is_its_own_quartiles():
    assert ab_jobs.quartiles([5.0]) == (5.0, 5.0, 5.0)


@pytest.mark.parametrize("change,expected", [
    # lower in every pair, gap 10 against an IQR of 4.5
    ([x - 10 for x in PARENT], (True, 10, 10.0, 4.5)),
    # lower in 9 of 10 pairs: the least that claims
    ([x - 10 for x in PARENT[:9]] + [200.0], (True, 9, 10.0, 4.5)),
    # lower in 8 of 10 pairs
    ([x - 10 for x in PARENT[:8]] + [200.0] * 2, (False, 8, 10.0, 4.5)),
    # lower in 8 and tied in 2: a tie counts for neither
    ([x - 10 for x in PARENT[:8]] + PARENT[8:], (False, 8, 10.0, 4.5)),
    # lower in every pair, but by less than the parent's spread
    ([x - 1 for x in PARENT], (False, 10, 1.0, 4.5)),
    # higher in every pair
    ([x + 10 for x in PARENT], (False, 0, -10.0, 4.5)),
])
def test_claim_rule(change, expected):
    ok, wins, gap, iqr = ab_jobs.claim(PARENT, change)
    assert (ok, wins) == expected[:2]
    assert (gap, iqr) == pytest.approx(expected[2:])


def test_child_reports_three_columns(monkeypatch, capsys):
    # a job that does nothing: the columns, not the job, are under test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(ab_jobs, "make_job", lambda job, seed: lambda: None)
    ab_jobs.child(str(_PATH.parents[1] / "src"), "distill", 1)
    ms, rss, sys_s = capsys.readouterr().out.split()
    assert float(ms) >= 0 and float(rss) > 0 and float(sys_s) >= 0


def test_time_tree_reads_the_system_seconds(monkeypatch):
    monkeypatch.setattr(ab_jobs, "run_fresh",
                        lambda argv: "12.345 80.5 0.250\n")
    assert ab_jobs.time_tree("src", "distill", 1) == (12.345, 80.5, 0.25)


def test_summary_gives_system_time_quartiles_and_verdict():
    # time and peak RSS equal; system seconds lower in every pair
    runs = {"A": [(100.0, 80.0, x / 10) for x in PARENT],
            "B": [(100.0, 80.0, (x - 10) / 10) for x in PARENT]}
    lines = ab_jobs.summary(runs)
    assert len(lines) == 2 * len(ab_jobs.QUANTITIES)
    assert lines[2] == ("system time: A 10.225 / 10.450 / 10.675 s, B 9.225 "
                        "/ 9.450 / 9.675 s (quartiles; median -9.6 %)")
    assert lines[5] == ("verdict system time: B lower in 10 of 10 pairs, "
                        "median gap 1.000 s against A's IQR 0.450 s: "
                        "claimable")
    assert lines[3].endswith("B lower in 0 of 10 pairs, median gap 0.0 ms "
                             "against A's IQR 0.0 ms: not claimable")
