"""``benchmarks/trend.py``: the gate over the ``BENCH_<n>.json`` history can fail.

Synthetic and fast: a scratch root holds the script, ``BENCHMARK.json`` and a
copy of one committed report as its only history; a candidate is that report
with one number changed; the script runs as a subprocess, as CI runs it.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((REPO / "BENCH_17.json").read_text(encoding="utf-8"))


def report_of(workload: str) -> dict:
    (report,) = [copy.deepcopy(item) for item in COMMITTED if item["workload"] == workload]
    return report


def scaled(workload: str, row: str, factor: float) -> dict:
    """The committed report of ``workload`` with one row multiplied by ``factor``."""
    report = report_of(workload)
    if row in report["end_to_end"]:
        report["end_to_end"][row]["median"] *= factor
    else:
        report["per_layer"][row] *= factor
    return report


@pytest.fixture()
def root(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(REPO / "benchmarks" / "trend.py", tmp_path / "benchmarks")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copy(REPO / "BENCH_17.json", tmp_path)
    return tmp_path


def run_trend(root: Path, *reports: dict) -> tuple[int, str]:
    paths = []
    for position, report in enumerate(reports):
        paths.append(root / f"part-{position}.json")
        paths[-1].write_text(json.dumps([report]), encoding="utf-8")
    finished = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "trend.py"), *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return finished.returncode, finished.stdout + finished.stderr


@pytest.mark.parametrize(
    ("row", "factor", "code", "named"),
    [
        ("records_per_s", 1.0, 0, ()),
        ("serialization.encode_self_ms", 2.0, 1, ("FAIL campaign_serial serialization.encode_self_ms",)),
        ("records_per_s", 0.70, 1, ("FAIL campaign_serial records_per_s", "bound 25 %")),
        ("records_per_s", 0.80, 0, ()),
        ("peak_rss_mb", 1.16, 1, ("FAIL campaign_serial peak_rss_mb", "bound 15 %")),
        ("peak_rss_mb", 1.14, 0, ()),
        # Rows under 10 ms and single-sample rows move this much on unchanged code.
        ("classification.self_ms", 3.0, 0, ()),
        ("workloads.client_self_ms", 2.7, 0, ()),
        ("report.tables_ms", 2.0, 0, ()),
    ],
)
def test_gate_fires_on_the_declared_bounds_and_only_there(root, row, factor, code, named):
    status, output = run_trend(root, scaled("campaign_serial", row, factor))
    assert status == code, output
    for text in named:
        assert text in output
    assert ("FAIL" in output) == bool(code)


def test_reports_of_one_workload_read_as_one(root):
    """Layer rows as the best of the reports (a collector pause only ever adds
    to a span), end-to-end metrics as the median of their medians."""
    same = report_of("campaign_serial")
    paused = scaled("campaign_serial", "serialization.encode_self_ms", 2.0)
    slow = scaled("campaign_serial", "records_per_s", 0.5)
    assert run_trend(root, paused, same, paused)[0] == 0
    status, output = run_trend(root, paused, paused, paused)
    assert status == 1 and "FAIL campaign_serial serialization.encode_self_ms" in output, output
    assert run_trend(root, slow, same, same)[0] == 0
    status, output = run_trend(root, slow, same, slow)
    assert status == 1 and "FAIL campaign_serial records_per_s" in output, output


def test_all_four_workloads_pass_against_themselves(root):
    status, output = run_trend(root, *COMMITTED)
    assert status == 0, output
    assert output.count("against BENCH_17.json") == 4


def test_changed_digest_fails(root):
    report = report_of("store_io")
    report["results_digest"] = "0" * 64
    status, output = run_trend(root, report)
    assert status == 1, output
    assert "FAIL store_io results_digest" in output


def test_reports_that_cannot_be_compared_exit_2(root):
    quick = report_of("campaign_serial")
    quick["quick"] = True
    other_seed = report_of("campaign_serial")
    other_seed["seed"] = 11
    undeclared = report_of("campaign_serial")
    undeclared["workload"] = "campaign_gpu"
    for report in (quick, other_seed, undeclared):
        status, output = run_trend(root, report)
        assert status == 2, output
        assert "FAIL" not in output
    # A workload the reference lacks.
    (root / "BENCH_17.json").write_text(
        json.dumps([item for item in COMMITTED if item["workload"] != "store_io"]), encoding="utf-8"
    )
    status, output = run_trend(root, report_of("store_io"))
    assert status == 2 and "no store_io report" in output, output
    # No reference at all: neither the gate nor the rendering has anything to say.
    (root / "BENCH_17.json").unlink()
    assert run_trend(root, report_of("campaign_serial"))[0] == 2
    assert run_trend(root)[0] == 2


def test_reference_is_the_highest_number_not_the_last_name(root):
    older = copy.deepcopy(COMMITTED)
    for report in older:
        report["results_digest"] = "9" * 64
    (root / "BENCH_9.json").write_text(json.dumps(older), encoding="utf-8")
    status, output = run_trend(root, report_of("campaign_pool"))
    assert status == 0 and "against BENCH_17.json" in output, output
    status, output = run_trend(root)
    assert status == 0 and "history: BENCH_9.json BENCH_17.json; reference: BENCH_17.json" in output, output


def test_committed_history_renders():
    status, output = run_trend(REPO)
    assert status == 0, output
    numbers = [int(match.group(1)) for match in map(re.compile(r"BENCH_(\d+)\.json").fullmatch, os.listdir(REPO)) if match]
    assert f"reference: BENCH_{max(numbers)}.json" in output
    section = output[output.index("\nservice_e2e") :].splitlines()[1:]
    columns = section[0].split()[1:]
    (row,) = [line.split() for line in section if line.startswith("  records_per_s ")]
    values = dict(zip(columns, map(float, row[2:])))
    # PR 17 doubled the service path; the rendering must show it.
    assert values["BENCH_17"] > 2 * values["BENCH_15"]
