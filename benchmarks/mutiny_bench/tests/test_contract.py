"""``BENCHMARK.json`` against the catalogue, and the command against both."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys

import pytest

from .. import __main__ as command
from ..catalog import END_TO_END, PER_LAYER, WORKLOAD_NAMES, benchmark_document
from ..harness import OUTPUT_DIR, REPO_ROOT, run_workload
from ..store_workload import StoreIO

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue_and_inside_the_contract_limits():
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == benchmark_document()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [row["name"] for row in document["workloads"]] == list(WORKLOAD_NAMES)
    assert 2 <= len(document["workloads"]) <= 8 and len(document["end_to_end"]) <= 16 and len(document["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in document[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"] for row in document["workloads"])
    assert all(UNIT.match(row["unit"]) for key in ("end_to_end", "per_layer") for row in document[key])
    assert all(0 < row["bound"] <= 0.25 for row in document["end_to_end"])
    setup = next(row for row in document["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.mutiny_bench", *arguments],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, catalogue", [("0", END_TO_END), ("1", PER_LAYER)])
def test_the_command_prints_every_metric_by_name_with_its_unit(trace, catalogue):
    finished = _run("--workload", "store_io", "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {m.name: m.unit for m in catalogue}
    for metric in END_TO_END:  # the human-readable block names every end-to-end metric too
        assert re.search(rf"^\s+{re.escape(metric.name)}\s+[0-9.]+ {re.escape(metric.unit)}\s", finished.stdout, re.M)
    assert "QUICK" in finished.stdout
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())
    else:
        assert (OUTPUT_DIR / "trace-store_io.json").is_file()
        assert result["metrics"]["transport.get_calls.objstore"]["value"] > 0
        assert result["metrics"]["sim.events_executed"]["value"] == 0  # the bypass workload
    assert not list(OUTPUT_DIR.glob("work-*"))  # work directories are torn down


def test_an_unknown_workload_is_refused_by_name():
    finished = _run("--workload", "campaign_serail", "--quick")
    assert finished.returncode != 0 and "campaign_serail" in finished.stderr


class _CorruptingStoreIO(StoreIO):
    """Tears one stored POSIX shard of store A right after it is written."""

    def _write(self, root: str, batches: list, batched: bool) -> None:
        super()._write(root, batches, batched)
        if root.endswith("store-a") and "warm-up" not in root:
            from repro.core.resultstore import ShardedResultStore

            shard = ShardedResultStore(root).shard_paths()[0]
            with open(shard, "r+b") as handle:
                handle.truncate(200)


def test_a_corrupted_shard_fails_the_digest_check_and_the_exit_code(monkeypatch, capsys):
    report = run_workload(_CorruptingStoreIO, seed=5, seconds=1.0, trace=False, quick=True)
    assert report.correct is False
    assert any("digest mismatch" in problem for problem in report.problems)
    assert report.failed == report.attempted > 0  # every operation of the repetition is charged

    monkeypatch.setattr(command, "workload_classes", lambda: {"store_io": _CorruptingStoreIO})
    previous = signal.getsignal(signal.SIGTERM)
    try:
        assert command.main(["--workload", "store_io", "--quick", "--seed", "5"]) == 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    printed = capsys.readouterr().out
    assert "FAILED CHECK: digest mismatch" in printed
    assert json.loads(printed.strip().splitlines()[-1])["correct"] is False
