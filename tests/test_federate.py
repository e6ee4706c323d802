"""Tests for results-dir federation.

The contract: merging N stores of one campaign produces a store whose
digest is byte-identical to a single serial run (shard boundaries never
reach the digest), fingerprint mismatches are rejected before anything is
written, overlapping indexes deduplicate deterministically (later source
wins), and transports mix freely — POSIX halves federate into an
object-store destination and vice versa.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.distributed import DistributedTimeoutError
from repro.core.experiment import ExperimentRunner
from repro.core.federate import autofederate_stores, federate_stores
from repro.core.objstore import LocalObjectStore
from repro.core.resultstore import ResultStoreMismatchError, ShardedResultStore
from repro.workloads.workload import WorkloadKind

from test_resultstore import _full_result  # noqa: E402 - shared result factory


def _tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        workloads=(WorkloadKind.DEPLOY,),
        golden_runs=1,
        max_experiments_per_workload=6,
        seed=3,
        workers=1,
        chunk_size=2,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    """One complete serial campaign store every federation test splits up."""
    root = str(tmp_path_factory.mktemp("serial-store"))
    result = Campaign(_tiny_config()).run(results_dir=root)
    return root, result


def _split_store(serial_root: str, dest_root: str, indexes: set[int]) -> str:
    """A partial store holding only ``indexes`` of the serial campaign —
    what an interrupted or deliberately partial run leaves behind."""
    source = ShardedResultStore(serial_root)
    dest = ShardedResultStore(dest_root)
    dest.open(source.manifest()["fingerprint"], source.manifest()["total"])
    try:
        dest.transport.put("prep.json", source.transport.get("prep.json"))
    except KeyError:
        pass
    batch = [(index, source.load_record(index)) for index in sorted(indexes)]
    if batch:
        dest.write_shard_dicts(batch)
    return dest_root


# ----------------------------------------------------------------- merging


def test_federated_halves_match_the_serial_digest(serial_store, tmp_path):
    serial_root, result = serial_store
    total = result.total_experiments()
    assert total >= 4
    # Two halves with one overlapping index — as two partial campaigns of
    # the same plan would leave behind.
    half_a = _split_store(serial_root, str(tmp_path / "a"), set(range(0, total // 2 + 1)))
    half_b = _split_store(serial_root, str(tmp_path / "b"), set(range(total // 2, total)))

    dest = str(tmp_path / "merged")
    report = federate_stores(dest, [half_a, half_b])
    assert report.merged_records == total
    assert report.overlapping_records == 1
    assert report.skipped_records == 0

    merged = ShardedResultStore(dest)
    serial = ShardedResultStore(serial_root)
    assert merged.results_digest() == serial.results_digest()
    assert merged.record_count() == total
    assert merged.stored_record_count() == total  # the overlap deduplicated

    # Re-federating is a no-op: everything is already in the destination.
    again = federate_stores(dest, [half_a, half_b])
    assert again.merged_records == 0
    assert again.skipped_records == total
    assert ShardedResultStore(dest).stored_record_count() == total


def test_federated_store_resumes_without_re_preparing(serial_store, tmp_path, monkeypatch):
    # The merged store carries the workload prep and every record, so
    # rerunning the campaign against it replays zero experiments and zero
    # golden runs — it is a full-fledged store, not just an archive.
    serial_root, result = serial_store
    total = result.total_experiments()
    half_a = _split_store(serial_root, str(tmp_path / "a"), set(range(0, total // 2)))
    half_b = _split_store(serial_root, str(tmp_path / "b"), set(range(total // 2, total)))
    dest = str(tmp_path / "merged")
    federate_stores(dest, [half_a, half_b])

    def forbidden(*args, **kwargs):
        raise AssertionError("a federated store re-ran work on resume")

    monkeypatch.setattr(ExperimentRunner, "run_experiment", forbidden)
    monkeypatch.setattr(ExperimentRunner, "run_golden", forbidden)
    resumed = Campaign(_tiny_config()).run(results_dir=dest)
    assert resumed.classification_counts() == result.classification_counts()


def test_later_source_wins_overlapping_indexes(tmp_path):
    # Results are deterministic, so real overlaps are byte-identical; the
    # deterministic later-wins rule is what keeps the merge order-defined
    # when a store was hand-edited.  Give the same index different payloads
    # and check the later source's record lands in the destination.
    first = ShardedResultStore(str(tmp_path / "first"))
    second = ShardedResultStore(str(tmp_path / "second"))
    early = dict(result_to_dict_marked(seed=111))
    late = dict(result_to_dict_marked(seed=222))
    for store, record in ((first, early), (second, late)):
        store.open("fp", total=1)
        store.write_shard_dicts([(0, record)])

    dest = str(tmp_path / "merged")
    report = federate_stores(dest, [first.root, second.root])
    assert report.overlapping_records == 1
    assert ShardedResultStore(dest).load_record(0)["seed"] == 222


def result_to_dict_marked(seed: int) -> dict:
    from repro.core.resultstore import result_to_dict

    data = result_to_dict(_full_result())
    data["seed"] = seed
    return data


# --------------------------------------------------------------- rejection


def test_federate_rejects_fingerprint_mismatch(tmp_path):
    a = ShardedResultStore(str(tmp_path / "a"))
    b = ShardedResultStore(str(tmp_path / "b"))
    a.open("fingerprint-a", total=2)
    b.open("fingerprint-b", total=2)
    dest = str(tmp_path / "merged")
    with pytest.raises(ResultStoreMismatchError):
        federate_stores(dest, [a.root, b.root])
    # Nothing was created at the destination before the rejection.
    assert not ShardedResultStore(dest).has_manifest()


def test_federate_rejects_foreign_destination(tmp_path):
    source = ShardedResultStore(str(tmp_path / "src"))
    source.open("fingerprint-a", total=2)
    dest = ShardedResultStore(str(tmp_path / "dest"))
    dest.open("fingerprint-other", total=2)
    with pytest.raises(ResultStoreMismatchError):
        federate_stores(dest.root, [source.root])


def test_federate_rejects_non_store_source(tmp_path):
    with pytest.raises(ResultStoreMismatchError):
        federate_stores(str(tmp_path / "dest"), [str(tmp_path / "nothing")])
    with pytest.raises(ValueError):
        federate_stores(str(tmp_path / "dest"), [])


# ---------------------------------------------------------- cross-transport


def test_federation_mixes_transports(serial_store, tmp_path):
    serial_root, result = serial_store
    total = result.total_experiments()
    server = LocalObjectStore(("127.0.0.1", 0)).start()
    try:
        # One POSIX half, one object-store half, object-store destination.
        half_a = _split_store(serial_root, str(tmp_path / "a"), set(range(0, total // 2)))
        half_b = _split_store(
            serial_root, f"{server.url}/half-b", set(range(total // 2, total))
        )
        dest = f"{server.url}/merged"
        report = federate_stores(dest, [half_a, half_b])
        assert report.merged_records == total
        merged = ShardedResultStore(dest)
        assert merged.results_digest() == ShardedResultStore(serial_root).results_digest()

        # ... and back down into a POSIX destination.
        posix_dest = str(tmp_path / "merged-posix")
        federate_stores(posix_dest, [dest])
        assert (
            ShardedResultStore(posix_dest).results_digest()
            == ShardedResultStore(serial_root).results_digest()
        )
    finally:
        server.stop()


# ----------------------------------------------------------- auto-federation


def test_autofederate_watches_sources_into_existence(serial_store, tmp_path):
    # The coordinator mode: the watch starts before either source store
    # exists, the sources appear and fill incrementally (one POSIX, one
    # object store), and the destination ends byte-identical to the serial
    # run the moment the full plan is covered.
    serial_root, result = serial_store
    total = result.total_experiments()
    reference = ShardedResultStore(serial_root)
    server = LocalObjectStore(("127.0.0.1", 0), max_page=2).start()
    try:
        src_a = f"{server.url}/half-a"
        src_b = str(tmp_path / "half-b")
        dest = str(tmp_path / "merged")
        outcome: dict = {}

        def watch() -> None:
            try:
                outcome["report"] = autofederate_stores(
                    dest, [src_a, src_b], poll_interval=0.05, timeout=120
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                outcome["error"] = error

        watcher = threading.Thread(target=watch)
        watcher.start()
        time.sleep(0.2)  # a few rounds of polling nothing
        manifest = reference.manifest()
        for root, low, high in ((src_a, 0, total // 2), (src_b, total // 2, total)):
            source = ShardedResultStore(root)
            source.open(manifest["fingerprint"], manifest["total"])
            source.transport.put("prep.json", reference.transport.get("prep.json"))
            for index in range(low, high):
                source.write_shard_dicts([(index, reference.load_record(index))])
                time.sleep(0.05)
        watcher.join(timeout=120)
        assert not watcher.is_alive(), "autofederate never finished"
        assert "error" not in outcome, f"autofederate failed: {outcome.get('error')}"

        report = outcome["report"]
        assert report.merged_records == total
        assert report.initial_records == 0
        assert report.rounds > 1  # genuinely incremental, not one big merge
        merged = ShardedResultStore(dest)
        assert merged.results_digest() == reference.results_digest()
        assert merged.record_count() == total
        assert merged.stored_record_count() == total  # nothing folded twice
        assert merged.transport.stat("prep.json") is not None  # prep carried over

        # Re-watching complete sources is an incremental no-op.
        again = autofederate_stores(dest, [src_a, src_b], poll_interval=0.05, timeout=60)
        assert again.merged_records == 0
        assert again.initial_records == total
        assert ShardedResultStore(dest).stored_record_count() == total
    finally:
        server.stop()


def test_autofederate_rejects_a_foreign_source(tmp_path):
    good = ShardedResultStore(str(tmp_path / "good"))
    good.open("fingerprint-a", total=2)
    bad = ShardedResultStore(str(tmp_path / "bad"))
    bad.open("fingerprint-b", total=2)
    with pytest.raises(ResultStoreMismatchError):
        autofederate_stores(
            str(tmp_path / "dest"),
            [good.root, bad.root],
            poll_interval=0.05,
            timeout=30,
        )


def test_autofederate_times_out_when_sources_never_complete(tmp_path):
    with pytest.raises(DistributedTimeoutError) as excinfo:
        autofederate_stores(
            str(tmp_path / "dest"),
            [str(tmp_path / "never-appears")],
            poll_interval=0.05,
            timeout=0.3,
        )
    assert "0 of 1 source store(s) seen" in str(excinfo.value)
    with pytest.raises(ValueError):
        autofederate_stores(str(tmp_path / "dest"), [])


def test_cli_autofederate_matches_serial_json(serial_store, tmp_path, capsys):
    from repro.cli import main

    serial_root, result = serial_store
    total = result.total_experiments()
    half_a = _split_store(serial_root, str(tmp_path / "a"), set(range(0, total // 2)))
    half_b = _split_store(serial_root, str(tmp_path / "b"), set(range(total // 2, total)))
    dest = str(tmp_path / "merged")

    assert main(["autofederate", dest, half_a, half_b, "--timeout", "120", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "Auto-federation complete" in out
    assert f"records folded     : {total}" in out

    serial_json = str(tmp_path / "serial.json")
    merged_json = str(tmp_path / "merged.json")
    assert main(["inspect", serial_root, "--json", serial_json]) == 0
    assert main(["inspect", dest, "--json", merged_json]) == 0
    with open(serial_json, encoding="utf-8") as handle:
        serial_payload = json.load(handle)
    with open(merged_json, encoding="utf-8") as handle:
        merged_payload = json.load(handle)
    assert merged_payload == serial_payload


def test_cli_autofederate_reports_timeout_as_error(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "autofederate",
            str(tmp_path / "dest"),
            str(tmp_path / "never"),
            "--poll-interval",
            "0.05",
            "--timeout",
            "0.3",
            "--quiet",
        ]
    )
    assert code == 2
    assert "autofederate incomplete" in capsys.readouterr().err


# --------------------------------------------------------------------- CLI


def test_cli_federate_and_inspect_match_serial_json(serial_store, tmp_path, capsys):
    from repro.cli import main

    serial_root, result = serial_store
    total = result.total_experiments()
    half_a = _split_store(serial_root, str(tmp_path / "a"), set(range(0, total // 2)))
    half_b = _split_store(serial_root, str(tmp_path / "b"), set(range(total // 2, total)))
    dest = str(tmp_path / "merged")

    assert main(["federate", dest, half_a, half_b, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "Federation merge" in out
    assert f"merged records     : {total}" in out

    serial_json = str(tmp_path / "serial.json")
    merged_json = str(tmp_path / "merged.json")
    assert main(["inspect", serial_root, "--json", serial_json]) == 0
    assert main(["inspect", dest, "--json", merged_json]) == 0
    with open(serial_json, encoding="utf-8") as handle:
        serial_payload = json.load(handle)
    with open(merged_json, encoding="utf-8") as handle:
        merged_payload = json.load(handle)
    # The acceptance bar: the federated inspect --json is byte-identical to
    # the serial run's (digest, counts, raw records — everything).
    assert merged_payload == serial_payload


def test_cli_federate_reports_mismatch_as_error(tmp_path, capsys):
    from repro.cli import main

    a = ShardedResultStore(str(tmp_path / "a"))
    b = ShardedResultStore(str(tmp_path / "b"))
    a.open("fingerprint-a", total=2)
    b.open("fingerprint-b", total=2)
    assert main(["federate", str(tmp_path / "dest"), a.root, b.root, "--quiet"]) == 2
    assert "different campaign" in capsys.readouterr().err
