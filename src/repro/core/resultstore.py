"""Streaming, sharded result store for paper-scale campaigns.

The paper's full campaign is ~8,800 experiments (§IV-C); materializing every
:class:`~repro.core.experiment.ExperimentResult` in the parent process caps
campaign scale well below that.  This module stores results the way the executor produces them:
each worker serializes its finished batch straight to one compressed JSONL
shard (written atomically, gzip with a fixed mtime so shard bytes are
reproducible), and the parent only ever tracks *indexes*.  Peak resident
memory is therefore bounded by one batch regardless of campaign size, and
resuming an interrupted campaign is a scan of the completed shards rather
than a deserialization of everything done so far.

The store talks to its bytes through a pluggable
:class:`~repro.core.transport.ShardTransport`, selected by the shape of the
root string: a filesystem path (the original shared-directory layout, byte
for byte) or an ``objstore://host:port/bucket`` URL for workers with no
common filesystem.  Layout of a store, in transport keys::

    <root>/MANIFEST.json             # {"version", "fingerprint", "total"}
    <root>/prep.json                 # golden baselines + field recordings
    <root>/shards/shard-<first>-<last>.jsonl.gz

Every shard line is ``{"index": <plan index>, "result": <result dict>}``.
The result dict holds the client latency series once, as ``latency_series``
(``client_observations`` omits its copy), packed since format 4: the base64
text of its little-endian float64 bytes, so the 600 samples are exact and
cost no float formatting or parsing.
A shard that was truncated mid-write (e.g. the machine died) is readable up
to its last complete record; the missing experiments are simply re-run into
a fresh shard on resume.

With batched upload (:class:`BatchedShardWriter`, ``--shard-batch N``) one
shard object holds up to N batches, each a self-contained gzip member
appended under a generation precondition; the shard's name keeps the index
span of its *first* batch (names are ordering hints — the records inside,
each carrying its own plan index, are the ground truth).  Readers are
unchanged: a gzip stream of concatenated members decompresses as one
stream, and a torn trailing member reads as an ordinary truncated shard.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import io
import json
import struct
import threading
import zlib
from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.cluster.config import ClusterConfig
from repro.core.classification import (
    ClientFailure,
    ClientObservations,
    GoldenBaseline,
    OrchestratorFailure,
    OrchestratorObservations,
)
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentTask,
    RecordedField,
)
from repro.core.injector import FaultSpec, FaultType, InjectionChannel
from repro.core.transport import TransportKeyError, transport_for
from repro.workloads.workload import WorkloadKind

#: Format version of the store layout (bumped on layout changes; 2 = prep
#: as canonical JSON and fingerprints hashed over the codec's bytes; 3 = one
#: latency series per record; 4 = that series packed as float64 bytes).
STORE_VERSION = 4

_MANIFEST_NAME = "MANIFEST.json"
PREP_NAME = "prep.json"
_SHARD_DIR = "shards"

#: Gzip level of every shard member.  Readers decode any level, so stores
#: written at another level still resume, append and federate; the digest
#: hashes canonical lines, never compressed bytes.
SHARD_GZIP_LEVEL = 3


class ResultStoreMismatchError(RuntimeError):
    """A result store does not belong to this campaign."""


def check_store_format(root: str, manifest: dict) -> None:
    """Refuse, by name, a store that another format version wrote."""
    found = manifest.get("version")
    if found != STORE_VERSION:
        raise ResultStoreMismatchError(
            f"result store {root!r} was written by store format {found!r}, this "
            f"code reads {STORE_VERSION}; finish it with the code that started it, "
            "or delete the store (or point --results-dir elsewhere) to start fresh"
        )


# --------------------------------------------------------------------------
# The JSON codec: the one serialization of campaign objects.  Shard records,
# the published plan, the stored prep and every fingerprint are these dicts
# in their canonical bytes; decoding raises KeyError/TypeError/ValueError on
# a document of the wrong shape.
# --------------------------------------------------------------------------


def canonical_bytes(document: Any) -> bytes:
    """The byte form everything stored or hashed takes (stable key order,
    compact separators): equal documents are equal bytes."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _dataclass_to_dict(value: Any) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclass_fields(value)}


def fault_to_dict(fault: Optional[FaultSpec]) -> Optional[dict]:
    """JSON-serializable form of a fault spec (None stays None)."""
    if fault is None:
        return None
    return {
        **_dataclass_to_dict(fault),
        "channel": fault.channel.value,
        "fault_type": fault.fault_type.value,
    }


def fault_from_dict(data: Optional[dict]) -> Optional[FaultSpec]:
    """Inverse of :func:`fault_to_dict`."""
    if data is None:
        return None
    return FaultSpec(
        **{
            **data,
            "channel": InjectionChannel(data["channel"]),
            "fault_type": FaultType(data["fault_type"]),
        }
    )


def task_to_dict(task: ExperimentTask) -> dict:
    """JSON-serializable form of one planned experiment."""
    return {
        "index": task.index,
        "workload": task.workload.value,
        "fault": fault_to_dict(task.fault),
        "seed": task.seed,
    }


def task_from_dict(data: dict) -> ExperimentTask:
    """Inverse of :func:`task_to_dict`."""
    return ExperimentTask(
        index=data["index"],
        workload=WorkloadKind(data["workload"]),
        fault=fault_from_dict(data["fault"]),
        seed=data["seed"],
    )


def baseline_to_dict(baseline: Optional[GoldenBaseline]) -> Optional[dict]:
    """JSON-serializable form of a golden baseline (None stays None)."""
    return None if baseline is None else _dataclass_to_dict(baseline)


def baseline_from_dict(data: Optional[dict]) -> Optional[GoldenBaseline]:
    """Inverse of :func:`baseline_to_dict`."""
    return None if data is None else GoldenBaseline(**data)


def recorded_field_to_dict(recorded: RecordedField) -> dict:
    """JSON-serializable form of one recorded golden-run field."""
    return _dataclass_to_dict(recorded)


def recorded_field_from_dict(data: dict) -> RecordedField:
    """Inverse of :func:`recorded_field_to_dict`."""
    return RecordedField(**data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-serializable form of an experiment configuration."""
    return {**_dataclass_to_dict(config), "cluster": _dataclass_to_dict(config.cluster)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`."""
    return ExperimentConfig(**{**data, "cluster": ClusterConfig(**data["cluster"])})


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable form of one experiment result (all fields), with
    the latency series once: ``client_observations`` omits its copy, and a
    result whose two copies differ raises ``ValueError``."""
    observations = _dataclass_to_dict(result.client_observations)
    if observations.pop("latency_series") != result.latency_series:
        raise ValueError("client_observations.latency_series differs from latency_series")
    return {
        "workload": result.workload.value,
        "fault": fault_to_dict(result.fault),
        "seed": result.seed,
        "injected": result.injected,
        "activated": result.activated,
        "dropped": result.dropped,
        "orchestrator_failure": (
            result.orchestrator_failure.value if result.orchestrator_failure else None
        ),
        "client_failure": result.client_failure.value if result.client_failure else None,
        "client_zscore": result.client_zscore,
        "orchestrator_observations": _dataclass_to_dict(result.orchestrator_observations),
        "client_observations": observations,
        "latency_series": result.latency_series,
        "user_error_count": result.user_error_count,
        "user_request_count": result.user_request_count,
        "component_error_count": result.component_error_count,
        "injection_time": result.injection_time,
        "pods_created": result.pods_created,
        "workload_started_at": result.workload_started_at,
        "finished_at": result.finished_at,
    }


def _pack_series(series: list) -> str:
    """A latency series as record format 4 stores it: base64 of its
    little-endian float64 bytes, exact for every double."""
    return base64.b64encode(struct.pack(f"<{len(series)}d", *series)).decode("ascii")


def _unpack_series(packed: str) -> list:
    """Inverse of :func:`_pack_series`; raises ``ValueError`` on text that
    is not base64 of a whole number of doubles."""
    try:
        raw = base64.b64decode(packed, validate=True)
    except ValueError as error:
        raise ValueError(f"latency_series is not base64: {error}") from error
    if len(raw) % 8:
        raise ValueError(f"latency_series holds {len(raw)} bytes, not whole doubles")
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def _stored_dict(result: ExperimentResult) -> dict:
    """The record a result is stored as: :func:`result_to_dict` with the
    series packed."""
    data = result_to_dict(result)
    data["latency_series"] = _pack_series(data["latency_series"])
    return data


def result_from_dict(data: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict` and of a stored record (packed
    series): both names hold the one series."""
    series = data["latency_series"]
    if isinstance(series, str):
        series = _unpack_series(series)
    elif not isinstance(series, list):
        raise ValueError(f"latency_series is a {type(series).__name__}, not a str or list")
    return ExperimentResult(
        workload=WorkloadKind(data["workload"]),
        fault=fault_from_dict(data["fault"]),
        seed=data["seed"],
        injected=data["injected"],
        activated=data["activated"],
        dropped=data["dropped"],
        orchestrator_failure=(
            OrchestratorFailure(data["orchestrator_failure"])
            if data["orchestrator_failure"]
            else None
        ),
        client_failure=(
            ClientFailure(data["client_failure"]) if data["client_failure"] else None
        ),
        client_zscore=data["client_zscore"],
        orchestrator_observations=OrchestratorObservations(
            **data["orchestrator_observations"]
        ),
        client_observations=ClientObservations(
            **{**data["client_observations"], "latency_series": series}
        ),
        latency_series=series,
        user_error_count=data["user_error_count"],
        user_request_count=data["user_request_count"],
        component_error_count=data["component_error_count"],
        injection_time=data["injection_time"],
        pods_created=data["pods_created"],
        workload_started_at=data["workload_started_at"],
        finished_at=data["finished_at"],
    )


def _canonical_line(index: int, result_data: dict) -> bytes:
    """One canonical JSONL record, newline included."""
    return canonical_bytes({"index": index, "result": result_data}) + b"\n"


def _encode_member(records: list[tuple[int, dict]]) -> bytes:
    """One batch of records as a self-contained gzip member (fixed mtime, so
    identical records always produce identical bytes).  Gzip members
    concatenate into one valid stream, which is what lets the batched shard
    writer extend an existing shard object with a plain byte append.
    Deflated at :data:`SHARD_GZIP_LEVEL`: level 9 spent 45 of a 59 ms
    member deflating for 8 % fewer bytes (docs/PERFORMANCE.md, "Shard encode")."""
    buffer = io.BytesIO()
    with gzip.GzipFile(
        filename="", mode="wb", fileobj=buffer, mtime=0, compresslevel=SHARD_GZIP_LEVEL
    ) as stream:
        for index, data in records:
            stream.write(_canonical_line(index, data))
    return buffer.getvalue()


def _parse_shard_line(raw: bytes) -> Optional[tuple[int, dict]]:
    """One ``(index, result dict)`` shard record, or ``None`` where the
    shard's readable prefix ends."""
    if not raw.endswith(b"\n"):
        return None  # incomplete trailing record
    try:
        record = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(record, dict) or "index" not in record:
        return None
    result = record.get("result")
    if not isinstance(result, dict) or not result:
        # A record that kept its index but lost its result is as truncated
        # as a cut line; yielding a placeholder here used to explode much
        # later, as a KeyError deep inside result_from_dict during
        # aggregation.
        return None
    return int(record["index"]), result


#: Compressed bytes the shard reader inflates per zlib call.  Inflating a
#: whole member at once held its text in memory: ``store_io``'s peak RSS rose
#: 16 %, over its bound (docs/PERFORMANCE.md, "serve without the simulator").
_INFLATE_CHUNK = 1 << 14


def _shard_lines(payload: bytes, parse: Callable[[bytes], Any]) -> list:
    """What ``parse`` makes of each line of a shard's readable prefix.

    A shard truncated mid-write yields its readable prefix: the gzip stream
    may end abruptly, or ``parse`` may map a line to ``None`` (cut short, or
    cut between its ``"index"`` and its ``"result"``); each simply ends the
    shard.  A shard with a damaged member yields nothing, so the list is
    returned only once every member's CRC and length have been checked.
    One ``zlib`` inflater per member (``wbits=31`` checks both) reads byte
    for byte what ``gzip.GzipFile`` reads, without its 8 KiB readline loop.
    """
    items: list = []
    view, start, tail, parsing = memoryview(payload), 0, b"", True
    try:
        while start < len(view):
            inflater = zlib.decompressobj(wbits=31)
            while not inflater.eof and start < len(view):
                piece = view[start : start + _INFLATE_CHUNK]
                start += len(piece)
                lines = io.BytesIO(tail + inflater.decompress(piece))
                tail = b""
                for raw in lines:
                    if not raw.endswith(b"\n"):
                        tail = raw  # completed by the next piece, if there is one
                    elif parsing:
                        item = parse(raw)
                        parsing = item is not None
                        if parsing:
                            items.append(item)
            if not inflater.eof:
                return items  # a torn trailing member: its complete lines are the prefix
            start -= len(inflater.unused_data)
            while start < len(view) and view[start] == 0:  # zero padding between members
                start += 1
            if len(view) - start == 1:
                return []  # one trailing byte is never a gzip magic
    except zlib.error:
        # A member failed its CRC or its deflate stream is damaged, or
        # garbage follows the last member.  A flipped byte can leave every
        # line parseable (another key, another digit), so no line of this
        # shard is trusted; a resume re-runs its records.
        return []
    if tail and parsing:
        item = parse(tail)
        if item is not None:
            items.append(item)
    return items


def _shard_key_for(records: list[tuple[int, dict]]) -> str:
    """The shard key a batch lands under (named by the batch's index span;
    a batched shard keeps the name of its *first* batch as later batches
    are appended — the name is an ordering hint, never ground truth)."""
    indexes = [index for index, _ in records]
    return f"{_SHARD_DIR}/shard-{min(indexes):08d}-{max(indexes):08d}.jsonl.gz"


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------


class ShardedResultStore:
    """A directory of gzip JSONL shards holding completed experiment results.

    The store is safe for the executor's access pattern: many writers each
    append *distinct* shards (one per completed batch, atomic rename), one
    reader scans/merges.  Readers never hold more than one decompressed
    shard in memory: the read cache keeps one shard's CRC-checked lines,
    and a point read parses only the line it asks for (then keeps that
    record parsed), so a read costs one record's parse, not a shard's.  A
    cold multi-shard :meth:`results_digest` still parses each record
    twice: once as the index scan validates its shard, once as it is
    hashed.
    """

    def __init__(self, root: str, shard_cache: Optional[dict] = None):
        self.root = root
        self.transport = transport_for(root)
        #: Lazily built map of completed plan index -> shard key, and the
        #: ``(shard key, generation)`` pairs of the scan that built it.
        self._index_map: Optional[dict[int, str]] = None
        self._scanned: tuple[tuple[str, str], ...] = ()
        #: One-shard read cache: (key, {index: result dict, or the raw line
        #: holding it until it is first read}).
        self._cached_key: Optional[str] = None
        self._cached_shard: dict[int, Any] = {}
        #: Per-shard parse cache: key -> (generation token, record indexes).
        #: A shard's content is stable for a given generation, so a repeat
        #: scan (the distributed coordinator/workers poll the store every
        #: few hundred milliseconds) only decompresses keys whose generation
        #: it has never seen — not the whole store again.  The generation
        #: token (size + mtime + identity, not size alone) catches every way
        #: a same-named shard can change content: a truncated shard whose
        #: readable prefix parsed being atomically replaced by an equal-size
        #: rewrite, and — since batched upload — a live shard a worker is
        #: still extending with appended batches.  A poller that goes through
        #: many short-lived instances (the campaign service) passes the dict in.
        self.shard_cache = shard_cache if shard_cache is not None else {}

    # ------------------------------------------------------------- manifest

    def has_manifest(self) -> bool:
        """Whether this root holds a result store at all (for the CLI)."""
        return self.transport.stat(_MANIFEST_NAME) is not None

    def open(self, fingerprint: str, total: int) -> None:
        """Create the store (or verify it belongs to this campaign).

        A store written by a different plan/configuration is rejected instead
        of being silently mixed in.
        """
        try:
            raw = self.transport.get(_MANIFEST_NAME)
        except TransportKeyError:
            raw = None
        if raw is not None:
            try:
                manifest = json.loads(raw)
            except ValueError as error:
                raise ResultStoreMismatchError(
                    f"result store {self.root!r} has an unreadable manifest ({error}); "
                    "delete the store (or point --results-dir elsewhere) to start fresh"
                ) from error
            check_store_format(self.root, manifest)
            if manifest.get("fingerprint") != fingerprint:
                raise ResultStoreMismatchError(
                    f"result store {self.root!r} was written by a different campaign "
                    "plan; delete the store (or point --results-dir elsewhere) "
                    "to start fresh"
                )
            return
        payload = {"version": STORE_VERSION, "fingerprint": fingerprint, "total": total}
        self.transport.put(
            _MANIFEST_NAME, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        )

    def manifest(self) -> dict:
        """The manifest of an existing store (for `campaign inspect`).

        Raises :class:`~repro.core.transport.TransportKeyError` when the root
        holds no store at all.
        """
        return json.loads(self.transport.get(_MANIFEST_NAME))

    # ----------------------------------------------------------------- prep

    def save_prep(self, fingerprint: str, prepared: list) -> None:
        """Persist the golden baselines + field recordings (canonical JSON,
        atomic): one ``(baseline, recorded fields)`` pair per workload."""
        payload = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "prepared": [
                {
                    "baseline": baseline_to_dict(baseline),
                    "recorded": [recorded_field_to_dict(field) for field in recorded],
                }
                for baseline, recorded in prepared
            ],
        }
        self.transport.put(PREP_NAME, canonical_bytes(payload))

    def load_prep(self, fingerprint: str) -> Optional[list]:
        """Load the prepared baselines/recordings (None = recompute).

        Prep written under a *different* configuration raises right away:
        its results could never be merged either, and failing before the
        expensive golden-baseline recomputation beats failing after it.
        Prep that is absent, of another format version or not a document of
        the expected shape is simply recomputed (and overwritten).
        """
        try:
            payload = json.loads(self.transport.get(PREP_NAME))
            if payload["version"] != STORE_VERSION:
                return None
            if payload["fingerprint"] != fingerprint:
                raise ResultStoreMismatchError(
                    f"result store {self.root!r} holds workload preparation from a "
                    "different campaign configuration; delete the directory (or point "
                    "--results-dir elsewhere) to start fresh"
                )
            return [
                (
                    baseline_from_dict(entry["baseline"]),
                    [recorded_field_from_dict(field) for field in entry["recorded"]],
                )
                for entry in payload["prepared"]
            ]
        except (KeyError, TypeError, ValueError):  # absent is a KeyError too
            return None

    # -------------------------------------------------------------- writing

    def write_shard(self, records: list[tuple[int, ExperimentResult]]) -> str:
        """Serialize one completed batch to a new shard, atomically.

        Called from worker processes; each batch covers a distinct set of
        plan indexes, so shard names never collide across workers.  The gzip
        stream is written with ``mtime=0`` so identical results produce
        byte-identical shards.
        """
        return self.write_shard_dicts([(index, _stored_dict(result)) for index, result in records])

    def write_shard_dicts(self, records: list[tuple[int, dict]]) -> str:
        """:meth:`write_shard` for records already in their canonical dict
        form — the federation merge streams raw records between stores
        without round-tripping them through result objects."""
        if not records:
            raise ValueError("refusing to write an empty shard")
        key = _shard_key_for(records)
        self.transport.put(key, _encode_member(records))
        self._index_map = None  # the completed set changed
        return self.transport.locate(key)

    def batched_writer(self, batches_per_shard: int) -> "BatchedShardWriter":
        """A writer coalescing N finished batches into one shard object."""
        return BatchedShardWriter(self, batches_per_shard)

    # ------------------------------------------------------------- scanning

    def iter_shard_keys(self) -> Iterator[str]:
        """Stream the shard keys in name (== first-index) order.

        Built on the transport's paginated/streamed listing, so scanning a
        store with hundreds of thousands of shards never materializes the
        full key set in this layer (the object store serves bounded pages,
        POSIX walks a directory scan).
        """
        for key in self.transport.list_iter(f"{_SHARD_DIR}/"):
            if key.rpartition("/")[2].startswith("shard-") and key.endswith(".jsonl.gz"):
                yield key

    def shard_keys(self) -> list[str]:
        """All shard keys, in name (== first-index) order."""
        return list(self.iter_shard_keys())

    def shard_paths(self) -> list[str]:
        """All shard addresses (paths/URLs), in name (== first-index) order."""
        return [self.transport.locate(key) for key in self.shard_keys()]

    def _get_shard(self, key: str) -> Optional[tuple[bytes, str]]:
        """One shard's bytes and the generation *of those bytes* (one
        ``get_with_stat``), or ``None`` when the key is absent (raced a
        reclaim) or transiently unreadable (networked shared filesystem
        hiccup): skipped now, rescanned next poll."""
        try:
            payload, stat = self.transport.get_with_stat(key)
        except (TransportKeyError, OSError):
            return None
        return payload, stat.generation

    def refresh(self) -> None:
        """Drop the cached index map (new shards may have appeared).

        Workers write shards through their own store instances, so a parent
        that scanned before execution must refresh before reading.  The
        per-shard parse cache survives: already-seen shards are immutable,
        so a refresh only costs parsing whatever is genuinely new.
        """
        self._index_map = None
        self._cached_key = None
        self._cached_shard = {}

    def _shard_indexes(self, key: str) -> Optional[tuple[str, list[int]]]:
        """``(generation, record indexes)`` of one shard, ``None`` when the
        key vanished (cached; a shard's content is fixed per generation).

        The indexes are listed in line order, so the entry also says which
        line of that generation's bytes holds each record.  It is therefore
        keyed by the generation of the bytes actually parsed: a shard that
        gains a member between the ``stat`` and the read is cached under
        its new generation, never its old one."""
        stat = self.transport.stat(key)
        if stat is None:
            return None
        cached = self.shard_cache.get(key)
        if cached is not None and cached[0] == stat.generation:
            return cached
        read = self._get_shard(key)
        if read is None:
            return None
        payload, generation = read
        records = _shard_lines(payload, _parse_shard_line)
        entry = (generation, [index for index, _ in records])
        self.shard_cache[key] = entry
        # Hand the parsed records to the one-shard read cache: the common
        # next step (the coordinator folding the indexes this scan just
        # discovered) then reads them without gunzipping the shard a second
        # time.  Memory stays bounded by one shard as before.
        self._cached_key = key
        self._cached_shard = dict(records)
        return entry

    def completed_indexes(self) -> dict[int, str]:
        """Map every completed plan index onto the shard key that holds it.

        This is the whole resume scan (one listing, one stat per shard, a
        read of only the shards ``shard_cache`` has not parsed): O(completed
        shards) on first use and O(*new* shards) after a :meth:`refresh`, no
        result object is materialized.  Later shards win when a re-run
        rewrote an index.
        """
        if self._index_map is None:
            index_map: dict[int, str] = {}
            scanned = []
            for key in self.iter_shard_keys():
                entry = self._shard_indexes(key)
                if entry is not None:
                    scanned.append((key, entry[0]))
                    for index in entry[1]:
                        index_map[index] = key
            self._index_map = index_map
            self._scanned = tuple(scanned)
        return self._index_map

    def shard_generations(self) -> tuple[tuple[str, str], ...]:
        """The ``(shard key, generation)`` pairs :meth:`completed_indexes`
        was built from.  Equal tuples mean equal stored records, so anything
        derived from the store may be cached under this value and must be
        re-validated against it — never trusted on its own."""
        self.completed_indexes()
        return self._scanned

    # -------------------------------------------------------------- reading

    def _load_shard(self, key: str) -> dict[int, Any]:
        """Decompress one shard into the read cache's index -> record map
        (the unit of caching; the last occurrence of an index wins).

        When the bytes read are the generation the scan validated, the
        ``shard_cache`` entry already says which line holds each record, so
        the lines stay raw (CRC-checked) and :meth:`_record` parses only the
        ones asked for.  Any other generation is validated line by line
        here, as the scan would."""
        read = self._get_shard(key)
        if read is None:
            return {}
        payload, generation = read
        cached = self.shard_cache.get(key)
        if cached is not None and cached[0] == generation:
            return dict(zip(cached[1], _shard_lines(payload, bytes)))
        return dict(_shard_lines(payload, _parse_shard_line))

    def _record(self, index: int) -> dict:
        key = self.completed_indexes().get(index)
        if key is None:
            raise KeyError(f"result index {index} is not in the store {self.root!r}")
        if key != self._cached_key:
            self._cached_shard = self._load_shard(key)
            self._cached_key = key
        record = self._cached_shard.get(index)
        if isinstance(record, bytes):
            # A raw line the scan validated: parsed once, then kept parsed.
            parsed = _parse_shard_line(record)
            record = self._cached_shard[index] = None if parsed is None else parsed[1]
        if record is None:
            raise KeyError(
                f"result index {index} is no longer in shard {key!r} of the store "
                f"{self.root!r}: the shard changed after the scan"
            )
        return record

    def load_record(self, index: int) -> dict:
        """One result's canonical dict form (no object reconstruction) —
        what :meth:`results_digest` hashes and federation copies."""
        return self._record(index)

    def load_result(self, index: int) -> ExperimentResult:
        """Load one result by plan index (caches the containing shard)."""
        return result_from_dict(self._record(index))

    def iter_results(self, indexes: Iterable[int]) -> Iterator[ExperimentResult]:
        """Yield results for ``indexes`` in the given order.

        Because the executor writes plan-contiguous batches, iterating in
        plan order decompresses every shard exactly once and keeps at most
        one shard in memory.
        """
        for index in indexes:
            yield self.load_result(index)

    def iter_all(self) -> Iterator[ExperimentResult]:
        """Yield every stored result in plan-index order."""
        return self.iter_results(sorted(self.completed_indexes()))

    def all_results(self) -> "StoredResults":
        """A lazy, re-iterable view over every stored result (plan order)."""
        return StoredResults(self, sorted(self.completed_indexes()))

    # ------------------------------------------------------------ summaries

    def record_count(self) -> int:
        """Number of distinct completed experiments in the store."""
        return len(self.completed_indexes())

    def stored_record_count(self) -> int:
        """Raw record count across every shard, *counting duplicates*.

        Results are deterministic, so a replayed experiment rewrites an
        identical record and can never corrupt the merged digest — but it is
        wasted work.  A healthy campaign (local resume or distributed
        workers) therefore keeps this equal to :meth:`record_count`; CI
        asserts exactly that to prove a reclaimed worker slice replayed
        nothing that was already stored.  Counted over the scan behind
        :meth:`completed_indexes`, so the two numbers describe one listing
        and the second costs no further store request.
        """
        return sum(len(self.shard_cache[key][1]) for key, _ in self.shard_generations())

    def compressed_bytes(self) -> int:
        """Total stored size of the shards."""
        total = 0
        for key in self.iter_shard_keys():
            stat = self.transport.stat(key)
            if stat is not None:
                total += stat.size
        return total

    def results_digest(self, visit: Optional[Callable[[int, dict], None]] = None) -> str:
        """SHA-256 over the canonical records in plan-index order.

        Serial and parallel runs of the same campaign chunk the plan
        differently (different shard files) but must store identical result
        records, so their digests must match; CI diffs exactly this.
        ``visit(index, record)`` sees each record as it is hashed, so a
        caller that also tallies the store makes one pass over it, not two.
        """
        digest = hashlib.sha256()
        index_map = self.completed_indexes()
        for index in sorted(index_map):
            data = self._record(index)
            if visit is not None:
                visit(index, data)
            digest.update(_canonical_line(index, data))
        return digest.hexdigest()


class BatchedShardWriter:
    """Coalesces N finished batches into one shard object via transport appends.

    A per-batch PUT makes very large campaigns pay one object (and one
    listing entry, and one store request) per batch; at paper scale that is
    the same single-choke-point failure mode the Mutiny paper documents for
    control planes.  The batched writer keeps the durability of per-batch
    uploads — every batch still hits the store the moment it completes — but
    *appends* batches 2..N of a group to the shard object batch 1 created
    (each batch is a self-contained gzip member; members concatenate into
    one valid shard stream), so a campaign with ``--shard-batch 8`` stores
    an eighth of the objects.

    Appends are generation-conditional: the writer extends only the exact
    object state it last produced.  If the precondition ever fails (the
    shard was replaced behind our back — e.g. a reclaimed slice re-ran the
    same indexes), the writer falls back to starting a fresh group with the
    current batch rather than guessing, and nothing is lost: records are
    keyed by plan index, and duplicate records are byte-identical by
    determinism.

    One writer serves one worker's batch loop; the open-group bookkeeping
    (``_key``/``_generation``/``_batches_in_group``) is nevertheless guarded
    by ``self._lock`` — a threaded executor that hands one writer to several
    submitters must not tear the group state, and the lock's cost is noise
    next to the store round-trip it wraps.

    Trade-off to know: every append gives the open shard a new generation,
    so a poller that scans between appends re-downloads and re-parses the
    *growing* object (the parse cache keys on generation).  That cost is
    bounded by N × one shard — keep ``batches_per_shard`` moderate (the
    4-16 range) and the object-count/listing win dwarfs it; a ranged-read
    tail parse is the upgrade path if a profile ever says otherwise.
    """

    # Guarded by self._lock (enforced by mutiny-lint MUT004).
    _lock_guarded = ("_key", "_generation", "_batches_in_group")

    def __init__(self, store: ShardedResultStore, batches_per_shard: int):
        if batches_per_shard < 1:
            raise ValueError(f"batches_per_shard must be >= 1, got {batches_per_shard}")
        self.store = store
        self.batches_per_shard = batches_per_shard
        self._lock = threading.Lock()
        self._key: Optional[str] = None
        self._generation: Optional[str] = None
        self._batches_in_group = 0

    def write(self, records: list[tuple[int, ExperimentResult]]) -> str:
        """Persist one finished batch (durable on return); returns the
        address of the shard object holding it."""
        return self.write_dicts([(index, _stored_dict(result)) for index, result in records])

    def write_dicts(self, records: list[tuple[int, dict]]) -> str:
        if not records:
            raise ValueError("refusing to write an empty batch")
        member = _encode_member(records)
        with self._lock:
            return self._write_member_locked(records, member)

    def _write_member_locked(self, records: list[tuple[int, dict]], member: bytes) -> str:
        transport = self.store.transport
        if (
            self._key is not None
            and self._generation is not None
            and self._batches_in_group < self.batches_per_shard
        ):
            # mutiny-lint: disable=MUT007 -- generation chaining *requires* serializing append round-trips under the group lock: a concurrent append would fork the open shard's generation (see class docstring)
            generation = transport.append(self._key, member, self._generation)
            if generation is not None:
                self._generation = generation
                self._batches_in_group += 1
                self.store._index_map = None  # the completed set changed
                return transport.locate(self._key)
            # The open shard changed hands (replaced or removed) — abandon
            # the group and land this batch in a fresh shard of its own.
        key = _shard_key_for(records)
        # mutiny-lint: disable=MUT007 -- opening a fresh shard group must publish the first member before any concurrent submitter can chain onto it; serialized by design
        generation = transport.append(key, member, None)
        if generation is None:
            # The key already exists: a predecessor (or a racing replay of
            # the same slice) stored bytes under this name.  Never blindly
            # overwrite — the object may hold *more* than this batch, e.g.
            # later members a lease-losing predecessor appended before it
            # noticed ("already written shards always survive").  Whatever
            # is readable there stays readable: if it already covers this
            # batch, skip the write outright (deterministic results make
            # the bytes interchangeable); otherwise rewrite the readable
            # records and this batch together, each index exactly once.
            read = self.store._get_shard(key)
            existing = dict(_shard_lines(read[0], _parse_shard_line)) if read else {}
            ours = dict(records)
            self._key = None
            self._generation = None
            self._batches_in_group = 0
            if not set(ours) <= set(existing):
                merged = sorted({**existing, **ours}.items())
                # mutiny-lint: disable=MUT007 -- the read-merge-rewrite of a collided shard key must not interleave with another append to the same writer; serialized by design
                transport.put(key, _encode_member(merged))
            self.store._index_map = None  # the completed set changed
            return transport.locate(key)
        self._key = key
        self._generation = generation
        self._batches_in_group = 1
        self.store._index_map = None  # the completed set changed
        return transport.locate(key)


class StoredResults:
    """A lazy, re-iterable plan-order view over a :class:`ShardedResultStore`.

    Behaves like the result list the executor used to return — ``len``,
    indexing, repeated iteration — but materializes one shard at a time, so
    holding the view costs O(1) memory regardless of campaign size.
    """

    def __init__(self, store: ShardedResultStore, indexes: list[int]):
        self.store = store
        self.indexes = list(indexes)

    def __len__(self) -> int:
        return len(self.indexes)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return self.store.iter_results(self.indexes)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self.store.load_result(i) for i in self.indexes[position]]
        return self.store.load_result(self.indexes[position])

    def __eq__(self, other):
        """Element-wise equality against any result sequence (incl. lists).

        Lets ``CampaignResult`` comparisons work unchanged whether a campaign
        was streamed or held in memory; costs a full streaming pass.
        """
        if other is self:
            return True
        if not isinstance(other, (list, tuple, StoredResults)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))
