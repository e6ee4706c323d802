"""The wrap table (which public callables are timed, as which layer) and the
derivation of the per-layer metrics from the recorded spans.

A layer is a module under ``src/repro/``.  ``*_self_ms`` rows are the layer's
span self time — duration minus the part child spans cover — summed over the
traced repetition and divided by the number of simulator runs in it
(injection experiments and golden runs alike: both cross the same layers).
Time a layer spends in callbacks no table entry wraps (kubelet timers, the
application client's private ``_send_one``) stays in its caller's self time,
which for simulator callbacks is ``sim.self_ms``.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Optional

from .catalog import PER_LAYER, TRANSPORT_KINDS, TRANSPORT_OPS
from .stats import percentile_or_zero
from .trace import DELTA, ERROR, LAYER, NAME, PARENT, SpanRecorder, Target, descendants, duration, raised, self_times


def _transport_kind(transport: object) -> str:
    return "objstore" if type(transport).__name__ == "ObjectStoreTransport" else "posix"


def _store_kind(store, *_args) -> str:
    return _transport_kind(store.transport)


def _writer_kind(writer, *_args) -> str:
    return _transport_kind(writer.store.transport)


def _methods(layer: str, module: str, cls: str, *attributes: str, **options) -> list[Target]:
    return [Target(layer, module, attribute, cls=cls, **options) for attribute in attributes]


#: Callables of the simulator stack and the campaign engine around it.
SIM_TABLE: tuple[Target, ...] = (
    *_methods("experiment", "repro.core.experiment", "ExperimentRunner", "run_experiment", "run_golden", request=True),
    Target("cluster", "repro.cluster.cluster", "__init__", cls="Cluster", name="cluster.init"),
    *_methods("cluster", "repro.cluster.cluster", "Cluster", "boot", "run_for"),
    Target(
        "sim",
        "repro.sim.engine",
        "run_until",
        cls="Simulation",
        gauge=lambda sim, *_args, **_kwargs: sim.events_executed,
    ),
    Target("serialization", "repro.serialization.codec", "encode"),
    Target("serialization", "repro.serialization.codec", "decode"),
    Target("serialization", "repro.serialization.codec", "decode_shared"),
    Target("apiserver", "repro.apiserver.validation", "validate_object"),
    *_methods("apiserver", "repro.apiserver.apiserver", "APIServer", "create", "update", "update_status", "delete", "get", "list"),
    *_methods("etcd", "repro.etcd.store", "EtcdStore", "put", "delete", "range", "get"),
    *_methods("controllers", "repro.controllers.manager", "ControllerManager", "tick"),
    *_methods("scheduler", "repro.scheduler.scheduler", "Scheduler", "tick"),
    *_methods("kubelet", "repro.kubelet.kubelet", "Kubelet", "sync_pods", "heartbeat"),
    *_methods("network", "repro.network.network", "ClusterNetwork", "sync", "request"),
    *_methods("monitoring", "repro.monitoring.metrics", "MetricsCollector", "scrape"),
    *(
        Target("workloads", "repro.workloads.appclient", attribute, cls="ApplicationClient", name=f"workloads.client.{attribute}")
        for attribute in ("start", "time_series", "error_samples", "error_burst_count")
    ),
    *(
        Target("workloads", "repro.workloads.workload", attribute, cls="KbenchDriver", name=f"workloads.driver.{attribute}")
        for attribute in ("setup_scenario", "start", "failed_requests")
    ),
    *_methods("injector", "repro.core.injector", "MutinyInjector", "etcd_write_hook", "component_request_hook"),
    Target("classification", "repro.core.classification", "classify_orchestrator"),
    Target("classification", "repro.core.classification", "classify_client"),
    *_methods("campaign", "repro.core.parallel", "CampaignExecutor", "prepare_workloads"),
    *_methods("campaign", "repro.core.campaign", "Campaign", "plan_campaign"),
    *_methods("parallel", "repro.core.parallel", "CampaignExecutor", "run_experiments"),
)

#: Span names the wrap-table self-check must see after one warm-up of each
#: injection channel: every simulator-layer entry (the engine entries above
#: the experiment are exercised by the repetition itself).
SIM_LAYER_NAMES = frozenset(
    target.span_name for target in SIM_TABLE if target.layer not in ("campaign", "parallel")
)


def _transport_targets() -> list[Target]:
    targets = []
    for cls, kind in (("PosixTransport", "posix"), ("ObjectStoreTransport", "objstore")):
        for op in TRANSPORT_OPS:
            if op == "get":
                # ObjectStoreTransport.get is get_with_stat()[0]; wrapping both
                # would count every object-store read twice.
                methods = ("get", "get_with_stat") if kind == "posix" else ("get_with_stat",)
            else:
                methods = (op,)
            for method in methods:
                targets.append(
                    Target(
                        "transport",
                        "repro.core.transport",
                        method,
                        cls=cls,
                        name=f"transport.{op}.{kind}",
                        eager=op == "list_iter",
                    )
                )
    return targets


#: Callables of the result store, its transports, federation and reporting.
STORE_TABLE: tuple[Target, ...] = (
    *_methods(
        "resultstore",
        "repro.core.resultstore",
        "ShardedResultStore",
        "write_shard",
        "write_shard_dicts",
        "results_digest",
        "completed_indexes",
        "load_record",
        suffix=_store_kind,
    ),
    Target("resultstore", "repro.core.resultstore", "write_dicts", cls="BatchedShardWriter", suffix=_writer_kind),
    *_transport_targets(),
    *_methods("objstore", "repro.core.objstore", "LocalObjectStore", "put", "get", "delete", "refresh", "list_keys"),
    Target("federate", "repro.core.federate", "federate_stores", request=True),
    Target("report", "repro.core.report", "store_document"),
    Target("report", "repro.core.report", "document_to_bytes"),
    Target("report", "repro.core.report", "tables_document"),
)

#: Client round-trips of the campaign service.
SERVICE_TABLE: tuple[Target, ...] = tuple(
    _methods("service", "repro.service.client", "ServiceClient", "submit", "status", "document", "tables", request=True)
)


# --------------------------------------------------------------------------
# Derivation
# --------------------------------------------------------------------------


class _Index:
    """Spans grouped by name, self times grouped by layer."""

    def __init__(self, recorder: SpanRecorder):
        self.spans = recorder.spans
        self.selfs = self_times(self.spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.layer_spans: dict[str, int] = defaultdict(int)
        for position, span in enumerate(self.spans):
            self.by_name[span[NAME]].append(position)
            self.layer_self_s[span[LAYER]] += self.selfs[position]
            self.layer_spans[span[LAYER]] += 1

    def positions(self, *names: str) -> list[int]:
        return [position for name in names for position in self.by_name.get(name, ())]

    def count(self, *names: str) -> int:
        return len(self.positions(*names))

    def self_s(self, *names: str) -> float:
        return sum(self.selfs[position] for position in self.positions(*names))

    def durations(self, *names: str, ok_only: bool = False) -> list[float]:
        return [
            duration(self.spans[position])
            for position in self.positions(*names)
            if not ok_only or self.spans[position][ERROR] is None
        ]

    def direct(self, name: str) -> list[float]:
        """Durations of the spans of this name the benchmark called itself
        (``load_record`` under ``federate_stores`` is the merge's work, and
        ``completed_indexes`` under ``results_digest`` the scan's)."""
        return [
            duration(self.spans[position])
            for position in self.positions(name)
            if self.spans[position][PARENT] is None
        ]


def attributed_share(recorder: SpanRecorder) -> float:
    """Sum of layer self times under the experiment spans / the spans' time.

    Self time partitions a span exactly, so anything but 1.0 (to rounding)
    means the arithmetic or the parent links are broken.
    """
    roots = [span for span in recorder.spans if span[LAYER] == "experiment"]
    total = sum(duration(span) for span in roots)
    if not total:
        return 0.0
    selfs = self_times(recorder.spans)
    return sum(selfs[position] for position, _ in descendants(recorder.spans, roots)) / total


#: ``*_self_ms`` rows that are a whole layer's self time per simulator run.
_LAYER_SELF_ROWS = (
    ("sim", "sim.self_ms"),
    ("etcd", "etcd.put_self_ms"),
    ("controllers", "controllers.tick_self_ms"),
    ("scheduler", "scheduler.tick_self_ms"),
    ("kubelet", "kubelet.sync_self_ms"),
    ("network", "network.self_ms"),
    ("monitoring", "monitoring.scrape_self_ms"),
    ("workloads", "workloads.client_self_ms"),
    ("injector", "injector.self_ms"),
    ("classification", "classification.self_ms"),
)


def _simulator_rows(index: _Index, counters: dict[str, int], scale: float) -> dict[str, float]:
    rows = {
        "serialization.encode_calls": float(index.count("serialization.encode")),
        "serialization.decode_calls": float(index.count("serialization.decode", "serialization.decode_shared")),
        "apiserver.validate_calls": float(index.count("apiserver.validate_object")),
        "etcd.put_calls": float(index.count("etcd.put")),
        "etcd.watch_dispatches": float(counters.get("watch_dispatches", 0)),
        "etcd.watch_events_skipped": float(counters.get("watch_events_skipped", 0)),
        "injector.hook_calls": float(index.count("injector.etcd_write_hook", "injector.component_request_hook")),
    }
    requests = counters.get("decodes", 0) + counters.get("decode_cache_hits", 0)
    if requests:
        rows["serialization.decode_cache_hit_ratio"] = counters["decode_cache_hits"] / requests
    prep = sum(index.durations("campaign.prepare_workloads"))
    rows["campaign.prep_s"] = prep * scale
    rows["campaign.plan_s"] = max(0.0, sum(index.durations("campaign.plan_campaign")) - prep) * scale
    rows["parallel.run_experiments_s"] = sum(index.durations("parallel.run_experiments")) * scale

    runs = index.count("experiment.run_experiment", "experiment.run_golden")
    if not runs:
        return rows
    per_run_ms = scale * 1000.0 / runs
    boot = setup_window = run_window = total = 0.0
    windows_seen: dict[int, int] = defaultdict(int)
    for span in index.spans:
        if span[LAYER] == "experiment":
            total += duration(span)
            continue
        parent = span[PARENT]
        if parent is None or parent[LAYER] != "experiment":
            continue
        if span[NAME] in ("cluster.init", "cluster.boot"):
            boot += duration(span)
        elif span[NAME] == "workloads.driver.setup_scenario":
            setup_window += duration(span)
        elif span[NAME] == "cluster.run_for":
            # An experiment advances the cluster twice: the set-up window
            # before the fault is armed, then the run window.
            windows_seen[id(parent)] += 1
            if windows_seen[id(parent)] == 1:
                setup_window += duration(span)
            else:
                run_window += duration(span)
    rows["cluster.boot_ms"] = boot * per_run_ms
    rows["experiment.setup_window_ms"] = setup_window * per_run_ms
    rows["experiment.run_window_ms"] = run_window * per_run_ms
    rows["experiment.prefix_share"] = (boot + setup_window) / total
    injected = index.durations("experiment.run_experiment")
    if injected:
        rows["experiment.ms_p50"] = median(injected) * scale * 1000.0
    events = sum(index.spans[position][DELTA] for position in index.positions("sim.run_until"))
    rows["sim.events_executed"] = float(events)
    if events:
        rows["sim.us_per_event"] = sum(index.durations("sim.run_until")) * scale * 1e6 / events
    for layer, row in _LAYER_SELF_ROWS:
        rows[row] = index.layer_self_s[layer] * per_run_ms
    for row, names in (
        ("serialization.encode_self_ms", ("serialization.encode",)),
        ("serialization.decode_self_ms", ("serialization.decode", "serialization.decode_shared")),
        ("apiserver.validate_self_ms", ("apiserver.validate_object",)),
        ("apiserver.write_self_ms", ("apiserver.create", "apiserver.update", "apiserver.update_status", "apiserver.delete")),
        ("apiserver.read_self_ms", ("apiserver.get", "apiserver.list")),
    ):
        rows[row] = index.self_s(*names) * per_run_ms
    return rows


def _store_rows(index: _Index, scale: float, records_scanned: dict[str, int]) -> dict[str, float]:
    to_ms = scale * 1000.0
    rows: dict[str, float] = {}
    for kind in TRANSPORT_KINDS:
        writes = index.positions(f"resultstore.write_shard_dicts.{kind}", f"resultstore.write_dicts.{kind}")
        if writes:
            spans = [duration(index.spans[position]) for position in writes]
            rows[f"resultstore.write_shard_ms_p50.{kind}"] = median(spans) * to_ms
            rows[f"resultstore.encode_member_share.{kind}"] = sum(index.selfs[position] for position in writes) / sum(spans)
        scans = sum(index.durations(f"resultstore.results_digest.{kind}"))
        if scans:
            rows[f"resultstore.scan_records_per_s.{kind}"] = records_scanned.get(kind, 0) / (scans * scale)
        rows[f"resultstore.completed_indexes_s.{kind}"] = sum(index.direct(f"resultstore.completed_indexes.{kind}")) * scale
        reads = index.direct(f"resultstore.load_record.{kind}")
        if reads:
            rows[f"resultstore.load_record_ms_p50.{kind}"] = median(reads) * to_ms
        errors = 0
        for op in TRANSPORT_OPS:
            name = f"transport.{op}.{kind}"
            spans = index.durations(name)
            rows[f"transport.{op}_calls.{kind}"] = float(len(spans))
            if spans:
                rows[f"transport.{op}_ms_p50.{kind}"] = median(spans) * to_ms
                rows[f"transport.{op}_ms_p99.{kind}"] = percentile_or_zero(spans, 99.0) * to_ms
            errors += sum(1 for position in index.positions(name) if raised(index.spans[position], "TransportError"))
        rows[f"transport.errors.{kind}"] = float(errors)
    rows["objstore.handler_self_ms"] = index.layer_self_s["objstore"] * to_ms
    rows["objstore.requests"] = float(index.layer_spans["objstore"])

    federations = [index.spans[position] for position in index.positions("federate.federate_stores")]
    if federations:
        read = write = 0.0
        for _, span in descendants(index.spans, federations):
            if span[LAYER] != "transport":
                continue
            if span[NAME].split(".")[1] in ("get", "stat", "list_iter"):
                read += duration(span)
            else:
                write += duration(span)
        total = sum(duration(span) for span in federations)
        rows["federate.read_share"] = read / total
        rows["federate.write_share"] = write / total
    rows["report.document_ms"] = sum(index.durations("report.store_document", "report.document_to_bytes")) * to_ms
    rows["report.tables_ms"] = sum(index.durations("report.tables_document")) * to_ms
    return rows


def _service_rows(index: _Index, scale: float) -> dict[str, float]:
    rows = {"service.status_polls": float(index.count("service.status"))}
    for row, name, reduce in (
        ("service.submit_ms", "service.submit", sum),
        ("service.status_ms_p50", "service.status", median),
        ("service.document_ms", "service.document", median),  # 200 answers only
        ("service.tables_ms", "service.tables", sum),
    ):
        spans = index.durations(name, ok_only=True)
        if spans:
            rows[row] = reduce(spans) * scale * 1000.0
    return rows


def derive(
    recorder: SpanRecorder,
    counters: dict[str, int],
    scale: float,
    records_scanned: dict[str, int],
    extras: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition.

    ``counters`` is the ``repro.hotpath.COUNTERS`` delta across the
    repetition, ``scale`` turns raw span seconds into calibrated ones,
    ``records_scanned`` gives the records each transport's digest scans
    covered and ``extras`` the rows a workload measured without spans.
    Rows of layers the workload does not cross read 0.
    """
    index = _Index(recorder)
    values = {metric.name: 0.0 for metric in PER_LAYER}
    computed = {
        **_simulator_rows(index, counters, scale),
        **_store_rows(index, scale, records_scanned),
        **_service_rows(index, scale),
        **extras,
    }
    unknown = sorted(set(computed) - set(values))
    if unknown:
        raise KeyError(f"per-layer rows missing from the catalogue: {', '.join(unknown)}")
    values.update(computed)
    return values


def call_counts(recorder: SpanRecorder) -> dict[str, int]:
    """Spans recorded per span name."""
    counts: dict[str, int] = defaultdict(int)
    for span in recorder.spans:
        counts[span[NAME]] += 1
    return dict(counts)


def counter_mismatch(recorder: SpanRecorder, counters: dict[str, int]) -> Optional[str]:
    """Wrapped codec / validation call counts against the program's own
    ``COUNTERS`` deltas over the same stretch: ``None`` when exactly equal."""
    calls = call_counts(recorder)
    observed = {
        "encode": calls.get("serialization.encode", 0),
        "decode requests": calls.get("serialization.decode", 0) + calls.get("serialization.decode_shared", 0),
        "validate_object": calls.get("apiserver.validate_object", 0),
    }
    expected = {
        "encode": counters.get("encodes", 0),
        "decode requests": counters.get("decodes", 0) + counters.get("decode_cache_hits", 0),
        "validate_object": counters.get("validations", 0),
    }
    if observed == expected:
        return None
    return f"wrapped call counts {observed} != COUNTERS deltas {expected}"
