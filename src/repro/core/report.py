"""Table and figure renderers.

Every table and figure of the paper's evaluation has one renderer here that
turns campaign results (or the FFDA dataset) into the rows/series the paper
reports.  The benchmark harness calls these and prints their output, so a
benchmark run regenerates the paper's artifacts from the simulated campaign.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.core import ffda
from repro.core.analysis import (
    client_impact_analysis,
    critical_field_analysis,
    user_error_analysis,
)
from repro.core.campaign import CampaignResult
from repro.core.classification import CampaignTally, ClientFailure, OrchestratorFailure
from repro.core.experiment import ExperimentResult
from repro.core.resultstore import result_from_dict
from repro.workloads.workload import WorkloadKind


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a simple fixed-width text table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[index] for index in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Campaign summary (CLI header)
# --------------------------------------------------------------------------


def render_campaign_summary(campaign: CampaignResult) -> str:
    """A compact summary of a campaign run, printed by the CLI.

    Every figure here comes from the campaign's one-pass streaming tally, so
    summarizing a store-backed paper-scale campaign costs one shard at a
    time of memory.
    """
    lines = [
        f"experiments        : {campaign.total_experiments()}",
        f"activation rate    : {campaign.activation_rate() * 100:.1f}%",
        f"critical results   : {campaign.critical_count()}",
    ]
    counts = campaign.classification_counts()
    if counts:
        rows = [[key, str(value)] for key, value in counts.items()]
        lines.append("")
        lines.append(_format_table(["OF/CF", "count"], rows))
    return "Campaign summary\n" + "\n".join(lines)


def render_store_summary(
    store,
    include_layout: bool = False,
    campaign: Optional[CampaignResult] = None,
    digest: Optional[str] = None,
) -> str:
    """Summarize a sharded result store (the ``campaign inspect`` body).

    Folds the store in one streaming pass.  The default output depends only
    on the stored *results* — not on how they were chunked into shards — so
    serial and parallel runs of the same campaign render identically and CI
    can diff it.  ``include_layout`` appends the worker-count-dependent
    layout facts (shard count, compressed size) for humans.  Callers that
    already tallied the store (or computed its digest) pass ``campaign`` /
    ``digest`` to avoid decompressing the shards again.
    """
    if campaign is None:
        campaign = CampaignResult(results=store.all_results())
    text = render_campaign_summary(campaign).replace(
        "Campaign summary", "Result store summary", 1
    )
    if include_layout:
        # Raw vs distinct record counts differ only when an experiment was
        # replayed into a second shard (e.g. a mis-tuned distributed lease
        # TTL); surfacing both makes wasted work visible at a glance.
        text += (
            f"\n\nshards             : {len(store.shard_paths())}"
            f"\nshard records      : {store.stored_record_count()}"
            f" ({store.record_count()} distinct)"
            f"\ncompressed size    : {store.compressed_bytes()} bytes"
            f"\nresults digest     : {digest if digest else store.results_digest()}"
        )
    return text


# --------------------------------------------------------------------------
# Canonical machine-readable documents (inspect --json and GET /v1/…)
# --------------------------------------------------------------------------


#: Schema version of :func:`store_document` / :func:`tables_document`.  Bump
#: it whenever a field is renamed, removed, or changes meaning — consumers
#: (CI diffs, the HTTP API's clients) key on it.
STORE_DOCUMENT_SCHEMA = 1


def fold_store(store) -> tuple[CampaignResult, str]:
    """The tally and the results digest of a store from one plan-order pass,
    where a tally pass followed by a digest pass would make two.  A cold
    store of two or more shards still parses every record twice: the index
    scan behind ``completed_indexes`` validates each shard, the one-shard
    read cache keeps only the last one scanned parsed, and the plan-order
    digest pass, having evicted it by the time it gets there, re-reads each
    shard and parses each record again as it hashes it (docs/PERFORMANCE.md,
    "The next store-read lever").  Timed side by side on two cores, a golden
    format-4 record costs 0.017 ms per parse, 0.046 ms to unpack its series
    and 0.035 ms per canonical dump, against format 3's 0.175 ms per parse
    and 0.574 ms per dump."""
    tally = CampaignTally()

    def fold(index: int, record: dict) -> None:
        result = result_from_dict(record)
        tally.update(result, CampaignResult.injection_family(result.fault))

    digest = store.results_digest(fold)
    return CampaignResult(results=store.all_results(), _tally=tally), digest


def store_document(
    store,
    campaign: Optional[CampaignResult] = None,
    digest: Optional[str] = None,
) -> dict:
    """The canonical machine-readable summary of a sharded result store.

    One document, two surfaces: ``repro.cli inspect --json`` writes it and
    ``GET /v1/campaigns/{id}`` serves it — byte-identical for the same store
    (serialize with :func:`document_to_bytes`).  Every field is
    worker-count-independent except ``stored_records``, which equals
    ``experiments`` iff zero experiments were replayed into a second shard,
    so diffing this document against a serial run's proves a distributed
    campaign (even one with a SIGKILLed worker) lost and duplicated nothing.
    Given neither a tally nor a digest it makes both in one :func:`fold_store`.
    """
    if campaign is None and digest is None:
        campaign, digest = fold_store(store)
    elif campaign is None:
        campaign = CampaignResult(results=store.all_results())
    return {
        "schema": STORE_DOCUMENT_SCHEMA,
        "experiments": campaign.total_experiments(),
        "activation_rate": campaign.activation_rate(),
        "critical_results": campaign.critical_count(),
        "classification_counts": campaign.classification_counts(),
        "results_digest": digest if digest is not None else store.results_digest(),
        "stored_records": store.stored_record_count(),
    }


def tables_document(campaign: CampaignResult) -> dict:
    """The paper's tables as one JSON-ready document (the ``/tables`` body).

    Tables IV and V arrive keyed ``(workload, family)`` from the tally;
    JSON objects need string keys, so they nest as
    ``{workload: {family: {label: count}}}``.
    """

    def nest(counts: dict) -> dict:
        nested: dict = {}
        for (workload, family), row_counts in sorted(counts.items()):
            nested.setdefault(workload, {})[family] = dict(row_counts)
        return nested

    return {
        "schema": STORE_DOCUMENT_SCHEMA,
        "experiments": campaign.total_experiments(),
        "activation_rate": campaign.activation_rate(),
        "critical_results": campaign.critical_count(),
        "classification_counts": campaign.classification_counts(),
        "table3_of_cf_matrix": campaign.of_cf_matrix(),
        "table4_orchestrator_failures": nest(campaign.of_counts()),
        "table5_client_failures": nest(campaign.cf_counts()),
    }


def document_to_bytes(document: dict) -> bytes:
    """Serialize a document to its canonical bytes.

    The one serialization both surfaces use — ``indent=2, sort_keys=True``,
    UTF-8, no trailing newline — so "CLI file and HTTP body are identical"
    is a byte-for-byte guarantee, not a semantic one.
    """
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


# --------------------------------------------------------------------------
# Table I — fault / error / failure taxonomy with real-world counts
# --------------------------------------------------------------------------


def render_table1() -> str:
    """Table I: the FFDA fault-error-failure chain with incident counts."""
    rows = []
    for name, count in sorted(ffda.count_by_fault().items(), key=lambda item: -item[1]):
        rows.append(["Fault", name, str(count)])
    for name, count in sorted(ffda.count_by_error().items(), key=lambda item: -item[1]):
        rows.append(["Error", name, str(count)])
    for name, count in sorted(ffda.count_by_failure().items(), key=lambda item: -item[1]):
        rows.append(["Failure", name, str(count)])
    table = _format_table(["Level", "Category", "Incidents"], rows)
    summary = (
        f"\nTotal incidents: {ffda.incident_count()} | outages: {ffda.outage_count()} | "
        f"misconfigurations: {ffda.misconfiguration_count()} | "
        f"replicable by Mutiny: {ffda.replicable_count()}"
    )
    return table + summary


# --------------------------------------------------------------------------
# Table III — OF → CF mapping
# --------------------------------------------------------------------------


def render_table3(campaign: CampaignResult, workload: Optional[WorkloadKind] = None) -> str:
    """Table III: propagation of orchestrator failures to client failures."""
    headers = ["OF \\ CF"] + [failure.value for failure in ClientFailure]
    rows = []
    matrix = campaign.of_cf_matrix(workload)
    for of_name in [failure.value for failure in OrchestratorFailure]:
        row = [of_name]
        for cf_name in [failure.value for failure in ClientFailure]:
            row.append(str(matrix[of_name][cf_name]))
        rows.append(row)
    title = f"workload={workload.value}" if workload else "all workloads"
    return f"Table III ({title})\n" + _format_table(headers, rows)


# --------------------------------------------------------------------------
# Table IV / Table V — OF and CF statistics per workload and injection type
# --------------------------------------------------------------------------


def render_table4(campaign: CampaignResult) -> str:
    """Table IV: orchestrator-level failures per workload and injection type."""
    headers = ["Workload", "Injection", "Perf."] + [f.value for f in OrchestratorFailure]
    rows = []
    counts = campaign.of_counts()
    for (workload, family), row_counts in sorted(counts.items()):
        total = sum(row_counts.values())
        row = [workload, family, str(total)]
        row += [str(row_counts[f.value]) for f in OrchestratorFailure]
        rows.append(row)
    totals = {f.value: 0 for f in OrchestratorFailure}
    grand_total = 0
    for row_counts in counts.values():
        for key, value in row_counts.items():
            totals[key] += value
            grand_total += value
    summary_row = ["TOTAL", "", str(grand_total)] + [
        str(totals[f.value]) for f in OrchestratorFailure
    ]
    percent_row = ["%", "", "100%"] + [
        f"{100.0 * totals[f.value] / grand_total:.1f}%" if grand_total else "0%"
        for f in OrchestratorFailure
    ]
    rows.append(summary_row)
    rows.append(percent_row)
    return "Table IV\n" + _format_table(headers, rows)


def render_table5(campaign: CampaignResult) -> str:
    """Table V: client-level failures per workload and injection type."""
    headers = ["Workload", "Injection", "Perf."] + [f.value for f in ClientFailure]
    rows = []
    counts = campaign.cf_counts()
    for (workload, family), row_counts in sorted(counts.items()):
        total = sum(row_counts.values())
        row = [workload, family, str(total)]
        row += [str(row_counts[f.value]) for f in ClientFailure]
        rows.append(row)
    totals = {f.value: 0 for f in ClientFailure}
    grand_total = 0
    for row_counts in counts.values():
        for key, value in row_counts.items():
            totals[key] += value
            grand_total += value
    rows.append(["TOTAL", "", str(grand_total)] + [str(totals[f.value]) for f in ClientFailure])
    rows.append(
        ["%", "", "100%"]
        + [
            f"{100.0 * totals[f.value] / grand_total:.1f}%" if grand_total else "0%"
            for f in ClientFailure
        ]
    )
    return "Table V\n" + _format_table(headers, rows)


# --------------------------------------------------------------------------
# Table VI — propagation through Apiserver validation
# --------------------------------------------------------------------------


def render_table6(rows: list[dict]) -> str:
    """Table VI: injections into component→Apiserver messages."""
    headers = ["Workload", "Component", "Inj.", "Prop", "Err."]
    body = [
        [
            row["workload"],
            row["component"],
            str(row["injections"]),
            str(row["propagated"]),
            str(row["errors"]),
        ]
        for row in rows
    ]
    return "Table VI\n" + _format_table(headers, body)


# --------------------------------------------------------------------------
# Table VII — real-world coverage
# --------------------------------------------------------------------------


def render_table7() -> str:
    """Table VII: comparison between Mutiny-triggered and real-world failures."""
    coverage = ffda.coverage_table()
    rows = []
    for level in ("errors", "failures"):
        for category, subcategories in coverage[level].items():
            for subcategory, marker in subcategories:
                rows.append([level, category, subcategory, marker])
    return "Table VII\n" + _format_table(["Level", "Category", "Subcategory", "Mutiny"], rows)


# --------------------------------------------------------------------------
# Figures
# --------------------------------------------------------------------------


def render_figure5(golden_series: list[float], injected_series: list[float], zscore: float) -> str:
    """Figure 5: a golden latency series next to an injected one."""

    def summarize(series: list[float]) -> str:
        if not series:
            return "no samples"
        failed = sum(1 for value in series if value == 0.0)
        nonzero = [value for value in series if value > 0.0]
        mean = sum(nonzero) / len(nonzero) if nonzero else 0.0
        return f"{len(series)} requests, {failed} failed, mean latency {mean * 1000:.1f} ms"

    return (
        "Figure 5\n"
        f"golden run   : {summarize(golden_series)}\n"
        f"injected run : {summarize(injected_series)} (z-score {zscore:.1f})"
    )


def render_figure6(results: Iterable[ExperimentResult]) -> str:
    """Figure 6: client z-score distribution per orchestrator failure category."""
    report = client_impact_analysis(results)
    headers = ["OF", "count", "median z", "p90 z", "max z"]
    rows = []
    for failure in OrchestratorFailure:
        stats = report.summary().get(failure.value)
        if stats is None:
            continue
        rows.append(
            [
                failure.value,
                str(int(stats["count"])),
                f"{stats['median']:.2f}",
                f"{stats['p90']:.2f}",
                f"{stats['max']:.2f}",
            ]
        )
    return "Figure 6\n" + _format_table(headers, rows)


def render_figure7(results: Iterable[ExperimentResult]) -> str:
    """Figure 7: user-visible errors per orchestrator failure category."""
    report = user_error_analysis(results)
    headers = ["OF", "experiments", "user saw error"]
    rows = []
    for failure in OrchestratorFailure:
        if failure.value not in report.per_failure:
            continue
        total, errored = report.per_failure[failure.value]
        rows.append([failure.value, str(total), str(errored)])
    silent = report.silent_failure_fraction
    return (
        "Figure 7\n"
        + _format_table(headers, rows)
        + f"\nsilent failures (no user-visible error among OF != No): {silent * 100:.1f}%"
    )


def render_critical_fields(results: Iterable[ExperimentResult]) -> str:
    """Finding F2: critical-field analysis summary."""
    report = critical_field_analysis(results)
    headers = ["Field category", "critical injections", "distinct fields"]
    rows = []
    for category in sorted(report.injections_per_category, key=lambda key: -report.injections_per_category[key]):
        rows.append(
            [
                category,
                str(report.injections_per_category[category]),
                str(report.fields_per_category.get(category, 0)),
            ]
        )
    return (
        "Critical-field analysis (F2)\n"
        + _format_table(headers, rows)
        + f"\ndependency-field share of critical injections: {report.dependency_share * 100:.1f}%"
    )
