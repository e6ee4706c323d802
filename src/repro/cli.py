"""Command-line interface for running Mutiny campaigns.

Usage::

    python -m repro.cli campaign [--workers N] [--max-experiments M]
                                 [--results-dir DIR]
                                 [--backend {local,distributed}]
                                 [--tables] [--json FILE]
    python -m repro.cli worker --results-dir DIR [--worker-id ID]
                               [--lease-ttl S] [--max-slices N]
    python -m repro.cli propagation [--workers N] [--fields-per-component K]
    python -m repro.cli profile [--max-experiments M] [--top N] [--output FILE]
    python -m repro.cli inspect RESULTS_DIR [--json FILE]
    python -m repro.cli federate DEST SOURCE [SOURCE ...]
    python -m repro.cli autofederate DEST SOURCE [SOURCE ...] [--timeout S]
    python -m repro.cli objstore [--host H] [--port P] [--max-page N]
    python -m repro.cli serve --state DIR [--port P] [--max-campaigns N]
    python -m repro.cli submit --server URL --results-dir DIR [--wait]

or, after ``pip install -e .``, via the ``mutiny-campaign`` console script.

``campaign`` runs the §IV-C injection campaign (golden baselines, field
recording, generation, execution, classification) through the parallel
:class:`repro.core.parallel.CampaignExecutor` and prints the paper's tables;
``propagation`` runs the Table VI component→Apiserver experiments.  With
``--results-dir`` the workers stream every finished batch into a sharded
gzip-JSONL result store and a rerun of the same configuration resumes from
the completed shards (use this for paper-scale campaigns).

``campaign --backend distributed`` turns this process into the coordinator
of a multi-host campaign: it publishes the frozen plan into the (shared)
``--results-dir`` and folds the shards streamed in by any number of
``worker`` processes — run one per host sharing the directory — into the
same merged result a local run produces.  ``inspect`` summarizes an
existing result store (including per-worker slice provenance and
outstanding leases of a distributed run) without running anything.

Everywhere a results dir is accepted, the store root may also be an
``objstore://host:port/bucket`` URL: the store then speaks S3-style
conditional HTTP to an object store instead of a shared filesystem, which
frees distributed workers from needing any common mount.  ``objstore`` runs
the local emulation server behind that scheme; ``federate`` merges several
stores of the *same* campaign (any mix of transports) into one store whose
digest is byte-identical to a single serial run, and ``autofederate`` is
its watching form: it polls several stores (even ones their workers haven't
created yet) and folds newly completed experiments into the destination
until the campaign's full plan is there.

``profile`` runs a reduced campaign serially under cProfile together with
the hot-path counters of :mod:`repro.hotpath` — per-experiment encode /
decode / validation / watch-dispatch counts and cache hit rates next to the
functions the wall-clock actually went to (see ``docs/PERFORMANCE.md``).

``serve`` runs the campaign *service*: a stateless HTTP control plane whose
``POST /v1/campaigns`` accepts the same declarative ``CampaignSpec``
document the ``campaign``/``submit`` flags build (one validation path for
every surface), executes campaigns on background threads under a
concurrent-campaign quota, and — because the only state it keeps is a tiny
index in its transport-backed ``--state`` store — rehydrates and resumes
every incomplete campaign after a restart.  ``submit`` is the thin client:
flags → spec → POST, with ``--wait`` polling live progress through service
restarts.  ``GET /v1/campaigns/{id}`` serves the byte-identical document
``inspect --json`` writes.

Very large campaigns stress the store path itself; two knobs keep it flat:
object-store listings paginate transparently (server ``--max-page``, client
``MUTINY_OBJSTORE_PAGE``), and ``--shard-batch N`` on ``campaign``/``worker``
coalesces N finished batches into one stored shard object via conditional
appends — same results, same digests, 1/N the objects.

Each subcommand imports what it runs inside its handler; the module level
holds only what :func:`build_parser` needs, so ``objstore`` or ``submit``
starts without loading the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Optional

from repro.lint import KNOWN_CODES
from repro.workloads.workload import WorkloadKind

if TYPE_CHECKING:
    from repro.core.campaign import CampaignConfig

_WORKLOADS = {kind.value: kind for kind in WorkloadKind}

#: Errors :func:`main` reports as one ``error:`` line with exit code 2, by
#: defining module.  A module no handler has imported cannot have raised
#: its error, so only loaded ones are looked up (see :func:`_usage_errors`).
_USAGE_ERRORS = (
    ("repro.core.resultstore", "ResultStoreMismatchError"),
    ("repro.core.distributed", "DistributedTimeoutError"),
    ("repro.core.transport", "TransportError"),
    ("repro.service.spec", "SpecError"),
    ("repro.service.client", "ServiceError"),
    ("repro.lint", "LintUsageError"),
)

#: Components the propagation experiments know how to hook.  A bare
#: "kubelet" targets every kubelet; "kubelet-<node>" pins one node's kubelet.
_COMPONENTS = ("kube-controller-manager", "kube-scheduler", "kubelet")


def _parse_workloads(text: str) -> tuple[WorkloadKind, ...]:
    kinds = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _WORKLOADS:
            raise argparse.ArgumentTypeError(
                f"unknown workload {name!r} (choose from {', '.join(sorted(_WORKLOADS))})"
            )
        kinds.append(_WORKLOADS[name])
    if not kinds:
        raise argparse.ArgumentTypeError("at least one workload is required")
    return tuple(kinds)


def _parse_components(text: str) -> tuple[str, ...]:
    names = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _COMPONENTS and not name.startswith("kubelet-"):
            raise argparse.ArgumentTypeError(
                f"unknown component {name!r} (choose from {', '.join(_COMPONENTS)}, "
                "or kubelet-<node>)"
            )
        names.append(name)
    if not names:
        raise argparse.ArgumentTypeError("at least one component is required")
    return tuple(names)


def _positive_int(text: str) -> int:
    """Reject non-integers and values < 1 with a message naming the input.

    Applied uniformly to every count-like option (``--workers``,
    ``--chunk-size``, ``--golden-runs``, …): a worker count or chunk size
    below 1 is meaningless and silently clamping it would hide the typo.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected an integer >= 1"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be an integer >= 1"
        )
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected an integer >= 0"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be an integer >= 0"
        )
    return value


def _positive_float(text: str) -> float:
    """Reject non-numbers and values <= 0, naming the input (durations)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected a number > 0"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be > 0")
    return value


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workloads",
        type=_parse_workloads,
        default=tuple(WorkloadKind),
        metavar="LIST",
        help="comma-separated workloads to run (default: deploy,scale,failover)",
    )
    parser.add_argument("--seed", type=int, default=7, help="campaign seed (default: 7)")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes (default: one per CPU; 1 = serial)",
    )
    parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="K",
        help="experiments per worker batch (default: sized automatically)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines on stderr"
    )


def _add_spec_arguments(parser: argparse.ArgumentParser, results_dir_required: bool = False) -> None:
    """Flags mapping 1:1 onto :class:`CampaignSpec` fields.

    Shared by ``campaign`` (which runs the spec locally) and ``submit``
    (which POSTs it to a service), so both surfaces accept the identical
    vocabulary and neither re-parses anything the spec validates.
    """
    _add_common_arguments(parser)
    parser.add_argument(
        "--golden-runs",
        type=_positive_int,
        default=2,
        help="golden runs per workload used for the baseline (default: 2)",
    )
    parser.add_argument(
        "--max-experiments",
        type=_non_negative_int,
        default=60,
        metavar="M",
        help="experiments per workload, 0 = the full generated campaign (default: 60)",
    )
    results_dir_help = (
        "stream results into a sharded gzip-JSONL store under DIR — a "
        "directory or an objstore://host:port/bucket URL; a rerun of the "
        "same configuration resumes from the completed shards (memory "
        "stays bounded by one batch — use for paper-scale campaigns)"
    )
    if results_dir_required:
        results_dir_help += " (required: service campaigns live in a transport-backed store)"
    parser.add_argument(
        "--results-dir",
        metavar="DIR",
        default=None,
        required=results_dir_required,
        help=results_dir_help,
    )
    parser.add_argument(
        "--backend",
        choices=("local", "distributed"),
        default="local",
        help="execution backend: 'local' shards across a process pool; "
        "'distributed' makes the running process the coordinator of worker "
        "processes sharing --results-dir (default: local)",
    )
    parser.add_argument(
        "--slice-size",
        type=_positive_int,
        default=None,
        metavar="K",
        help="distributed: plan indexes per leased worker slice "
        "(default: plan split into 8 slices)",
    )
    parser.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.5,
        metavar="S",
        help="seconds between coordinator progress scans (and, for submit "
        "--wait, between status polls) (default: 0.5)",
    )
    parser.add_argument(
        "--coordinator-timeout",
        type=_positive_float,
        default=None,
        metavar="S",
        help="distributed: fail if the campaign is incomplete after S seconds "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--shard-batch",
        type=_positive_int,
        default=1,
        metavar="N",
        help="finished batches coalesced per stored shard object when "
        "streaming into --results-dir (conditional appends; same results "
        "and digests, 1/N the stored objects; with --backend distributed "
        "the value is published in the plan and inherited by every worker "
        "that doesn't set its own; default: 1)",
    )


def _make_config(args: argparse.Namespace, max_experiments: Optional[int]) -> CampaignConfig:
    from repro.core.campaign import CampaignConfig

    return CampaignConfig(
        workloads=args.workloads,
        golden_runs=getattr(args, "golden_runs", 2),
        max_experiments_per_workload=max_experiments,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        shard_batch=getattr(args, "shard_batch", 1),
    )


def _progress_printer(quiet: bool, started_at: float):
    if quiet:
        return None

    def progress(done: int, total: int) -> None:
        elapsed = time.monotonic() - started_at
        print(f"[{done}/{total}] experiments done ({elapsed:.1f}s)", file=sys.stderr)

    return progress


def _cmd_campaign(args: argparse.Namespace) -> int:
    # The CLI is a thin client of the same programmatic API the HTTP
    # service speaks: flags become a CampaignSpec (the one validation
    # path), the spec becomes a CampaignHandle, and the handle runs the
    # engine.  SpecError surfaces through main()'s shared handler.
    from repro.core.report import (
        render_campaign_summary,
        render_critical_fields,
        render_figure6,
        render_figure7,
        render_table3,
        render_table4,
        render_table5,
    )
    from repro.core.transport import resolve_store_url
    from repro.service.handle import CampaignHandle
    from repro.service.spec import CampaignSpec

    if args.results_dir:
        args.results_dir = resolve_store_url(args.results_dir, option="--results-dir")
    spec = CampaignSpec.from_cli_args(args)
    handle = CampaignHandle(spec)
    result = handle.run(progress=_progress_printer(args.quiet, time.monotonic()))
    print(render_campaign_summary(result))
    if args.tables:
        for text in (
            render_table4(result),
            render_table5(result),
            render_table3(result),
            render_figure6(result.results),
            render_figure7(result.results),
            render_critical_fields(result.results),
        ):
            print()
            print(text)
    if args.json:
        payload = {
            "experiments": result.total_experiments(),
            "activation_rate": result.activation_rate(),
            "classification_counts": result.classification_counts(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Summarize a sharded result store without running any experiment."""
    from repro.core.distributed import render_provenance
    from repro.core.report import (
        document_to_bytes,
        fold_store,
        render_store_summary,
        store_document,
    )
    from repro.core.resultstore import ShardedResultStore
    from repro.core.transport import resolve_store_url

    root = resolve_store_url(args.results_dir, option="RESULTS_DIR")
    store = ShardedResultStore(root)
    if not store.has_manifest():
        print(
            f"error: {root!r} is not a result store "
            "(no MANIFEST.json); point inspect at a --results-dir store",
            file=sys.stderr,
        )
        return 2
    # One pass over the shards makes the tally and the digest, shared between
    # the rendered summary and the JSON payload.
    campaign, digest = fold_store(store)
    print(render_store_summary(store, include_layout=True, campaign=campaign, digest=digest))
    provenance = render_provenance(root)
    if provenance:
        print()
        print(provenance)
    if args.json:
        # The schema-versioned canonical document — the service's
        # GET /v1/campaigns/{id} serves these exact bytes for the same
        # store, so the two surfaces are diffable against each other.
        document = store_document(store, campaign=campaign, digest=digest)
        with open(args.json, "wb") as handle:
            handle.write(document_to_bytes(document))
        print(f"\nwrote {args.json}")
    return 0


def _worker_log_printer(quiet: bool):
    if quiet:
        return None

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    return progress


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one distributed campaign worker against a shared result store."""
    from repro.core.distributed import DistributedWorker
    from repro.core.transport import resolve_store_url

    worker = DistributedWorker(
        resolve_store_url(args.results_dir, option="--results-dir"),
        worker_id=args.worker_id,
        workers=args.workers if args.workers is not None else 1,
        chunk_size=args.chunk_size,
        shard_batch=args.shard_batch,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat,
        poll_interval=args.poll_interval,
        wait_timeout=args.wait_timeout,
        max_slices=args.max_slices,
        stall_after_batches=args.stall_after_batches,
        progress=_worker_log_printer(args.quiet),
    )
    # A timeout waiting for the plan surfaces through main()'s shared
    # DistributedTimeoutError handler (stderr message, exit code 2).
    report = worker.run()
    print(
        f"worker {report.worker_id}: {report.slices_completed} slice(s), "
        f"{report.experiments_run} experiment(s) executed"
    )
    return 0


def _cmd_federate(args: argparse.Namespace) -> int:
    """Merge several stores of one campaign into a single store."""
    from repro.core.federate import federate_stores
    from repro.core.transport import resolve_store_url

    progress = None
    if not args.quiet:

        def progress(done: int, total: int) -> None:
            if done == total or done % 500 == 0:
                print(f"[{done}/{total}] records merged", file=sys.stderr)

    report = federate_stores(
        resolve_store_url(args.dest, option="DEST"),
        [resolve_store_url(source, option="SOURCE") for source in args.sources],
        shard_records=args.shard_records,
        progress=progress,
    )
    print(report.describe())
    print(f"\nrun `python -m repro.cli inspect {args.dest}` for the merged summary")
    return 0


def _cmd_autofederate(args: argparse.Namespace) -> int:
    """Watch several stores and fold new shards into one destination."""
    from repro.core.federate import autofederate_stores
    from repro.core.transport import resolve_store_url

    progress = None
    if not args.quiet:

        def progress(done: int, total: int) -> None:
            print(f"[{done}/{total}] records folded", file=sys.stderr)

    report = autofederate_stores(
        resolve_store_url(args.dest, option="DEST"),
        [resolve_store_url(source, option="SOURCE") for source in args.sources],
        shard_records=args.shard_records,
        poll_interval=args.poll_interval,
        timeout=args.timeout,
        progress=progress,
    )
    print(report.describe())
    print(f"\nrun `python -m repro.cli inspect {args.dest}` for the merged summary")
    return 0


def _cmd_objstore(args: argparse.Namespace) -> int:
    """Run the local S3-style object-store emulation server (blocking)."""
    from repro.core.objstore import serve

    serve(host=args.host, port=args.port, max_page=args.max_page)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service control plane (blocking)."""
    from repro.service.server import serve

    serve(
        host=args.host,
        port=args.port,
        state_root=args.state,
        max_campaigns=args.max_campaigns,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign spec to a running service over HTTP."""
    from repro.core.transport import resolve_store_url
    from repro.service.client import ServiceClient
    from repro.service.spec import CampaignSpec

    if args.results_dir:
        args.results_dir = resolve_store_url(args.results_dir, option="--results-dir")
    spec = CampaignSpec.from_cli_args(args)
    client = ServiceClient(args.server)
    response = client.submit(spec)
    campaign_id = response["id"]
    print(f"campaign {campaign_id} ({response['state']}) at {client.base_url}")
    print(f"fingerprint : {response['fingerprint']}")
    print(f"store       : {spec.store_url}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(response, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if not args.wait:
        return 0
    status = client.wait(
        campaign_id, timeout=args.wait_timeout, poll_interval=args.poll_interval
    )
    print(
        f"campaign {campaign_id} {status['state']}: "
        f"{status.get('completed', '?')} of {status.get('total', '?')} experiments stored"
    )
    if status["state"] != "complete":
        if status.get("error"):
            print(f"error: {status['error']}", file=sys.stderr)
        return 1
    if args.document:
        with open(args.document, "wb") as handle:
            handle.write(client.document(campaign_id))
        print(f"wrote {args.document}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile a reduced serial campaign: cProfile + hot-path counters."""
    import cProfile
    import io
    import pstats

    from repro.core.campaign import Campaign, CampaignConfig
    from repro.hotpath import COUNTERS

    config = CampaignConfig(
        workloads=args.workloads,
        golden_runs=args.golden_runs,
        max_experiments_per_workload=args.max_experiments,
        seed=args.seed,
        workers=1,  # cProfile cannot follow pool workers; always serial
    )
    campaign = Campaign(config)
    COUNTERS.reset()
    started = time.monotonic()
    profiler = cProfile.Profile()
    profiler.enable()
    result = campaign.run(progress=_progress_printer(args.quiet, started))
    profiler.disable()
    elapsed = time.monotonic() - started

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    report = "\n".join(
        [
            f"profiled campaign: {result.total_experiments()} experiment(s) "
            f"in {elapsed:.2f}s (serial)",
            "",
            COUNTERS.render(),
            "",
            f"cProfile top {args.top} functions by {args.sort}:",
            stream.getvalue().rstrip(),
        ]
    )
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"\nwrote {args.output}")
    return 0


def _cmd_propagation(args: argparse.Namespace) -> int:
    from repro.core.campaign import Campaign
    from repro.core.report import render_table6

    config = _make_config(args, max_experiments=None)
    campaign = Campaign(config)
    rows = campaign.run_propagation(
        components=args.components,
        fields_per_component=args.fields_per_component,
        progress=_progress_printer(args.quiet, time.monotonic()),
    )
    print(render_table6(rows))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import EXPLANATIONS, TITLES, BaselineError, LintUsageError, lint_paths
    from repro.lint import baseline as lint_baseline

    if args.explain is not None:
        code = args.explain.strip().upper()
        explanation = EXPLANATIONS.get(code)
        if explanation is None:
            raise LintUsageError(
                f"unknown code {code!r} (known: {', '.join(KNOWN_CODES)})"
            )
        print(f"{code}: {TITLES[code]}")
        print()
        print(explanation.rstrip())
        return 0

    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    codes = None
    if args.codes is not None:
        codes = [code for chunk in args.codes for code in chunk.split(",")]

    baseline_entries = None
    if not args.write_baseline and not args.no_baseline:
        baseline_path = args.baseline
        if baseline_path is None and os.path.isfile("lint-baseline.json"):
            baseline_path = "lint-baseline.json"  # auto-pickup in the repo root
        if baseline_path is not None:
            try:
                with open(baseline_path, encoding="utf-8") as handle:
                    baseline_entries = lint_baseline.parse(handle.read())
            except OSError as error:
                raise LintUsageError(f"cannot read baseline: {error}") from error
            except BaselineError as error:
                raise LintUsageError(str(error)) from error

    report = lint_paths(paths, codes=codes, baseline_entries=baseline_entries)

    if args.write_baseline:
        target = args.baseline or "lint-baseline.json"
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(lint_baseline.serialize(report.diagnostics))
        print(
            f"wrote {len(report.diagnostics)} finding(s) from "
            f"{report.files_checked} file(s) to {target}"
        )
        return 0

    if args.format == "json":
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
    elif args.format == "github":
        for diagnostic in report.diagnostics:
            print(
                f"::error file={diagnostic.path},line={diagnostic.line},"
                f"col={diagnostic.column},title={diagnostic.code}::"
                f"{_github_escape(diagnostic.message)}"
            )
        for file, code, message in report.stale_baseline:
            print(
                "::error title=stale lint baseline entry::"
                + _github_escape(
                    f"{code} {message!r} ({file}) no longer occurs; remove it "
                    "from lint-baseline.json (the ratchet only goes down)"
                )
            )
        print(
            f"{len(report.diagnostics)} new finding(s), "
            f"{len(report.stale_baseline)} stale baseline entr(ies) in "
            f"{report.files_checked} file(s) checked"
        )
    else:
        for diagnostic in report.diagnostics:
            print(diagnostic.render())
        for file, code, message in report.stale_baseline:
            print(
                f"stale baseline entry: {code} {message!r} ({file}) no longer "
                "occurs; remove it from lint-baseline.json"
            )
        summary = (
            f"{len(report.diagnostics)} finding(s) in {report.files_checked} "
            f"file(s) checked"
        )
        if report.baselined:
            summary += f" ({report.baselined} baselined)"
        print(summary if not report.ok else f"clean: {summary}")
    return 0 if report.ok else 1


def _github_escape(message: str) -> str:
    """GitHub workflow-command data escaping (percent, CR, LF)."""
    return message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutiny-campaign",
        description="Run Mutiny fault/error injection campaigns (DSN 2024, §IV-C).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    campaign = subparsers.add_parser(
        "campaign", help="run the injection campaign and print the paper's tables"
    )
    _add_spec_arguments(campaign)
    campaign.add_argument(
        "--tables", action="store_true", help="print Tables III-V and Figures 6-7"
    )
    campaign.add_argument(
        "--json", metavar="FILE", default=None, help="write a JSON summary to FILE"
    )
    campaign.set_defaults(func=_cmd_campaign)

    worker = subparsers.add_parser(
        "worker",
        help="execute leased plan slices of a distributed campaign "
        "(run one per host sharing the coordinator's --results-dir)",
    )
    worker.add_argument(
        "--results-dir",
        metavar="DIR",
        required=True,
        help="the shared result store the coordinator publishes into "
        "(directory or objstore:// URL)",
    )
    worker.add_argument(
        "--worker-id",
        metavar="ID",
        default=None,
        help="lease/provenance identity (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="local process-pool size for executing a claimed slice "
        "(default: 1 = in-process)",
    )
    worker.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="K",
        help="experiments per batch/shard (default: sized automatically)",
    )
    worker.add_argument(
        "--shard-batch",
        type=_positive_int,
        default=None,
        metavar="N",
        help="finished batches coalesced per stored shard object "
        "(conditional appends; every batch stays durable on completion, "
        "the store holds 1/N the objects; default: inherit the "
        "coordinator's --shard-batch from the published plan)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=30.0,
        metavar="S",
        help="seconds of missed heartbeats after which this worker's slice "
        "lease may be reclaimed; keep well above one batch duration "
        "(default: 30)",
    )
    worker.add_argument(
        "--heartbeat",
        type=_positive_float,
        default=None,
        metavar="S",
        help="seconds between lease heartbeats (default: lease-ttl / 4)",
    )
    worker.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.5,
        metavar="S",
        help="seconds between claim scans while other workers hold every "
        "remaining slice (default: 0.5)",
    )
    worker.add_argument(
        "--wait-timeout",
        type=_positive_float,
        default=60.0,
        metavar="S",
        help="seconds to wait for the coordinator to publish the plan (default: 60)",
    )
    worker.add_argument(
        "--max-slices",
        type=_positive_int,
        default=None,
        metavar="N",
        help="exit after completing N slices (default: run until the campaign "
        "is complete)",
    )
    worker.add_argument(
        "--stall-after-batches",
        type=_positive_int,
        default=None,
        metavar="N",
        help="fault injection: after N completed batches, stop heartbeating and "
        "hold the lease until killed — simulates a hung worker so the "
        "reclamation path can be exercised (tests/CI)",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines on stderr"
    )
    worker.set_defaults(func=_cmd_worker)

    propagation = subparsers.add_parser(
        "propagation", help="run the Table VI component-to-Apiserver experiments"
    )
    _add_common_arguments(propagation)
    propagation.add_argument(
        "--components",
        type=_parse_components,
        default=_COMPONENTS,
        metavar="LIST",
        help="comma-separated components to inject into "
        "(kube-controller-manager, kube-scheduler, kubelet, kubelet-<node>)",
    )
    propagation.add_argument(
        "--fields-per-component",
        type=_positive_int,
        default=10,
        metavar="K",
        help="recorded fields injected per (workload, component) pair (default: 10)",
    )
    propagation.set_defaults(func=_cmd_propagation)

    profile = subparsers.add_parser(
        "profile",
        help="profile a reduced serial campaign: cProfile plus the hot-path "
        "counters (encodes, decodes, validations, watch dispatches)",
    )
    profile.add_argument(
        "--workloads",
        type=_parse_workloads,
        default=tuple(WorkloadKind),
        metavar="LIST",
        help="comma-separated workloads to run (default: deploy,scale,failover)",
    )
    profile.add_argument("--seed", type=int, default=7, help="campaign seed (default: 7)")
    profile.add_argument(
        "--golden-runs",
        type=_positive_int,
        default=2,
        help="golden runs per workload used for the baseline (default: 2)",
    )
    profile.add_argument(
        "--max-experiments",
        type=_non_negative_int,
        default=8,
        metavar="M",
        help="experiments per workload, 0 = the full generated campaign "
        "(default: 8 — profiling multiplies the runtime)",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=25,
        metavar="N",
        help="pstats rows to print (default: 25)",
    )
    profile.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="tottime",
        help="pstats sort order (default: tottime)",
    )
    profile.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the report (counters + pstats) to FILE",
    )
    profile.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines on stderr"
    )
    profile.set_defaults(func=_cmd_profile)

    inspect = subparsers.add_parser(
        "inspect", help="summarize an existing sharded result store"
    )
    inspect.add_argument(
        "results_dir",
        metavar="RESULTS_DIR",
        help="a --results-dir store (directory or objstore:// URL)",
    )
    inspect.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write a canonical JSON summary (worker-count independent; "
        "CI diffs it between serial and parallel runs)",
    )
    inspect.set_defaults(func=_cmd_inspect)

    federate = subparsers.add_parser(
        "federate",
        help="merge several result stores of one campaign (same fingerprint) "
        "into a single store whose digest matches a serial run",
    )
    federate.add_argument(
        "dest",
        metavar="DEST",
        help="destination store (directory or objstore:// URL; created if absent)",
    )
    federate.add_argument(
        "sources",
        metavar="SOURCE",
        nargs="+",
        help="source stores; on overlapping plan indexes the later source wins",
    )
    federate.add_argument(
        "--shard-records",
        type=_positive_int,
        default=512,
        metavar="K",
        help="records per merged shard (default: 512)",
    )
    federate.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines on stderr"
    )
    federate.set_defaults(func=_cmd_federate)

    autofederate = subparsers.add_parser(
        "autofederate",
        help="watch several result stores of one campaign and incrementally "
        "fold newly completed experiments into a destination store until "
        "the full plan is there (sources may not exist yet when the "
        "watch starts)",
    )
    autofederate.add_argument(
        "dest",
        metavar="DEST",
        help="destination store (directory or objstore:// URL; created once "
        "the first source manifest appears)",
    )
    autofederate.add_argument(
        "sources",
        metavar="SOURCE",
        nargs="+",
        help="source stores to watch; on an index first seen in several "
        "sources within one poll round, the later source wins",
    )
    autofederate.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.5,
        metavar="S",
        help="seconds between source scans (default: 0.5)",
    )
    autofederate.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="S",
        help="fail if the destination is incomplete after S seconds "
        "(default: watch forever)",
    )
    autofederate.add_argument(
        "--shard-records",
        type=_positive_int,
        default=512,
        metavar="K",
        help="records per merged shard (default: 512)",
    )
    autofederate.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines on stderr"
    )
    autofederate.set_defaults(func=_cmd_autofederate)

    objstore = subparsers.add_parser(
        "objstore",
        help="run the local S3-style object-store emulation server "
        "(use objstore://HOST:PORT/bucket as a --results-dir)",
    )
    objstore.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    objstore.add_argument(
        "--port",
        type=_non_negative_int,
        default=8383,
        help="bind port, 0 = pick a free one (default: 8383)",
    )
    objstore.add_argument(
        "--max-page",
        type=_positive_int,
        default=None,
        metavar="N",
        help="server-side cap on keys per /list page — clients paginate "
        "transparently; tests/CI use a tiny cap to force pagination "
        "(default: uncapped)",
    )
    objstore.set_defaults(func=_cmd_objstore)

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign service: a stateless HTTP control plane that "
        "accepts CampaignSpec documents on POST /v1/campaigns, executes "
        "them on background threads, and recovers purely from its "
        "transport-backed state store after a restart",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=_non_negative_int,
        default=8484,
        help="bind port, 0 = pick a free one (default: 8484)",
    )
    serve.add_argument(
        "--state",
        metavar="DIR",
        required=True,
        help="the service's campaign index store (directory or objstore:// "
        "URL); a restarted service pointed at the same state rehydrates "
        "and resumes every incomplete campaign",
    )
    serve.add_argument(
        "--max-campaigns",
        type=_positive_int,
        default=4,
        metavar="N",
        help="concurrent-campaign quota; submissions beyond it get 429 with "
        "a Retry-After header (default: 4)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a campaign to a running service over HTTP (the same "
        "flags as 'campaign'; the spec they build is POSTed instead of "
        "executed in this process)",
    )
    _add_spec_arguments(submit, results_dir_required=True)
    submit.add_argument(
        "--server",
        metavar="URL",
        required=True,
        help="the service base URL (http://host:port)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll the campaign's status until it reaches a terminal state "
        "(tolerating service restarts) and exit nonzero unless complete",
    )
    submit.add_argument(
        "--wait-timeout",
        type=_positive_float,
        default=None,
        metavar="S",
        help="with --wait: give up after S seconds (default: wait forever)",
    )
    submit.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the service's submission response (id, fingerprint, "
        "links) to FILE",
    )
    submit.add_argument(
        "--document",
        metavar="FILE",
        default=None,
        help="with --wait, after completion: write the campaign's canonical "
        "inspect document (the GET /v1/campaigns/{id} bytes) to FILE",
    )
    submit.set_defaults(func=_cmd_submit)

    lint = subparsers.add_parser(
        "lint",
        help="run mutiny-lint, the AST checker that enforces the repo's "
        "cross-layer contracts (informer immutability, transport purity, "
        "determinism, lock discipline, swallowed exceptions)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--codes",
        action="append",
        default=None,
        metavar="MUTnnn[,MUTnnn...]",
        help="restrict to these codes (repeatable or comma-separated; "
        f"known: {', '.join(KNOWN_CODES)})",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text; json is schema-versioned; "
        "github emits ::error workflow annotations for inline PR findings)",
    )
    lint.add_argument(
        "--explain",
        metavar="MUTnnn",
        default=None,
        help="print the contract behind a code (what it enforces, the "
        "motivating bug, the correct pattern) and exit",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="findings baseline to apply (default: lint-baseline.json in "
        "the current directory, when present)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings into the baseline file and exit 0; "
        "subsequent runs fail only on findings not recorded there",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline and report every finding",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def _usage_errors() -> tuple[type[Exception], ...]:
    """The loaded classes of :data:`_USAGE_ERRORS` (evaluated when one is raised)."""
    return tuple(
        getattr(sys.modules[module], name) for module, name in _USAGE_ERRORS if module in sys.modules
    )


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point of ``python -m repro.cli`` and the console script."""
    args = build_parser().parse_args(argv)
    if getattr(args, "max_experiments", None) == 0:
        args.max_experiments = None
    try:
        return args.func(args)
    except _usage_errors() as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The consumer of our stdout went away (e.g. `... | head`).  Point
        # stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
