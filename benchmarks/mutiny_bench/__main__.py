"""``python3 -m benchmarks.mutiny_bench``: run workloads, print every metric.

The driver's form is ``--workload NAME --seed N --seconds S --trace 0|1``;
the last line of standard output is then one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` all four workloads run in turn (one JSON line each).  The
exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

from .catalog import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES
from .harness import WorkloadReport, bootstrap_source_tree, run_workload


def workload_classes() -> dict:
    from .campaign_workloads import CampaignPool, CampaignSerial
    from .service_workload import ServiceE2E
    from .store_workload import StoreIO

    return {cls.name: cls for cls in (CampaignSerial, CampaignPool, StoreIO, ServiceE2E)}


def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.mutiny_bench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES, help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=7, help="record variation and point-read indexes (campaign plans are pinned: catalog.PLAN_SEED)")
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS), help="seconds of timed repetitions per workload"
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="add one traced repetition and report the per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true", help="smoke only: one repetition, sizes divided by four")
    parser.add_argument("--json", metavar="OUT", help="also write the full report to OUT")
    return parser.parse_args(argv)


def print_report(report: WorkloadReport) -> None:
    label = "  [QUICK: smoke sizes, numbers are not comparable]" if report.quick else ""
    print(f"\n== {report.workload}  seed={report.seed}{label}")
    print(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"speed={report.host_speed:.3f} x reference (durations below are on the calibrated clock)"
    )
    passes = " ".join(f"{value:.3f}" for value in report.setup_passes_s)
    print(f"set-up: import {report.import_s:.3f} s + passes [{passes}] s")
    print(f"end-to-end, median of {report.repetitions} untraced repetition(s) [min .. max] (raw wall-clock median)")
    for metric in END_TO_END:
        summary = report.end_to_end[metric.name]
        raw = report.raw_end_to_end.get(metric.name)
        raw_text = f"  (raw {raw:.4f})" if raw is not None else ""
        print(
            f"  {metric.name:<22}{summary.median:>12.4f} {metric.unit:<5} "
            f"[{summary.low:.4f} .. {summary.high:.4f}]{raw_text}"
        )
    for line in report.secondary:
        print(f"  {line}")
    if report.traced:
        print("layers (traced repetition; *_self_ms are per simulator run; rows of layers not crossed read 0)")
        for metric in PER_LAYER:
            value = report.per_layer[metric.name]
            if value:
                print(f"  {metric.name:<44}{value:>14.4f} {metric.unit}")
    share = report.failed / report.attempted if report.attempted else 1.0
    print(f"failed_ops_share: {report.failed}/{report.attempted} = {share:.4f}")
    print(f"results_digest: {report.digest}")
    for problem in report.problems:
        print(f"FAILED CHECK: {problem}")


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    bootstrap_source_tree()
    # A polite kill must still tear down subprocesses and work directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    classes = workload_classes()
    reports = []
    for name in arguments.workload or WORKLOAD_NAMES:
        report = run_workload(classes[name], arguments.seed, arguments.seconds, bool(arguments.trace), arguments.quick)
        reports.append(report)
        print_report(report)
        if arguments.json:
            with open(arguments.json, "w", encoding="utf-8") as handle:
                json.dump([item.to_dict() for item in reports], handle, indent=2)
        print(json.dumps(report.result_line()), flush=True)
    return 0 if all(report.correct for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
