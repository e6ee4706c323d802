"""Trajectory and regression gate over the committed ``BENCH_<n>.json`` history.

``BENCHMARK.json`` declares the workloads, the end-to-end metrics with their
bounds and the per-layer rows; ``BENCH_<n>.json`` at the repository root holds
the reports PR ``n`` committed, and the highest ``n`` is the reference.

    python3 benchmarks/trend.py                # render the trajectory
    python3 benchmarks/trend.py part-*.json    # gate these reports

Gating exits 1, naming workload and row, when an end-to-end median is worse
than the reference by more than its declared bound, when a ``*self_ms`` layer
row of at least 10 ms in the reference is more than 1.5x worse, or when a
``results_digest`` differs; it exits 2 when no comparison can be made (no
reference, a ``--quick`` or untraced report, a file that does not match
``BENCHMARK.json``, a workload the reference lacks, another ``--seed``).  No
flag, no environment variable, no downgrade: the history is the baseline, and
an intended move or a new runner class commits the next ``BENCH_<pr>.json``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from statistics import median
from typing import NoReturn, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: The per-layer rule, sized from same-code runs (docs/PERFORMANCE.md): a collector
#: pause in the traced repetition (60-130 ms) adds 2-5 ms per simulator run to the
#: row of whichever span is open, so one run's rows under 10 ms moved up to 2.7x
#: (printed under a breach, never gated) and larger ones hold 1.5x as the best of five.
LAYER_FACTOR = 1.5
LAYER_FLOOR_MS = 10.0


def unusable(message: str) -> NoReturn:
    print(f"trend: {message}")
    sys.exit(2)


def load(paths: Sequence[Path], contract: dict) -> dict[str, dict]:
    """``{workload: reading}`` of the reports in ``paths``, held to the contract.

    The reports of one workload read as one: an end-to-end metric as the median of
    their medians, a layer row as their best value (a pause only ever adds to a span).
    """
    names = ", ".join(path.name for path in paths)
    declared = {workload["name"] for workload in contract["workloads"]}
    e2e, layers, best = contract["end_to_end"], contract["per_layer"], {"lower": min, "higher": max}
    grouped: dict[str, list[dict]] = {}
    try:
        for path in paths:
            for report in json.loads(path.read_text(encoding="utf-8")):
                if report["workload"] not in declared:
                    unusable(f"{path.name}: BENCHMARK.json declares no workload {report['workload']!r}")
                if report["quick"] or not report["traced"]:
                    unusable(f"{path.name}: a --quick or untraced {report['workload']} run; record with --trace 1 alone")
                grouped.setdefault(report["workload"], []).append(report)
        return {
            workload: {
                "seeds": {r["seed"] for r in reports},
                "digests": {r["results_digest"] for r in reports},
                "end_to_end": {m["name"]: median(r["end_to_end"][m["name"]]["median"] for r in reports) for m in e2e},
                "per_layer": {m["name"]: best[m["better"]](r["per_layer"][m["name"]] for r in reports) for m in layers},
            }
            for workload, reports in grouped.items()
        }
    except (OSError, ValueError, KeyError, TypeError) as error:
        unusable(f"{names}: not mutiny-bench --json reports matching BENCHMARK.json ({error!r})")


def load_history(contract: dict) -> list[tuple[str, dict[str, dict]]]:
    """``(file name, readings)`` of every committed file, in numeric order of ``n``."""
    found = [(int(m.group(1)), path) for path in ROOT.iterdir() if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return [(path.name, load([path], contract)) for _, path in sorted(found)]


def moved(values: Sequence[Optional[float]]) -> bool:
    present = [value for value in values if value is not None]
    return bool(present) and max(present) > LAYER_FACTOR * min(present)


def render(history: list[tuple[str, dict[str, dict]]], contract: dict) -> None:
    print(f"history: {' '.join(name for name, _ in history)}; reference: {history[-1][0]}")
    for workload in (declared["name"] for declared in contract["workloads"]):
        print(f"\n{workload:<52}" + "".join(f"{name[:-5]:>14}" for name, _ in history))
        for section in ("end_to_end", "per_layer"):
            for metric in contract[section]:
                values = [readings.get(workload, {}).get(section, {}).get(metric["name"]) for _, readings in history]
                if section == "per_layer" and not moved(values):
                    continue  # of the ~100 layer rows only those that moved by more than LAYER_FACTOR
                label = f"{metric['name']} ({metric['unit']})"
                print(f"  {label:<50}" + "".join(f"{'-' if v is None else format(v, '.6g'):>14}" for v in values))


def gate(candidates: dict[str, dict], reference_name: str, reference: dict[str, dict], contract: dict) -> int:
    failed = False
    for workload, reading in candidates.items():
        if (base := reference.get(workload)) is None:
            unusable(f"{reference_name} has no {workload} report to compare with")
        if reading["seeds"] != base["seeds"]:
            unusable(f"{workload} ran with --seed {sorted(reading['seeds'])}, {reference_name} {sorted(base['seeds'])}")
        print(f"\n{workload}  against {reference_name}")
        breaches, attribution = [], []
        if reading["digests"] != base["digests"]:
            breaches.append(f"results_digest {sorted(reading['digests'])} is not {sorted(base['digests'])}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], f"{metric['better']} is better, bound {100 * metric['bound']:.0f} %"
            old, new = base["end_to_end"][name], reading["end_to_end"][name]
            change = new / old - 1
            row = f"{name:<20}{old:>12.4f} -> {new:>12.4f} {metric['unit']:<4}{100 * change:>+8.1f} %  ({bound})"
            print(f"  {row}")
            if (change if metric["better"] == "lower" else -change) > metric["bound"]:
                breaches.append(" ".join(row.split()))
        for metric in contract["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            old, new = base["per_layer"][name], reading["per_layer"][name]
            if name.endswith("self_ms") and old >= LAYER_FLOOR_MS and new > LAYER_FACTOR * old:
                breaches.append(f"{name} {old:.4f} -> {new:.4f} {unit}, {new / old:.2f}x (limit {LAYER_FACTOR}x)")
            elif moved((old, new)):
                attribution.append(f"    {name:<46}{old:>12.6g} -> {new:>12.6g} {unit}")
        for breach in breaches:
            print(f"FAIL {workload} {breach}")
        if breaches and attribution:
            print(f"  per-layer rows that moved more than {LAYER_FACTOR}x (attribution only, never gated):")
            print("\n".join(attribution))
        failed = failed or bool(breaches)
    print("\ntrend: " + ("REGRESSION against " if failed else "within the bounds of ") + reference_name)
    return 1 if failed else 0


def main(arguments: list[str]) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    history = load_history(contract)
    if not history:
        unusable(f"no BENCH_<n>.json under {ROOT}: there is no reference")
    if not arguments:
        render(history, contract)
        return 0
    return gate(load([Path(argument) for argument in arguments], contract), *history[-1], contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
