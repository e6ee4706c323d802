"""The run protocol every workload follows.

Per workload: import the workload's code, run five set-up passes
(``setup_s`` is the import plus the median pass), then untraced timed
repetitions until ``--seconds`` are used, then — with ``--trace`` — the
wrap-table self-check and one extra traced repetition for the per-layer
numbers.  End-to-end metrics are the median across the untraced repetitions
and never come from the traced one.  Every duration is taken on a
calibrated clock (:mod:`.calibration`) - set-up on the simulator kernel's,
the repetitions on the workload's own; the raw wall-clock medians are kept
beside it.  Work directories, subprocesses and servers are torn down on
every exit path.
"""

from __future__ import annotations

import importlib
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from .calibration import SIMULATOR, Calibrator, Kernel
from .catalog import END_TO_END, PER_LAYER, Sizes
from .layers import attributed_share, counter_mismatch, derive
from .stats import Summary, highest_percentile, summarize
from .trace import SpanRecorder, Target, install

PACKAGE_DIR = Path(__file__).resolve().parent
OUTPUT_DIR = PACKAGE_DIR / "output"
REPO_ROOT = PACKAGE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

#: Set-up passes per run (``--quick``: one).
SETUP_PASSES = 5

#: Share of ``--seconds`` the untraced repetitions get when a traced one follows.
TRACED_RUN_SHARE = 0.5

Interval = tuple[float, float]


class VerificationError(RuntimeError):
    """An output check failed (a digest mismatch, a missing record)."""


@dataclass
class Context:
    """What a workload is given: its inputs' seed, sizes and a private directory."""

    seed: int
    sizes: Sizes
    workdir: Path
    #: Called between operations by a workload that calibrates inline.
    mark: Callable[[], None] = lambda: None

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Repetition:
    """What one repetition observed, as raw ``perf_counter`` intervals."""

    #: The whole repetition (basis of ``trace_overhead_ratio``).
    span: Interval
    #: Intervals that landed ``produce_records`` records in a store.
    produce: list[Interval]
    produce_records: int
    #: Intervals of the cold inspection path over ``scan_records`` records.
    scan: list[Interval]
    scan_records: int
    #: Operations issued / operations that failed.
    attempted: int
    failed: int
    #: Every digest the repetition computed or was served; all must be equal.
    digests: dict[str, str]
    #: Named secondary intervals (per-experiment progress gaps, round-trips).
    observations: dict[str, list[Interval]] = field(default_factory=dict)
    #: Facts that are not durations (polls made, slices done, ...).
    facts: dict[str, float] = field(default_factory=dict)


class Workload:
    """One named workload.  Subclasses import ``repro`` lazily, inside methods."""

    name = ""
    #: ``repro`` modules the workload uses (imported, timed, before set-up).
    imports: tuple[str, ...] = ()
    #: Callables rebound with timing wrappers for the traced repetition.
    table: tuple[Target, ...] = ()
    #: What the calibrated clock tracks: the kernel made of the operations
    #: this workload is made of (``None``: latency-bound, use the raw clock).
    kernel: Optional[Kernel] = SIMULATOR
    #: Sample the kernel from a background thread; ``False``: only where the
    #: workload calls ``context.mark()`` (see :mod:`.calibration`).
    background_calibration = True

    def __init__(self, context: Context):
        self.context = context

    def setup(self) -> None:
        """One set-up pass.  Re-runnable: :meth:`close` is called between passes."""
        raise NotImplementedError

    def repetition(self, index: int) -> Repetition:
        raise NotImplementedError

    def oracle(self) -> Optional[str]:
        """The digest every repetition must reproduce, computed by an
        independent path (``None``: the repetition's own digests only have to
        agree with each other and across repetitions)."""
        return None

    def self_check(self) -> None:
        """Wrap-table self-check before the traced repetition."""

    def layer_extras(self, report: "WorkloadReport", traced: Repetition, calibrator: Calibrator) -> dict[str, float]:
        """Per-layer rows this workload computes from outside the spans."""
        return {}

    def records_scanned(self) -> dict[str, int]:
        """Records each transport's digest scans cover in one repetition."""
        return {}

    def close(self) -> None:
        """Stop every process and server the workload started."""


@dataclass
class WorkloadReport:
    workload: str
    seed: int
    quick: bool
    traced: bool
    import_s: float
    setup_passes_s: list[float]
    repetitions: int
    end_to_end: dict[str, Summary]
    raw_end_to_end: dict[str, float]
    per_layer: dict[str, float]
    secondary: list[str]
    attempted: int
    failed: int
    correct: bool
    problems: list[str]
    host_speed: float
    digest: str

    def result_line(self) -> dict:
        """The one JSON object the driver reads from the last stdout line."""
        if self.traced:
            metrics = {m.name: {"value": self.per_layer[m.name], "unit": m.unit} for m in PER_LAYER}
        else:
            metrics = {m.name: {"value": self.end_to_end[m.name].median, "unit": m.unit} for m in END_TO_END}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "quick": self.quick,
            "traced": self.traced,
            "import_s": self.import_s,
            "setup_passes_s": self.setup_passes_s,
            "repetitions": self.repetitions,
            "end_to_end": {
                name: {"median": s.median, "min": s.low, "max": s.high, "raw_median": self.raw_end_to_end.get(name)}
                for name, s in self.end_to_end.items()
            },
            "per_layer": self.per_layer,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct,
            "problems": self.problems,
            "host_speed": self.host_speed,
            "results_digest": self.digest,
        }


def bootstrap_source_tree() -> None:
    """Make ``repro`` importable here and in the subprocesses a workload spawns.

    The driver runs ``python3 -m benchmarks.mutiny_bench`` from a bare
    checkout with no ``PYTHONPATH``; a directory that holds only the
    benchmark has no ``src/`` and fails here, before any result is printed.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"mutiny-bench: no program to measure: {SRC_DIR / 'repro'} is missing")
    source = str(SRC_DIR)
    if source not in sys.path:
        sys.path.insert(0, source)
    inherited = os.environ.get("PYTHONPATH")
    if source not in (inherited or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(part for part in (source, inherited) if part)


def peak_rss_mb(who: int) -> float:
    """Max resident set so far of ``RUSAGE_SELF`` or of the waited-for
    ``RUSAGE_CHILDREN``, MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _rate(count: int, intervals: list[Interval], clock) -> float:
    return count / sum(clock(start, end) for start, end in intervals)


def _raw(start: float, end: float) -> float:
    return end - start


def _secondary_lines(observations: dict[str, list[float]]) -> list[str]:
    lines = []
    for name, samples in sorted(observations.items()):
        text = f"{name}: p50 {median(samples) * 1000.0:.2f} ms"
        tail = highest_percentile(samples)
        if tail is not None:
            text += f", p{tail[0]:g} {tail[1] * 1000.0:.2f} ms"
        lines.append(f"{text} (n={len(samples)})")
    return lines


def _verify(repetitions: list[Repetition], reference: Optional[str]) -> tuple[str, list[str], int, int]:
    """One digest, everywhere, every repetition: ``(digest, problems, attempted, failed)``."""
    digests = {
        f"rep{index}:{label}": digest
        for index, rep in enumerate(repetitions)
        for label, digest in rep.digests.items()
    }
    if reference is not None:
        digests["oracle"] = reference
    problems = []
    if len(set(digests.values())) != 1:
        listing = ", ".join(f"{label}={digest[:12]}" for label, digest in sorted(digests.items()))
        problems.append(f"digest mismatch: {listing}")
    attempted = sum(rep.attempted for rep in repetitions)
    # A failed digest check charges every operation, not only the ones that raised.
    failed = attempted if problems else sum(rep.failed for rep in repetitions)
    if failed and not problems:
        problems.append(f"{failed} of {attempted} operations failed")
    return min(digests.values()), problems, attempted, failed


def _rates(untraced: list[Repetition], cal) -> tuple[dict[str, Summary], dict[str, float]]:
    """Median across repetitions of the two rates, on the calibrated and on the raw clock."""
    per_repetition = {
        "records_per_s": lambda rep, clock: _rate(rep.produce_records, rep.produce, clock),
        "scan_records_per_s": lambda rep, clock: _rate(rep.scan_records, rep.scan, clock),
    }
    summaries = {name: summarize([value(rep, cal) for rep in untraced]) for name, value in per_repetition.items()}
    raw = {name: median(value(rep, _raw) for rep in untraced) for name, value in per_repetition.items()}
    return summaries, raw


def _attach_layers(
    report: WorkloadReport,
    workload: Workload,
    untraced: list[Repetition],
    traced: Repetition,
    recorder: SpanRecorder,
    counters: dict[str, int],
    calibrator: Calibrator,
) -> None:
    """Per-layer numbers of the traced repetition, its own checks, its span file."""
    cal = calibrator.elapsed
    traced_s = cal(*traced.span)
    extras = workload.layer_extras(report, traced, calibrator)
    extras["trace_overhead_ratio"] = traced_s / median(cal(*rep.span) for rep in untraced)
    scale = traced_s / _raw(*traced.span)  # raw span seconds -> calibrated
    report.per_layer = derive(recorder, counters, scale, workload.records_scanned(), extras)
    note = f"traced repetition: {len(recorder.spans)} spans"
    share = attributed_share(recorder)
    if share:
        note += f", layer self times cover {share:.4f} of the experiment spans"
        if abs(share - 1.0) > 0.05:
            report.problems.append(f"layer self times sum to {share:.3f} of the experiment spans (want 1 +- 0.05)")
    mismatch = counter_mismatch(recorder, counters)
    if mismatch:
        report.problems.append(mismatch)
    report.correct = not report.problems
    report.secondary.append(note)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.write(str(OUTPUT_DIR / f"trace-{workload.name}.json"))


def run_workload(
    workload_class: type[Workload],
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
) -> WorkloadReport:
    """Run one workload through the protocol and return its report."""
    sizes = Sizes().quick() if quick else Sizes()
    workdir = OUTPUT_DIR / f"work-{os.getpid()}" / workload_class.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Set-up is imports, process spawns and a small simulation on every
    # workload - bytecode, here or in a child - so it has a clock of its own.
    setup_clock = Calibrator(SIMULATOR)
    calibrator = Calibrator(workload_class.kernel, workload_class.background_calibration)
    workload = workload_class(Context(seed=seed, sizes=sizes, workdir=workdir, mark=calibrator.mark))
    untraced: list[Repetition] = []
    traced: Optional[Repetition] = None
    recorder = SpanRecorder()
    counters: dict[str, int] = {}
    try:
        # ---- set-up (timed as setup_s, excluded from everything else)
        setup_clock.start()
        started = time.perf_counter()
        for module in workload_class.imports:
            importlib.import_module(module)
        import_interval = (started, time.perf_counter())
        setup_intervals = []
        for _ in range(1 if quick else SETUP_PASSES):
            workload.close()  # the previous pass's servers: not part of a set-up
            started = time.perf_counter()
            workload.setup()
            setup_intervals.append((started, time.perf_counter()))
        setup_clock.stop()
        calibrator.start()
        reference = workload.oracle()

        # ---- untraced repetitions: the only source of end-to-end numbers
        budget = seconds * (TRACED_RUN_SHARE if trace else 1.0)
        started = time.perf_counter()
        while not untraced or (not quick and time.perf_counter() - started < budget):
            untraced.append(workload.repetition(len(untraced)))
        own_rss = peak_rss_mb(resource.RUSAGE_SELF)  # before the recorder grows it

        # ---- one extra traced repetition for the per-layer numbers
        if trace:
            workload.self_check()
            from repro.hotpath import COUNTERS  # importable only after bootstrap_source_tree()

            recorder.request_prefix = f"{workload.name}:{len(untraced)}"
            with install(recorder, workload.table):
                before = COUNTERS.snapshot()
                traced = workload.repetition(len(untraced))
                after = COUNTERS.snapshot()
            counters = {name: after[name] - before[name] for name in after}
    finally:
        workload.close()
        setup_clock.stop()
        calibrator.stop()
        shutil.rmtree(workdir.parent, ignore_errors=True)
    rss = max(own_rss, peak_rss_mb(resource.RUSAGE_CHILDREN))  # children count once reaped

    everything = untraced + ([traced] if traced is not None else [])
    digest, problems, attempted, failed = _verify(everything, reference)
    cal = calibrator.elapsed
    end_to_end, raw = _rates(untraced, cal)
    imported = setup_clock.elapsed(*import_interval)
    passes = [setup_clock.elapsed(*interval) for interval in setup_intervals]
    end_to_end["setup_s"] = Summary(imported + median(passes), imported + min(passes), imported + max(passes), len(passes))
    raw["setup_s"] = _raw(*import_interval) + median(_raw(*interval) for interval in setup_intervals)
    end_to_end["peak_rss_mb"] = Summary(rss, rss, rss, 1)
    observations: dict[str, list[float]] = {}
    for rep in untraced:
        for name, intervals in rep.observations.items():
            observations.setdefault(name, []).extend(cal(*interval) for interval in intervals)
    report = WorkloadReport(
        workload=workload.name,
        seed=seed,
        quick=quick,
        traced=trace,
        import_s=imported,
        setup_passes_s=passes,
        repetitions=len(untraced),
        end_to_end=end_to_end,
        raw_end_to_end=raw,
        per_layer={},
        secondary=_secondary_lines(observations),
        attempted=attempted,
        failed=failed,
        correct=not problems,
        problems=problems,
        host_speed=calibrator.host_speed(),
        digest=digest,
    )
    if traced is not None:
        _attach_layers(report, workload, untraced, traced, recorder, counters, calibrator)
    return report
