#!/usr/bin/env python3
"""The repo's one load-bearing property as one runnable scenario.

    python3 tests/smoke.py {distributed,objectstore,service,resume,all}

Serial, pool, leased workers and the ``/v1`` service must give a
byte-identical inspect document, also when a worker or the service is
SIGKILLed mid-campaign.  :func:`reclaim` is that proof, written once: a
serial reference through the CLI, a coordinator (``campaign --backend
distributed``, or ``serve`` + ``submit``), a ``--stall-after-batches 1``
victim SIGKILLed while it holds its lease, two rescue workers, and one byte
comparison of the final document.  It is parametrized only by where the
store lives (a directory, ``objstore://``) and who coordinates (the CLI, or
a service that is itself SIGKILLed and restarted on the same ``--state``,
whose new coordinator process is then SIGKILLed and resubmitted).
:func:`resume` reruns a finished store three ways and expects no experiment
to run.  CI calls this file once per scenario; the tier-1 suite calls the
same functions.

Stdlib plus the package under test: no flags, no ``PYTHONPATH``.  Every
wait is on something the product emits — the ``listening on`` banner of a
``--port 0`` server, the victim's ``stalling after 1 batch(es)`` line, a
worker's own ``wait_for_plan``, a child's exit, ``ServiceClient.wait`` —
and a failed check raises :class:`SmokeFailure` carrying a transcript of
what every child was asked and what it said.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
if str(SRC_DIR) not in sys.path:  # the driver finds the package itself
    sys.path.insert(0, str(SRC_DIR))

#: Seconds any single wait (a banner, the stall, a child's exit, completion) may take.
DEADLINE_S = 120.0
#: Experiments in the reclaim campaign: two slices of three.
TOTAL = 6


def campaign_flags(experiments: int) -> tuple[str, ...]:
    return ("--workloads", "deploy", "--golden-runs", "1", "--max-experiments", str(experiments))


class SmokeFailure(AssertionError):
    """A scenario check failed: ``reason``, then the transcript."""

    def __init__(self, reason: str, transcript: str):
        super().__init__(f"{reason}\n{transcript}")
        self.reason = reason


class Child:
    """One ``repro.cli`` subprocess and every line it has printed so far."""

    def __init__(self, name: str, arguments: tuple[str, ...], env: dict[str, str]):
        self.name = name
        self.argv = [sys.executable, "-m", "repro.cli", *arguments]
        self.process = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        self.lines: dict[str, list[str]] = {"stdout": [], "stderr": []}
        self._closed: set[str] = set()
        self._changed = threading.Condition()
        self._readers = [
            threading.Thread(target=self._read, args=(stream, pipe), daemon=True)
            for stream, pipe in (("stdout", self.process.stdout), ("stderr", self.process.stderr))
        ]
        for reader in self._readers:
            reader.start()

    def _read(self, stream: str, pipe) -> None:
        with pipe:
            for line in pipe:
                with self._changed:
                    self.lines[stream].append(line.rstrip("\n"))
                    self._changed.notify_all()
        with self._changed:
            self._closed.add(stream)
            self._changed.notify_all()

    def line_with(self, stream: str, text: str, timeout: float = DEADLINE_S) -> Optional[str]:
        """The first line of ``stream`` containing ``text``, waiting for the
        child to print it; None once the stream closed or time ran out."""
        deadline = time.monotonic() + timeout
        seen = 0
        with self._changed:
            while True:
                lines = self.lines[stream]
                for line in lines[seen:]:
                    if text in line:
                        return line
                seen = len(lines)
                remaining = deadline - time.monotonic()
                if stream in self._closed or remaining <= 0:
                    return None
                self._changed.wait(remaining)

    def exit_code(self, timeout: float = DEADLINE_S) -> Optional[int]:
        """Wait for the child to exit (None: still running), output collected."""
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None
        for reader in self._readers:
            reader.join(timeout=5)
        return self.process.returncode

    def kill(self) -> None:
        """SIGKILL: no handler runs, no lease is released, no index is flushed."""
        self.process.kill()
        self.exit_code()


def _live_parents() -> dict[int, int]:
    """``{pid: parent pid}`` of every process that has not exited (Linux)."""
    parents = {}
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone since the listing
        state, parent = stat[stat.rindex(")") + 2 :].split()[:2]
        if state != "Z":
            parents[int(entry)] = int(parent)
    return parents


def coordinators(serve: Child) -> list[int]:
    """Pids of ``serve``'s campaign coordinators: its forkserver's children."""
    parents = _live_parents()
    children = {pid for pid, parent in parents.items() if parent == serve.process.pid}
    return sorted(pid for pid, parent in parents.items() if parent in children)


def exits_within(pid: int, seconds: float) -> bool:
    """Whether process ``pid`` is gone (or a zombie) within ``seconds``."""
    deadline = time.monotonic() + seconds
    while pid in _live_parents():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class Smoke:
    """One scenario run: its directory, its children, its checks.

    ``root`` is shared by the scenarios of one invocation (the serial
    reference is made there once); everything else a scenario writes goes
    under ``root/name``.  Leaving the ``with`` block kills whatever still
    runs and turns any error into a :class:`SmokeFailure` with the transcript.
    """

    def __init__(self, root, name: str):
        self.root = Path(root)
        self.workdir = self.root / name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.children: list[Child] = []
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(part for part in (str(SRC_DIR), inherited) if part)

    def __enter__(self) -> "Smoke":
        return self

    def __exit__(self, kind, error, traceback) -> None:
        for child in self.children:
            if child.process.poll() is None:
                child.kill()
        if isinstance(error, Exception) and not isinstance(error, SmokeFailure):
            raise SmokeFailure(f"{kind.__name__}: {error}", self.transcript()) from error

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def check(self, holds: bool, reason: str) -> None:
        if not holds:
            raise SmokeFailure(reason, self.transcript())

    def transcript(self) -> str:
        parts = []
        for child in self.children:
            code = child.process.poll()
            parts.append(f"--- {child.name}: {'still running' if code is None else f'exit {code}'}")
            parts.append(f"$ {shlex.join(child.argv)}")
            parts.extend(f"  stderr| {line}" for line in list(child.lines["stderr"]))
        return "\n".join(parts)

    # ------------------------------------------------------------- children

    def spawn(self, name: str, *arguments: str) -> Child:
        child = Child(name, arguments, self.env)
        self.children.append(child)
        return child

    def expect_exit(self, child: Child) -> Child:
        """Wait for ``child`` and require exit 0, surfacing its own last words."""
        code = child.exit_code()
        last = child.lines["stderr"][-1] if child.lines["stderr"] else "no stderr"
        self.check(code == 0, f"{child.name} exited {code}: {last}")
        return child

    def run(self, name: str, *arguments: str) -> Child:
        return self.expect_exit(self.spawn(name, *arguments))

    def announced(self, child: Child, scheme: str) -> str:
        """The URL a ``--port 0`` server prints in its ``listening on`` banner."""
        banner = child.line_with("stdout", "listening on") or ""
        urls = [word for word in banner.split() if word.startswith(f"{scheme}://")]
        self.check(len(urls) == 1, f"{child.name} announced no {scheme}:// URL: {banner!r}")
        return urls[0]

    def serve(self, name: str, state: str):
        """``repro.cli serve`` on a free port, once ``/readyz`` answers:
        ``(child, ServiceClient)``."""
        from repro.service.client import ServiceClient

        child = self.spawn(name, "serve", "--port", "0", "--state", state)
        client = ServiceClient(self.announced(child, "http"))
        client.wait_ready(timeout=DEADLINE_S, poll_interval=0.05)
        return child, client

    # ------------------------------------------------------------ documents

    def document(self, name: str, store: str) -> bytes:
        """``inspect STORE --json``: the canonical document's bytes."""
        target = self.path(f"{name}.json")
        self.run(f"inspect-{name}", "inspect", store, "--json", target)
        return Path(target).read_bytes()

    def check_document(self, label: str, document: bytes, reference: bytes, experiments: int) -> None:
        """Same digest, nothing lost or replayed, then the same bytes."""
        got, want = json.loads(document), json.loads(reference)
        self.check(
            got["results_digest"] == want["results_digest"],
            f"{label}: digest {got['results_digest']} differs from the reference's {want['results_digest']}",
        )
        self.check(
            got["stored_records"] == got["experiments"] == experiments,
            f"{label}: {got['stored_records']} stored records, {got['experiments']} distinct, "
            f"{experiments} planned (lost or replayed)",
        )
        self.check(document == reference, f"{label}: same digest, but the documents differ")


def serial_reference(smoke: Smoke) -> tuple[str, bytes]:
    """The ``--workers 1`` store and its document, made once per ``smoke.root``."""
    store, document = str(smoke.root / "serial"), smoke.root / "serial.json"
    if not document.exists():
        smoke.run(
            "serial", "campaign", *campaign_flags(TOTAL), "--workers", "1", "--quiet", "--results-dir", store
        )
        smoke.run("inspect-serial", "inspect", store, "--json", str(document))
    return store, document.read_bytes()


def reclaim(
    smoke: Smoke,
    object_store: bool = False,
    service: bool = False,
    rescuers: int = 2,
    coordinator_timeout: float = 900.0,
) -> None:
    """SIGKILL a worker mid-slice (and, with ``service``, the coordinating
    service too): the campaign still ends in the serial run's document.

    ``rescuers=0`` is the control: with nobody to reclaim the victim's slice
    the coordinator gives up after ``coordinator_timeout`` and the scenario
    must fail, naming the plan indexes that never arrived.
    """
    from repro.core.distributed import SliceLeases
    from repro.core.resultstore import ShardedResultStore
    from repro.core.transport import LIST_PAGE_ENV

    serial_store, serial = serial_reference(smoke)
    batching: tuple[str, ...] = ()
    if object_store:
        # Pagination forced from both ends (the server caps a listing page at
        # 2 keys, the clients ask for 2) and batched, appended shard upload:
        # the coordinator publishes the factor, rescue-1 sets it itself,
        # rescue-2 inherits it from the plan.
        smoke.env[LIST_PAGE_ENV] = "2"
        server = smoke.spawn("objstore", "objstore", "--port", "0", "--max-page", "2")
        store = f"{smoke.announced(server, 'objstore')}/store-dist"
        batching = ("--shard-batch", "4")
    else:
        store = smoke.path("store")

    campaign = (
        *campaign_flags(TOTAL), "--workers", "1", "--quiet", "--backend", "distributed",
        "--results-dir", store, *batching, "--slice-size", "3", "--poll-interval", "0.2",
    )
    if service:
        state = smoke.path("state")
        control_plane, client = smoke.serve("service", state)
        submission = smoke.path("submit.json")
        smoke.run("submit", "submit", "--server", client.base_url, *campaign, "--json", submission)
        campaign_id = json.loads(Path(submission).read_text(encoding="utf-8"))["id"]
    else:
        coordinator = smoke.spawn(
            "coordinator", "campaign", *campaign, "--coordinator-timeout", f"{coordinator_timeout:g}"
        )

    # The victim waits for the plan itself, stores exactly one
    # single-experiment shard of its slice, then hangs holding the lease.
    worker = ("worker", "--results-dir", store, "--chunk-size", "1", "--wait-timeout", "120")
    victim = smoke.spawn(
        "victim", *worker, "--worker-id", "victim", "--lease-ttl", "1", "--stall-after-batches", "1"
    )
    stalled = victim.line_with("stderr", "stalling after 1 batch(es)")
    smoke.check(stalled is not None, "the victim never stalled")
    victim.kill()
    survivors = len(ShardedResultStore(store).completed_indexes())
    smoke.check(0 < survivors < TOTAL, f"{survivors} of {TOTAL} experiments stored at the kill")

    if service:
        # The coordinator runs in a process of its own; with its service
        # SIGKILLed it stops at its next poll round.  A new service on a new
        # port, pointed at the same state store, must rehydrate (/readyz)
        # and go on coordinating.
        (coordinator_pid,) = coordinators(control_plane)
        control_plane.kill()
        smoke.check(exits_within(coordinator_pid, 5.0), "the coordinator outlived its service")
        control_plane, client = smoke.serve("service-restarted", state)
        # SIGKILL that coordinator: the campaign reads "failed", and a
        # resubmission resumes it.
        (coordinator_pid,) = coordinators(control_plane)
        os.kill(coordinator_pid, signal.SIGKILL)
        deadline = time.monotonic() + DEADLINE_S
        while client.status(campaign_id)["state"] != "failed":
            smoke.check(time.monotonic() < deadline, "a SIGKILLed coordinator never read as failed")
            time.sleep(0.05)
        smoke.run("resubmit", "submit", "--server", client.base_url, *campaign)

    rescue = [
        smoke.spawn(
            f"rescue-{number}", *worker, "--worker-id", f"rescue-{number}", "--lease-ttl", "10",
            "--poll-interval", "0.2", *(batching if number == 1 else ()),
        )
        for number in range(1, rescuers + 1)
    ]
    executed = 0
    for child in rescue:
        summary = smoke.expect_exit(child).line_with("stdout", "experiment(s) executed") or ""
        counted = re.search(r"(\d+) experiment\(s\) executed", summary)
        smoke.check(counted is not None, f"{child.name} printed no summary line")
        executed += int(counted.group(1))

    if service:
        status = client.wait(campaign_id, timeout=DEADLINE_S, poll_interval=0.2)
        smoke.check(
            status["state"] == "complete" and status["stored_records"] == status["total"] == TOTAL,
            f"service status after the rescue: {status}",
        )
        documents = {
            "service document (folded)": client.document(campaign_id),
            "service document (memoised)": client.document(campaign_id),
        }
    else:
        smoke.expect_exit(coordinator)
        documents = {"distributed store": smoke.document("dist", store)}
    for label, document in documents.items():
        smoke.check_document(label, document, serial, TOTAL)

    # Zero replayed: the victim's shard survived, the rescuers ran the rest;
    # the victim owns no finished slice and nobody holds a lease.
    smoke.check(
        executed == TOTAL - survivors,
        f"rescuers executed {executed} experiment(s), {TOTAL - survivors} were outstanding at the kill",
    )
    leases = SliceLeases(store)
    done = leases.done_records()
    smoke.check(
        sorted(record["start"] for record in done) == list(range(0, TOTAL, 3))
        and {record["worker"] for record in done} <= {child.name for child in rescue},
        f"slice provenance: {done}",
    )
    outstanding = leases.outstanding()
    smoke.check(not outstanding, f"leases outstanding after completion: {outstanding}")

    if object_store:
        # Full overlap deduplicates to the same document, folded once
        # (federate) and by a watching coordinator (autofederate).
        merges = {"federate": (), "autofederate": ("--poll-interval", "0.2", "--timeout", "300")}
        running = [
            smoke.spawn(command, command, smoke.path(command), serial_store, store, *flags, "--quiet")
            for command, flags in merges.items()
        ]
        for child in running:
            smoke.expect_exit(child)
        for command in merges:
            smoke.check_document(command, smoke.document(command, smoke.path(command)), serial, TOTAL)


def resume(smoke: Smoke) -> None:
    """Rerun a finished store in-process, through the pool, and as a
    coordinator plus a worker: one resume routine, three ways in, and each
    must report the store complete in one progress line, execute nothing
    and leave the document as it was."""
    store = smoke.path("store")
    campaign = ("campaign", *campaign_flags(4), "--results-dir", store)
    smoke.run("first-run", *campaign, "--workers", "1", "--quiet")
    finished = smoke.document("finished", store)
    reruns = {
        "serial": ("--workers", "1"),
        "pool": ("--workers", "2"),
        "coordinator": ("--workers", "1", "--backend", "distributed", "--coordinator-timeout", "60"),
    }
    for name, flags in reruns.items():
        rerun = smoke.run(f"rerun-{name}", *campaign, *flags)
        progress = [line for line in rerun.lines["stderr"] if "experiments done" in line]
        smoke.check(
            len(progress) == 1 and progress[0].startswith("[4/4]"),
            f"{name} rerun of a finished store reported progress {progress}",
        )
        if name == "coordinator":
            worker = smoke.run(
                "rerun-worker", "worker", "--results-dir", store, "--worker-id", "resume", "--wait-timeout", "30"
            )
            idle = worker.line_with("stderr", "0 slice(s), 0 experiment(s) executed")
            smoke.check(idle is not None, "the worker of a finished store executed something")
        smoke.check_document(f"{name} rerun", smoke.document(f"after-{name}", store), finished, 4)


SCENARIOS = {
    "distributed": reclaim,
    "objectstore": functools.partial(reclaim, object_store=True),
    "service": functools.partial(reclaim, service=True),
    "resume": resume,
}


def run_scenario(root, name: str) -> None:
    with Smoke(root, name) as smoke:
        SCENARIOS[name](smoke)


def main(arguments: list[str]) -> int:
    if len(arguments) != 1 or arguments[0] not in (*SCENARIOS, "all"):
        print(f"usage: python3 tests/smoke.py {{{','.join(SCENARIOS)},all}}", file=sys.stderr)
        return 2
    chosen = list(SCENARIOS) if arguments[0] == "all" else arguments
    with tempfile.TemporaryDirectory(prefix="mutiny-smoke-") as root:
        for name in chosen:
            started = time.monotonic()
            try:
                run_scenario(root, name)
            except SmokeFailure as failure:
                print(f"FAIL {name}: {failure}", file=sys.stderr)
                return 1
            print(f"ok   {name} ({time.monotonic() - started:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
