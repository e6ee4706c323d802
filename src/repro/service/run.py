"""A managed campaign's coordinator: a child process of ``serve``.

:func:`start` forks it from a forkserver that preloads the simulator, and
:func:`main` runs the spec in its index record ``campaigns/<id>.json``;
``serve`` reads how it ended from its exit code and that record.  It stops
where ``Campaign.run`` checks ``cancel`` (each batch, each poll round) on
SIGTERM — a cancel — or once ``serve`` is gone and its parent sentinel turns
readable, so a restarted ``serve`` never finds two coordinators on one
store.  No watcher thread: a local-backend child forks its own pool.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Optional

from repro.core.transport import transport_for
from repro.service.spec import CampaignSpec

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

#: Prefix of the index records in the service's state store.
CAMPAIGN_INDEX_PREFIX = "campaigns/"

#: What the forkserver imports once, so every coordinator starts warm.
PRELOAD = ("repro.core.campaign", "repro.cluster.cluster")

_CONTEXT = multiprocessing.get_context("forkserver")

#: Serializes starts and exit-code polls: ``Process.start`` polls every
#: earlier child, and two concurrent polls of one exited child both read its
#: status — the second sees EOF and reports 255.
_PROCESS_LOCK = threading.Lock()


def index_key(campaign_id: str) -> str:
    return f"{CAMPAIGN_INDEX_PREFIX}{campaign_id}.json"


def spec_of(record: dict) -> CampaignSpec:
    """The spec an index record carries."""
    spec_data = record["spec"]
    # Records persisted before the `checkpoint` spec field was removed
    # carry `"checkpoint": null`; tolerate exactly that.
    if isinstance(spec_data, dict) and "checkpoint" in spec_data and spec_data["checkpoint"] is None:
        spec_data = {name: value for name, value in spec_data.items() if name != "checkpoint"}
    return CampaignSpec.from_dict(spec_data)


def start(state_root: str, campaign_id: str) -> BaseProcess:
    """Fork the coordinator of the campaign indexed under ``campaign_id``.

    The first call starts the forkserver and waits for its preload; it is
    not started with ``serve``, because a forkserver outlives a killed
    ``serve`` until its preload ends, and a restart would compete with it."""
    _CONTEXT.set_forkserver_preload(list(PRELOAD))
    process = _CONTEXT.Process(target=main, args=(state_root, campaign_id), name=f"campaign-{campaign_id}")
    with _PROCESS_LOCK:
        process.start()
    return process


def exit_code(process: BaseProcess) -> Optional[int]:
    """The coordinator's exit code; ``None`` while it runs."""
    with _PROCESS_LOCK:
        return process.exitcode


class _Stop(threading.Event):
    """``Campaign.run``'s cancel in a coordinator: set by SIGTERM, and read
    as set once the parent process is gone."""

    def is_set(self) -> bool:
        parent = multiprocessing.parent_process()
        return super().is_set() or parent is None or bool(wait([parent.sentinel], 0))


def main(state_root: str, campaign_id: str) -> None:
    """The coordinator: run the indexed spec; exit non-zero unless it completed."""
    from repro.core.campaign import CampaignCancelledError

    stop, coordinator = _Stop(), os.getpid()

    def on_sigterm(signum, frame) -> None:
        if os.getpid() != coordinator:
            # A pool child forked with this handler: die as SIGTERM asks.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        stop.set()

    signal.signal(signal.SIGTERM, on_sigterm)
    record = json.loads(transport_for(state_root).get(index_key(campaign_id)))
    try:
        spec_of(record).run(cancel=stop)
    except CampaignCancelledError:
        sys.exit(1)
