"""Programmatic campaign execution: submit, poll, cancel.

A :class:`CampaignHandle` is the one way a spec gets executed — the CLI
calls :meth:`run` in its own process, the service calls :meth:`start` and
keeps the handle on a background thread.  Both paths go through the same
``Campaign.run`` call, so "the CLI is a thin client of the service's API"
is structural, not aspirational.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.campaign import Campaign, CampaignCancelledError, CampaignResult
from repro.service.spec import CampaignSpec

#: Handle lifecycle states (terminal: complete, failed, cancelled).
STATES = ("pending", "running", "complete", "failed", "cancelled")


class CampaignHandle:
    """One spec's execution: run it, watch it, cancel it."""

    # Guarded by self._lock (enforced by mutiny-lint MUT004): shared between
    # the caller and the background campaign thread.
    _lock_guarded = ("_state", "_error", "_thread")

    def __init__(self, spec: CampaignSpec):
        self.spec = spec
        self._cancel = threading.Event()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._state = "pending"
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    # -------------------------------------------------------------- lifecycle

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def run(self, progress=None) -> CampaignResult:
        """Execute the spec synchronously in the calling thread (CLI path).

        Raises whatever ``Campaign.run`` raises; the terminal state is
        recorded either way so a service wrapping the handle reports it.
        """
        with self._lock:
            self._state = "running"
        try:
            result = Campaign(self.spec.to_config()).run(
                progress=progress,
                results_dir=self.spec.store_url,
                backend=self.spec.backend,
                distributed=self.spec.distributed_settings(),
                cancel=self._cancel,
            )
        except CampaignCancelledError:
            with self._lock:
                self._state = "cancelled"
            self._done.set()
            raise
        except BaseException as error:
            with self._lock:
                self._state = "failed"
                self._error = error
            self._done.set()
            raise
        with self._lock:
            self._state = "complete"
        self._done.set()
        return result

    def start(self) -> "CampaignHandle":
        """Execute the spec on a background daemon thread (service path)."""
        thread = threading.Thread(
            target=self._run_in_background,
            name=f"campaign-{self.spec.campaign_id()}",
            daemon=True,
        )
        with self._lock:
            if self._thread is not None:
                return self
            self._thread = thread
        # Started via the local name: re-reading self._thread here would be
        # an off-lock read racing a concurrent start()'s publication.
        thread.start()
        return self

    def _run_in_background(self) -> None:
        try:
            self.run()
        # mutiny-lint: disable=MUT005 -- run() recorded the terminal state and self._error before re-raising; this barrier only keeps the daemon thread from tracebacking
        except BaseException:
            # Terminal state and error were recorded by run(); a background
            # campaign must not take the service thread down with it.
            pass

    def cancel(self) -> None:
        """Request cooperative cancellation (next batch / poll round)."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the run reaches a terminal state; ``True`` iff it did."""
        return self._done.wait(timeout)

    @property
    def error(self) -> Optional[BaseException]:
        with self._lock:
            return self._error

    # ---------------------------------------------------------------- polling

    def poll(self) -> dict:
        """The runner's own state.  Progress is deliberately not kept here:
        the service computes it from the shard store (through the campaign's
        :class:`~repro.service.storeview.StoreView`), so the numbers survive
        a service restart unchanged."""
        info: dict = {
            "state": self.state,
            "cancel_requested": self._cancel.is_set(),
        }
        error = self.error
        if error is not None:
            info["error"] = str(error)
        return info
