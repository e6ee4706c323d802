"""Results-dir federation: merge N stores of one campaign into one store.

Paper-scale campaigns (~8,800 experiments, §IV-C) don't always run in one
place: two halves may execute in different clusters, an interrupted local
run may be finished elsewhere, a POSIX store and an object-store run may
cover different slices of the same plan.  Shards are the atomic,
deterministic, self-describing interchange format of a campaign, so merging
stores is a pure store-level operation — no experiment re-runs, no
re-classification — and the merged digest is **byte-identical to a single
serial run** of the same configuration, because the digest hashes canonical
records in plan-index order and never sees shard boundaries.

Safety mirrors :meth:`ShardedResultStore.open` exactly: every source (and a
pre-existing destination) must carry the same campaign fingerprint, or the
merge is rejected before anything is written — federating two *different*
campaigns would silently interleave unrelated results.  Overlapping indexes
are deduplicated with a deterministic rule: the **later source wins** (last
on the command line).  Results are deterministic, so overlapping records are
byte-identical in a healthy pair of stores and the rule is only visible when
a store was hand-edited — but an arbitrary tie-break would make the merge
order-dependent in exactly the case where it matters most.

Transports compose for free: every root (sources and destination) picks its
own transport by shape, so a POSIX half-campaign and an object-store
half-campaign federate into either kind of destination.

Two entry points share the merge core:

* :func:`federate_stores` — the one-shot merge behind ``repro.cli federate``;
  every source must already be a store.
* :func:`autofederate_stores` — the watching coordinator behind ``repro.cli
  autofederate``: it polls several stores of one fingerprint (any transport
  mix, sources that don't exist *yet* included) and incrementally folds
  newly completed experiments into the destination as they appear, finishing
  when the destination holds the campaign's full plan.  Because the store
  digest hashes canonical records in plan-index order, the finished
  destination is byte-identical to a serial run no matter how the folding
  interleaved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.resultstore import (
    PREP_NAME,
    ResultStoreMismatchError,
    ShardedResultStore,
    check_store_format,
)
from repro.core.transport import TransportError, TransportKeyError

#: Records per federated shard: large enough that shard count stays low,
#: small enough that the merge holds one batch in memory like every other
#: store writer.
DEFAULT_SHARD_RECORDS = 512


@dataclass(frozen=True)
class FederationReport:
    """What one federation merge did (the CLI prints this)."""

    fingerprint: str
    total: int  # plan size the manifests agree on
    sources: tuple[str, ...]
    merged_records: int  # records written into the destination by this merge
    skipped_records: int  # indexes the destination already held
    overlapping_records: int  # indexes present in more than one source
    shards_written: int

    def describe(self) -> str:
        lines = [
            "Federation merge",
            f"fingerprint        : {self.fingerprint[:16]}…",
            f"sources            : {len(self.sources)}",
            f"merged records     : {self.merged_records}"
            f" (+{self.skipped_records} already in the destination)",
            f"overlapping indexes: {self.overlapping_records} (later source wins)",
            f"shards written     : {self.shards_written}",
        ]
        return "\n".join(lines)


def _manifest_of(
    root: str, store: ShardedResultStore, absent_ok: bool = False
) -> Optional[dict]:
    """The validated manifest of a source store.

    ``absent_ok`` is the watcher's mode: a store that does not exist yet or
    is transiently unreachable answers ``None`` (poll again later) instead
    of raising — only a store that exists but is *wrong* (unreadable
    manifest, another format version) is ever an error.
    """
    try:
        manifest = store.manifest()
    except TransportKeyError:
        if absent_ok:
            return None
        raise ResultStoreMismatchError(
            f"{root!r} is not a result store (no MANIFEST.json); every federate "
            "source must be a --results-dir store"
        ) from None
    except TransportError:
        if absent_ok:
            return None
        raise
    except ValueError as error:
        raise ResultStoreMismatchError(
            f"result store {root!r} has an unreadable manifest ({error})"
        ) from error
    check_store_format(root, manifest)
    return manifest


def _carry_prep(
    dest: ShardedResultStore,
    sources: list[ShardedResultStore],
    tolerate_unreachable: bool = False,
) -> bool:
    """Copy the workload prep into the destination from the last source
    holding one (later sources win, mirroring record dedup); ``True`` once
    the destination has prep.  A source simply lacking prep is skipped;
    ``tolerate_unreachable`` additionally skips sources that cannot be
    reached right now (the watcher's mode — the one-shot merge stays strict
    and lets the failure abort).  A *destination* write failure always
    propagates.  ``load_prep`` re-validates its own fingerprint on use, so
    this is a plain byte copy."""
    if dest.transport.stat(PREP_NAME) is not None:
        return True
    skippable = (TransportKeyError, TransportError) if tolerate_unreachable else TransportKeyError
    for store in reversed(sources):
        try:
            payload = store.transport.get(PREP_NAME)
        except skippable:
            continue
        dest.transport.put(PREP_NAME, payload)
        return True
    return False


def federate_stores(
    dest_root: str,
    source_roots: list[str],
    shard_records: int = DEFAULT_SHARD_RECORDS,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FederationReport:
    """Merge every source store into ``dest_root``; returns a report.

    The destination may be empty, may be one of the sources' siblings from
    an earlier partial merge (indexes it already holds are skipped, so
    re-running a federation is a no-op), or may not exist yet.  A
    destination or source written by a *different* campaign is rejected the
    way :meth:`ShardedResultStore.open` rejects a mis-pointed
    ``--results-dir`` — before anything is written.
    """
    if not source_roots:
        raise ValueError("federate needs at least one source store")
    sources = [ShardedResultStore(root) for root in source_roots]
    manifests = [_manifest_of(root, store) for root, store in zip(source_roots, sources)]
    fingerprint = manifests[0].get("fingerprint")
    total = manifests[0].get("total")
    for root, manifest in zip(source_roots[1:], manifests[1:]):
        if manifest.get("fingerprint") != fingerprint:
            raise ResultStoreMismatchError(
                f"result store {root!r} was written by a different campaign than "
                f"{source_roots[0]!r}; federating them would mix unrelated results"
            )

    dest = ShardedResultStore(dest_root)
    dest.open(fingerprint, total)  # raises on a foreign destination

    # Later source wins every overlapping index (deterministic dedup).
    winners: dict[int, ShardedResultStore] = {}
    overlapping = 0
    for store in sources:
        for index in store.completed_indexes():
            if index in winners:
                overlapping += 1
            winners[index] = store

    already = set(dest.completed_indexes())
    pending = sorted(index for index in winners if index not in already)

    # Carry the workload prep over so a federated store resumes without
    # re-preparing.
    _carry_prep(dest, sources)

    shards_written = 0
    batch: list[tuple[int, dict]] = []
    for position, index in enumerate(pending):
        batch.append((index, winners[index].load_record(index)))
        if len(batch) >= shard_records:
            dest.write_shard_dicts(batch)
            shards_written += 1
            batch = []
        if progress is not None:
            progress(position + 1, len(pending))
    if batch:
        dest.write_shard_dicts(batch)
        shards_written += 1

    return FederationReport(
        fingerprint=fingerprint,
        total=total if isinstance(total, int) else len(winners),
        sources=tuple(source_roots),
        merged_records=len(pending),
        skipped_records=len(already & set(winners)),
        overlapping_records=overlapping,
        shards_written=shards_written,
    )


# --------------------------------------------------------------------------
# Auto-federation: watch several stores, fold incrementally
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AutoFederationReport:
    """What one auto-federation watch accomplished (the CLI prints this)."""

    fingerprint: str
    total: int  # plan size the manifests agree on
    sources: tuple[str, ...]
    merged_records: int  # records folded into the destination by this watch
    initial_records: int  # records the destination already held at start
    shards_written: int
    rounds: int  # poll rounds taken until the campaign was complete

    def describe(self) -> str:
        return "\n".join(
            [
                "Auto-federation complete",
                f"fingerprint        : {self.fingerprint[:16]}…",
                f"sources watched    : {len(self.sources)}",
                f"records folded     : {self.merged_records}"
                f" (+{self.initial_records} already in the destination)",
                f"destination total  : {self.total}",
                f"shards written     : {self.shards_written}",
                f"poll rounds        : {self.rounds}",
            ]
        )


def autofederate_stores(
    dest_root: str,
    source_roots: list[str],
    shard_records: int = DEFAULT_SHARD_RECORDS,
    poll_interval: float = 0.5,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> AutoFederationReport:
    """Watch ``source_roots`` and fold new shards into ``dest_root`` until the
    destination holds the campaign's full plan.

    The coordinator mode of federation: several campaigns of one fingerprint
    execute concurrently in different places (clusters, transports, hosts),
    and this process incrementally merges whatever any of them has finished.
    Semantics per round mirror :func:`federate_stores` — every source must
    carry the destination's fingerprint, the later source wins an index that
    first appears in several sources within one round — with two additions
    for the watching setting:

    * A source that is not a store *yet* (its worker hasn't opened it) or is
      transiently unreachable is simply polled again next round; only a
      store with a *wrong* fingerprint aborts the watch.  An index already
      folded is never rewritten, so re-running (or resuming) an
      auto-federation is incremental, exactly like re-running ``federate``.
    * The watch ends when the destination holds ``total`` distinct records
      (its digest is then byte-identical to a serial run, since the digest
      never sees shard boundaries), or fails with
      :class:`~repro.core.distributed.DistributedTimeoutError` when
      ``timeout`` elapses first.
    """
    from repro.core.distributed import DistributedTimeoutError  # no import cycle

    if not source_roots:
        raise ValueError("autofederate needs at least one source store")
    if poll_interval <= 0:
        raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
    deadline = None if timeout is None else time.monotonic() + timeout
    sources = [ShardedResultStore(root) for root in source_roots]
    validated: set[str] = set()
    fingerprint: Optional[str] = None
    total: Optional[int] = None
    dest: Optional[ShardedResultStore] = None
    dest_done: set[int] = set()
    initial_records = 0
    merged_records = 0
    shards_written = 0
    rounds = 0
    prep_copied = False

    while True:
        rounds += 1
        # Discover and validate sources as their manifests appear.
        for root, store in zip(source_roots, sources):
            if root in validated:
                continue
            manifest = _manifest_of(root, store, absent_ok=True)
            if manifest is None:
                continue  # not populated yet / store unreachable: poll again
            if fingerprint is None:
                fingerprint = manifest.get("fingerprint")
                total = manifest.get("total")
                dest = ShardedResultStore(dest_root)
                dest.open(fingerprint, total)  # raises on a foreign destination
                dest_done = set(dest.completed_indexes())
                initial_records = len(dest_done)
            elif manifest.get("fingerprint") != fingerprint:
                raise ResultStoreMismatchError(
                    f"result store {root!r} was written by a different campaign than "
                    f"the one being federated; refusing to mix unrelated results"
                )
            validated.add(root)

        if dest is not None:
            # Carry the workload prep over once any source has it, so the
            # federated store resumes without re-preparing.
            if not prep_copied:
                prep_copied = _carry_prep(
                    dest,
                    [s for root, s in zip(source_roots, sources) if root in validated],
                    tolerate_unreachable=True,
                )

            # Fold this round's newly completed indexes (later source wins).
            # This loop deliberately does not share federate_stores' fold
            # core: the one-shot merge is strict (any failure aborts, counts
            # skipped/overlapping sources), the watch is tolerant per index
            # and accounts per round — parameterizing one loop over both
            # failure semantics obscured more than it deduplicated.
            winners: dict[int, ShardedResultStore] = {}
            for root, store in zip(source_roots, sources):
                if root not in validated:
                    continue
                try:
                    store.refresh()
                    for index in store.completed_indexes():
                        if index not in dest_done:
                            winners[index] = store
                except TransportError:
                    continue  # source hiccup: its indexes fold next round
            pending = sorted(winners)
            batch: list[tuple[int, dict]] = []
            for index in pending:
                try:
                    record = winners[index].load_record(index)
                except (TransportError, KeyError):
                    # The source died (or the shard was pruned) between the
                    # scan and the read: the index stays unfolded and is
                    # retried next round.  Only source reads are tolerated —
                    # a *destination* write failure aborts the watch from
                    # the statement that actually failed.
                    continue
                batch.append((index, record))
                if len(batch) >= shard_records:
                    dest.write_shard_dicts(batch)
                    shards_written += 1
                    dest_done.update(i for i, _ in batch)
                    merged_records += len(batch)
                    batch = []
            if batch:
                dest.write_shard_dicts(batch)
                shards_written += 1
                dest_done.update(i for i, _ in batch)
                merged_records += len(batch)
            if pending and progress is not None and isinstance(total, int):
                progress(len(dest_done), total)
            if isinstance(total, int) and len(dest_done) >= total:
                return AutoFederationReport(
                    fingerprint=fingerprint or "",
                    total=total,
                    sources=tuple(source_roots),
                    merged_records=merged_records,
                    initial_records=initial_records,
                    shards_written=shards_written,
                    rounds=rounds,
                )

        if deadline is not None and time.monotonic() > deadline:
            held = len(dest_done) if dest is not None else 0
            want = total if isinstance(total, int) else "?"
            raise DistributedTimeoutError(
                f"autofederate incomplete after {timeout:.0f}s: destination holds "
                f"{held} of {want} experiments; "
                f"{len(validated)} of {len(source_roots)} source store(s) seen"
            )
        time.sleep(poll_interval)
