"""Object metadata helpers.

Every resource instance carries an ``metadata`` section with the fields the
paper identifies as critical: ``name``, ``namespace``, ``uid``, ``labels``,
``ownerReferences`` and ``resourceVersion``.  The helpers here construct and
manipulate that section.
"""

from __future__ import annotations

import marshal
import threading
from typing import Any, Optional


class _UidState(threading.local):
    """One UID counter per thread: a simulation runs on one thread, and
    campaigns may run side by side as threads of one process (service
    handles, in-process worker loops) — a shared counter would let one
    simulation's UIDs depend on, or be reset by, its neighbour."""

    def __init__(self) -> None:
        #: UIDs handed out so far: a plain number, so a snapshot of a
        #: cluster can carry the position and a copy of it continue there.
        self.position = 0


_uid_state = _UidState()


def new_uid() -> str:
    """Return a fresh unique identifier for a resource instance.

    UIDs only need to be unique within a simulation run; a monotonically
    increasing counter keeps them deterministic and readable in logs.
    """
    state = _uid_state
    state.position += 1
    return f"uid-{state.position:08d}"


def uid_position() -> int:
    """How many UIDs the calling thread has handed out since its last reset."""
    return _uid_state.position


def reset_uid_counter(position: int = 0) -> None:
    """Reset the calling thread's UID counter (each simulation starts from
    1, so its UIDs do not depend on what ran before it); ``position``
    resumes where :func:`uid_position` said the counter stood instead."""
    _uid_state.position = position


def make_object_meta(
    name: str,
    namespace: str = "default",
    labels: Optional[dict[str, str]] = None,
    annotations: Optional[dict[str, str]] = None,
    owner_references: Optional[list[dict]] = None,
    uid: Optional[str] = None,
) -> dict:
    """Build a ``metadata`` dictionary for a resource instance."""
    return {
        "name": name,
        "namespace": namespace,
        "uid": uid if uid is not None else new_uid(),
        "labels": dict(labels) if labels else {},
        "annotations": dict(annotations) if annotations else {},
        "ownerReferences": list(owner_references) if owner_references else [],
        "resourceVersion": 0,
        "creationTimestamp": None,
        "deletionTimestamp": None,
        "generation": 1,
    }


def make_owner_reference(owner: dict, controller: bool = True) -> dict:
    """Build an ownerReference entry pointing at ``owner``."""
    return {
        "kind": owner["kind"],
        "name": owner["metadata"]["name"],
        "uid": owner["metadata"]["uid"],
        "controller": controller,
    }


def owner_uids(obj: dict) -> set[str]:
    """Return the set of owner UIDs referenced by ``obj``.

    Corrupted metadata is tolerated: a missing or malformed
    ``ownerReferences`` list simply yields an empty set, which is exactly how
    a controller "loses" its children after an injection.
    """
    metadata = obj.get("metadata")
    if not isinstance(metadata, dict):
        return set()
    refs = metadata.get("ownerReferences")
    if not isinstance(refs, list):
        return set()
    uids = set()
    for ref in refs:
        if isinstance(ref, dict) and isinstance(ref.get("uid"), str):
            uids.add(ref["uid"])
    return uids


def controller_owner(obj: dict) -> Optional[dict]:
    """Return the ownerReference marked as controller, if any."""
    metadata = obj.get("metadata")
    if not isinstance(metadata, dict):
        return None
    refs = metadata.get("ownerReferences")
    if not isinstance(refs, list):
        return None
    for ref in refs:
        if isinstance(ref, dict) and ref.get("controller"):
            return ref
    return None


def deep_copy(obj: Any) -> Any:
    """Deep copy an API object (used on every read/write boundary).

    API objects are JSON-shaped trees — dicts, lists, tuples and immutable
    scalars — copied on every Apiserver read and write.  ``marshal`` copies
    such trees in C, several times faster than any Python-level recursion
    (and than :func:`copy.deepcopy`'s generic memo machinery).  A tree
    holding a value marshal cannot serialize raises ``ValueError``.
    """
    return marshal.loads(marshal.dumps(obj))


def object_key(obj: dict) -> str:
    """Return the ``namespace/name`` key of an object (best effort on corrupted data)."""
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        return "<corrupted>/<corrupted>"
    namespace = metadata.get("namespace", "default")
    name = metadata.get("name", "<unnamed>")
    return f"{namespace}/{name}"
