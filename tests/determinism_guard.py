"""Run-time guard: ambient entropy raises inside the simulator, and an
edited shared tree is found when the guard exits.

A digest must depend on the campaign configuration alone.  Instead of
guessing at the hazards from the source, :func:`guarded` perturbs the
running program.  In scope, ``time.time``/``time_ns``,
``datetime.now``/``utcnow``, the module-level :mod:`random` functions,
``os.urandom``, ``uuid.uuid1``/``uuid4`` and an unseeded
``random.Random()`` raise :class:`AmbientEntropyError` and are recorded in
:data:`VIOLATIONS`, so a handler that swallows the error still fails the
run; pacing (``time.monotonic``, ``sleep``, ``perf_counter``) is free.
With ``reverse_listings``, ``os.listdir`` and ``os.scandir`` (so ``os.walk``,
``glob`` and ``pathlib`` too) return the filesystem's order reversed,
process-wide.  A call is judged by its nearest ``repro.*`` frame; one made
while a module is imported belongs to that import (the stdlib's
``logging`` reads the clock when ``core/parallel.py`` imports it).

The same guard checks the informer contract: a tree that ``decode_shared``
hands out is shared by every ``copy=False`` reader, every prefix copy and
every later run in the process, so nothing may edit it in place.  Every
module-level binding of ``decode_shared`` records the trees it returns
with the bytes each was decoded from, and on exit each tree is compared,
type-exactly, with a fresh uncached decode of those bytes.  The fill bytes,
not the store's current ones: an at-rest fault changes the store, never a
tree.  Each edited tree is recorded in :data:`VIOLATIONS`.

As a script it installs the guard (reversing listings under
``PYTHONHASHSEED=1``) before it imports and runs the CLI, and exits 3
naming every guarded call and every edited tree::

    PYTHONPATH=src PYTHONHASHSEED=1 python tests/determinism_guard.py campaign ...
"""

from __future__ import annotations

import contextlib
import datetime
import os
import random
import struct
import sys
import time
import uuid
from typing import Callable, Iterator, Optional

#: Package directories whose every module is campaign-digest-affecting.
SCOPE_DIRS = frozenset(
    "sim controllers apiserver cluster etcd kubelet scheduler network monitoring "
    "objects workloads serialization".split()
)
#: The campaign-pipeline files under ``core/``.
SCOPE_FILES = frozenset(
    ("core", f"{name}.py")
    for name in "injector experiment campaign classification analysis parallel "
    "resultstore federate distributed".split()
)
#: The sanctioned seeded-randomness wrapper itself.
EXEMPT_FILES = frozenset({("sim", "rng.py")})
#: ``(file, qualname prefix)`` pairs allowed the wall clock.  Slice leases
#: judge liveness by mtime age: wall-clock by design, documented in the
#: distributed protocol, and never part of a result record.
WALL_CLOCK_ALLOWLIST = ((("core", "distributed.py"), "SliceLeases."),)

#: Every guarded call made in scope, and every edited shared tree, since
#: :func:`guarded` was entered.
VIOLATIONS: list[str] = []

#: ``id(tree) -> (tree, bytes)`` for every tree ``decode_shared`` handed out
#: since :func:`guarded` was entered; kept until the next entry.
SHARED: dict[int, tuple[dict, bytes]] = {}


class AmbientEntropyError(AssertionError):
    """Wall clock or ambient randomness read in digest-affecting code."""


def _offender(wall_clock: bool) -> Optional[str]:
    """``file:line (qualname)`` of the nearest ``repro`` frame if it is in
    scope and not exempt, else ``None``."""
    frame = sys._getframe()
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("importlib._bootstrap"):
            return None
        if name == "repro" or name.startswith("repro."):
            break
        frame = frame.f_back
    else:
        return None
    parts, leaf = name.split(".")[1:], os.path.basename(frame.f_globals.get("__file__") or "")
    relparts = (*parts, leaf) if leaf == "__init__.py" else (*parts[:-1], leaf)
    tail = relparts[-2:]
    if tail in EXEMPT_FILES or not (tail in SCOPE_FILES or relparts[0] in SCOPE_DIRS):
        return None
    code, owner = frame.f_code, frame.f_locals.get("self")
    qualname = getattr(code, "co_qualname", None) or (  # co_qualname: Python 3.11+
        code.co_name if owner is None else f"{type(owner).__qualname__}.{code.co_name}"
    )
    if wall_clock and any(
        tail == allowed and f"{qualname}.".startswith(prefix)
        for allowed, prefix in WALL_CLOCK_ALLOWLIST
    ):
        return None
    return f"{'/'.join(relparts)}:{frame.f_lineno} ({qualname})"


def _check(what: str, wall_clock: bool = False) -> None:
    offender = _offender(wall_clock)
    if offender is not None:
        VIOLATIONS.append(f"{what} in {offender}")
        raise AmbientEntropyError(
            f"{what} in digest-affecting code at {offender}; use the simulated "
            "clock / seeded sim/rng.py streams (pacing via time.monotonic is fine)"
        )


def _guarded(what: str, function: Callable, wall_clock: bool = False) -> Callable:
    def guarded(*args, **kwargs):
        _check(what, wall_clock)
        return function(*args, **kwargs)

    return guarded


class _GuardedDatetime(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        _check("datetime.now()", wall_clock=True)
        return super().now(tz)

    @classmethod
    def utcnow(cls):
        _check("datetime.utcnow()", wall_clock=True)
        return super().utcnow()


class _ReversedScandir:
    """``os.scandir``'s iterator-and-context-manager, entries reversed."""

    def __init__(self, scandir: Callable, *args, **kwargs):
        with scandir(*args, **kwargs) as entries:
            self._entries = iter(list(entries)[::-1])

    def __iter__(self) -> "_ReversedScandir":
        return self

    def __next__(self):
        return next(self._entries)

    def __enter__(self) -> "_ReversedScandir":
        return self

    def __exit__(self, *exc_info) -> None:
        self._entries = iter(())

    close = __exit__


def same_tree(a, b) -> bool:
    """Type-exact tree equality: key order, ``True`` vs ``1``, NaN and -0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(same_tree(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_tree, a, b))
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _recording(decode_shared: Callable) -> Callable:
    def recorded(data):
        tree = decode_shared(data)
        if id(tree) not in SHARED:
            SHARED[id(tree)] = (tree, bytes(data))
        return tree

    return recorded


def _rebind(old: Callable, new: Callable) -> None:
    """Point every module-level binding of ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None and namespace.get("decode_shared") is old:
            namespace["decode_shared"] = new


def _sweep(decode: Callable[[bytes], dict]) -> None:
    """Record in :data:`VIOLATIONS` each handed-out tree that no longer
    equals ``decode`` of its bytes."""
    for tree, data in SHARED.values():
        fresh = decode(data)
        if not same_tree(tree, fresh):
            metadata = fresh.get("metadata")
            metadata = metadata if isinstance(metadata, dict) else {}
            where = "/".join(
                str(part) for part in (metadata.get("namespace"), metadata.get("name")) if part
            )
            VIOLATIONS.append(f"shared tree of {fresh.get('kind')} {where} edited in place")


@contextlib.contextmanager
def guarded(reverse_listings: bool = False) -> Iterator[list[str]]:
    """Install the guard for the ``with`` body and yield :data:`VIOLATIONS`,
    cleared on entry; everything patched is restored on exit, and then the
    shared trees are swept."""
    from repro.serialization import codec

    patches: list[tuple[object, str, object]] = []

    def patch(owner: object, name: str, value: object) -> None:
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    for name in ("time", "time_ns"):
        patch(time, name, _guarded(f"time.{name}()", getattr(time, name), wall_clock=True))
    patch(datetime, "datetime", _GuardedDatetime)
    for name in dir(random):
        function = getattr(random, name)
        if getattr(function, "__self__", None) is random._inst:  # the module-level API
            patch(random, name, _guarded(f"random.{name}()", function))
    seed = random.Random.seed

    def seed_unless_unseeded(self, a=None, *args, **kwargs):
        if a is None:
            _check("unseeded Random()")
        return seed(self, a, *args, **kwargs)

    patch(random.Random, "seed", seed_unless_unseeded)
    patch(os, "urandom", _guarded("os.urandom()", os.urandom))
    for name in ("uuid1", "uuid4"):
        patch(uuid, name, _guarded(f"uuid.{name}()", getattr(uuid, name)))
    if reverse_listings:
        listdir, scandir = os.listdir, os.scandir
        patch(os, "listdir", lambda *args, **kwargs: listdir(*args, **kwargs)[::-1])
        patch(os, "scandir", lambda *args, **kwargs: _ReversedScandir(scandir, *args, **kwargs))
    decode_shared, recorded = codec.decode_shared, _recording(codec.decode_shared)
    _rebind(decode_shared, recorded)
    VIOLATIONS.clear()
    SHARED.clear()
    try:
        yield VIOLATIONS
    finally:
        _rebind(recorded, decode_shared)  # modules imported inside included
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        _sweep(codec._decode_message)


if __name__ == "__main__":
    with guarded(reverse_listings=os.environ.get("PYTHONHASHSEED") == "1") as violations:
        from repro.cli import main

        status = main(sys.argv[1:])
    if violations:
        print("run-time guard tripped:", *violations, sep="\n  ", file=sys.stderr)
        status = 3
    sys.exit(status)
