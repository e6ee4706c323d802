"""In-memory span recorder, and ``install`` that attaches it from outside.

The benchmark measures every layer *from outside*: nothing under ``src/`` is
edited.  :func:`install` rebinds a declared table of public callables with
timing wrappers via ``setattr`` — on the defining module or class, and on
every other ``repro`` module that imported the callable by name (``from
repro.serialization import encode`` creates a second binding that a rebind
of the defining module alone would miss) — and restores every binding
afterwards.

A span is one list ``[name, layer, start, end, parent, request, delta,
error]``:

* ``parent`` is the enclosing span *of the same thread* (``None`` for a
  root), so the children of a span never overlap each other and its self
  time is its duration minus the sum of their durations;
* ``request`` groups the spans of one experiment or one store/service
  operation: ``workload:repetition:index``.  Targets flagged ``request``
  open a new one, every other span inherits its parent's;
* ``delta`` is the change of the target's ``gauge`` across the call (the
  simulator's event counter), ``0`` for targets without one;
* ``error`` is the class of the exception the call raised, else ``None``.

Spans stay in memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional

NAME, LAYER, START, END, PARENT, REQUEST, DELTA, ERROR = range(8)


@dataclass(frozen=True)
class Target:
    """One public callable to time: ``module.attribute`` or ``module.cls.attribute``."""

    layer: str
    module: str
    attribute: str
    cls: Optional[str] = None
    #: Span name; defaults to ``layer.attribute``.
    name: Optional[str] = None
    #: Opens a new request id (an experiment, a federation, a round-trip).
    request: bool = False
    #: ``gauge(*args, **kwargs)`` is read before and after the call; the span
    #: records the difference.
    gauge: Optional[Callable[..., int]] = None
    #: ``suffix(*args, **kwargs)`` is appended to the span name per call (the
    #: transport a store instance talks through).
    suffix: Optional[Callable[..., str]] = None
    #: The callable is a generator function: drain it inside the span and
    #: hand back an iterator over the collected items, so the span covers the
    #: work and never stays open across the caller's loop body.
    eager: bool = False

    @property
    def span_name(self) -> str:
        return self.name or f"{self.layer}.{self.attribute}"

    @property
    def qualified(self) -> str:
        owner = f"{self.module}.{self.cls}" if self.cls else self.module
        return f"{owner}.{self.attribute}"


class WrapTableError(RuntimeError):
    """A wrap-table entry no longer names a public callable under ``src/``."""


class SpanRecorder:
    """Collects the spans of wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``workload:repetition`` — the prefix of every request id opened next.
        self.request_prefix = ""
        self._stacks: dict[int, list[list]] = defaultdict(list)
        self._requests = 0

    def _open(self, name: str, layer: str, request: bool) -> list:
        stack = self._stacks[threading.get_ident()]
        parent = stack[-1] if stack else None
        if request:
            self._requests += 1
            request_id = f"{self.request_prefix}:{self._requests}"
        else:
            request_id = parent[REQUEST] if parent is not None else ""
        span = [name, layer, 0.0, 0.0, parent, request_id, 0, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self) -> None:
        self._stacks[threading.get_ident()].pop()

    def wrap(self, func: Callable, target: Target) -> Callable:
        """A timing wrapper around ``func``.  The clock is read last before
        and first after the call, so the recorder's own bookkeeping lands in
        the *caller's* self time, never in the wrapped span's duration."""
        name, layer, request = target.span_name, target.layer, target.request
        gauge, suffix, eager = target.gauge, target.suffix, target.eager
        open_span, close_span = self._open, self._close

        if gauge is None and suffix is None and not eager:
            # The hot path: ~10^4 of these per simulated experiment.
            @functools.wraps(func)
            def traced(*args, **kwargs):
                span = open_span(name, layer, request)
                span[START] = perf_counter()
                try:
                    return func(*args, **kwargs)
                except BaseException as error:
                    span[ERROR] = type(error)
                    raise
                finally:
                    span[END] = perf_counter()
                    close_span()

            return traced

        @functools.wraps(func)
        def traced_general(*args, **kwargs):
            full_name = f"{name}.{suffix(*args, **kwargs)}" if suffix is not None else name
            span = open_span(full_name, layer, request)
            before = gauge(*args, **kwargs) if gauge is not None else 0
            span[START] = perf_counter()
            try:
                result = func(*args, **kwargs)
                return iter(list(result)) if eager else result
            except BaseException as error:
                span[ERROR] = type(error)
                raise
            finally:
                span[END] = perf_counter()
                if gauge is not None:
                    span[DELTA] = gauge(*args, **kwargs) - before
                close_span()

        return traced_general

    def write(self, path: str) -> None:
        """Dump the spans as compact JSON (parents become span indexes)."""
        index_of = {id(span): index for index, span in enumerate(self.spans)}
        rows = [
            [
                span[NAME],
                span[LAYER],
                span[START],
                span[END],
                index_of[id(span[PARENT])] if span[PARENT] is not None else -1,
                span[REQUEST],
                span[DELTA],
                span[ERROR].__name__ if span[ERROR] is not None else None,
            ]
            for span in self.spans
        ]
        document = {
            "columns": ["name", "layer", "start_s", "end_s", "parent", "request", "delta", "error"],
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def duration(span: list) -> float:
    return span[END] - span[START]


def raised(span: list, class_name: str) -> bool:
    """Whether the span's call raised ``class_name`` or a subclass of it."""
    return span[ERROR] is not None and any(base.__name__ == class_name for base in span[ERROR].__mro__)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its direct children cover.

    Children share their parent's thread, so they are disjoint and the part
    they cover is the plain sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[id(span[PARENT])] += duration(span)
    return [duration(span) - covered[id(span)] for span in spans]


def descendants(spans: list[list], roots: Iterable[list]) -> Iterator[tuple[int, list]]:
    """``(position, span)`` of every span at or below one of ``roots``.

    Spans are recorded in opening order, so a parent always precedes its
    children and one forward pass suffices.
    """
    inside = {id(root) for root in roots}
    for position, span in enumerate(spans):
        if id(span) in inside:
            yield position, span
        elif span[PARENT] is not None and id(span[PARENT]) in inside:
            inside.add(id(span))
            yield position, span


# --------------------------------------------------------------------------
# Installing the wrappers
# --------------------------------------------------------------------------


class Installed:
    """The bindings one :func:`install` call replaced; ``restore()`` undoes them."""

    def __init__(self) -> None:
        self._replaced: list[tuple[object, str, object]] = []

    def rebind(self, namespace: object, attribute: str, original: object, wrapper: object) -> None:
        self._replaced.append((namespace, attribute, original))
        setattr(namespace, attribute, wrapper)

    def restore(self) -> None:
        while self._replaced:
            namespace, attribute, original = self._replaced.pop()
            setattr(namespace, attribute, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()


def resolve(target: Target) -> tuple[object, Callable]:
    """``(owner, function)`` of a table entry, or :class:`WrapTableError`.

    A class attribute must be a plain function: wrapping a ``staticmethod``
    or a property object as if it were one would silently change its binding.
    """
    try:
        owner: object = importlib.import_module(target.module)
        if target.cls is not None:
            owner = getattr(owner, target.cls)
        original = vars(owner)[target.attribute]
    except (ImportError, AttributeError, KeyError) as error:
        raise WrapTableError(f"wrap table entry {target.qualified} does not resolve: {error!r}") from error
    if not callable(original) or isinstance(original, (staticmethod, classmethod, type)):
        raise WrapTableError(f"wrap table entry {target.qualified} is not a plain function")
    return owner, original


def install(recorder: SpanRecorder, table: Iterable[Target]) -> Installed:
    """Rebind every table entry with a timing wrapper; returns the undo handle.

    The whole table is resolved before the first rebind, so a renamed
    callable fails the run loudly with nothing half-installed.
    """
    resolved = [(target, *resolve(target)) for target in table]
    installed = Installed()
    for target, owner, original in resolved:
        wrapper = recorder.wrap(original, target)
        if target.cls is not None:
            installed.rebind(owner, target.attribute, original, wrapper)
            continue
        # A module-level function: rebind every by-name import of it too.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    installed.rebind(module, attribute, original, wrapper)
    return installed
