"""Field-path utilities for API objects.

The injection campaign operates on *fields* of resource objects: it records
which fields appear in the messages written to etcd during a golden run and
then generates bit-flip / value-set injections per field.  Field paths are
dotted strings; list elements are addressed by index, e.g.
``spec.template.spec.containers.0.image``.

Paths are parsed once: :func:`compile_path` caches a :class:`CompiledPath`
per distinct dotted string (the parts pre-split, list indexes pre-converted),
so the callers on the hot path (the injector's mutation targets, the
validation layer's nested lookups) do not pay a string split and ``int()``
conversion per access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional


@dataclass(frozen=True)
class FieldRecord:
    """A leaf field observed in an API object.

    Attributes:
        path: dotted field path from the object root.
        value_type: ``"int"``, ``"str"``, ``"bool"``, ``"float"`` or ``"none"``.
        value: the value observed when the field was recorded.
    """

    path: str
    value_type: str
    value: Any


def _type_name(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "none"
    return type(value).__name__


def iter_field_paths(obj: Any, prefix: str = "") -> Iterator[FieldRecord]:
    """Yield a :class:`FieldRecord` for every leaf field in ``obj``.

    Dictionaries and lists are traversed; every scalar leaf (including
    ``None``) produces one record.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from iter_field_paths(value, path)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            path = f"{prefix}.{index}" if prefix else str(index)
            yield from iter_field_paths(value, path)
    else:
        yield FieldRecord(path=prefix, value_type=_type_name(obj), value=obj)


_MISSING = object()


class CompiledPath:
    """A dotted field path parsed once, reusable across calls.

    ``parts`` holds ``(text, index)`` pairs: ``text`` is the raw path
    component (used for dictionary lookups), ``index`` its integer form when
    the component can address a list element (``None`` otherwise).
    """

    __slots__ = ("path", "parts")

    def __init__(self, path: str):
        if not path:
            raise KeyError("empty field path")
        self.path = path
        parts: list[tuple[str, Optional[int]]] = []
        for text in path.split("."):
            try:
                index: Optional[int] = int(text)
            except ValueError:
                index = None
            parts.append((text, index))
        self.parts = tuple(parts)

    # ----------------------------------------------------------------- access

    def _descend(self, node: Any, text: str, index: Optional[int]) -> Any:
        path = self.path
        if isinstance(node, dict):
            if text not in node:
                raise KeyError(f"field path component {text!r} not found in {path!r}")
            return node[text]
        if isinstance(node, (list, tuple)):
            if index is None:
                raise KeyError(f"expected list index at {text!r} in {path!r}")
            if index >= len(node):
                raise KeyError(f"index {index} out of range in {path!r}")
            return node[index]
        raise KeyError(f"cannot descend into scalar at {text!r} in {path!r}")

    def get(self, obj: Any) -> Any:
        """Return the value at this path; raise ``KeyError`` if absent."""
        node = obj
        for text, index in self.parts:
            node = self._descend(node, text, index)
        return node

    def find(self, obj: Any, default: Any = None) -> Any:
        """Return the value at this path, or ``default`` if any step is absent."""
        node = obj
        for text, index in self.parts:
            if isinstance(node, dict):
                node = node.get(text, _MISSING)
                if node is _MISSING:
                    return default
            elif isinstance(node, (list, tuple)):
                if index is None or not -len(node) <= index < len(node):
                    return default
                node = node[index]
            else:
                return default
        return node

    def set(self, obj: Any, value: Any) -> None:
        """Set the value in place; raise ``KeyError`` if the parent is absent."""
        node = obj
        path = self.path
        for text, index in self.parts[:-1]:
            if isinstance(node, dict):
                if text not in node:
                    raise KeyError(f"field path component {text!r} not found in {path!r}")
                node = node[text]
            elif isinstance(node, list):
                if index is None:
                    index = int(text)  # bug-compatible: raises ValueError
                if index >= len(node):
                    raise KeyError(f"index {index} out of range in {path!r}")
                node = node[index]
            else:
                raise KeyError(f"cannot descend into scalar at {text!r} in {path!r}")
        text, index = self.parts[-1]
        if isinstance(node, dict):
            node[text] = value
        elif isinstance(node, list):
            if index is None:
                index = int(text)  # bug-compatible: raises ValueError
            if index >= len(node):
                raise KeyError(f"index {index} out of range in {path!r}")
            node[index] = value
        else:
            raise KeyError(f"cannot set field on scalar parent in {path!r}")

    def delete(self, obj: Any) -> None:
        """Remove the value at this path; raise ``KeyError`` if absent."""
        node = obj
        for text, index in self.parts[:-1]:
            node = self._descend(node, text, index)
        text, index = self.parts[-1]
        path = self.path
        if isinstance(node, dict):
            if text not in node:
                raise KeyError(f"field path {path!r} not found")
            del node[text]
        elif isinstance(node, list):
            if index is None:
                index = int(text)  # bug-compatible: raises ValueError
            if index >= len(node):
                raise KeyError(f"index {index} out of range in {path!r}")
            del node[index]
        else:
            raise KeyError(f"cannot delete field from scalar parent in {path!r}")


_COMPILED_CACHE_MAX = 4096
_compiled_cache: dict[str, CompiledPath] = {}


def compile_path(path: str) -> CompiledPath:
    """Return the cached :class:`CompiledPath` for ``path`` (parsing it once)."""
    compiled = _compiled_cache.get(path)
    if compiled is None:
        compiled = CompiledPath(path)
        if len(_compiled_cache) < _COMPILED_CACHE_MAX:
            _compiled_cache[path] = compiled
    return compiled
