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

from typing import Any, Optional


def value_type(value: Any) -> str:
    """The recorded type of a leaf: ``"int"``, ``"str"``, ``"bool"``,
    ``"float"``, ``"none"`` or, for anything else, its class name."""
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


def field_leaves(obj: Any) -> list[tuple[str, Any]]:
    """Every scalar leaf of ``obj`` (``None`` included) as a ``(dotted path,
    value)`` pair, depth first in key and index order.

    Dictionaries, lists and tuples are traversed; a scalar ``obj`` is the one
    leaf at path ``""``.  The pairs are built into one list, with no
    generator per level and no record per leaf, because the field recorder
    walks every message a golden run writes to etcd.
    """
    leaves: list[tuple[str, Any]] = []
    if isinstance(obj, (dict, list, tuple)):
        _collect_leaves(obj, "", leaves)
    else:
        leaves.append(("", obj))
    return leaves


def _collect_leaves(node: Any, prefix: str, leaves: list) -> None:
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, (dict, list, tuple)):
            _collect_leaves(value, path, leaves)
        else:
            leaves.append((path, value))


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
