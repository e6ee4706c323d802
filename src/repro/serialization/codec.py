"""A varint / length-delimited wire codec for API objects.

The format ("mutinyproto") mirrors the aspects of Protobuf that matter for
the paper's serialization-byte fault injections:

* integers are varint-encoded (little-endian base-128 with a continuation
  bit), so flipping a low-order bit changes the value slightly while flipping
  the continuation bit breaks framing;
* strings, nested messages and lists are length-delimited, so corrupting a
  length byte truncates or overruns the payload;
* field keys are encoded inline, so corrupting a key byte silently moves the
  value to a different (usually unknown) field.

Objects are plain Python dictionaries whose leaves are ``int``, ``float``,
``bool``, ``str``, ``None``, lists, or nested dictionaries — exactly the
shape of the resource objects in :mod:`repro.objects`.

Caches sit on the hot path (see ``docs/PERFORMANCE.md``; the soundness
arguments are in ``docs/INVARIANTS.md``), all dropped by
:func:`clear_codec_caches`:

* a **decode cache** keyed by the exact value bytes — the store persists
  serialized bytes, so every controller read of an unchanged object used to
  pay a full varint round-trip; identical bytes always decode to identical
  trees, so the round-trip is paid once and every further read receives an
  independent deep copy of the cached tree.  Corrupted/injected bytes differ
  from any successfully decoded bytes and therefore *bypass* the cache by
  construction: they are decoded (and fail) fresh every time, so the fault
  semantics of the paper are untouched;
* an **encode memo** keyed by the ``marshal`` bytes of the tree with
  ``metadata.resourceVersion`` blanked — the same lease renewal or pod
  status is written again and again under a new version, so most encodes
  repeat an earlier one's content exactly; a hit splices the new version
  into the memoised encoding.  A tree without an integer version (none in
  a campaign: every write stamps one) is encoded plainly.
  :func:`seed_decode` lets the Apiserver enter the bytes it just encoded
  into the decode cache without parsing them back;
* an **encode key cache** interning the length-prefixed encoding of message
  keys — the same few dozen field names ("metadata", "spec", "replicas", …)
  appear in every message of a campaign — and two string caches (canonical
  decoded strings, encoded short strings).

Every cache tolerates concurrent simulations on several threads: a hit is
one lookup that treats a concurrently evicted entry as a miss.
"""

from __future__ import annotations

import marshal
import struct
from collections import OrderedDict
from typing import Any, Optional

from repro.hotpath import COUNTERS

# One-byte value type tags.
_TYPE_INT = 0x00
_TYPE_STR = 0x01
_TYPE_BOOL = 0x02
_TYPE_MESSAGE = 0x03
_TYPE_LIST = 0x04
_TYPE_FLOAT = 0x05
_TYPE_NONE = 0x06

_MAX_LENGTH = 16 * 1024 * 1024  # guard against corrupted lengths exploding memory

#: Bound on cached decoded values (entries); the campaign working set is a
#: few hundred distinct serialized objects, re-read thousands of times.
_DECODE_CACHE_MAX = 1024
#: Values larger than this are decoded but never cached (memory guard).
_DECODE_CACHE_VALUE_LIMIT = 64 * 1024
#: Maps exact value bytes to ``[tree, marshal_blob_or_None]``; the blob is
#: produced lazily on the first copying read and turns every further
#: :func:`decode` hit into a single C-level ``marshal.loads``.
_decode_cache: "OrderedDict[bytes, list]" = OrderedDict()

#: Maps the ``marshal`` bytes of a tree whose integer
#: ``metadata.resourceVersion`` is replaced by None to its encoding cut
#: around that version: ``(bytes before the metadata payload, metadata
#: payload before the version's varint, metadata payload after it, bytes
#: after metadata, seedable)``, bounded like the decode cache.
_encode_memo: "OrderedDict[bytes, tuple[bytes, bytes, bytes, bytes, bool]]" = OrderedDict()
#: ``(wire bytes, blanked marshal bytes, version)`` of the latest encode
#: whose tree was in decode normal form (else None), read by
#: :func:`seed_decode`.  Replaced as one tuple, so a thread never pairs one
#: encode's bytes with another's tree.
_last_seedable: Optional[tuple[bytes, bytes, int]] = None

#: Signed 64-bit range: the integers whose varint decodes back unchanged.
_INT_MIN = -(1 << 63)
_INT_LIMIT = 1 << 63

#: Interned ``varint(len) + utf-8`` encodings of message keys.
_KEY_CACHE_MAX = 4096
_key_cache: dict[str, bytes] = {}

#: Canonical instances of short decoded strings (field keys, kind names,
#: phases, namespaces, …).  Sharing one instance per distinct text makes the
#: apiserver's ``marshal``-based list snapshots both smaller and ~2× faster
#: to load, because ``marshal`` writes identity-based back-references.
_STR_CACHE_MAX = 8192
_STR_CACHE_VALUE_LIMIT = 128
_str_cache: dict[str, str] = {}

#: Interned ``tag + varint(len) + utf-8`` encodings of short string values —
#: phases, kind names, namespaces and label values repeat across every
#: message of a campaign.
_ENCODED_STR_CACHE_MAX = 8192
_ENCODED_STR_VALUE_LIMIT = 128
_encoded_str_cache: dict[str, bytes] = {}


def _canonical_str(text: str) -> str:
    """Return the canonical shared instance of ``text`` (equal, maybe same)."""
    cached = _str_cache.get(text)
    if cached is not None:
        return cached
    if len(text) <= _STR_CACHE_VALUE_LIMIT and len(_str_cache) < _STR_CACHE_MAX:
        _str_cache[text] = text
    return text


def clear_codec_caches() -> None:
    """Drop the decode/encode/key/string caches (tests; never needed for correctness)."""
    global _last_seedable
    _decode_cache.clear()
    _encode_memo.clear()
    _last_seedable = None
    _key_cache.clear()
    _str_cache.clear()
    _encoded_str_cache.clear()


def _lru_get(cache: OrderedDict, key: bytes) -> Any:
    """``cache[key]`` marked most recently used, or None on a miss.

    One step for the caller: an entry another thread evicts between the two
    calls below reads as a miss instead of raising ``KeyError``.
    """
    try:
        cache.move_to_end(key)
        return cache[key]
    except KeyError:
        return None


def _lru_put(cache: OrderedDict, key: bytes, value: Any) -> None:
    """Insert ``value``, evicting the least recently used entry past the bound."""
    cache[key] = value
    if len(cache) > _DECODE_CACHE_MAX:
        try:
            cache.popitem(last=False)
        except KeyError:
            pass  # emptied by a concurrent clear_codec_caches()


class DecodeError(ValueError):
    """Raised when a byte string cannot be decoded back into an object."""


class EncodeError(ValueError):
    """Raised when an object contains values the wire format cannot represent."""


_SMALL_VARINTS = [bytes([value]) for value in range(0x80)]
_MESSAGE_TAG = bytes([_TYPE_MESSAGE])
_INT_TAG = bytes([_TYPE_INT])


def _encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a base-128 varint."""
    if 0 <= value < 0x80:
        return _SMALL_VARINTS[value]
    if value < 0:
        raise EncodeError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at ``offset``; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise DecodeError("truncated varint")
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise DecodeError("varint too long")


def _encode_zigzag(value: int) -> int:
    """Map a signed integer onto an unsigned one (ZigZag encoding)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _decode_zigzag(value: int) -> int:
    """Inverse of :func:`_encode_zigzag`."""
    return (value >> 1) ^ -(value & 1)


def _encode_str(value: str) -> bytes:
    """Return the full ``tag + varint(len) + utf-8`` encoding of a string."""
    cached = _encoded_str_cache.get(value)
    if cached is not None:
        return cached
    raw = value.encode("utf-8")
    encoded = bytes([_TYPE_STR]) + _encode_varint(len(raw)) + raw
    if len(value) <= _ENCODED_STR_VALUE_LIMIT and len(_encoded_str_cache) < _ENCODED_STR_CACHE_MAX:
        _encoded_str_cache[value] = encoded
    return encoded


def _encode_value_into(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``.

    Dispatch is on the exact type: API objects contain only these types, and
    a subclass (an ``IntEnum``, a ``str`` subclass) raises ``EncodeError``.
    The writer style avoids one intermediate ``bytes`` allocation per node.
    """
    kind = type(value)
    if kind is str:
        out += _encode_str(value)
        return
    if value is None:
        out.append(_TYPE_NONE)
        return
    if kind is bool:
        out.append(_TYPE_BOOL)
        out.append(1 if value else 0)
        return
    if kind is int:
        out.append(_TYPE_INT)
        out += _encode_varint(_encode_zigzag(value))
        return
    if kind is float:
        out.append(_TYPE_FLOAT)
        out += struct.pack("<d", value)
        return
    if kind is dict:
        payload = _encode_message(value)
        out.append(_TYPE_MESSAGE)
        out += _encode_varint(len(payload))
        out += payload
        return
    if kind is list or kind is tuple:
        parts = bytearray()
        parts += _encode_varint(len(value))
        for item in value:
            _encode_value_into(item, parts)
        out.append(_TYPE_LIST)
        out += _encode_varint(len(parts))
        out += parts
        return
    raise EncodeError(f"cannot encode value of type {type(value).__name__}")


def _decode_value(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode a single tagged value at ``offset``."""
    if offset >= len(data):
        raise DecodeError("truncated value tag")
    tag = data[offset]
    offset += 1
    if tag == _TYPE_NONE:
        return None, offset
    if tag == _TYPE_BOOL:
        if offset >= len(data):
            raise DecodeError("truncated bool")
        return bool(data[offset]), offset + 1
    if tag == _TYPE_INT:
        raw, offset = _decode_varint(data, offset)
        return _decode_zigzag(raw), offset
    if tag == _TYPE_FLOAT:
        if offset + 8 > len(data):
            raise DecodeError("truncated float")
        return struct.unpack("<d", data[offset : offset + 8])[0], offset + 8
    if tag == _TYPE_STR:
        length, offset = _decode_varint(data, offset)
        if length > _MAX_LENGTH:
            raise DecodeError(f"string length {length} exceeds limit")
        if offset + length > len(data):
            raise DecodeError("truncated string")
        raw = data[offset : offset + length]
        try:
            return _canonical_str(raw.decode("utf-8")), offset + length
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8 in string: {exc}") from exc
    if tag == _TYPE_MESSAGE:
        length, offset = _decode_varint(data, offset)
        if length > _MAX_LENGTH:
            raise DecodeError(f"message length {length} exceeds limit")
        if offset + length > len(data):
            raise DecodeError("truncated message")
        return _decode_message(data[offset : offset + length]), offset + length
    if tag == _TYPE_LIST:
        length, offset = _decode_varint(data, offset)
        if length > _MAX_LENGTH:
            raise DecodeError(f"list length {length} exceeds limit")
        if offset + length > len(data):
            raise DecodeError("truncated list")
        chunk = data[offset : offset + length]
        count, pos = _decode_varint(chunk, 0)
        if count > _MAX_LENGTH:
            raise DecodeError(f"list count {count} exceeds limit")
        items = []
        for _ in range(count):
            item, pos = _decode_value(chunk, pos)
            items.append(item)
        if pos != len(chunk):
            raise DecodeError("trailing bytes in list payload")
        return items, offset + length
    raise DecodeError(f"unknown value type tag 0x{tag:02x}")


def _encode_key(key: Any) -> bytes:
    """Return the ``varint(len) + utf-8`` encoding of a message key."""
    if not isinstance(key, str):
        raise EncodeError(f"message keys must be strings, got {type(key).__name__}")
    raw_key = key.encode("utf-8")
    encoded_key = _encode_varint(len(raw_key)) + raw_key
    if len(_key_cache) < _KEY_CACHE_MAX:
        _key_cache[key] = encoded_key
    return encoded_key


def _encode_message(obj: dict) -> bytes:
    """Encode a dictionary as a sequence of key/value entries."""
    parts = bytearray()
    key_cache = _key_cache
    for key in obj:
        encoded_key = key_cache.get(key)
        if encoded_key is None:
            encoded_key = _encode_key(key)
        parts += encoded_key
        _encode_value_into(obj[key], parts)
    return bytes(parts)


def _split_message(obj: dict, split: str) -> tuple[bytes, bytes]:
    """Encode ``obj`` as :func:`_encode_message` does, cut at one value.

    Returns the bytes up to and including the key ``split`` and the bytes
    of the entries after it; the value of ``split`` itself is left out.
    """
    before = bytearray()
    after = bytearray()
    out = before
    for key in obj:
        out += _key_cache.get(key) or _encode_key(key)
        if key == split:
            out = after
        else:
            _encode_value_into(obj[key], out)
    return bytes(before), bytes(after)


def _decode_message(data: bytes) -> dict:
    """Decode a sequence of key/value entries back into a dictionary."""
    obj: dict[str, Any] = {}
    offset = 0
    while offset < len(data):
        key_len, offset = _decode_varint(data, offset)
        if key_len > _MAX_LENGTH:
            raise DecodeError(f"key length {key_len} exceeds limit")
        if offset + key_len > len(data):
            raise DecodeError("truncated key")
        raw_key = data[offset : offset + key_len]
        try:
            key = _canonical_str(raw_key.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8 in key: {exc}") from exc
        offset += key_len
        value, offset = _decode_value(data, offset)
        obj[key] = value
    return obj


def _decodes_to_itself(node: Any) -> bool:
    """Whether :func:`decode` of ``node``'s encoding is type-exactly ``node``.

    Decode normal form: dicts, lists, ``str``, ``float``, ``bool``, ``None``
    and ``int`` in the signed 64-bit range, no subclass anywhere (a tuple
    decodes to a list, a wider int to another value or an error).  Keys are
    not checked: :func:`encode` only asks after ``marshal`` accepted the tree
    (no ``str`` subclass) and the encoder accepted its keys (``str`` only).
    """
    kind = type(node)
    if kind is dict:
        return all(_decodes_to_itself(value) for value in node.values())
    if kind is list:
        return all(_decodes_to_itself(value) for value in node)
    if kind is int:
        return _INT_MIN <= node < _INT_LIMIT
    return kind is str or kind is float or kind is bool or node is None


def encode(obj: dict) -> bytes:
    """Serialize an API object (a nested dictionary) to wire bytes.

    Memoised on ``marshal.dumps`` of ``obj`` with its
    ``metadata.resourceVersion`` set to None (two shallow copies; ``obj`` is
    never mutated), when ``obj`` and its ``metadata`` are plain dicts and
    the version is an ``int`` in the signed 64-bit range.  Every write
    stamps a new version, so keying on the whole tree would miss on content
    written before under another one.  Equal keys mean trees equal down to
    every type and key order everywhere but the version, so their encodings
    differ only in the version's varint and in the metadata length before
    it: the memo keeps the four segments around those two and a hit
    rebuilds the exact bytes.  Any other tree, and one ``marshal`` refuses
    (too deep, or holding a type the codec rejects as well), is encoded
    plainly and memoises nothing.
    """
    global _last_seedable
    if not isinstance(obj, dict):
        raise EncodeError(f"top-level object must be a dict, got {type(obj).__name__}")
    COUNTERS.encodes += 1
    meta = obj.get("metadata") if type(obj) is dict else None
    version = meta.get("resourceVersion") if type(meta) is dict else None
    if type(version) is not int or not _INT_MIN <= version < _INT_LIMIT:
        _last_seedable = None
        return _encode_message(obj)
    blank_meta = dict(meta)
    blank_meta["resourceVersion"] = None
    blank = dict(obj)
    blank["metadata"] = blank_meta
    try:
        blob = marshal.dumps(blank)
    except ValueError:
        _last_seedable = None
        return _encode_message(obj)
    entry = _lru_get(_encode_memo, blob)
    if entry is None:
        head, tail = _split_message(obj, "metadata")
        meta_head, meta_tail = _split_message(meta, "resourceVersion")
        entry = (
            head + _MESSAGE_TAG,
            meta_head + _INT_TAG,
            meta_tail,
            tail,
            _decodes_to_itself(obj),
        )
        if len(blob) <= _DECODE_CACHE_VALUE_LIMIT:
            _lru_put(_encode_memo, blob, entry)
    else:
        COUNTERS.encode_memo_hits += 1
    head, meta_head, meta_tail, tail, seedable = entry
    varint = _encode_varint(_encode_zigzag(version))
    meta_length = _encode_varint(len(meta_head) + len(varint) + len(meta_tail))
    data = b"".join((head, meta_length, meta_head, varint, meta_tail, tail))
    _last_seedable = (data, blob, version) if seedable else None
    return data


def seed_decode(data: bytes) -> None:
    """Enter ``data`` into the decode cache without parsing it back.

    Only if ``data`` is the very ``bytes`` object the latest :func:`encode`
    returned and that encode saw its tree in decode normal form; the cached
    tree is then a ``marshal`` copy of the tree as encoded (the blanked
    tree with its version written back), type-exactly what decoding
    ``data`` would give.  Any other bytes (a hook's corruption, an older
    encode, another thread's) are left to the real decode.
    """
    last = _last_seedable
    if last is None or last[0] is not data or len(data) > _DECODE_CACHE_VALUE_LIMIT:
        return
    if data not in _decode_cache:
        _, blob, version = last
        tree = marshal.loads(blob)
        tree["metadata"]["resourceVersion"] = version
        # The blob is the blanked tree's; decode materialises the entry's
        # own blob on its first copying read.
        _lru_put(_decode_cache, data, [tree, None])


def decode(data: bytes) -> dict:
    """Deserialize wire bytes back into an API object.

    Raises :class:`DecodeError` if the bytes are not a valid encoding —
    the situation in which the Apiserver deletes the "undecryptable"
    resource (paper §II-D).

    Identical bytes always decode to identical trees, so successful decodes
    are served from a bounded cache keyed by the exact value bytes; every
    caller receives an independent deep copy (mutating one reader's object
    can never leak into another reader or back into a store).  Bytes that
    fail to decode are never cached — a corrupted value re-raises
    :class:`DecodeError` on every read, exactly as the uncached codec did.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise DecodeError(f"expected bytes, got {type(data).__name__}")
    key = bytes(data)
    entry = _lru_get(_decode_cache, key)
    if entry is not None:
        COUNTERS.decode_cache_hits += 1
        blob = entry[1]
        if blob is None:
            # First copying read of this entry: materialize the marshal blob
            # so every further hit is a single C-level loads.
            blob = marshal.dumps(entry[0])
            entry[1] = blob
        return marshal.loads(blob)
    COUNTERS.decodes += 1
    obj = _decode_message(key)
    if len(key) <= _DECODE_CACHE_VALUE_LIMIT:
        # The cache keeps its own copy (via the blob round-trip): the tree
        # handed back to the caller is theirs to mutate.
        blob = marshal.dumps(obj)
        _lru_put(_decode_cache, key, [marshal.loads(blob), blob])
    return obj


def decode_shared(data: bytes) -> dict:
    """Like :func:`decode`, but the returned tree may be shared.

    The caller must treat the result as **immutable**: on a cache hit the
    cached tree itself is returned, with no per-caller copy.  This is the
    right read path for the Apiserver's watch cache, which never mutates an
    entry in place (entries are always replaced wholesale on writes).  Error
    behaviour is identical to :func:`decode` — corrupted bytes are never
    cached and re-raise :class:`DecodeError` on every read.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise DecodeError(f"expected bytes, got {type(data).__name__}")
    key = bytes(data)
    entry = _lru_get(_decode_cache, key)
    if entry is not None:
        COUNTERS.decode_cache_hits += 1
        return entry[0]
    COUNTERS.decodes += 1
    obj = _decode_message(key)
    if len(key) <= _DECODE_CACHE_VALUE_LIMIT:
        _lru_put(_decode_cache, key, [obj, None])
    return obj
