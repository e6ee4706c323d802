"""Protobuf-like binary serialization for API objects.

Kubernetes stores API objects in etcd encoded with Protobuf.  The paper's
serialization-byte injections rely on two properties of that encoding:

* a corrupted byte can make the object *undecodable*, in which case the
  Apiserver deletes the resource (paper §II-D);
* a corrupted byte can silently *move a value from one field to another*,
  or truncate a value, leaving a decodable but wrong object (paper §V-C1).

:mod:`repro.serialization` implements a compact varint / length-delimited
wire format with both properties, plus utilities to enumerate the injectable
field paths of an object — the raw material of the injection campaign.
"""

from repro.serialization.codec import (
    DecodeError,
    clear_codec_caches,
    decode,
    decode_shared,
    encode,
    seed_decode,
)
from repro.serialization.fieldpath import (
    CompiledPath,
    compile_path,
    field_leaves,
    value_type,
)

__all__ = [
    "CompiledPath",
    "DecodeError",
    "clear_codec_caches",
    "compile_path",
    "decode",
    "decode_shared",
    "encode",
    "field_leaves",
    "seed_decode",
    "value_type",
]
