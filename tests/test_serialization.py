"""Unit and property-based tests for the wire codec and field paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.kinds import make_deployment, make_node, make_pod
from repro.serialization import (
    DecodeError,
    compile_path,
    decode,
    encode,
    field_leaves,
    value_type,
)
from repro.serialization.codec import EncodeError

# --------------------------------------------------------------------------
# Codec round trips
# --------------------------------------------------------------------------


def test_roundtrip_simple_object():
    obj = {"name": "web", "replicas": 3, "ready": True, "weight": 0.5, "note": None}
    assert decode(encode(obj)) == obj


def test_roundtrip_nested_and_lists():
    obj = {
        "metadata": {"labels": {"app": "web", "tier": "frontend"}},
        "spec": {"containers": [{"name": "c1", "ports": [{"containerPort": 8080}]}]},
    }
    assert decode(encode(obj)) == obj


def test_roundtrip_real_manifests():
    for manifest in (make_pod("p"), make_deployment("d", replicas=3), make_node("n")):
        assert decode(encode(manifest)) == manifest


def test_negative_and_large_integers():
    obj = {"a": -1, "b": -(2**40), "c": 2**40, "d": 0}
    assert decode(encode(obj)) == obj


def test_unicode_strings():
    obj = {"name": "wébapp-日本語", "empty": ""}
    assert decode(encode(obj)) == obj


def test_encode_rejects_non_dict_top_level():
    with pytest.raises(EncodeError):
        encode([1, 2, 3])


def test_encode_rejects_unsupported_value():
    with pytest.raises(EncodeError):
        encode({"x": object()})


def test_decode_rejects_non_bytes():
    with pytest.raises(DecodeError):
        decode("not bytes")


def test_decode_truncated_payload_fails():
    data = encode({"name": "webapp", "replicas": 3})
    with pytest.raises(DecodeError):
        decode(data[: len(data) - 2])


def test_decode_unknown_type_tag_fails():
    data = bytearray(encode({"a": 1}))
    # The type tag of the value follows the one-byte key length and the key.
    data[2] = 0x7F
    with pytest.raises(DecodeError):
        decode(bytes(data))


def test_some_bitflips_keep_object_decodable_with_wrong_value():
    obj = {"namespace": "default", "replicas": 2}
    data = bytearray(encode(obj))
    # Flip the LSB of the last byte of the string payload ('default' -> 'defaulu').
    decoded = None
    for index in range(len(data)):
        corrupted = bytearray(data)
        corrupted[index] ^= 1
        try:
            decoded = decode(bytes(corrupted))
        except DecodeError:
            continue
        if decoded != obj:
            break
    assert decoded is not None and decoded != obj


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.integers(min_value=-(2**50), max_value=2**50),
            st.booleans(),
            st.text(max_size=20),
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=10), children, max_size=4),
        ),
        max_leaves=20,
    )
)
def test_roundtrip_property(value):
    obj = {"value": value}
    assert decode(encode(obj)) == obj


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_decode_never_crashes_unexpectedly(data):
    # Arbitrary bytes either decode into a dict or raise DecodeError — never
    # any other exception (the apiserver relies on this to purge bad objects).
    try:
        result = decode(data)
    except DecodeError:
        return
    assert isinstance(result, dict)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_single_bitflip_is_contained(bit):
    obj = make_pod("prop-pod", labels={"app": "x"})
    data = bytearray(encode(obj))
    index = bit % (len(data) * 8)
    byte_index, bit_index = divmod(index, 8)
    data[byte_index] ^= 1 << bit_index
    try:
        decode(bytes(data))
    except DecodeError:
        pass  # undecodable is an acceptable outcome; anything else must be a dict


# --------------------------------------------------------------------------
# Field paths
# --------------------------------------------------------------------------


def test_field_leaves_covers_leaves_in_order():
    obj = {"a": 1, "b": {"c": "x", "d": [True, {"e": None}]}}
    assert field_leaves(obj) == [("a", 1), ("b.c", "x"), ("b.d.0", True), ("b.d.1.e", None)]
    types = {path: value_type(value) for path, value in field_leaves(obj)}
    assert types == {"a": "int", "b.c": "str", "b.d.0": "bool", "b.d.1.e": "none"}
    assert field_leaves(7) == [("", 7)]
    assert field_leaves({"a": {}, "b": []}) == []


def test_get_and_set_path():
    obj = {"spec": {"containers": [{"image": "a"}]}}
    image = compile_path("spec.containers.0.image")
    assert image.get(obj) == "a"
    image.set(obj, "b")
    assert obj["spec"]["containers"][0]["image"] == "b"


def test_get_path_missing_raises():
    with pytest.raises(KeyError):
        compile_path("a.b").get({"a": 1})
    with pytest.raises(KeyError):
        compile_path("a.5").get({"a": [1]})


def test_set_path_missing_parent_raises():
    with pytest.raises(KeyError):
        compile_path("a.b.c").set({"a": {}}, 1)


def test_delete_path():
    obj = {"a": {"b": 1, "c": 2}, "d": [1, 2, 3]}
    compile_path("a.b").delete(obj)
    compile_path("d.1").delete(obj)
    assert obj == {"a": {"c": 2}, "d": [1, 3]}
    with pytest.raises(KeyError):
        compile_path("a.missing").delete(obj)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=8).filter(lambda s: "." not in s),
                       st.one_of(st.integers(), st.text(max_size=5), st.booleans()),
                       min_size=1, max_size=6))
def test_every_enumerated_path_is_gettable(obj):
    for path, value in field_leaves(obj):
        assert compile_path(path).get(obj) == value
