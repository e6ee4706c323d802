"""Span arithmetic, and that the wrappers come off again."""

from __future__ import annotations

import sys
import types

import pytest

from ..trace import (
    END,
    ERROR,
    PARENT,
    REQUEST,
    START,
    SpanRecorder,
    Target,
    WrapTableError,
    descendants,
    install,
    self_times,
)


def _span(recorder: SpanRecorder, name: str, start: float, end: float, parent=None) -> list:
    span = [name, name.split(".")[0], start, end, parent, "", 0, None]
    recorder.spans.append(span)
    return span


def test_self_time_subtracts_nested_and_sibling_children():
    recorder = SpanRecorder()
    root = _span(recorder, "experiment.run", 0.0, 10.0)
    first = _span(recorder, "sim.run_until", 1.0, 4.0, root)
    _span(recorder, "etcd.put", 2.0, 3.0, first)  # nested: charged to `first`, not to the root
    _span(recorder, "sim.run_until", 5.0, 9.0, root)  # sibling of `first`
    lone = _span(recorder, "report.tables", 20.0, 21.5)
    assert self_times(recorder.spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    # Self time partitions a span: the whole tree sums back to the root.
    below_root = [position for position, _ in descendants(recorder.spans, [root])]
    assert sum(self_times(recorder.spans)[position] for position in below_root) == 10.0
    assert [span for _, span in descendants(recorder.spans, [lone])] == [lone]


def test_wrapped_calls_nest_and_inherit_the_request_id():
    recorder = SpanRecorder()
    recorder.request_prefix = "unit:0"
    inner = recorder.wrap(lambda: None, Target("etcd", "m", "put"))
    outer = recorder.wrap(lambda: inner(), Target("experiment", "m", "run", request=True))
    outer()
    outer()
    parent, child = recorder.spans[0], recorder.spans[1]
    assert child[PARENT] is parent and parent[PARENT] is None
    assert parent[START] <= child[START] <= child[END] <= parent[END]
    assert [span[REQUEST] for span in recorder.spans] == ["unit:0:1", "unit:0:1", "unit:0:2", "unit:0:2"]


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap(boom, Target("transport", "m", "get"))
    with pytest.raises(KeyError):
        wrapped()
    after = recorder.wrap(lambda: None, Target("transport", "m", "stat"))
    after()
    assert recorder.spans[0][ERROR] is KeyError
    assert recorder.spans[1][PARENT] is None  # the stack was popped


def test_an_eager_target_drains_the_generator_inside_the_span():
    recorder = SpanRecorder()
    seen = []

    def keys():
        for key in ("a", "b"):
            seen.append(key)
            yield key

    wrapped = recorder.wrap(keys, Target("transport", "m", "list_iter", eager=True))
    iterator = wrapped()
    assert seen == ["a", "b"]  # the work happened inside the call
    assert list(iterator) == ["a", "b"]


@pytest.fixture
def fake_package(monkeypatch):
    """``repro.fakecodec`` defines ``encode``; ``repro.fakeuser`` imported it by name."""
    codec = types.ModuleType("repro.fakecodec")
    user = types.ModuleType("repro.fakeuser")
    exec("def encode(value):\n    return value * 2\n\nclass Store:\n    def put(self, value):\n        return encode(value)\n", codec.__dict__)
    user.encode = codec.encode
    monkeypatch.setitem(sys.modules, "repro.fakecodec", codec)
    monkeypatch.setitem(sys.modules, "repro.fakeuser", user)
    return codec, user


def test_install_rebinds_every_by_name_import_and_restores_all_of_them(fake_package):
    codec, user = fake_package
    original, original_put = codec.encode, codec.Store.put
    recorder = SpanRecorder()
    table = [Target("serialization", "repro.fakecodec", "encode"), Target("etcd", "repro.fakecodec", "put", cls="Store")]
    with install(recorder, table):
        assert codec.encode is not original and user.encode is codec.encode
        assert user.encode(2) == 4 and codec.Store().put(3) == 6
    assert codec.encode is original and user.encode is original
    assert codec.Store.__dict__["put"] is original_put
    assert [span[0] for span in recorder.spans] == ["serialization.encode", "etcd.put", "serialization.encode"]


def test_a_renamed_callable_fails_loudly_with_nothing_installed(fake_package):
    codec, _ = fake_package
    original = codec.encode
    table = [Target("serialization", "repro.fakecodec", "encode"), Target("etcd", "repro.fakecodec", "renamed_away")]
    with pytest.raises(WrapTableError, match="renamed_away"):
        install(SpanRecorder(), table)
    assert codec.encode is original


def test_the_real_wrap_table_resolves_and_is_fully_restored():
    from repro.apiserver import apiserver
    from repro.core import transport
    from repro.serialization import codec

    from ..layers import SERVICE_TABLE, SIM_TABLE, STORE_TABLE

    before = (codec.encode, apiserver.encode, transport.PosixTransport.__dict__["get"])
    with install(SpanRecorder(), SIM_TABLE + STORE_TABLE + SERVICE_TABLE):
        assert apiserver.encode is codec.encode is not before[0]
    assert (codec.encode, apiserver.encode, transport.PosixTransport.__dict__["get"]) == before
