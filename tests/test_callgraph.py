"""The whole-program analysis core: symbol table, call graph, dataflow.

The checkers built on the graph are tested behaviorally in
``tests/test_lint.py``; here the machinery itself is pinned — conservative
resolution (inheritance, recursion, dynamic-call fallbacks that must
neither crash nor silently resolve) and banned-primitive reachability.
"""

from __future__ import annotations

import os
import textwrap

import pytest

import repro
from repro.lint import KNOWN_CODES, lint_paths
from repro.lint.callgraph import EXTERNAL, PROJECT, UNKNOWN, ProjectGraph
from repro.lint.dataflow import Reachability, render_chain
from repro.lint.framework import load_lint_file
from repro.lint.runner import _relparts
from repro.lint.symbols import index_module

REPRO_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))


def graph_of(tmp_path, files: dict[str, str]):
    """Write a fixture tree mirroring the package layout and build its graph."""
    summaries = []
    for relpath, source in files.items():
        path = tmp_path / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        lint_file, hygiene = load_lint_file(
            str(path), _relparts(str(path)), KNOWN_CODES
        )
        assert lint_file is not None, hygiene
        summaries.append(index_module(lint_file))
    return ProjectGraph(summaries)


def resolve(graph, fid, index=0):
    """Resolution of the ``index``-th call recorded inside function ``fid``."""
    ref = graph.functions[fid]
    module = graph.modules[ref.module]
    return graph.resolve(module, ref.summary, ref.summary.calls[index])


class TestResolution:
    def test_local_function_and_import_alias(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/util.py": """\
                def helper():
                    return 1
                """,
                "core/main.py": """\
                from repro.core.util import helper as h

                def local():
                    return 2

                def caller():
                    local()
                    h()
                """,
            },
        )
        first = resolve(graph, "repro.core.main:caller", 0)
        second = resolve(graph, "repro.core.main:caller", 1)
        assert first.kind == PROJECT and first.target == "repro.core.main:local"
        assert second.kind == PROJECT and second.target == "repro.core.util:helper"

    def test_method_resolution_through_inheritance(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/base.py": """\
                class Base:
                    def ping(self):
                        return "base"
                """,
                "core/derived.py": """\
                from repro.core.base import Base

                class Middle(Base):
                    pass

                class Derived(Middle):
                    def call(self):
                        self.ping()
                """,
            },
        )
        resolution = resolve(graph, "repro.core.derived:Derived.call")
        assert resolution.kind == PROJECT
        assert resolution.target == "repro.core.base:Base.ping"

    def test_nearest_override_wins(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/one.py": """\
                class Base:
                    def ping(self):
                        return "base"

                class Derived(Base):
                    def ping(self):
                        return "derived"

                    def call(self):
                        self.ping()
                """,
            },
        )
        resolution = resolve(graph, "repro.core.one:Derived.call")
        assert resolution.target == "repro.core.one:Derived.ping"

    def test_constructor_resolves_to_init(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/ctor.py": """\
                class Widget:
                    def __init__(self, size):
                        self.size = size

                def make():
                    return Widget(3)
                """,
            },
        )
        resolution = resolve(graph, "repro.core.ctor:make")
        assert resolution.kind == PROJECT
        assert resolution.target == "repro.core.ctor:Widget.__init__"

    def test_builtin_is_external(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/ext.py": """\
                import os

                def f(path):
                    open(path)
                    os.remove(path)
                """,
            },
        )
        assert resolve(graph, "repro.core.ext:f", 0).kind == EXTERNAL
        second = resolve(graph, "repro.core.ext:f", 1)
        assert second.kind == EXTERNAL and second.target == "os.remove"

    def test_dynamic_receivers_are_unknown_not_crashes(self, tmp_path):
        """Calls through instance attributes, call results, subscripts, and
        unindexed project paths must resolve to UNKNOWN — never raise, and
        never claim a project edge that is not there."""
        graph = graph_of(
            tmp_path,
            {
                "core/dyn.py": """\
                import repro.core.missing as missing

                class Holder:
                    def use(self, table):
                        self.obj.method()
                        table["k"]()
                        missing.gone()
                """,
            },
        )
        kinds = [
            resolve(graph, "repro.core.dyn:Holder.use", index).kind
            for index in range(3)
        ]
        # instance attribute, subscript receiver, unindexed repro.* path:
        # all UNKNOWN — recorded for lexical heuristics, no edge followed.
        assert kinds == [UNKNOWN, UNKNOWN, UNKNOWN]

    def test_all_functions_is_deterministic(self, tmp_path):
        files = {
            "core/z.py": "def zf():\n    pass\n",
            "core/a.py": "def af():\n    pass\n",
        }
        first = [ref.fid for ref in graph_of(tmp_path / "x", files).all_functions()]
        second = [ref.fid for ref in graph_of(tmp_path / "y", files).all_functions()]
        assert first == second == sorted(first)

    def test_edges_hold_every_call_with_its_resolution(self, tmp_path):
        """The edge table built with the graph is ``resolve`` applied to
        every recorded call, in source order, for every function."""
        graph = graph_of(
            tmp_path,
            {
                "core/util.py": """\
                def helper():
                    return 1
                """,
                "core/mix.py": """\
                import os
                from repro.core.util import helper

                class Widget:
                    def __init__(self):
                        self.size = helper()

                    def grow(self, table):
                        self.shrink()
                        self.obj.method()
                        table["k"]()

                    def shrink(self):
                        def inner():
                            return Widget()

                        inner()
                        os.remove("x")
                        open("x")

                LOADED = helper()
                """,
            },
        )
        assert set(graph.edges) == set(graph.functions)
        calls = 0
        for fid, ref in graph.functions.items():
            module = graph.modules[ref.module]
            expected = tuple(
                (call, graph.resolve(module, ref.summary, call))
                for call in ref.summary.calls
            )
            assert graph.edges[fid] == expected
            calls += len(expected)
        assert calls == 9


class TestReachability:
    def banned_open(self):
        def banned(ref, call, resolution):
            if resolution.kind == EXTERNAL and resolution.target == "open":
                return "open()"
            return None

        return banned

    def test_chain_spans_modules_and_prints_every_hop(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/io_helper.py": """\
                def dump(path):
                    open(path)
                """,
                "core/mid.py": """\
                from repro.core.io_helper import dump

                def persist(path):
                    dump(path)
                """,
            },
        )
        reach = Reachability(graph, banned=self.banned_open())
        chain = reach.chain_from("repro.core.mid:persist")
        assert chain is not None
        rendered = render_chain(chain)
        assert "io_helper.dump (core/mid.py:4)" in rendered
        assert "open() (core/io_helper.py:2)" in rendered

    def test_recursion_terminates_and_still_finds_the_primitive(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/rec.py": """\
                def spin(n):
                    if n:
                        spin(n - 1)
                    open("x")

                def clean(n):
                    if n:
                        clean(n - 1)
                """,
            },
        )
        reach = Reachability(graph, banned=self.banned_open())
        assert reach.chain_from("repro.core.rec:spin") is not None
        assert reach.chain_from("repro.core.rec:clean") is None

    def test_mutual_recursion_terminates(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "core/mutual.py": """\
                def ping(n):
                    pong(n)

                def pong(n):
                    ping(n)
                """,
            },
        )
        reach = Reachability(graph, banned=self.banned_open())
        assert reach.chain_from("repro.core.mutual:ping") is None


class TestDiscoverySymlinks:
    def test_symlinked_dirs_and_files_lint_once(self, tmp_path):
        """Regression: discovery used to traverse duplicate spellings of
        one tree (a symlinked subtree, a symlinked file) and report every
        finding once per spelling — and a link pointing back up the tree
        could loop.  Symlinked directories are pruned and files dedupe by
        resolved path."""
        package = tmp_path / "repro" / "service"
        package.mkdir(parents=True)
        real = package / "rawio.py"
        real.write_text("import shutil\n")
        os.symlink(tmp_path / "repro", package / "loop")  # would cycle
        os.symlink(real, package / "zz_alias.py")  # duplicate spelling
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 1
        assert [d.code for d in report.diagnostics] == ["MUT002"]

    def test_same_tree_via_two_arguments_dedupes(self, tmp_path):
        package = tmp_path / "repro" / "service"
        package.mkdir(parents=True)
        real = package / "rawio.py"
        real.write_text("import shutil\n")
        # "zlink" sorts after "repro", so the canonical spelling (the one
        # whose relparts carry package scoping) is the display path kept.
        link = tmp_path / "zlink"
        os.symlink(tmp_path / "repro", link)
        report = lint_paths([str(tmp_path), str(link)])
        assert report.files_checked == 1
        assert len(report.diagnostics) == 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
