"""mutiny-lint: checkers, suppressions, CLI, and the repo's own cleanliness.

Each checker gets a positive fixture (the violation is found, with the
right code/file/line), a negative fixture (the sanctioned pattern passes),
and a suppressed fixture (a justified inline disable silences exactly that
finding).  The meta-test at the bottom pins the tentpole guarantee: the
shipped tree lints clean, so the CI gate stays green by construction.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

import repro
from repro.cli import _github_escape, main
from repro.lint import (
    EXPLANATIONS,
    HYGIENE_CODE,
    JSON_SCHEMA_VERSION,
    KNOWN_CODES,
    TITLES,
    BaselineError,
    Diagnostic,
    LintUsageError,
    lint_paths,
    select_codes,
)
from repro.lint import baseline as lint_baseline

REPRO_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))


def lint_fixture(tmp_path, relpath: str, source: str, codes=None, **kwargs):
    """Write one fixture file mirroring the package layout and lint it."""
    path = tmp_path / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], codes=codes, **kwargs)


def lint_tree(tmp_path, files: dict, codes=None, **kwargs):
    """Write a multi-file fixture tree (for the whole-program checkers)
    mirroring the package layout, and lint the whole tree."""
    for relpath, source in files.items():
        path = tmp_path / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_paths([str(tmp_path)], codes=codes, **kwargs)


def codes_of(report):
    return [diagnostic.code for diagnostic in report.diagnostics]


# ---------------------------------------------------------------------------
# MUT001 — informer mutation
# ---------------------------------------------------------------------------


class TestInformerMutation:
    def test_mutating_a_copy_false_ref_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/bad.py",
            """\
            def reconcile(client):
                pod = client.get("Pod", "a", copy=False)
                pod["metadata"]["labels"] = {}
            """,
        )
        assert codes_of(report) == ["MUT001"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.line == 3
        assert "bad.py" in diagnostic.path
        assert "copy=False" in diagnostic.message

    def test_loop_variable_over_listed_refs_is_tainted(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/loop.py",
            """\
            def reconcile(client):
                for pod in client.list("Pod", copy=False):
                    pod["spec"]["nodeName"] = "n1"
            """,
        )
        assert codes_of(report) == ["MUT001"]

    def test_mutating_method_call_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/method.py",
            """\
            def reconcile(client):
                pods = client.list("Pod", copy=False)
                pods.append({})
            """,
        )
        assert codes_of(report) == ["MUT001"]

    def test_deep_copy_clears_taint(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/good.py",
            """\
            def reconcile(client, deep_copy):
                pod = client.get("Pod", "a", copy=False)
                pod = deep_copy(pod)
                pod["metadata"]["labels"] = {}
                client.update("Pod", pod)
            """,
        )
        assert report.ok

    def test_copy_true_reads_are_not_tainted(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/copied.py",
            """\
            def reconcile(client):
                pod = client.get("Pod", "a")
                pod["metadata"]["labels"] = {}
            """,
        )
        assert report.ok

    def test_fresh_container_over_refs_may_be_mutated(self, tmp_path):
        # The scheduler/namespace-controller pattern: a comprehension over a
        # copy=False list builds a *new* container; appending to it is fine.
        report = lint_fixture(
            tmp_path,
            "controllers/fresh.py",
            """\
            def reconcile(client):
                pods = client.list("Pod", copy=False)
                names = {p.get("name") for p in pods}
                names.update(("default",))
                bound = [pod for pod in pods if pod.get("bound")]
                bound.append({"fresh": True})
            """,
        )
        assert report.ok

    def test_iterating_a_fresh_container_yields_refs(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/elements.py",
            """\
            def reconcile(client):
                pods = client.list("Pod", copy=False)
                bound = [pod for pod in pods if pod.get("bound")]
                for pod in bound:
                    pod["seen"] = True
            """,
        )
        assert codes_of(report) == ["MUT001"]

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/waived.py",
            """\
            def reconcile(client):
                pod = client.get("Pod", "a", copy=False)
                # mutiny-lint: disable=MUT001 -- scratch field never read by other controllers
                pod["scratch"] = 1
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT002 — transport purity
# ---------------------------------------------------------------------------


class TestTransportPurity:
    def test_direct_os_io_in_scope_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/distributed.py",
            """\
            import os

            def cleanup(path):
                os.remove(path)
            """,
        )
        assert codes_of(report) == ["MUT002"]
        assert report.diagnostics[0].line == 4

    def test_open_and_http_client_in_service_are_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/raw.py",
            """\
            import http.client

            def fetch(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        assert codes_of(report) == ["MUT002", "MUT002"]

    def test_from_http_import_client_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/federate.py",
            "from http import client\n",
        )
        assert codes_of(report) == ["MUT002"]

    def test_pickle_in_scope_is_found(self, tmp_path):
        """Store bytes are never unpickled: the import and the call both
        count, so the codec in core/resultstore.py stays the only one."""
        report = lint_fixture(
            tmp_path,
            "core/resultstore.py",
            """\
            import pickle

            def load(transport):
                return pickle.loads(transport.get("prep"))
            """,
        )
        assert codes_of(report) == ["MUT002", "MUT002"]
        assert [d.line for d in report.diagnostics] == [1, 4]

    def test_out_of_scope_modules_may_do_io(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/transport.py",
            """\
            import os

            def put(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
                os.rename(path, path + ".final")
            """,
        )
        assert report.ok

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/waived.py",
            """\
            # mutiny-lint: disable=MUT002 -- control-plane HTTP, not shard storage
            import http.client
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT003 — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_in_sim_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/clocky.py",
            """\
            import time

            def stamp():
                return time.time()
            """,
        )
        assert codes_of(report) == ["MUT003"]
        assert report.diagnostics[0].line == 4

    def test_random_module_and_unseeded_random_are_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "controllers/dicey.py",
            """\
            import random
            from random import Random

            def roll():
                generator = Random()
                return random.random()
            """,
        )
        assert codes_of(report) == ["MUT003", "MUT003", "MUT003", "MUT003"]

    def test_seeded_random_and_monotonic_pacing_pass(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/parallel.py",
            """\
            import time

            def pace(seed, Random):
                generator = Random(seed)
                deadline = time.monotonic() + 5.0
                time.sleep(0.01)
                return generator, deadline, time.perf_counter()
            """,
        )
        assert report.ok

    def test_slice_leases_wall_clock_is_allowlisted(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/distributed.py",
            """\
            import time

            class SliceLeases:
                def age(self, mtime):
                    return time.time() - mtime

            def elsewhere():
                return time.time()
            """,
        )
        # Only the module-level function is flagged; the class is exempt.
        assert codes_of(report) == ["MUT003"]
        assert report.diagnostics[0].line == 8

    def test_rng_module_itself_is_exempt(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/rng.py",
            """\
            import random

            def stream(seed):
                return random.Random(seed)
            """,
        )
        assert report.ok

    def test_out_of_scope_modules_may_use_wall_clock(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/clocked.py",
            """\
            import time

            def submitted_at():
                return time.time()
            """,
        )
        assert report.ok

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/waived.py",
            """\
            import time

            def stamp():
                # mutiny-lint: disable=MUT003 -- diagnostic log timestamp, never stored in results
                return time.time()
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT004 — lock discipline
# ---------------------------------------------------------------------------


class TestLockDiscipline:
    def test_off_lock_write_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/svc.py",
            """\
            class Svc:
                _lock_guarded = ("_state",)

                def __init__(self):
                    self._state = 0

                def bump(self):
                    self._state += 1
            """,
        )
        assert codes_of(report) == ["MUT004"]
        assert report.diagnostics[0].line == 8

    def test_off_lock_read_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/read.py",
            """\
            class Svc:
                _lock_guarded = ("_state",)

                def peek(self):
                    return self._state
            """,
        )
        assert codes_of(report) == ["MUT004"]

    def test_locked_access_and_locked_suffix_pass(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/good.py",
            """\
            class Svc:
                _lock_guarded = ("_state",)

                def __init__(self, lock):
                    self._lock = lock
                    self._state = 0

                def bump(self):
                    with self._lock:
                        self._state += 1
                        return self._state

                def _drain_locked(self):
                    self._state = 0
            """,
        )
        assert report.ok

    def test_unregistered_assignment_outside_init_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/frozen.py",
            """\
            class Leases:
                _lock_guarded = ()

                def __init__(self, root):
                    self.root = root

                def rebind(self, root):
                    self.root = root
            """,
        )
        assert codes_of(report) == ["MUT004"]
        assert "unregistered" in report.diagnostics[0].message

    def test_nested_function_does_not_inherit_the_lock(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/nested.py",
            """\
            class Svc:
                _lock_guarded = ("_state",)

                def bump(self):
                    with self._lock:
                        def later():
                            return self._state
                        return later
            """,
        )
        assert codes_of(report) == ["MUT004"]

    def test_undeclared_classes_are_out_of_scope(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/plain.py",
            """\
            class Plain:
                def bump(self):
                    self.count = getattr(self, "count", 0) + 1
            """,
        )
        assert report.ok

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/waived.py",
            """\
            class Svc:
                _lock_guarded = ("_state",)

                def peek_racy(self):
                    # mutiny-lint: disable=MUT004 -- monotonic counter, approximate read is fine for metrics
                    return self._state
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT005 — swallowed exceptions
# ---------------------------------------------------------------------------


class TestSwallowedException:
    def test_bare_except_pass_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/swallow.py",
            """\
            def work(task):
                try:
                    task()
                except:
                    pass
            """,
        )
        assert codes_of(report) == ["MUT005"]
        assert report.diagnostics[0].line == 4

    def test_broad_except_in_tuple_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/tuple.py",
            """\
            def work(task):
                try:
                    task()
                except (ValueError, Exception):
                    return None
            """,
        )
        assert codes_of(report) == ["MUT005"]

    def test_narrow_except_is_control_flow(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/narrow.py",
            """\
            def work(mapping):
                try:
                    return mapping["key"]
                except KeyError:
                    return None
            """,
        )
        assert report.ok

    def test_recording_or_reraising_the_error_passes(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/handled.py",
            """\
            def work(task, sink):
                try:
                    task()
                except Exception as error:
                    sink.append(error)
                try:
                    task()
                except Exception as error:
                    raise RuntimeError("wrapped") from error
            """,
        )
        assert report.ok

    def test_raise_inside_nested_def_does_not_count(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/nested_raise.py",
            """\
            def work(task):
                try:
                    task()
                except Exception:
                    def later():
                        raise RuntimeError("too late")
                    return later
            """,
        )
        assert codes_of(report) == ["MUT005"]

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/waived.py",
            """\
            def work(task):
                try:
                    task()
                # mutiny-lint: disable=MUT005 -- last-resort barrier; the error was recorded upstream
                except Exception:
                    pass
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT000 — suppression hygiene
# ---------------------------------------------------------------------------


class TestSuppressionHygiene:
    def test_unjustified_suppression_is_flagged_and_inert(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/unjustified.py",
            """\
            def work(task):
                try:
                    task()
                # mutiny-lint: disable=MUT005
                except Exception:
                    pass
            """,
        )
        # The naked disable is itself a finding AND fails to suppress.
        assert sorted(codes_of(report)) == [HYGIENE_CODE, "MUT005"]

    def test_unknown_code_in_suppression_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/unknown.py",
            "x = 1  # mutiny-lint: disable=MUT999 -- no such contract\n",
        )
        assert codes_of(report) == [HYGIENE_CODE]
        assert "MUT999" in report.diagnostics[0].message

    def test_hygiene_code_itself_cannot_be_suppressed(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/meta.py",
            "x = 1  # mutiny-lint: disable=MUT000 -- trying to silence the referee\n",
        )
        assert HYGIENE_CODE in codes_of(report)

    def test_malformed_directive_is_flagged(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/typo.py",
            "x = 1  # mutiny-lint: disabled=MUT005 -- typo in the marker\n",
        )
        assert codes_of(report) == [HYGIENE_CODE]

    def test_prose_mentioning_the_tool_is_fine(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/prose.py",
            "x = 1  # checked by mutiny-lint MUT004\n",
        )
        assert report.ok

    def test_syntax_error_becomes_a_hygiene_finding(self, tmp_path):
        report = lint_fixture(tmp_path, "core/broken.py", "def broken(:\n")
        assert codes_of(report) == [HYGIENE_CODE]
        assert "parse" in report.diagnostics[0].message


# ---------------------------------------------------------------------------
# Runner and report
# ---------------------------------------------------------------------------


class TestRunner:
    def test_codes_filter_selects_checkers(self, tmp_path):
        source = """\
        import time

        def stamp(client):
            pod = client.get("Pod", "a", copy=False)
            pod["at"] = time.time()
        """
        everything = lint_fixture(tmp_path, "controllers/both.py", source)
        assert sorted(codes_of(everything)) == ["MUT001", "MUT003"]
        only_determinism = lint_fixture(
            tmp_path, "controllers/both.py", source, codes=["MUT003"]
        )
        assert codes_of(only_determinism) == ["MUT003"]

    def test_unknown_code_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            select_codes(["MUT731"])

    def test_json_document_schema_is_stable(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "core/swallow.py",
            """\
            def work(task):
                try:
                    task()
                except:
                    pass
            """,
        )
        document = report.to_document()
        assert sorted(document) == [
            "baselined", "codes", "files_checked", "findings", "ok",
            "schema_version", "stale_baseline", "tool",
        ]
        assert document["schema_version"] == JSON_SCHEMA_VERSION == 1
        assert document["tool"] == "mutiny-lint"
        assert document["ok"] is False
        (finding,) = document["findings"]
        assert sorted(finding) == ["code", "column", "file", "line", "message"]
        assert finding["code"] == "MUT005"
        assert finding["line"] == 4

    def test_every_code_has_title_and_explanation(self):
        assert set(KNOWN_CODES) == set(TITLES) == set(EXPLANATIONS)
        for code in KNOWN_CODES:
            assert TITLES[code].strip()
            assert len(EXPLANATIONS[code].strip()) > 100


# ---------------------------------------------------------------------------
# MUT006 — interprocedural transport purity
# ---------------------------------------------------------------------------


class TestInterproceduralPurity:
    def test_cross_module_chain_is_found_with_the_full_chain(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "core/util.py": """\
                def dump(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
                "service/flush.py": """\
                from repro.core.util import dump

                def persist(path, data):
                    dump(path, data)
                """,
            },
        )
        assert codes_of(report) == ["MUT006"]
        diagnostic = report.diagnostics[0]
        assert "flush.py" in diagnostic.path
        assert diagnostic.line == 4
        assert "call chain:" in diagnostic.message
        assert "util.dump (service/flush.py:4)" in diagnostic.message
        assert "open() (core/util.py:2)" in diagnostic.message

    def test_in_scope_terminal_is_mut002s_finding_not_a_chain(self, tmp_path):
        # The helper's open() lives inside MUT002's scope: the primitive is
        # reported there once, and MUT006 does not also flag every caller.
        report = lint_tree(
            tmp_path,
            {
                "service/selfio.py": """\
                def helper(path):
                    open(path)

                def persist(path):
                    helper(path)
                """,
            },
        )
        assert codes_of(report) == ["MUT002"]
        assert report.diagnostics[0].line == 2

    def test_transport_modules_are_the_sanctioned_floor(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "core/transport.py": """\
                def put(path, data):
                    with open(path, "wb") as handle:
                        handle.write(data)
                """,
                "service/store.py": """\
                from repro.core import transport

                def persist(path, data):
                    transport.put(path, data)
                """,
            },
        )
        assert report.ok

    def test_out_of_scope_callers_are_not_constrained(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "core/util.py": """\
                def dump(path, data):
                    open(path)
                """,
                "controllers/logger.py": """\
                from repro.core.util import dump

                def snapshot(path, data):
                    dump(path, data)
                """,
            },
        )
        assert report.ok

    def test_justified_suppression_at_the_primitive_covers_chains(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "core/probe.py": """\
                def probe(path):
                    # mutiny-lint: disable=MUT006 -- scratch file outside the store root, never shard data
                    open(path)
                """,
                "service/monitor.py": """\
                from repro.core.probe import probe

                def check(path):
                    probe(path)
                """,
            },
        )
        assert report.ok

    LAZY_HELPER = """\
    def wipe(p):
        import shutil
        shutil.rmtree(p)
    """

    def test_function_local_import_resolves_in_its_function(self, tmp_path):
        # Regression: only module-level imports were indexed, so a call
        # through a lazily imported name never resolved and this chain was
        # silently clean (moving the import to module level found it).
        report = lint_tree(
            tmp_path,
            {
                "core/helpers.py": self.LAZY_HELPER,
                "core/resultstore.py": """\
                from repro.core.helpers import wipe
                def drop(r):
                    wipe(r)
                """,
            },
        )
        assert codes_of(report) == ["MUT006"]
        diagnostic = report.diagnostics[0]
        assert "resultstore.py" in diagnostic.path
        assert diagnostic.line == 3
        assert "helpers.wipe (core/resultstore.py:3)" in diagnostic.message
        assert "shutil.rmtree() (core/helpers.py:3)" in diagnostic.message

    def test_nested_closures_are_functions_of_their_own(self, tmp_path):
        # Regression: nested def bodies were skipped by pass 1, so a chain
        # through a closure was invisible while an open() written directly
        # inside the same closure was MUT002.
        report = lint_tree(
            tmp_path,
            {
                "core/helpers.py": self.LAZY_HELPER,
                "core/resultstore.py": """\
                from repro.core.helpers import wipe

                def outer(r):
                    def inner():
                        wipe(r)
                    inner()
                """,
            },
        )
        assert codes_of(report) == ["MUT006", "MUT006"]
        in_closure, at_outer = report.diagnostics
        assert in_closure.line == 5  # the closure is itself in scope
        assert at_outer.line == 6
        assert (
            "resultstore.outer.<locals>.inner (core/resultstore.py:6) -> "
            "helpers.wipe (core/resultstore.py:5) -> "
            "shutil.rmtree() (core/helpers.py:3)"
        ) in at_outer.message

    def test_each_code_of_the_one_purity_checker_selects_alone(self, tmp_path):
        files = {
            "core/util.py": "def dump(path):\n    open(path)\n",
            "service/both.py": """\
            from repro.core.util import dump

            def persist(path):
                open(path)
                dump(path)
            """,
        }
        assert codes_of(lint_tree(tmp_path, files)) == ["MUT002", "MUT006"]
        for code in ("MUT002", "MUT006"):
            assert codes_of(lint_tree(tmp_path, files, codes=[code])) == [code]


# ---------------------------------------------------------------------------
# MUT001 (interprocedural) — tainted reference escaping into a helper
# ---------------------------------------------------------------------------


class TestInformerEscape:
    def test_copy_false_ref_passed_to_mutating_helper_is_found(self, tmp_path):
        # The documented hole in intraprocedural MUT001: the mutation
        # happens in the helper, the taint in the caller.
        report = lint_tree(
            tmp_path,
            {
                "controllers/escape.py": """\
                def strip_status(pod):
                    pod.pop("status")

                def reconcile(client):
                    pod = client.get("Pod", "a", copy=False)
                    strip_status(pod)
                """,
            },
        )
        assert codes_of(report) == ["MUT001"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.line == 6
        assert "'strip_status'" in diagnostic.message
        assert "'pod'" in diagnostic.message
        assert "controllers/escape.py:2" in diagnostic.message
        assert "deep_copy" in diagnostic.message

    def test_transitive_forwarding_is_found(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "controllers/chainmut.py": """\
                def inner(obj):
                    obj["seen"] = True

                def outer(obj):
                    inner(obj)

                def reconcile(client):
                    pods = client.list("Pod", copy=False)
                    outer(pods)
                """,
            },
        )
        assert codes_of(report) == ["MUT001"]
        assert report.diagnostics[0].line == 9

    def test_method_helper_accounts_for_self(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "controllers/methodmut.py": """\
                class Reconciler:
                    def _strip(self, pod):
                        pod.pop("status")

                    def reconcile(self, client):
                        pod = client.get("Pod", "a", copy=False)
                        self._strip(pod)
                """,
            },
        )
        assert codes_of(report) == ["MUT001"]
        assert "'pod'" in report.diagnostics[0].message

    def test_helper_that_rebinds_its_parameter_is_safe(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "controllers/rebind.py": """\
                def sanitize(pod, deep_copy):
                    pod = deep_copy(pod)
                    pod.pop("status")

                def reconcile(client, deep_copy):
                    pod = client.get("Pod", "a", copy=False)
                    sanitize(pod, deep_copy)
                """,
            },
        )
        assert report.ok

    def test_read_only_helper_is_safe(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "controllers/readonly.py": """\
                def name_of(pod):
                    return pod.get("name")

                def reconcile(client):
                    pod = client.get("Pod", "a", copy=False)
                    return name_of(pod)
                """,
            },
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT007 — blocking under a lock
# ---------------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_direct_sleep_under_lock_is_found(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/busy.py": """\
                import time
                import threading

                class Svc:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def bad(self):
                        with self._lock:
                            time.sleep(0.1)
                """,
            },
        )
        assert codes_of(report) == ["MUT007"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.line == 10
        assert "time.sleep()" in diagnostic.message
        assert "self._lock" in diagnostic.message

    def test_transport_seven_op_under_lock_is_found(self, tmp_path):
        # The receiver is a parameter — an unknown callee to the graph —
        # but the lexical transport heuristic must not silently pass it.
        report = lint_tree(
            tmp_path,
            {
                "service/flushy.py": """\
                import threading

                class Writer:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def flush(self, transport, key, data):
                        with self._lock:
                            transport.put(key, data)
                """,
            },
        )
        assert codes_of(report) == ["MUT007"]
        assert "transport put()" in report.diagnostics[0].message

    def test_thread_join_under_lock_is_found(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/joiny.py": """\
                import threading

                class Svc:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def stop(self, worker_thread):
                        with self._lock:
                            worker_thread.join()
                """,
            },
        )
        assert codes_of(report) == ["MUT007"]
        assert "Thread.join" in report.diagnostics[0].message

    def test_interprocedural_chain_is_found_and_printed(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/spin.py": """\
                import time
                import threading

                class Svc:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def _backoff(self):
                        time.sleep(0.5)

                    def run(self):
                        with self._lock:
                            self._backoff()
                """,
            },
        )
        assert codes_of(report) == ["MUT007"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.line == 13
        assert "call chain:" in diagnostic.message
        assert "time.sleep() (service/spin.py:9)" in diagnostic.message

    def test_locked_suffix_bodies_report_once_at_the_site(self, tmp_path):
        # _flush_locked holds self._lock by convention: the sleep inside it
        # is the finding; the caller's dispatch is not a second one.
        report = lint_tree(
            tmp_path,
            {
                "service/conv.py": """\
                import time
                import threading

                class Writer:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def _flush_locked(self):
                        time.sleep(0.1)

                    def flush(self):
                        with self._lock:
                            self._flush_locked()
                """,
            },
        )
        assert codes_of(report) == ["MUT007"]
        assert report.diagnostics[0].line == 9

    def test_join_and_sleep_outside_locks_are_fine(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/fine.py": """\
                import os
                import time
                import threading

                class Svc:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def label(self, parts):
                        with self._lock:
                            return "-".join(parts) + os.path.join("a", "b")

                    def nap(self):
                        time.sleep(0.1)
                """,
            },
        )
        assert report.ok

    def test_justified_suppression_at_the_primitive_covers_callers(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/waivedblock.py": """\
                import time
                import threading

                class Svc:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def _pace(self):
                        # mutiny-lint: disable=MUT007 -- fixed 1ms pacing, bounded and intentional
                        time.sleep(0.001)

                    def run(self):
                        with self._lock:
                            self._pace()
                """,
            },
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT008 — lock-order cycles
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_two_locks_taken_in_both_orders_is_a_cycle(self, tmp_path):
        # One order is lexical, the other runs through the call graph.
        report = lint_tree(
            tmp_path,
            {
                "service/order.py": """\
                import threading

                class TwoLocks:
                    def __init__(self):
                        self._read_lock = threading.Lock()
                        self._write_lock = threading.Lock()

                    def snapshot(self):
                        with self._read_lock:
                            with self._write_lock:
                                pass

                    def publish(self):
                        with self._write_lock:
                            self._note()

                    def _note(self):
                        with self._read_lock:
                            pass
                """,
            },
        )
        assert codes_of(report) == ["MUT008", "MUT008"]
        assert sorted(d.line for d in report.diagnostics) == [10, 15]
        for diagnostic in report.diagnostics:
            assert "lock-order cycle" in diagnostic.message
            assert "_read_lock" in diagnostic.message
            assert "_write_lock" in diagnostic.message

    def test_consistent_order_is_fine(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/consistent.py": """\
                import threading

                class TwoLocks:
                    def __init__(self):
                        self._read_lock = threading.Lock()
                        self._write_lock = threading.Lock()

                    def snapshot(self):
                        with self._read_lock:
                            with self._write_lock:
                                pass

                    def publish(self):
                        with self._read_lock:
                            self._grab()

                    def _grab(self):
                        with self._write_lock:
                            pass
                """,
            },
        )
        assert report.ok

    def test_same_attribute_on_two_classes_is_two_locks(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/twoclasses.py": """\
                import threading

                class Alpha:
                    def both(self):
                        with self._first_lock:
                            with self._second_lock:
                                pass

                class Beta:
                    def both(self):
                        with self._second_lock:
                            with self._first_lock:
                                pass
                """,
            },
        )
        assert report.ok

    def test_reentry_of_one_lock_is_not_an_ordering_edge(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "service/reentry.py": """\
                import threading

                class Svc:
                    def outer(self):
                        with self._lock:
                            self._inner()

                    def _inner(self):
                        with self._lock:
                            pass
                """,
            },
        )
        assert report.ok


# ---------------------------------------------------------------------------
# MUT009 — nondeterministic iteration
# ---------------------------------------------------------------------------


class TestNondeterministicIteration:
    def test_for_loop_over_a_set_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/sched.py",
            """\
            def schedule(names):
                pending = set(names)
                for name in pending:
                    pass
            """,
        )
        assert codes_of(report) == ["MUT009"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.line == 3
        assert "sorted(" in diagnostic.message

    def test_comprehension_over_listdir_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/scan.py",
            """\
            import os

            def scan(root):
                return [name for name in os.listdir(root)]
            """,
        )
        assert codes_of(report) == ["MUT009"]
        assert "os.listdir()" in report.diagnostics[0].message

    def test_join_over_a_set_comprehension_is_found(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/digest.py",
            """\
            def digest(parts):
                return ",".join({p.strip() for p in parts})
            """,
        )
        assert codes_of(report) == ["MUT009"]

    def test_set_algebra_keeps_the_taint(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/algebra.py",
            """\
            def merge(a, b):
                combined = set(a) | set(b)
                return list(combined)
            """,
        )
        assert codes_of(report) == ["MUT009"]

    def test_sorted_wrapping_is_the_sanctioned_fix(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/sorted_ok.py",
            """\
            import os

            def scan(root, names):
                pending = set(names)
                ordered = [name for name in sorted(pending)]
                listing = sorted(os.listdir(root))
                for name in listing:
                    ordered.append(name)
                return ordered
            """,
        )
        assert report.ok

    def test_membership_tests_are_fine(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/member.py",
            """\
            def filter_known(names):
                pending = set(names)
                return [n for n in names if n in pending]
            """,
        )
        assert report.ok

    def test_out_of_scope_modules_may_iterate_sets(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "service/anyorder.py",
            """\
            def schedule(names):
                pending = set(names)
                for name in pending:
                    pass
            """,
        )
        assert report.ok

    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/waived_iter.py",
            """\
            def schedule(names):
                pending = set(names)
                # mutiny-lint: disable=MUT009 -- debug dump, order never reaches a result record
                for name in pending:
                    pass
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# Baseline / ratchet
# ---------------------------------------------------------------------------


class TestBaseline:
    def finding(self, tmp_path):
        return lint_fixture(
            tmp_path,
            "sim/clocky.py",
            "import time\n\ndef stamp():\n    return time.time()\n",
        )

    def test_serialize_parse_roundtrip_matches_the_finding(self, tmp_path):
        first = self.finding(tmp_path)
        assert codes_of(first) == ["MUT003"]
        entries = lint_baseline.parse(lint_baseline.serialize(first.diagnostics))
        assert entries[0][0] == "sim/clocky.py"
        second = lint_fixture(
            tmp_path,
            "sim/clocky.py",
            "import time\n\ndef stamp():\n    return time.time()\n",
            baseline_entries=entries,
        )
        assert second.ok
        assert second.baselined == 1
        assert not second.diagnostics

    def test_new_findings_still_fail_a_baselined_run(self, tmp_path):
        first = self.finding(tmp_path)
        entries = lint_baseline.parse(lint_baseline.serialize(first.diagnostics))
        report = lint_tree(
            tmp_path,
            {"sim/fresh.py": "import time\n\ndef other():\n    return time.time()\n"},
            baseline_entries=entries,
        )
        assert not report.ok
        assert report.baselined == 1
        assert codes_of(report) == ["MUT003"]
        assert "fresh.py" in report.diagnostics[0].path

    def test_stale_entries_fail_the_run(self, tmp_path):
        report = lint_fixture(
            tmp_path,
            "sim/fixed.py",
            "def stamp(sim):\n    return sim.now()\n",
            baseline_entries=[("sim/fixed.py", "MUT003", "gone finding")],
        )
        assert not report.ok
        assert not report.diagnostics
        assert report.stale_baseline == [("sim/fixed.py", "MUT003", "gone finding")]

    def test_multiset_semantics_one_entry_silences_one_instance(self):
        make = lambda line: Diagnostic(
            path="/x/repro/sim/twice.py",
            line=line,
            column=0,
            code="MUT003",
            message="same defect",
        )
        result = lint_baseline.apply(
            [make(3), make(9)], [("sim/twice.py", "MUT003", "same defect")]
        )
        assert len(result.matched) == 1
        assert len(result.new) == 1
        assert not result.stale

    def test_parse_rejects_bad_documents(self):
        with pytest.raises(BaselineError):
            lint_baseline.parse("not json")
        with pytest.raises(BaselineError):
            lint_baseline.parse('{"version": 99, "entries": []}')
        with pytest.raises(BaselineError):
            lint_baseline.parse('{"version": 1, "entries": [{"file": 3}]}')

    def test_shipped_baseline_is_empty(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(repo_root, "lint-baseline.json")) as handle:
            assert lint_baseline.parse(handle.read()) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCli:
    def seed(self, tmp_path):
        path = tmp_path / "repro" / "sim" / "clocky.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        return path

    def test_findings_exit_1_and_name_code_file_line(self, tmp_path, capsys):
        path = self.seed(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "MUT003" in out
        assert f"{path}:4:" in out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        path = tmp_path / "repro" / "controllers" / "fine.py"
        path.parent.mkdir(parents=True)
        path.write_text("def reconcile(client):\n    return client.list('Pod')\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_parses_and_matches(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["findings"][0]["code"] == "MUT003"

    def test_codes_flag_filters(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert main(["lint", "--codes", "MUT001,MUT005", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_unknown_code_exits_2(self, tmp_path, capsys):
        assert main(["lint", "--codes", "MUT731", str(tmp_path)]) == 2
        assert "MUT731" in capsys.readouterr().err

    def test_explain_every_known_code(self, capsys):
        for code in KNOWN_CODES:
            assert main(["lint", "--explain", code]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"{code}:")
            assert len(out) > 200

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--explain", "MUT731"]) == 2
        assert "MUT731" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()

    def test_write_baseline_then_default_run_passes(self, tmp_path, capsys):
        self.seed(tmp_path)
        baseline = tmp_path / "baseline.json"
        argv = ["lint", "--baseline", str(baseline), str(tmp_path)]
        assert main(["lint", "--write-baseline", "--baseline", str(baseline),
                     str(tmp_path)]) == 0
        assert "wrote 1 finding(s)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(1 baselined)" in capsys.readouterr().out
        # The ratchet: fixing the finding makes its entry stale — exit 1
        # until the shrunk baseline is committed.
        (tmp_path / "repro" / "sim" / "clocky.py").write_text(
            "def stamp(sim):\n    return sim.now()\n"
        )
        assert main(argv) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_no_baseline_reports_everything(self, tmp_path, capsys):
        self.seed(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--write-baseline", "--baseline", str(baseline),
                     str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lint", "--no-baseline", str(tmp_path)]) == 1
        assert "MUT003" in capsys.readouterr().out

    def test_baseline_auto_pickup_from_cwd(self, tmp_path, capsys, monkeypatch):
        self.seed(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-baseline", "repro"]) == 0
        capsys.readouterr()
        assert os.path.isfile("lint-baseline.json")
        assert main(["lint", "repro"]) == 0
        assert "(1 baselined)" in capsys.readouterr().out

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        self.seed(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["lint", "--baseline", str(bad), str(tmp_path)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        path = self.seed(tmp_path)
        assert main(["lint", "--format", "github", "--no-baseline",
                     str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"::error file={path},line=4,col=" in out
        assert "title=MUT003::" in out
        assert "1 new finding(s), 0 stale baseline entr(ies)" in out

    def test_github_format_annotates_stale_entries(self, tmp_path, capsys):
        path = tmp_path / "repro" / "controllers" / "fine.py"
        path.parent.mkdir(parents=True)
        path.write_text("def reconcile(client):\n    return client.list('Pod')\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{"file": "controllers/fine.py", "code": "MUT001",
                         "message": "long gone"}],
        }))
        assert main(["lint", "--format", "github", "--baseline", str(baseline),
                     str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "::error title=stale lint baseline entry::" in out
        assert "ratchet" in out

    def test_github_escaping_of_workflow_command_data(self):
        assert _github_escape("50% done\r\nnext") == "50%25 done%0D%0Anext"


# ---------------------------------------------------------------------------
# The tentpole guarantee: the shipped tree lints clean.
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_the_repro_package_lints_clean(self):
        report = lint_paths([REPRO_PACKAGE])
        assert report.files_checked > 50
        assert report.ok, "\n".join(
            diagnostic.render() for diagnostic in report.diagnostics
        )
