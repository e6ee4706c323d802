"""The runnable examples, each run as a user runs it: ``python examples/<name>.py``.

Each test asserts the outcome the example's docstring promises, not its
exact output, so a change to the simulator that breaks a walkthrough's
story fails here rather than in a reader's terminal.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    finished = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    return finished.stdout


def _rows(pattern: str, text: str) -> list:
    rows = re.findall(pattern, text)
    assert rows, f"no line matches {pattern!r}:\n{text}"
    return rows


def test_quickstart_bit_flip_replicates_pods_where_the_golden_run_does_not():
    out = _run("quickstart.py")
    golden_pods = float(_rows(r"golden runs create (\d+) pods", out)[0])
    failures = _rows(r"orchestrator-level failure: (\w+)", out)
    assert failures[0] == "No"  # the golden run, against its own baseline
    assert "injected: True, activated: True" in out
    created = int(_rows(r"pods created during the run: (\d+)", out)[0])
    assert created > 5 * golden_pods  # uncontrolled replication
    assert failures[1] != "No"


def test_outage_scenario_one_node_is_evicted_all_nodes_trigger_full_disruption():
    out = _run("outage_scenario.py")
    scenario_a, scenario_b = out.split("--- Scenario B")
    a = _rows(r"ready nodes=(\d+)/(\d+)  application pods=(\d+)  still bound to worker-3=(\d+)", scenario_a)
    # One node's lost heartbeats: it goes NotReady, its pods are evicted and
    # respawned elsewhere, and the application keeps its pod count.
    assert int(a[-1][0]) == int(a[-1][1]) - 1
    assert int(a[0][3]) > 0 and int(a[-1][3]) == 0
    assert {row[2] for row in a} == {a[0][2]}
    b = _rows(r"ready nodes=(\d+)/\d+  application pods=(\d+)  full-disruption mode=(\w+)", scenario_b)
    # Every node's lost heartbeats: full-disruption mode, and no eviction.
    assert b[-1][0] == "0" and b[-1][2] == "True"
    assert {row[1] for row in b} == {b[0][1]}


def test_uncontrolled_replication_grows_daemonset_pods_and_preempts_the_application():
    out = _run("uncontrolled_replication.py")
    steady_app = int(_rows(r"Steady state: \d+ pods \((\d+) application pods\)", out)[0])
    rows = [
        tuple(int(value) for value in row)
        for row in _rows(
            r"application pods=\s*(\d+)  network-manager pods=\s*(\d+)  etcd keys=\s*(\d+)", out
        )
    ]
    network_pods = [row[1] for row in rows]
    etcd_keys = [row[2] for row in rows]
    assert network_pods == sorted(network_pods) and network_pods[-1] > 10 * steady_app
    assert etcd_keys == sorted(etcd_keys) and etcd_keys[-1] > etcd_keys[0]
    assert rows[-1][0] < steady_app  # critical-priority replicas preempt the application
