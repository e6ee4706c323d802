"""A ``repro`` process loads only the code it runs.

Every campaign runs as a fleet of short-lived processes (pool children,
``worker``, ``serve``, ``objstore``), so what an entry point imports is
paid once per process in start-up time and resident memory.  The package
roots re-export their names lazily and each CLI subcommand imports its own
dependencies; this guard checks the result in a fresh interpreter, where
``sys.modules`` is not shared with the rest of the suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_PROBE = r"""
import contextlib, io, json, sys

HEAVY = ("numpy", "repro.cluster", "repro.core.campaign")
found = {}

def loaded(step):
    found[step] = sorted(name for name in HEAVY if name in sys.modules)

import repro.core.objstore
loaded("import repro.core.objstore")

from repro.cli import build_parser
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    build_parser().parse_args(["objstore", "--help"])
loaded("objstore --help")

from repro.service.client import ServiceClient
loaded("import repro.service.client")

from repro import Campaign, CampaignConfig, WorkloadKind
from repro.service import CampaignService
import repro, repro.core, repro.service
assert CampaignService.__module__ == "repro.service.server"
for package in (repro, repro.core, repro.service):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, (package.__name__, missing)
try:
    repro.NoSuchName
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")

config = CampaignConfig(
    workloads=(WorkloadKind.DEPLOY,), golden_runs=1, max_experiments_per_workload=1, seed=3, workers=1
)
result = Campaign(config).run()
assert result.total_experiments() == 1
found["numpy after Campaign.run"] = ["numpy"] if "numpy" in sys.modules else []
print(json.dumps(found))
"""


def test_entry_points_load_only_what_they_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    found = json.loads(completed.stdout.splitlines()[-1])
    assert found == {
        "import repro.core.objstore": [],
        "objstore --help": [],
        "import repro.service.client": [],
        "numpy after Campaign.run": [],
    }
