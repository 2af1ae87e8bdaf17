"""The benchmark's view of the package: one pass of each workload.

`perfbench/run.py` ends a run with exit 1 when a workload cannot read what
it expects of the package (a certificate field, a module attribute), so
these tests run one untraced pass of every workload through the same
`perfbench/workloads.py` and check that each of its outputs is correct.
"""

import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import codelattice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scan-heavy", "enum-heavy", "cli-session"])
def test_one_pass_of_each_workload(name, tmp_path):
    workload = _workloads().WORKLOADS[name]
    inputs = workload.prepare(1, str(tmp_path))
    scratch = tmp_path / "pass"
    scratch.mkdir()
    tracer = types.SimpleNamespace(job=None, enabled=False)
    result = workload.run_pass(inputs, tracer, str(scratch))
    assert result.attempted > 0
    assert result.failures == []


def test_cli_import_leaves_verify_to_the_harness():
    # the workloads import only `codelattice.cli`, which loads neither
    # verify nor csv; the harness then reads `codelattice.verify.CHECKS`
    # as an attribute of the package, which imports verify
    src = str(Path(codelattice.__file__).resolve().parents[1])
    probe = (
        "import sys, codelattice, codelattice.cli\n"
        "print(sorted({'codelattice.verify', 'csv'} & set(sys.modules)))\n"
        "print(len(codelattice.verify.CHECKS) > 0, 'codelattice.verify' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True True"]
