"""The benchmark's activities pass their own checks on the library.

perfbench checks every block it times against a second computation of the
same result (``check`` in ``perfbench/workloads.py``), and a block that
fails its check makes the run's outputs incorrect. This test loads the
workloads by path, as ``tests/test_perfbench_names.py`` loads the wrapped
names, and runs block 0 of every activity and its check at the tiny scale,
plus the probing table's reference check, without starting the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_block_zero_passes_its_check(name):
    activities = workloads.WORKLOADS[name](SEED, "tiny")
    assert activities
    for act in activities:
        out = act.run(0)
        act.check(0, out)
        assert act.digest(out)


def test_probe_table_reference():
    workloads.probe_table_reference(SEED)
