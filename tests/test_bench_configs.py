"""The configs the benchmark writes pass the CLI's key check.

``bench/workloads.py`` writes each workload's JSON config; a key the CLI no
longer reads would otherwise show only in a benchmark run, as exit 2.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bootsmooth.cli import _load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_each_workload_config_loads(name, tmp_path):
    invocation, _ = WORKLOADS.prepare(name, 0, tmp_path)
    argv = invocation.argv
    assert isinstance(_load_config(argv[argv.index("--config") + 1]), dict)
