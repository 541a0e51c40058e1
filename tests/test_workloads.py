"""The benchmark's workloads still build against the model API.

perfbench/workloads.py reads the model directly (``transitions``,
``Distribution.index``, ``.fuzzy``) and checks every reference result
against the brute-force oracles, so a model change that breaks it fails
here and not only when the benchmark runs.
"""
import sys
import types

import pytest

from conftest import REPO_ROOT

NAMES = ["random-sweep", "planted-merge", "simulation", "between-queries"]


def load_workloads(monkeypatch):
    """perfbench/workloads.py as a module, read without writing any cache file."""
    path = REPO_ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_workload_builds_at_seed_1(name, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert sorted(workloads.BUILDERS) == sorted(NAMES)
    instance = workloads.build(name, 1, tmp_path)
    assert instance.jobs
    assert all(job.argv and job.reference for job in instance.jobs)
