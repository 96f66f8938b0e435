"""The contract between the library and the frozen benchmark harness.

``bench/tracer.py`` wraps library functions and methods by name, and
``bench/workloads.py`` builds its jobs through the public API, including the
``order`` arguments of ``CyclotomicMatrix`` and ``closure``.  Neither file
changes with the library, so a renamed method or a changed signature would
otherwise show only in a traced benchmark run.  These tests import both
files read-only and install no wrapper.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
JOBS_PER_WORKLOAD = 4


def bench_module(name):
    """bench/<name>.py, imported as bench_<name> without touching sys.path."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, ROOT / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_every_wrapped_name_resolves():
    tracer = bench_module("tracer")
    for module in tracer.MODULES:
        importlib.import_module(f"{tracer.PACKAGE}.{module}")
    # a name bound nowhere raises, a missing method is a KeyError
    sites = list(tracer.Tracer()._binding_sites())
    assert {attr for _, attr, _, _ in sites} >= {
        path.split(".")[-1] for _, path, _ in tracer.WRAPPED}
    assert all(vars(owner)[attr] is original
               for owner, attr, original, _ in sites)


@pytest.mark.parametrize("build", ["build_invariants", "build_resolutions"])
def test_first_jobs_pass_their_oracles(build):
    workloads = bench_module("workloads")
    jobs = getattr(workloads, build)(1, str(ROOT))[:JOBS_PER_WORKLOAD]
    assert len(jobs) == JOBS_PER_WORKLOAD
    for job in jobs:
        assert job.check(job.run()) == [], job.label


def test_every_first_seed_resolutions_job_passes_its_oracle():
    # the Betti-table speed claims are measured on these: the cutoff-8 skew
    # spaces and the cutoff-6 monomial quotients sit at the end of the list
    workloads = bench_module("workloads")
    jobs = workloads.build_resolutions(1, str(ROOT))
    assert len(jobs) == len(workloads.RESOLUTION_SLOTS) == 30
    for job in jobs:
        assert job.check(job.run()) == [], job.label


def test_every_first_seed_scenarios_job_passes_its_oracle():
    # the brute-force trace speed claims are measured on these: the six
    # bundled files and the generated ones, written under .bench_out/
    workloads = bench_module("workloads")
    jobs = workloads.build_scenarios(1, str(ROOT))
    assert len(jobs) == 6 + len(workloads.SCENARIO_SLOTS) == 30
    for job in jobs:
        assert job.check(job.run()) == [], job.label
