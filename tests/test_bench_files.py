"""Format of the committed benchmark records ``BENCH_*.json``.

A speed claim rests on such a file (see ROADMAP.md).  Each one holds the
last JSON line of ``python3 bench/run.py`` for every run it reports, on the
parent commit and on the change, with the Python version.  The parent is
named by its commit; since the record is committed together with the change
it measures, both sides are also named by the git tree id of ``src/``
(``git rev-parse <commit>:src``).  The workloads and end-to-end metric
names come from ``BENCHMARK.json``, which this test only reads.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
MIN_SEEDS = 3
GIT_ID = r"[0-9a-f]{40}"


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]])


def test_at_least_one_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_record_format(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert re.fullmatch(r"\d+\.\d+\.\d+\S*", record["python"])
    assert re.fullmatch(GIT_ID, record["parent_commit"])
    for side in SIDES:
        assert re.fullmatch(GIT_ID, record["src_tree"][side]), side
    workloads, metrics = benchmark_spec()
    runs = record["runs"]
    for run in runs:
        assert run["side"] in SIDES and run["workload"] in workloads
        assert isinstance(run["seed"], int) and run["trace"] in (0, 1)
        assert {"correct", "attempted", "failed", "metrics"} <= set(run["result"])
    for workload in workloads:
        for side in SIDES:
            seeds = {run["seed"] for run in runs
                     if run["workload"] == workload and run["side"] == side
                     and run["trace"] == 0
                     and run["result"]["correct"] is True
                     and run["result"]["failed"] == 0
                     and set(metrics) <= set(run["result"]["metrics"])}
            assert len(seeds) >= MIN_SEEDS, (workload, side, sorted(seeds))
