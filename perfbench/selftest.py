"""The benchmark's own test: every workload at a tiny size, two seeds.

Run from the root of a checkout (about a minute):

    python3 -m pytest perfbench/selftest.py -q

Each run must report no failed operation against the oracles, and the
printed metric names and units must be exactly those of
``BENCHMARK.json`` for the mode (``--trace 0``: end-to-end,
``--trace 1``: per-layer).
"""

from __future__ import annotations

import json
import math

import pytest

from perfbench import common, dse_workload, edit_workload, run
from perfbench import serve_workload

SPEC = common.load_spec()


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(dse_workload, "EXHAUSTIVE_SAMPLE", 20)
    monkeypatch.setattr(dse_workload, "FRONTIER_SAMPLE", 300)
    monkeypatch.setattr(edit_workload, "MAX_SAMPLES", 3)
    monkeypatch.setattr(edit_workload, "TRACE_PASS", 5)
    monkeypatch.setattr(serve_workload, "FAMILY_SOURCES", 6)
    monkeypatch.setattr(serve_workload, "TRACE_PASS", 30)
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)


def _run(capsys, *argv: str) -> tuple[dict, dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("seed", ["3", "17"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_correct_and_reports_the_spec(capsys, workload, seed,
                                                  trace):
    report, result = _run(capsys, "--workload", workload, "--seed", seed,
                          "--seconds", "0.5", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert report["error_ratio"] == 0
    for key in ("revision", "nproc", "python", "numpy"):
        assert report[key]
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])


def test_spec_names_the_workloads_this_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(common, "program_present", lambda: False)
    assert run.main(["--workload", "dse", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
