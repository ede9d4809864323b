"""Tests for the incremental compilation pipeline.

Covers the dependency-aware invalidation contract (changed options
re-run only the stages that read them), payload parity with direct
library calls, and the shared ``dse_summary``.
"""

import json

import pytest

from repro.backend.hls_cpp import EmitterOptions, compile_program
from repro.frontend.parser import parse
from repro.hls.estimator import estimate
from repro.hls.extract import extract_kernel
from repro.interp.interpreter import interpret_program
from repro.service.pipeline import (
    CompilerPipeline,
    dse_summary,
    estimate_report_fields,
    interp_memory_fields,
    relevant_options,
)
from repro.types.checker import check_program

GOOD = """
decl A: float[8 bank 2];
for (let i = 0..8) unroll 2 {
  A[i] := 1.0;
}
"""

BAD = """
decl A: float[8];
let x = A[0];
A[1] := 1.0
"""


def stage_counters(pipeline, stage):
    return pipeline.stats()["stages"].get(stage, {"hits": 0, "misses": 0})


# ---------------------------------------------------------------------------
# caching and invalidation
# ---------------------------------------------------------------------------

def test_repeated_stage_run_hits_cache():
    pipeline = CompilerPipeline()
    first = pipeline.run("check", GOOD)
    second = pipeline.run("check", GOOD)
    assert first is second                 # the very same artifact
    assert stage_counters(pipeline, "check")["hits"] == 1


def test_downstream_stages_share_frontend_artifacts():
    pipeline = CompilerPipeline()
    pipeline.run("estimate", GOOD)
    parse_misses = stage_counters(pipeline, "parse")["misses"]
    pipeline.run("compile", GOOD)
    pipeline.run("interp", GOOD)
    # compile and interp reused the parsed AST: no new parse misses.
    assert stage_counters(pipeline, "parse")["misses"] == parse_misses
    assert stage_counters(pipeline, "parse")["hits"] >= 2


def test_changed_source_reruns_the_flow():
    pipeline = CompilerPipeline()
    pipeline.run("check", GOOD)
    # A *structural* change re-runs everything.
    pipeline.run("check", GOOD.replace("1.0", "2.0"))
    assert stage_counters(pipeline, "check")["misses"] == 2
    assert stage_counters(pipeline, "resolve")["misses"] == 2


def test_comment_only_change_shares_structure_keyed_stages():
    """Raw stages are keyed on the structural digest: reformatting or
    commenting a program re-resolves it but cannot evict its checker
    verdict (or any other structure-keyed artifact)."""
    pipeline = CompilerPipeline()
    pipeline.run("check", GOOD)
    pipeline.run("check", GOOD + "\n// comment")
    assert stage_counters(pipeline, "resolve")["misses"] == 2
    assert stage_counters(pipeline, "check")["misses"] == 1
    assert stage_counters(pipeline, "check")["hits"] == 1


def test_option_change_reruns_only_reading_stages():
    pipeline = CompilerPipeline()
    pipeline.run("compile", GOOD, {"kernel_name": "a"})
    checks = stage_counters(pipeline, "check")["misses"]
    parses = stage_counters(pipeline, "parse")["misses"]
    pipeline.run("compile", GOOD, {"kernel_name": "b"})
    # compile re-ran (different key) …
    assert stage_counters(pipeline, "compile")["misses"] == 2
    # … but parse/check were served from cache: their keys exclude
    # kernel_name because they never read it.
    assert stage_counters(pipeline, "check")["misses"] == checks
    assert stage_counters(pipeline, "parse")["misses"] == parses


def test_irrelevant_options_do_not_split_keys():
    pipeline = CompilerPipeline()
    assert pipeline.key("check", GOOD, {"kernel_name": "a"}) == \
        pipeline.key("check", GOOD, {})
    assert pipeline.key("compile", GOOD, {"kernel_name": "a"}) != \
        pipeline.key("compile", GOOD, {})


def test_relevant_options_are_transitive():
    assert "erase" in relevant_options("compile_payload")
    assert "kernel_name" in relevant_options("compile_payload")
    assert relevant_options("check") == ()
    assert relevant_options("interp_payload") == ("check",)


def test_unknown_stage_raises():
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        CompilerPipeline().run("nope", GOOD)


def test_interp_reuses_the_cached_checker_artifact():
    pipeline = CompilerPipeline()
    pipeline.run("check", GOOD)
    checks = stage_counters(pipeline, "check")["misses"]
    pipeline.run("interp", GOOD)
    # interp consumed the cached check instead of re-running it.
    assert stage_counters(pipeline, "check")["misses"] == checks
    assert stage_counters(pipeline, "check")["hits"] >= 1


def test_interp_check_option_still_rejects_bad_programs():
    pipeline = CompilerPipeline()
    payload = pipeline.run("interp_payload", BAD)
    assert payload["ok"] is False
    assert payload["diagnostic"]["kind"] == "already-consumed"


def test_rejections_are_cached_at_the_payload_level():
    pipeline = CompilerPipeline()
    first = pipeline.run("check_payload", BAD)
    assert first["ok"] is False
    assert first["diagnostic"]["kind"] == "already-consumed"
    second = pipeline.run("check_payload", BAD)
    assert second is first
    assert stage_counters(pipeline, "check_payload")["hits"] == 1


# ---------------------------------------------------------------------------
# parity with direct library calls
# ---------------------------------------------------------------------------

def test_check_payload_matches_direct_call():
    payload = CompilerPipeline().run("check_payload", GOOD)
    report = check_program(parse(GOOD))
    assert payload == {"ok": True, "memories": len(report.memories),
                       "max_replication": report.max_replication}


def test_estimate_payload_matches_direct_call():
    payload = CompilerPipeline().run("estimate_payload", GOOD)
    program = parse(GOOD)
    check_program(program)
    report = estimate(extract_kernel(program))
    assert payload == {"ok": True,
                       "report": estimate_report_fields(report)}
    # … and the fields survive JSON byte-for-byte.
    assert json.loads(json.dumps(payload)) == payload


def test_compile_payload_matches_direct_call():
    options = {"erase": True, "kernel_name": "widget"}
    payload = CompilerPipeline().run("compile_payload", GOOD, options)
    program = parse(GOOD)
    check_program(program)
    direct = compile_program(program, EmitterOptions(
        erase=True, kernel_name="widget"))
    assert payload == {"ok": True, "cpp": direct}
    assert "#pragma" not in payload["cpp"]
    assert "void widget(" in payload["cpp"]


def test_interp_payload_matches_direct_call():
    payload = CompilerPipeline().run("interp_payload", GOOD)
    direct = interpret_program(parse(GOOD))
    assert payload == {"ok": True,
                       "memories": interp_memory_fields(direct)}
    assert payload["memories"]["A"] == [1.0] * 8


def test_rtl_payload_carries_verilog():
    payload = CompilerPipeline().run("rtl_payload", GOOD,
                                     {"module_name": "accel"})
    assert payload["ok"] is True
    assert "module accel(" in payload["verilog"]
    assert payload["verilog"].rstrip().endswith("endmodule")


@pytest.mark.parametrize("source", [GOOD, BAD], ids=["accepted", "rejected"])
def test_rtl_payload_replays_the_cached_check_verdict(source, monkeypatch):
    from repro.types.checker import Checker

    pipeline = CompilerPipeline()
    pipeline.run("check_payload", source)
    checkers = []
    init = Checker.__init__
    monkeypatch.setattr(Checker, "__init__",
                        lambda self: checkers.append(self) or init(self))
    pipeline.run("rtl_payload", source)
    assert checkers == []


# ---------------------------------------------------------------------------
# dse_summary
# ---------------------------------------------------------------------------

def test_dse_summary_matches_engine_sweep():
    from repro.dse import sweep
    from repro.suite.generators import (
        stencil2d_kernel,
        stencil2d_source,
        stencil2d_space,
    )

    summary = dse_summary("stencil2d", sample=40, workers=1)
    configs = list(stencil2d_space().sample(40))
    direct = sweep(configs, stencil2d_source, stencil2d_kernel, workers=1)
    assert summary["points"] == direct.total == 40
    assert summary["accepted"] == len(direct.accepted)
    assert summary["rejection_kinds"] == direct.rejection_counts()
    assert summary["global_pareto"] == len(direct.pareto())
    assert summary["engine"]["checker_runs"] == \
        direct.stats.checker_runs


def test_dse_summary_rejects_unknown_space():
    with pytest.raises(ValueError, match="unknown DSE space"):
        dse_summary("warp-drive")


def test_dse_summary_rejects_negative_sample():
    with pytest.raises(ValueError, match="sample must be >= 0"):
        dse_summary("stencil2d", sample=-1)
