"""Tests for the repro-trace command-line tool."""

from __future__ import annotations

import pytest

from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.livermore import doacross_program
from repro.trace.io import write_trace
from repro.tracetool import main

from tests.conftest import build_toy_doacross


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "toy.trace"
    result = Executor(seed=3).run(build_toy_doacross(trips=40), PLAN_FULL)
    write_trace(result.trace, path)
    return str(path)


def test_info(trace_file, capsys):
    assert main(["info", trace_file]) == 0
    out = capsys.readouterr().out
    assert "events on 8 thread" in out
    assert "advance" in out


def test_dump_limited(trace_file, capsys):
    assert main(["dump", trace_file, "-n", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6  # 5 events + "... more" line
    assert "more" in out[-1]


def test_dump_filters(trace_file, capsys):
    assert main(["dump", trace_file, "-n", "0", "--kind", "advance"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 40
    assert all("advance" in line for line in out)

    assert main(["dump", trace_file, "-n", "0", "--thread", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all("ce=3" in line for line in out)


def test_validate_ok(trace_file, capsys):
    assert main(["validate", trace_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_detects_corruption(tmp_path, capsys):
    # Strip the advances: awaitE events lose their producers.
    from repro.trace.io import read_trace
    from repro.trace.events import EventKind
    from repro.trace.trace import Trace

    result = Executor(seed=3).run(build_toy_doacross(trips=10), PLAN_FULL)
    broken = Trace(
        [e for e in result.trace if e.kind is not EventKind.ADVANCE],
        result.trace.meta,
    )
    path = tmp_path / "broken.trace"
    write_trace(broken, path)
    assert main(["validate", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_analyze_event_based(trace_file, capsys):
    assert main(["analyze", trace_file]) == 0
    out = capsys.readouterr().out
    assert "approximated actual" in out
    assert "event-based" in out


def test_analyze_time_based_with_stats(trace_file, capsys):
    assert main(["analyze", trace_file, "--method", "time", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "time-based" in out
    assert "waiting" in out


def test_diff_identical(trace_file, capsys):
    assert main(["diff", trace_file, trace_file]) == 0
    out = capsys.readouterr().out
    assert "duration ratio B/A: 1.000" in out
    assert "mean time shift +0.0" in out


def test_diff_different_plans(tmp_path, capsys):
    prog = build_toy_doacross(trips=20)
    from repro.instrument.plan import PLAN_NONE

    a = Executor(seed=3).run(prog, PLAN_NONE)
    b = Executor(seed=3).run(prog, PLAN_FULL)
    pa, pb = tmp_path / "a.trace", tmp_path / "b.trace"
    write_trace(a.trace, pa)
    write_trace(b.trace, pb)
    assert main(["diff", str(pa), str(pb)]) == 0
    out = capsys.readouterr().out
    assert "differs" in out  # logical trace has STMT events FULL lacks
    assert "duration ratio" in out


def test_missing_file_errors(capsys):
    assert main(["info", "/nonexistent/x.trace"]) == 2
    assert "error" in capsys.readouterr().err


def test_inject_then_validate_then_repair_roundtrip(trace_file, tmp_path, capsys):
    corrupt = str(tmp_path / "corrupt.trace")
    repaired = str(tmp_path / "repaired.trace")

    assert main([
        "inject", trace_file, "-o", corrupt,
        "--drop-kinds", "advance", "--drop-thread", "2", "--seed", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "injected 1 fault(s) with seed 5" in out

    assert main(["validate", corrupt]) == 1
    assert "FAIL" in capsys.readouterr().out

    assert main(["repair", corrupt, "-o", repaired]) == 0
    out = capsys.readouterr().out
    assert "repair action" in out
    assert "demoted-await" in out

    assert main(["validate", repaired]) == 0
    assert "OK" in capsys.readouterr().out


def test_inject_is_deterministic_cli(trace_file, tmp_path, capsys):
    a, b = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
    args = ["--drop-fraction", "0.5", "--duplicate-fraction", "0.2", "--seed", "9"]
    assert main(["inject", trace_file, "-o", a] + args) == 0
    assert main(["inject", trace_file, "-o", b] + args) == 0
    capsys.readouterr()
    content_a = open(a).read().splitlines()[1:]
    content_b = open(b).read().splitlines()[1:]
    assert content_a == content_b


def test_inject_without_faults_errors(trace_file, tmp_path, capsys):
    out = str(tmp_path / "o.trace")
    assert main(["inject", trace_file, "-o", out]) == 2
    assert "no faults requested" in capsys.readouterr().err


def test_inject_skew_and_truncate(trace_file, tmp_path, capsys):
    out = str(tmp_path / "skewed.trace")
    assert main([
        "inject", trace_file, "-o", out,
        "--skew", "1", "750", "--truncate-fraction", "0.8",
    ]) == 0
    assert "injected 2 fault(s)" in capsys.readouterr().out


def test_repair_skip_mode(trace_file, tmp_path, capsys):
    corrupt = str(tmp_path / "corrupt.trace")
    repaired = str(tmp_path / "skipped.trace")
    assert main([
        "inject", trace_file, "-o", corrupt, "--drop-kinds", "awaitB",
    ]) == 0
    assert main(["repair", corrupt, "-o", repaired, "--mode", "skip"]) == 0
    out = capsys.readouterr().out
    assert "0 synthesized" in out


def test_analyze_policy_repair_on_corrupt_trace(trace_file, tmp_path, capsys):
    corrupt = str(tmp_path / "corrupt.trace")
    assert main([
        "inject", trace_file, "-o", corrupt,
        "--drop-kinds", "advance", "--drop-thread", "2",
    ]) == 0
    capsys.readouterr()
    # Strict analysis refuses...
    assert main(["analyze", corrupt]) == 2
    assert "error" in capsys.readouterr().err
    # ... the repair policy analyzes and reports the degradation.
    assert main(["analyze", corrupt, "--policy", "repair"]) == 0
    out = capsys.readouterr().out
    assert "degraded analysis (repair)" in out
    assert "approximated actual" in out


def test_stats_alias(trace_file, capsys):
    assert main(["stats", trace_file]) == 0
    out_stats = capsys.readouterr().out
    assert main(["info", trace_file]) == 0
    assert out_stats == capsys.readouterr().out


def test_convert_roundtrip(trace_file, tmp_path, capsys):
    from repro.trace.io import read_trace

    packed = str(tmp_path / "toy.rpt")
    back = str(tmp_path / "back.trace")
    assert main(["convert", trace_file, "-o", packed]) == 0
    # An inferred packed target reports the written version, not "rpt".
    assert "(v3)" in capsys.readouterr().out
    assert main(["convert", packed, "-o", back, "--format", "jsonl"]) == 0
    assert "(jsonl)" in capsys.readouterr().out
    original, restored = read_trace(trace_file), read_trace(back)
    assert restored.events == original.events
    assert restored.meta == original.meta
    # Out-of-range v3 knobs are usage errors, not tracebacks.
    for knob in (["--chunk-events", "0"], ["--level", "99"]):
        assert main(["convert", trace_file, "-o", packed] + knob) == 2
        assert "error:" in capsys.readouterr().err


def test_info_and_validate_on_packed_trace(trace_file, tmp_path, capsys):
    packed = str(tmp_path / "toy.rpt")
    assert main(["convert", trace_file, "-o", packed]) == 0
    capsys.readouterr()
    assert main(["info", packed]) == 0
    assert "events on 8 thread" in capsys.readouterr().out
    assert main(["validate", packed]) == 0
    assert "OK" in capsys.readouterr().out


def test_analyze_cost_scale_flag(trace_file, capsys):
    assert main(["analyze", trace_file, "--cost-scale", "0.5"]) == 0
    out_half = capsys.readouterr().out
    assert main(["analyze", trace_file, "--cost-scale", "1.0"]) == 0
    out_full = capsys.readouterr().out
    # Different assumed probe costs -> different approximations.
    assert out_half != out_full


# --------------------------------------------------------- query + slice
@pytest.fixture(scope="module")
def v3_file(trace_file, tmp_path_factory):
    from repro.trace.io import read_trace

    path = tmp_path_factory.mktemp("v3") / "toy.rpt"
    write_trace(read_trace(trace_file), path, format="v3", chunk_events=64)
    return str(path)


def test_query_where_and_events(v3_file, capsys):
    assert main(["query", v3_file, "--where", "kind == advance", "-n", "0"]) == 0
    out = capsys.readouterr().out
    assert "matched 40 of" in out
    assert "chunk(s) decoded" in out
    assert out.count("advance") >= 40


def test_query_group_by_table(v3_file, capsys):
    assert main([
        "query", v3_file, "--group-by", "kind", "--count",
    ]) == 0
    out = capsys.readouterr().out
    assert "count" in out and "overhead" in out and "time span" in out
    assert "advance" in out


def test_query_limit_reports_hidden(v3_file, capsys):
    assert main(["query", v3_file, "-n", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "more; use -n 0 for all" in out[-1]


def test_query_works_on_jsonl_too(trace_file, capsys):
    assert main(["query", trace_file, "--where", "thread == 3", "--count"]) == 0
    out = capsys.readouterr().out
    assert "matched" in out
    assert "chunk" not in out  # in-memory query has no chunk counters


def test_query_bad_where_errors(v3_file, capsys):
    assert main(["query", v3_file, "--where", "threads == 3"]) == 2
    assert "unknown query column" in capsys.readouterr().err


def test_slice_by_index_with_output(v3_file, tmp_path, capsys):
    out_path = str(tmp_path / "slice.jsonl")
    assert main([
        "slice", v3_file, "--index", "100", "--show", "3", "-o", out_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "slice: kept" in out
    assert "chunks:" in out and "pruned" in out
    assert f"wrote" in out
    from repro.trace.io import read_trace

    sliced = read_trace(out_path)
    assert 0 < len(sliced) <= 101
    assert "slice" in sliced.meta


def test_slice_by_seq_matches_jsonl_path(v3_file, trace_file, capsys):
    from repro.trace.io import read_trace

    seq = read_trace(trace_file).events[50].seq
    assert main(["slice", v3_file, "--seq", str(seq)]) == 0
    out_v3 = capsys.readouterr().out
    assert main(["slice", trace_file, "--seq", str(seq)]) == 0
    out_jsonl = capsys.readouterr().out
    kept = out_v3.split("kept ")[1].split(" of")[0]
    assert f"kept {kept} of" in out_jsonl  # same slice either path


def test_slice_missing_seq_errors(v3_file, capsys):
    assert main(["slice", v3_file, "--seq", "99999999"]) == 2
    assert "no event with seq" in capsys.readouterr().err


def test_slice_requires_exactly_one_target(v3_file, capsys):
    with pytest.raises(SystemExit):
        main(["slice", v3_file])  # argparse: required mutually-exclusive


def test_dump_v3_head_stops_early(v3_file, capsys):
    assert main(["dump", v3_file, "-n", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    assert "more; use -n 0 for all" in out[-1]


def test_dump_v3_filters_match_jsonl(v3_file, trace_file, capsys):
    assert main(["dump", v3_file, "-n", "0", "--kind", "advance"]) == 0
    out_v3 = capsys.readouterr().out
    assert main(["dump", trace_file, "-n", "0", "--kind", "advance"]) == 0
    assert out_v3 == capsys.readouterr().out


def test_dump_bad_kind_errors_both_paths(v3_file, trace_file, capsys):
    assert main(["dump", v3_file, "--kind", "warp"]) == 2
    assert "EventKind" in capsys.readouterr().err
    assert main(["dump", trace_file, "--kind", "warp"]) == 2
    assert "EventKind" in capsys.readouterr().err
