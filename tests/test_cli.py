"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, _build_config, make_parser, run
from repro.experiments.common import DEFAULT_CONFIG


def parse(args):
    return make_parser().parse_args(args)


def test_parser_accepts_all_experiments():
    for exp in EXPERIMENTS + ("all",):
        assert parse([exp]).experiment == exp


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        parse(["figure9"])


def test_config_flags():
    cfg = _build_config(parse(["table1", "--quick"]))
    assert cfg.trips == 200
    cfg = _build_config(parse(["table1", "--trips", "55"]))
    assert cfg.trips == 55
    cfg = _build_config(parse(["table1", "--seed", "9"]))
    assert cfg.seed == 9
    cfg = _build_config(parse(["table1", "--no-noise"]))
    assert cfg.perturb.jitter == 0 and cfg.perturb.dilation == 0
    assert _build_config(parse(["table1"])).trips is DEFAULT_CONFIG.trips


def test_run_single_experiment():
    cfg = DEFAULT_CONFIG.quick(100)
    text = run("table2", cfg)
    assert "Table 2" in text
    assert "Table 1" not in text


def test_run_figure1_only():
    cfg = DEFAULT_CONFIG.quick(100)
    text = run("figure1", cfg)
    assert "Figure 1" in text


def test_run_all_contains_every_section():
    cfg = DEFAULT_CONFIG.quick(100)
    text = run("all", cfg)
    for label in ("Figure 1", "Table 1", "Table 2", "Table 3", "Figure 4", "Figure 5"):
        assert label in text


def test_main_exit_code(capsys):
    from repro.cli import main

    assert main(["table3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


def test_width_flag_changes_chart_width():
    from repro.cli import run

    cfg = DEFAULT_CONFIG.quick(100)
    narrow = run("figure4", cfg, width=40)
    wide = run("figure4", cfg, width=100)
    n_line = next(l for l in narrow.splitlines() if l.strip().startswith("CE0"))
    w_line = next(l for l in wide.splitlines() if l.strip().startswith("CE0"))
    assert len(w_line) > len(n_line)


def test_all_includes_extension_sections():
    from repro.cli import run

    text = run("all", DEFAULT_CONFIG.quick(100))
    for label in ("Execution-mode study", "Per-event timing accuracy",
                  "Scalability study", "volume sweep"):
        assert label in text


# --- pipeline flags (--jobs / cache / --profile) -------------------------


def test_pipeline_flag_defaults():
    args = parse(["all"])
    assert args.jobs is None
    assert not args.no_cache
    assert args.cache_dir is None
    assert not args.profile
    args = parse(["all", "--jobs", "8", "--no-cache", "--cache-dir", "/tmp/x",
                  "--profile"])
    assert args.jobs == 8 and args.no_cache and args.cache_dir == "/tmp/x"
    assert args.profile


@pytest.mark.parametrize(
    "argv",
    [
        ["table2", "--trips", "0"],
        ["table2", "--trips", "-5"],
        ["audit", "--trips", "0"],
        ["figure5", "--width", "0"],
        ["figure5", "--width", "-4"],
        ["figure5", "--width", "wide"],
    ],
)
def test_counts_below_one_are_usage_errors(argv, capsys):
    """--trips/--width below 1 used to crash deep in the program (a
    ProgramError or an empty max()); now argparse rejects them, exit 2."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err


def test_width_one_and_trips_one_are_accepted():
    assert parse(["figure5", "--width", "1", "--trips", "1"]).width == 1


def test_cache_action_only_with_cache_command():
    assert parse(["cache"]).action is None
    assert parse(["cache", "stats"]).action == "stats"
    assert parse(["cache", "clear"]).action == "clear"
    with pytest.raises(SystemExit):
        parse(["cache", "frobnicate"])


def test_main_rejects_action_for_experiments(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit):
        main(["table1", "stats"])


def test_cache_stats_and_clear_commands(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cachecli"
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries:   0" in out
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "removed 0 cached artifacts" in out


def test_main_populates_and_reuses_disk_cache(tmp_path, capsys):
    from repro.cli import main
    from repro.runtime import ArtifactCache, clear_memory_cache, configure

    cache_dir = tmp_path / "clicache"
    clear_memory_cache()  # earlier tests may have memoized these specs
    try:
        assert main(["table3", "--quick", "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert ArtifactCache(cache_dir).stats().entries > 0
        clear_memory_cache()
        assert main(["table3", "--quick", "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert warm == cold  # cached rerun is byte-identical
    finally:
        configure(jobs=1, cache=None)  # restore hermetic default
        clear_memory_cache()


def test_no_cache_flag_leaves_disk_untouched(tmp_path, capsys):
    from repro.cli import main
    from repro.runtime import clear_memory_cache, configure

    cache_dir = tmp_path / "unused"
    try:
        assert main(["table3", "--quick", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()
    finally:
        configure(jobs=1, cache=None)
        clear_memory_cache()
    capsys.readouterr()


def test_profile_flag_prints_profile(tmp_path, capsys):
    from repro.cli import main
    from repro.runtime import clear_memory_cache, configure

    try:
        assert main(["table3", "--quick", "--no-cache", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out  # the report still prints
        assert "cumulative" in out  # plus the cProfile summary
        assert "function calls" in out
    finally:
        configure(jobs=1, cache=None)
        clear_memory_cache()


def test_jobs_flag_output_identical_to_serial(tmp_path, capsys):
    from repro.cli import main
    from repro.runtime import clear_memory_cache, configure

    try:
        assert main(["table3", "--quick", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        clear_memory_cache()
        assert main(["table3", "--quick", "--no-cache", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
    finally:
        configure(jobs=1, cache=None)
        clear_memory_cache()


def test_audit_fuzz_clean_exit_zero(capsys):
    from repro.cli import main

    assert main(["audit", "--fuzz", "2", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert "no divergences found" in captured.out
    assert "audited 2 program(s)" in captured.out
    assert "fuzz seed 1" in captured.err  # progress goes to stderr


def test_audit_one_shot_standard_programs(capsys):
    from repro.cli import main

    assert main(["audit", "--trips", "30"]) == 0
    out = capsys.readouterr().out
    assert "audited 3 program(s)" in out
    assert "no divergences found" in out


def test_audit_seeded_divergence_exits_nonzero(monkeypatch, capsys):
    from repro.analysis import timebased
    from repro.cli import main

    original = timebased._vectorized_times

    def corrupted(measured, costs):
        times = original(measured, costs)
        if times:
            first = min(times)
            times[first] = times[first] + 1
        return times

    monkeypatch.setattr(timebased, "_vectorized_times", corrupted)
    assert main(["audit", "--fuzz", "1", "--seed", "11", "--no-minimize"]) == 1
    out = capsys.readouterr().out
    assert "timebased-backends" in out
    assert "repro: repro-ppopp91 audit --fuzz 1 --seed 11" in out


def test_audit_flag_validation():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["audit", "stats"])  # cache actions don't apply
    with pytest.raises(SystemExit):
        main(["table1", "--fuzz", "5"])  # --fuzz is audit-only
    with pytest.raises(SystemExit):
        main(["audit", "--fuzz", "0"])  # N must be >= 1


# ------------------------------------------------------------------- obs
@pytest.fixture()
def obs_isolated():
    from repro.obs import core

    saved = (core._enabled, core._state)
    core._enabled = False
    core._state = None
    yield
    core._enabled, core._state = saved


def test_obs_flag_parsing():
    args = parse(["all"])
    assert not args.obs and args.obs_dir is None and args.log_level is None
    args = parse(["table1", "--obs", "--obs-dir", "/tmp/o",
                  "--log-level", "debug"])
    assert args.obs and args.obs_dir == "/tmp/o"
    assert args.log_level == "debug"
    assert parse(["obs"]).action is None
    assert parse(["obs", "report"]).action == "report"
    assert parse(["obs", "export"]).action == "export"
    assert parse(["obs", "calibrate"]).action == "calibrate"


def test_obs_action_rejected_for_experiments(obs_isolated):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["table1", "report"])


def test_obs_report_without_runs_exits_one(tmp_path, capsys, obs_isolated):
    from repro.cli import main

    assert main(["obs", "report", "--obs-dir", str(tmp_path)]) == 1
    assert "no obs run manifest" in capsys.readouterr().err
    assert main(["obs", "export", "--obs-dir", str(tmp_path)]) == 1
    assert "no obs event log" in capsys.readouterr().err


def test_obs_run_report_export_roundtrip(tmp_path, capsys, obs_isolated):
    import json

    from repro.cli import main
    from repro.runtime import clear_memory_cache, configure

    obs_dir = tmp_path / "obs"
    try:
        assert main(["table3", "--quick", "--no-cache",
                     "--obs", "--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
    finally:
        configure(jobs=1, cache=None)
        clear_memory_cache()

    manifests = list(obs_dir.glob("run-*.manifest.json"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert manifest["spans"], "an instrumented run must record spans"
    assert any(k.startswith("runtime.") for k in manifest["spans"])

    assert main(["obs", "report", "--obs-dir", str(obs_dir)]) == 0
    out = capsys.readouterr().out
    assert "runtime.execute_spec" in out
    assert "span" in out

    assert main(["obs", "export", "--obs-dir", str(obs_dir)]) == 0
    exported = capsys.readouterr().out.strip()
    doc = json.loads(open(exported).read())
    assert doc["traceEvents"]
    assert all(e["ph"] in ("B", "E") for e in doc["traceEvents"])


def test_obs_calibrate_command(capsys, obs_isolated, monkeypatch):
    from repro.cli import main
    from repro.obs import calibrate as _calibrate_fn

    # Shrink the workload: the real default is 100k iterations x 3.
    import repro.cli as cli_mod
    import repro.obs

    monkeypatch.setattr(
        repro.obs, "calibrate",
        lambda: _calibrate_fn(iters=1000, repeats=1),
    )
    assert main(["obs", "calibrate"]) == 0
    out = capsys.readouterr().out
    assert "span, disabled" in out and "ns/call" in out
