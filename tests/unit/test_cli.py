"""Unit tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.engine == "bitset"
    assert args.system == "ring"
    assert args.size == 4
    assert not args.experiments
    assert not args.fairness


def test_ring_size_is_an_alias_for_size():
    assert build_parser().parse_args(["--ring-size", "7"]).size == 7
    assert build_parser().parse_args(["--size", "7"]).size == 7


def test_parser_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--engine", "zdd"])


def test_parser_rejects_unknown_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--system", "philosophers"])


@pytest.mark.parametrize("engine", ["naive", "bitset", "bdd"])
def test_ring_check_all_engines(engine, capsys):
    exit_code = main(["--engine", engine, "--ring-size", "3"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "M_3 via engine=%s" % engine in out
    assert "states      : 24" in out
    assert "transitions : 57" in out
    assert "property eventual_entry" in out
    assert "invariant one_token" in out
    assert "invariant mutual_exclusion" in out
    assert "all properties and invariants hold" in out


@pytest.mark.parametrize("system,label", [("mutex", "mutex(3)"), ("counter", "counter(3)")])
def test_other_systems_explicit_engine(system, label, capsys):
    exit_code = main(["--system", system, "--size", "3"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "%s via engine=bitset" % label in out
    assert "all properties and invariants hold" in out


def test_mutex_bdd_engine(capsys):
    exit_code = main(["--system", "mutex", "--engine", "bdd", "--size", "3"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "mutex(3) via engine=bdd" in out
    assert "invariant mutual_exclusion" in out


def test_bdd_engine_reports_direct_encoding(capsys):
    main(["--engine", "bdd", "--ring-size", "2"])
    out = capsys.readouterr().out
    assert "direct symbolic encoding" in out


def test_explicit_engines_report_explicit_graph(capsys):
    main(["--engine", "bitset", "--ring-size", "2"])
    out = capsys.readouterr().out
    assert "explicit state graph" in out


@pytest.mark.parametrize("engine", ["naive", "bitset", "bdd"])
def test_fairness_flag_checks_fair_liveness(engine, capsys):
    exit_code = main(["--engine", engine, "--ring-size", "3", "--fairness"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "fairness    : 3 conditions" in out
    assert "fair liveness eventual_token       True" in out
    assert "all properties and invariants hold" in out


def test_mutex_fairness(capsys):
    exit_code = main(["--system", "mutex", "--size", "3", "--fairness"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "fair liveness eventual_entry" in out


def test_counter_fairness_rejected(capsys):
    assert main(["--system", "counter", "--fairness"]) == 2
    assert "fairness" in capsys.readouterr().err


def test_without_fairness_no_liveness_family(capsys):
    main(["--engine", "bitset", "--ring-size", "3"])
    out = capsys.readouterr().out
    assert "fair liveness" not in out
    assert "fairness    :" not in out


def test_invalid_ring_size_exits_2(capsys):
    assert main(["--ring-size", "0"]) == 2
    assert "--ring-size" in capsys.readouterr().err


def test_fairness_with_experiments_rejected(capsys):
    assert main(["--experiments", "--fairness"]) == 2
    assert "--fairness" in capsys.readouterr().err


def test_system_with_experiments_rejected(capsys):
    assert main(["--experiments", "--system", "mutex"]) == 2
    assert "--system" in capsys.readouterr().err


def test_python_dash_m_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "--engine", "bdd", "--ring-size", "2"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert "M_2 via engine=bdd" in completed.stdout


def test_profile_emits_json_with_phases_and_bdd_stats(capsys):
    import json

    exit_code = main(["--engine", "bdd", "--ring-size", "3", "--profile"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    assert payload["engine"] == "bdd"
    assert payload["system"] == "ring"
    assert payload["size"] == 3
    phase_names = [phase["name"] for phase in payload["phases"]]
    assert phase_names[0] == "build"
    assert any(name.startswith("check property ") for name in phase_names)
    assert all(phase["seconds"] >= 0 for phase in payload["phases"])
    bdd = payload["bdd"]
    assert bdd["peak_live_nodes"] >= bdd["live_nodes"] > 0
    assert set(bdd["caches"]) == {"ite", "exists", "relprod", "rename", "restrict"}


def test_profile_on_explicit_engine_has_no_bdd_section(capsys):
    import json

    exit_code = main(["--engine", "bitset", "--ring-size", "3", "--profile"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    assert payload["engine"] == "bitset"
    assert "bdd" not in payload
    assert payload["total_seconds"] >= 0


def test_profile_with_experiments_emits_one_json_document(capsys):
    import json

    exit_code = main(["--experiments", "--quick", "--profile"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)  # exactly one valid JSON doc on stderr
    assert payload["schema"] == "repro.profile/v2"
    assert payload["mode"] == "experiments"
    assert payload["engine"] == "bitset"
    assert set(payload["experiments"]) == {
        "E1_fig31",
        "E2_fig41",
        "E3_nexttime",
        "E4_fig51",
        "E5_invariants",
        "E6_properties",
        "E7_correspondence",
        "E8_explosion",
        "E9_conjecture",
        "E10_scaling",
        "E11_fairness",
        "E12_bmc",
        "E13_ic3",
    }
    assert all(payload["experiments"].values())
    assert payload["total_seconds"] >= 0
    assert payload["metrics"]  # the registry snapshot rides along


def test_bmc_ring_check(capsys):
    exit_code = main(["--engine", "bmc", "--ring-size", "6", "--bound", "5"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "M_6 via engine=bmc" in out
    assert "state bits  : 12" in out
    assert "proved by 1-induction" in out
    assert "skipped (outside the bmc fragment)" in out
    assert "checked properties and invariants hold" in out


def test_ic3_mutex_check(capsys):
    exit_code = main(["--engine", "ic3", "--system", "mutex", "--size", "4"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "mutex(4) via engine=ic3" in out
    assert "IC3 over the direct encoding" in out
    assert "ic3-invariant" in out
    assert "all properties and invariants hold" in out


def test_ic3_ring_check_skips_liveness(capsys):
    exit_code = main(["--engine", "ic3", "--ring-size", "3"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "M_3 via engine=ic3" in out
    assert "invariant one_token" in out
    assert "ic3-invariant" in out
    assert "skipped (outside the ic3 fragment)" in out


def test_ic3_counter_check(capsys):
    exit_code = main(["--engine", "ic3", "--system", "counter", "--size", "8"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "counter(8) via engine=ic3" in out
    assert "ic3-invariant" in out


def test_bmc_profile_reports_sat_statistics(capsys):
    import json

    exit_code = main(["--engine", "bmc", "--ring-size", "5", "--bound", "5", "--profile"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    assert payload["engine"] == "bmc"
    assert payload["bound"] == 5
    sat = payload["sat"]
    assert sat["solve_calls"] > 0
    assert set(sat) >= {"conflicts", "decisions", "propagations", "learned_clauses"}
    # The BDD manager that owns the unrolled encoding is reported alongside.
    assert payload["bdd"]["live_nodes"] > 0


def test_profile_times_every_check_with_its_outcome(capsys):
    import json

    # At bound 3 k-induction cannot settle pairwise mutual exclusion; the
    # inconclusive attempt still gets a timed phase, as do the skipped ones.
    exit_code = main(["--engine", "bmc", "--ring-size", "3", "--bound", "3", "--profile"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    phases = {phase["name"]: phase for phase in payload["phases"]}
    assert phases["check invariant mutual_exclusion"]["outcome"] == "inconclusive"
    assert phases["check invariant one_token"]["outcome"] == "holds"
    assert any(phase.get("outcome") == "skipped" for phase in phases.values())
    rows = [
        line for line in captured.out.splitlines()
        if line.startswith(("  property ", "  invariant "))
    ]
    assert len(payload["phases"]) == 1 + len(rows)
    assert payload["total_seconds"] == pytest.approx(
        sum(phase["seconds"] for phase in payload["phases"])
    )


def test_ic3_profile_reports_frame_counters(capsys):
    import json

    exit_code = main(
        ["--engine", "ic3", "--system", "mutex", "--size", "3", "--profile"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    assert payload["engine"] == "ic3"
    assert payload["max_frames"] >= 1
    assert payload["certificate_clauses"] >= 1
    sat = payload["sat"]
    assert sat["solve_calls"] > 0
    assert sat["frames"] >= 1
    assert sat["relative_queries"] > 0
    assert sat["obligations"] >= 0
    assert sat["generalization_queries"] >= 0


def test_bound_requires_sat_engine(capsys):
    assert main(["--engine", "bitset", "--bound", "5"]) == 2
    assert "--bound" in capsys.readouterr().err
    assert main(["--engine", "bmc", "--bound", "-1"]) == 2
    assert "--bound" in capsys.readouterr().err
    assert main(["--engine", "ic3", "--bound", "0"]) == 2
    assert "frame ceiling" in capsys.readouterr().err


def test_ic3_bound_caps_frames(capsys):
    # A tiny frame ceiling makes the non-inductive pairwise-exclusion
    # invariant inconclusive rather than wrong; inconclusive checks are
    # reported but (like fragment skips) do not fail the run.
    exit_code = main(["--engine", "ic3", "--ring-size", "4", "--bound", "1"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "INCONCLUSIVE" in out
    assert "checked properties and invariants hold" in out


def test_sat_engines_with_fairness_rejected(capsys):
    assert main(["--engine", "bmc", "--fairness"]) == 2
    assert "fairness" in capsys.readouterr().err
    assert main(["--engine", "ic3", "--fairness"]) == 2
    assert "fairness" in capsys.readouterr().err


def test_sat_engines_with_experiments_rejected(capsys):
    assert main(["--engine", "bmc", "--experiments"]) == 2
    assert "E12" in capsys.readouterr().err
    assert main(["--engine", "ic3", "--experiments"]) == 2
    assert "E13" in capsys.readouterr().err


def test_trace_flag_writes_perfetto_document_with_nested_spans(tmp_path):
    import json

    trace_file = tmp_path / "trace.json"
    exit_code = main(
        [
            "--engine",
            "ic3",
            "--system",
            "mutex",
            "--size",
            "3",
            "--trace",
            str(trace_file),
        ]
    )
    assert exit_code == 0
    document = json.loads(trace_file.read_text())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    names = {e["name"] for e in events}
    # The acceptance shape: compile/encode/frame/generalize spans all show.
    for expected in (
        "build.encode",
        "ic3.compile",
        "ic3.run",
        "ic3.frame",
        "ic3.generalize",
        "sat.solve",
        "mc.check",
    ):
        assert expected in names, expected
    for e in events:
        assert e["ph"] in ("X", "i", "M")
        if e["ph"] != "M":
            assert e["ts"] >= 0
    # Nesting: some ic3.frame span lies inside the ic3.run span's interval.
    [run] = [e for e in events if e["name"] == "ic3.run"]
    frames = [e for e in events if e["name"] == "ic3.frame"]
    assert frames
    assert all(
        run["ts"] <= f["ts"] and f["ts"] + f["dur"] <= run["ts"] + run["dur"]
        for f in frames
    )
    # Tracing was torn down with the run.
    from repro.obs.trace import is_enabled

    assert not is_enabled()


def test_metrics_flag_writes_jsonl_registry_dump(tmp_path):
    import json

    metrics_file = tmp_path / "metrics.jsonl"
    exit_code = main(
        ["--engine", "bdd", "--ring-size", "3", "--metrics", str(metrics_file)]
    )
    assert exit_code == 0
    rows = [json.loads(line) for line in metrics_file.read_text().splitlines()]
    assert rows
    for row in rows:
        assert set(row) >= {"kind", "name", "labels", "value", "engine", "system", "size"}
        assert row["engine"] == "bdd"
        assert row["system"] == "ring"
        assert row["size"] == 3
    names = {row["name"] for row in rows}
    assert "mc.checks" in names
    assert "bdd.live_nodes" in names
    assert "mc.fixpoint.rounds" in names


def test_progress_flag_prints_heartbeats_for_experiments(capsys):
    exit_code = main(["--experiments", "--quick", "--progress"])
    captured = capsys.readouterr()
    assert exit_code == 0
    progress_lines = [
        line for line in captured.err.splitlines() if line.startswith("[progress]")
    ]
    per_experiment = [
        line for line in progress_lines if line.startswith("[progress] experiments ")
    ]
    assert len(per_experiment) == 13  # one forced heartbeat per experiment
    assert any("experiment=E13_ic3" in line for line in per_experiment)
    # The engines' own outer loops heartbeat through the same reporter.
    assert len(progress_lines) >= 13
    from repro.obs.progress import get_reporter

    assert get_reporter() is None  # torn down with the run


def test_progress_with_profile_keeps_stderr_pure_json(capsys):
    import json

    exit_code = main(
        ["--engine", "bdd", "--ring-size", "3", "--progress", "--profile"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)  # heartbeats went to stdout instead
    assert payload["schema"] == "repro.profile/v2"
    assert payload["metrics"]


def test_profile_metrics_snapshot_matches_engine(capsys):
    import json

    exit_code = main(["--engine", "bmc", "--ring-size", "4", "--profile"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    assert payload["mode"] == "check"
    metrics = payload["metrics"]
    assert metrics["mc.checks{engine=bmc}"] >= 1
    assert any(key.startswith("sat.") for key in metrics)


# -- the runtime surface: portfolio, budgets, --buggy, Ctrl-C -------------


def test_portfolio_mutex_check(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    exit_code = main(["--engine", "portfolio", "--system", "mutex", "--size", "2"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "mutex(2) via engine=portfolio" in out
    assert "parallel portfolio racing" in out
    assert "workers     : 4" in out
    assert "won by" in out
    assert "all properties and invariants hold" in out


def test_portfolio_profile_embeds_per_engine_outcomes(capsys, monkeypatch):
    import json

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    exit_code = main(
        ["--engine", "portfolio", "--system", "mutex", "--size", "2", "--profile"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.err)
    assert payload["engine"] == "portfolio"
    fates = payload["portfolio"]
    assert set(fates) <= {"bitset", "bdd", "bmc", "ic3"}
    assert any(fate == "ok" for fate in fates.values())
    assert payload["metrics"]["portfolio.races"] >= 1


def test_portfolio_metrics_include_worker_labelled_engine_rows(tmp_path, monkeypatch):
    import json

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    metrics_file = tmp_path / "race.jsonl"
    exit_code = main(
        [
            "--engine",
            "portfolio",
            "--system",
            "mutex",
            "--size",
            "3",
            "--metrics",
            str(metrics_file),
        ]
    )
    assert exit_code == 0
    rows = [json.loads(line) for line in metrics_file.read_text().splitlines()]
    worker_rows = [row for row in rows if "worker" in row["labels"]]
    assert worker_rows, "no worker-labelled rows merged from the racing engines"
    by_worker = {}
    for row in worker_rows:
        by_worker.setdefault(row["labels"]["worker"], set()).add(row["name"])
    # Several racing engines (winner *and* cancelled losers) merged their
    # registries home under their own label.
    assert len(by_worker) >= 2, sorted(by_worker)
    merged_names = set().union(*by_worker.values())
    assert any(name.startswith("sat.") for name in merged_names), merged_names
    assert any(name.startswith("bdd.") for name in merged_names), merged_names
    # The collector's own bookkeeping rode along.
    assert any(row["name"] == "obs.collect.series" for row in worker_rows)


def test_portfolio_trace_spans_processes_and_repro_obs_reads_it(
    tmp_path, monkeypatch, capsys
):
    import json

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    trace_file = tmp_path / "race.json"
    exit_code = main(
        [
            "--engine",
            "portfolio",
            "--system",
            "mutex",
            "--size",
            "3",
            "--trace",
            str(trace_file),
        ]
    )
    assert exit_code == 0
    document = json.loads(trace_file.read_text())
    events = document["traceEvents"]
    [race] = [e for e in events if e["ph"] == "X" and e["name"] == "portfolio.race"]
    race_id = race["args"]["span_id"]
    # Worker spans from at least two distinct processes were re-parented
    # under the race span, on their own Perfetto lanes.
    reparented_pids = {
        e["pid"]
        for e in events
        if e["ph"] == "X"
        and e["args"].get("parent_id") == race_id
        and e["args"].get("worker")
        and e["pid"] != race["pid"]
    }
    assert len(reparented_pids) >= 2, reparented_pids
    lanes = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert "coordinator" in lanes
    assert sum(1 for lane in lanes if lane.startswith("worker:")) >= 2, lanes
    capsys.readouterr()  # drop the portfolio run's own output
    from repro.obs.analyze import main as obs_main

    assert obs_main(["report", str(trace_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["critical_path"], "empty critical path"
    [autopsy] = payload["portfolio"]
    assert autopsy["winner"]
    assert len(autopsy["engines"]) >= 2


def test_buggy_flag_refutes_the_seeded_bug(capsys):
    exit_code = main(["--system", "mutex", "--size", "3", "--buggy"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "mutex(3) (buggy)" in out
    assert "False" in out


def test_timeout_budget_reports_exhaustion_without_failing(capsys):
    # A deadline too small for any fixpoint round: the checks report
    # BUDGET EXHAUSTED per property, and the run still exits 0 — like
    # INCONCLUSIVE, exhaustion is an honest "not decided".
    exit_code = main(["--engine", "bdd", "--ring-size", "3", "--timeout", "1e-6"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "BUDGET EXHAUSTED (deadline)" in out


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--workers", "2"], "--workers"),  # default engine is bitset
        (["--engine", "portfolio", "--workers", "0"], "--workers"),
        (["--timeout", "0"], "--timeout"),
        (["--memory-limit", "0"], "--memory-limit"),
        (["--engine", "portfolio", "--fairness"], "fairness"),
        (["--experiments", "--engine", "portfolio"], "E12/E13"),
        (["--experiments", "--buggy"], "--buggy"),
        (["--experiments", "--timeout", "30"], "--timeout"),
    ],
)
def test_runtime_flag_misuse_exits_2(argv, fragment, capsys):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_keyboard_interrupt_exits_130_and_flushes_artifacts(
    capsys, monkeypatch, tmp_path
):
    import repro.cli as cli_module

    def _interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "_run_check", _interrupt)
    metrics_path = tmp_path / "partial.jsonl"
    exit_code = main(["--ring-size", "2", "--metrics", str(metrics_path)])
    captured = capsys.readouterr()
    assert exit_code == 130
    assert "interrupted: stopped after partial results" in captured.err
    # The artifact flush still ran on the way out (nothing was recorded
    # before the interrupt, so the dump is empty but present).
    assert metrics_path.is_file()
