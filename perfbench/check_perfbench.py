"""Tests of the benchmark itself.

The file name keeps it out of a bare ``pytest`` run (tier 1); run it with::

    PYTHONPATH=src python -m pytest -q perfbench/check_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_the_runner_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_contract_metric_is_printed(trace, section):
    result = _last_json("paper-transfer", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_planted_wrong_verdict_raises_fail_ratio():
    checks = workloads.build_paper_transfer()
    expected = dict(workloads.EXPECTED["paper-transfer"])
    order = workloads.round_order(checks, 0)
    honest = child.run_checks(checks, expected, order)
    assert all(record["status"] == "ok" for record in honest)

    planted = "M_2 ~ M_5 establish (paper's IN)"
    verdict, source = expected[planted]
    expected[planted] = (not verdict, source)
    graded = child.run_checks(workloads.build_paper_transfer(), expected, order)
    failed = [record["name"] for record in graded if record["status"] != "ok"]
    assert failed == [planted]
    assert len(failed) / len(graded) > 0


def test_crash_and_overrun_count_as_failures():
    def crash():
        raise RuntimeError("boom")

    def slow():
        time.sleep(0.05)
        return True

    checks = {"ok": lambda: True, "crash": crash, "slow": slow}
    expected = {name: (True, "test") for name in checks}
    records = {
        r["name"]: r["status"]
        for r in child.run_checks(checks, expected, ["ok", "crash", "slow"], limit_s=0.02)
    }
    assert records["ok"] == "ok"
    assert records["crash"].startswith("crashed")
    assert records["slow"].startswith("over")


def _cli_stdout(rows):
    header = "  %-34s %-8s %s" % ("check", "verdict", "seconds")
    lines = ["mutex(4) via engine=ic3 (...)", "", header]
    lines += ["  %-34s %-8s" % row for row in rows]
    return "\n".join(lines + ["", "  all properties and invariants hold"])


def _spawned(stdout, exit_code):
    return run.Spawned(stdout, "", exit_code, 0.0, 1.0, 0.5, 30.0)


def test_cli_grading_checks_each_printed_verdict():
    name = "invariant mutual_exclusion"
    good = _spawned(_cli_stdout([(name, "True (ic3-invariant)")]), 0)
    assert [r["status"] for r in run.grade_cli("ic3 mutex 4", good)] == ["ok"]
    wrong = _spawned(_cli_stdout([(name, "False")]), 1)
    assert [r["status"] for r in run.grade_cli("ic3 mutex 4", wrong)] == ["wrong verdict"]
    skipped = _spawned(_cli_stdout([(name, "skipped (outside the ic3 fragment)")]), 0)
    assert [r["status"] for r in run.grade_cli("ic3 mutex 4", skipped)] == ["wrong verdict"]


def test_self_time_of_a_nested_span_tree():
    ms = 1_000_000
    tree = [
        [0, -1, "bench.job", 0, 100 * ms],
        [1, 0, "mc.bitset", 10 * ms, 40 * ms],
        [2, 1, "bdd.ite", 20 * ms, 30 * ms],
        [3, 0, "corr.find", 50 * ms, 90 * ms],
        [4, 3, "kripke.reduce", 60 * ms, 70 * ms],
        [5, 3, "kripke.reduce", 65 * ms, 95 * ms],  # overlaps its sibling, overhangs its parent
    ]
    totals = spans.self_times(tree)
    assert totals["bench.job"] == pytest.approx([1, 0.100, 0.030])
    assert totals["mc.bitset"] == pytest.approx([1, 0.030, 0.020])
    assert totals["bdd.ite"] == pytest.approx([1, 0.010, 0.010])
    assert totals["corr.find"] == pytest.approx([1, 0.040, 0.010])
    assert totals["kripke.reduce"] == pytest.approx([2, 0.040, 0.040])

    shares = spans.rollup(spans.raw_counters(spans.Tracer(), totals))
    # Overlapping and overhanging children count in full as their own self
    # time, so the shares are of the summed self time (110 ms), not the root.
    assert shares["share.corr"] == pytest.approx(0.010 / 0.110)
    assert sum(shares["share." + layer] for layer in spans.LAYERS) == pytest.approx(1.0)


def test_speed_scales_times_to_the_reference_host():
    cpus = sorted(os.sched_getaffinity(0))
    assert len(speed.read(cpus)) == speed.SAMPLES * len(cpus)
    assert os.sched_getaffinity(0) == set(cpus)

    ref = speed.REFERENCE_S
    # Jobs at reference speed, then at half speed: the interval's own 10 s
    # (less the jobs' 4 * 1.5 ref) ran on average at 3/4 of reference speed.
    samples = [(1.0, ref), (2.0, ref), (3.0, 2 * ref), (4.0, 2 * ref), (99.0, ref)]
    work, scaled = speed.at_reference(samples, 0.5, 4.5, 10.0)
    assert work == pytest.approx(10.0 - 6 * ref)
    assert scaled == pytest.approx(work * 0.75)
    # An interval holding no job takes the speed over all of them.
    assert speed.at_reference(samples, 5.0, 6.0, 1.0)[1] == pytest.approx(0.8)

    sampler = speed.Sampler().start()
    time.sleep(10 * speed.INTERVAL_S)
    taken = sampler.stop()
    assert taken and all(seconds > 0 for _, seconds in taken)


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
