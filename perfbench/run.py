"""The repository benchmark: time to a correct verdict, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload bdd-ring --seed 1 --seconds 25 --trace 0

The workloads are described in ``workloads.py`` and ``README.md``.  A run
repeats rounds of the workload, each in a fresh interpreter, until
``--seconds`` have passed; every verdict is graded against the expected
table.  ``--trace 0`` reports the end-to-end metrics (medians over the
rounds, scaled to the reference host's speed as ``speed.py`` reads it);
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full result document, stamped with the commit,
machine and settings it was measured on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

#: Hard per-process limit: a round or invocation still running after this
#: is killed and all of its checks count as failed.
PROCESS_TIMEOUT_S = 60.0

#: Samples per run of ``cli-short``'s cold start (set-up) and of the
#: interpreter and import baselines (traced runs).
COLD_SAMPLES = 5
BASELINE_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
    "invocation_p50_s": "s",
    "invocation_p90_s": "s",
}

_PER_LAYER_UNITS = {"interp.s": "s", "import.s": "s", "import.modules": "count"}


def per_layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name in _PER_LAYER_UNITS:
        return _PER_LAYER_UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_rate")) or name.startswith("share."):
        return "ratio"
    return "count"


@dataclass
class Spawned:
    """Outcome of one child process: its output, exit code, timing and usage."""

    stdout: str
    stderr: str
    exit_code: Optional[int]
    spawned: float
    exited: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def seconds(self) -> float:
        return self.exited - self.spawned

    def last_json(self) -> Optional[dict]:
        lines = self.stdout.strip().splitlines()
        if self.exit_code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


def spawn(cmd: Sequence[str], env: Dict[str, str], timeout: float) -> Spawned:
    """Run ``cmd`` to completion from the checkout root; kill it after ``timeout``.

    Reaps the child with ``os.wait4`` so its CPU time (children included)
    and peak RSS are the child's own, not the run's.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        spawned = time.monotonic()
        process = subprocess.Popen(list(cmd), stdout=out, stderr=err, env=env, cwd=str(ROOT))
        lock = threading.Lock()
        reaped = False

        def kill() -> None:
            with lock:
                if not reaped:
                    os.kill(process.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM or Ctrl-C): take the child down with us.
            os.kill(process.pid, signal.SIGKILL)
            os.wait4(process.pid, 0)
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
        exited = time.monotonic()
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Spawned(
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            process.returncode,
            spawned,
            exited,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )


def child_env(pycache: str) -> Dict[str, str]:
    """The environment of every child: the library on the path, bytecode in ``pycache``.

    Bytecode writes are switched on (whatever the caller's
    ``PYTHONDONTWRITEBYTECODE``) and redirected to a benchmark-owned
    prefix, so imports are timed against a warm cache without writing
    ``__pycache__`` into the tree.  A fixed hash seed keeps set iteration
    order, and with it the work done, the same in every round.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _run_git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents): identifies the code without git."""
    digest = hashlib.sha256()
    source = ROOT / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def round_cpus(workload: str) -> List[int]:
    """The CPUs a workload's rounds run on, and its speed is read on.

    An in-process round is one single-threaded interpreter, so the run is
    pinned to one CPU.  A ``cli-short`` round forks portfolio workers onto
    every CPU, so it runs unpinned and is read on all of them.
    """
    usable = sorted(os.sched_getaffinity(0))
    return usable if workload == "cli-short" else usable[-1:]


def stamp(args, cpus: List[int]) -> dict:
    """Where and how this run was measured (completed by the ``*_after`` fields)."""
    toplevel = _run_git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    return {
        "git_sha": _run_git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_run_git("status", "--porcelain", "--untracked-files=no"))
        if in_git
        else None,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": list(os.getloadavg()),
        "round_cpus": cpus,
        "reference_job_s_before": statistics.median(speed.read(cpus)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bytecode": {
            "mode": "warm benchmark-owned PYTHONPYCACHEPREFIX, writes on",
            "caller_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "hash_seed": "0",
        "closed_loop_clients": 1,
    }


def parse_cli_verdicts(label: str, stdout: str) -> Dict[str, str]:
    """Map ``"<label>: <check>"`` to the verdict word ``repro-mc`` printed for it.

    Reads the results table (``"  %-34s %-8s ..."`` rows between the header
    and the closing blank line); a skipped, inconclusive, over-budget or
    crashed row yields a word other than ``True``/``False``.
    """
    verdicts = {}
    in_table = False
    for line in stdout.splitlines():
        if line.startswith("  check "):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.strip():
            break
        name = line[2:36].strip()
        rest = line[37:].split()
        verdicts["%s: %s" % (label, name)] = rest[0] if rest else ""
    return verdicts


def grade_cli(label: str, run: Spawned) -> List[dict]:
    """Grade one ``repro-mc`` process: every expected row of its table must match."""
    expected = {
        name: entry for name, entry in workloads.EXPECTED["cli-short"].items()
        if name.startswith(label + ": ")
    }
    verdicts = parse_cli_verdicts(label, run.stdout)
    want_exit = 0 if all(verdict for verdict, _ in expected.values()) else 1
    records = []
    for name, (verdict, _) in sorted(expected.items()):
        printed = verdicts.get(name)
        if run.exit_code is None or run.exit_code < 0:
            status = "killed"
        elif printed is None:
            status = "missing from output"
        elif printed != str(verdict):
            status = "wrong verdict"
        elif run.exit_code != want_exit:
            status = "exit code %d" % run.exit_code
        else:
            status = "ok"
        records.append({"name": name, "expected": verdict, "verdict": printed, "status": status})
    for name in sorted(set(verdicts) - set(expected)):
        records.append({"name": name, "expected": None, "verdict": verdicts[name],
                        "status": "not in the expected table"})
    return records


def killed_records(workload: str, reason: str) -> List[dict]:
    return [
        {"name": name, "expected": verdict, "verdict": None, "status": reason}
        for name, (verdict, _) in sorted(workloads.EXPECTED[workload].items())
    ]


class Bench:
    """Runs the rounds of one workload inside one bytecode cache."""

    def __init__(self, workload: str, pycache: str, cpus: List[int]) -> None:
        self.workload = workload
        self.cpus = cpus
        self.env = child_env(pycache)
        self.python = sys.executable
        self.trace_dir = OUT_DIR / "spans"

    def warm(self) -> None:
        run = spawn([self.python, str(HERE / "child.py"), "--warm"], self.env,
                    PROCESS_TIMEOUT_S)
        if run.exit_code != 0:
            raise RuntimeError("warm-up failed:\n" + run.stderr)

    def repro_mc(self, args: Sequence[str], env: Optional[Dict[str, str]] = None) -> Spawned:
        return spawn([self.python, "-m", "repro", *args], env or self.env,
                     PROCESS_TIMEOUT_S)

    def read_speed(self) -> List[float]:
        return speed.read(self.cpus)

    def cold_start(self) -> dict:
        """One first ``repro-mc`` invocation against an empty bytecode cache."""
        label = next(iter(workloads.INVOCATIONS))
        fresh = tempfile.mkdtemp(prefix="pycache-cold-", dir=OUT_DIR)
        before = self.read_speed()
        try:
            run = self.repro_mc(workloads.INVOCATIONS[label],
                                dict(self.env, PYTHONPYCACHEPREFIX=fresh))
        finally:
            shutil.rmtree(fresh, ignore_errors=True)
        factor = speed.relative_speed(before + self.read_speed())
        return {"seconds": run.seconds * factor, "records": grade_cli(label, run)}

    def round(self, order_seed: int, reverse: bool, traced: bool) -> dict:
        if self.workload == "cli-short":
            return self._cli_round(order_seed, reverse, traced)
        cmd = [self.python, str(HERE / "child.py"), "--workload", self.workload,
               "--order-seed", str(order_seed)]
        if reverse:
            cmd.append("--reverse")
        if traced:
            self.trace_dir.mkdir(exist_ok=True)
            cmd += ["--trace-out", str(self.trace_dir / ("%s.json" % self.workload))]
        run = spawn(cmd, self.env, PROCESS_TIMEOUT_S)
        result = run.last_json()
        if result is None:
            sys.stderr.write(run.stderr)
            return {"traced": traced, "failed_round": True,
                    "records": killed_records(self.workload, "round did not finish")}
        intervals = {
            "setup_s": (run.spawned, result["t_first"], result["t_first"] - run.spawned),
            "wall_s": (result["t_first"], result["t_last"], result["t_last"] - result["t_first"]),
            "cpu_s": (run.spawned, run.exited, run.cpu_s),
            "invocations": (run.spawned, run.exited, run.seconds),
        }
        work = {name: measured for name, (_, _, measured) in intervals.items()}
        scaled = None
        if "samples" in result:
            scaled = {}
            for name, interval in intervals.items():
                work[name], scaled[name] = speed.at_reference(result["samples"], *interval)
            scaled["invocations"] = [scaled["invocations"]]
        work["invocations"] = [work["invocations"]]
        return {
            "traced": traced,
            "scaled": scaled,
            "work": work,
            "peak_rss_mb": run.peak_rss_mb,
            "records": result["records"],
            "raw": result.get("raw"),
        }

    def _cli_round(self, order_seed: int, reverse: bool, traced: bool) -> dict:
        """One pass over the invocations; untraced, each between two speed readings."""
        records: List[dict] = []
        raws = []
        runs = []
        seconds = []
        factors = []
        reading = None if traced else self.read_speed()
        for index, label in enumerate(
            workloads.round_order(workloads.INVOCATIONS, order_seed, reverse)
        ):
            args = workloads.INVOCATIONS[label]
            if traced:
                self.trace_dir.mkdir(exist_ok=True)
                trace_out = self.trace_dir / ("cli-short-%d.json" % index)
                run = spawn([self.python, str(HERE / "child.py"), "--cli", "--trace-out",
                             str(trace_out), "--", *args], self.env, PROCESS_TIMEOUT_S)
                result = run.last_json()
                if result is None:
                    sys.stderr.write(run.stderr)
                    run.exit_code = None
                    seconds.append(run.seconds)
                else:
                    # The traced process's own time ends with its job, before
                    # it replays race winners and writes its spans.
                    run.stdout, run.exit_code = result["stdout"], result["exit"]
                    raws.append(result["raw"])
                    seconds.append(result["t_end"] - run.spawned)
            else:
                run = self.repro_mc(args)
                seconds.append(run.seconds)
                after = self.read_speed()
                factors.append(speed.relative_speed(reading + after))
                reading = after
            runs.append(run)
            records += grade_cli(label, run)
        work = {
            "wall_s": sum(seconds),
            "cpu_s": sum(run.cpu_s for run in runs),
            "invocations": seconds,
        }
        scaled = None
        if not traced:
            scaled = {
                "wall_s": sum(s * f for s, f in zip(seconds, factors)),
                "cpu_s": sum(run.cpu_s * f for run, f in zip(runs, factors)),
                "invocations": [s * f for s, f in zip(seconds, factors)],
            }
        return {
            "traced": traced,
            "scaled": scaled,
            "work": work,
            "peak_rss_mb": max(run.peak_rss_mb for run in runs),
            "records": records,
            "raw": spans.merge_raw(raws) if traced else None,
        }

    def baselines(self) -> Dict[str, float]:
        """``interp.s``, ``import.s`` and ``import.modules`` from fresh interpreters."""
        interp = [spawn([self.python, "-c", "pass"], self.env, PROCESS_TIMEOUT_S).seconds
                  for _ in range(BASELINE_SAMPLES)]
        probe = ("import sys, repro.cli; "
                 "print(sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))")
        imports = [spawn([self.python, "-c", probe], self.env, PROCESS_TIMEOUT_S)
                   for _ in range(BASELINE_SAMPLES)]
        interp_s = statistics.median(interp)
        return {
            "interp.s": interp_s,
            "import.s": statistics.median(run.seconds for run in imports) - interp_s,
            "import.modules": int(imports[0].stdout.strip() or 0),
        }


def quantile(values: Sequence[float], fraction: float) -> float:
    """Inclusive-method quantile, defined for a single sample too."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(workload: str, rounds: List[dict], setup_samples: List[float],
               correct: int, attempted: int) -> Dict[str, float]:
    """Medians over the untraced rounds, every time at reference speed (``speed.py``)."""
    timed = [r for r in rounds if r.get("scaled")]
    if not timed:
        raise RuntimeError("no untraced round finished")
    scaled = [r["scaled"] for r in timed]
    invocations = [seconds for r in scaled for seconds in r["invocations"]]
    setups = setup_samples if workload == "cli-short" else [r["setup_s"] for r in scaled]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in scaled),
        "cpu_s": statistics.median(r["cpu_s"] for r in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "correct_ratio": correct / attempted,
        "invocation_p50_s": statistics.median(invocations),
        "invocation_p90_s": quantile(invocations, 0.9),
    }


def per_layer(rounds: List[dict], baselines: Dict[str, float]) -> Dict[str, float]:
    traced = [r for r in rounds if r["traced"] and r.get("raw") is not None]
    untraced = [r for r in rounds if not r["traced"] and not r.get("failed_round")]
    if not traced or not untraced:
        raise RuntimeError("a traced run needs a finished traced and untraced round")
    rolled = [spans.rollup(r["raw"]) for r in traced]
    metrics = dict(baselines)
    for name in rolled[0]:
        metrics[name] = statistics.median(values[name] for values in rolled)
    metrics["trace.overhead_ratio"] = statistics.median(
        r["work"]["wall_s"] for r in traced
    ) / statistics.median(r["work"]["wall_s"] for r in untraced)
    return metrics


def round_plan(seed: int, trace: bool):
    """Yield ``(order_seed, reverse, traced)`` for each round of a run, without end.

    Rounds come in pairs that share one seeded order.  In an untraced run
    the second round of a pair runs it backwards, so every check precedes
    every other as often as it follows it and the reuse of earlier checks'
    state evens out within the run.  In a traced run the pair is one
    untraced and one traced round in the same order, which makes their
    ratio the tracing overhead alone.
    """
    seeds = random.Random(seed)
    while True:
        order_seed = seeds.randrange(2 ** 32)
        yield order_seed, False, False
        yield order_seed, not trace, trace


def measure(args, bench: Bench) -> dict:
    setup_samples = []
    records: List[dict] = []
    if args.workload == "cli-short":
        for _ in range(COLD_SAMPLES):
            cold = bench.cold_start()
            setup_samples.append(cold["seconds"])
            records += cold["records"]
    bench.warm()
    rounds: List[dict] = []
    started = time.monotonic()
    for order_seed, reverse, traced in round_plan(args.seed, bool(args.trace)):
        result = bench.round(order_seed, reverse, traced)
        rounds.append(result)
        records += result["records"]
        elapsed = time.monotonic() - started
        finished = {r["traced"] for r in rounds if not r.get("failed_round")}
        if finished != {False, bool(args.trace)}:
            # Keep trying for a finished round of each kind, but not forever.
            if elapsed > 2 * args.seconds and any(r.get("failed_round") for r in rounds):
                break
            continue
        # Start another round only if it should end within the run length.
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    baselines = bench.baselines() if args.trace else {}
    failed = sum(1 for record in records if record["status"] != "ok")
    attempted = len(records)
    if args.trace:
        metrics = per_layer(rounds, baselines)
    else:
        metrics = end_to_end(args.workload, rounds, setup_samples, attempted - failed,
                             attempted)
    return {
        "rounds": rounds,
        "invocation_samples": sum(len(r["scaled"]["invocations"]) for r in rounds
                                  if r.get("scaled")),
        "setup_samples": setup_samples,
        "failures": [record for record in records if record["status"] != "ok"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its bytecode cache.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: %s is not a source checkout (no src/repro)" % ROOT, file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    cpus = round_cpus(args.workload)
    document = {"stamp": stamp(args, cpus)}
    os.sched_setaffinity(0, cpus)
    pycache = tempfile.mkdtemp(prefix="pycache-", dir=OUT_DIR)
    try:
        document.update(measure(args, Bench(args.workload, pycache, cpus)))
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    document["stamp"]["loadavg_after"] = list(os.getloadavg())
    document["stamp"]["reference_job_s_after"] = statistics.median(speed.read(cpus))
    units = END_TO_END_UNITS if not args.trace else None
    metrics = {
        name: {"value": value,
               "unit": units[name] if units else per_layer_unit(name)}
        for name, value in document["metrics"].items()
    }
    report = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    report.write_text(json.dumps(document, indent=1, default=str))
    print(json.dumps(document, default=str))
    print(json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
