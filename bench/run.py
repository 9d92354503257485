"""Benchmark of the paper's two validation chains, run as a user runs them.

    python3 bench/run.py --workload insensitivity --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each round runs the model chain (analyze -> simulate -> compare) and the
trace chain (fixture -> trace) as separate ``multicell`` processes, one at a
time, and checks every output against the benchmark's own computations.
Rounds repeat on the same inputs until ``--seconds`` would be exceeded
(always at least one). An operation is one subcommand run with its check;
it fails when the process exits non-zero or the check finds a problem.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (one cold set-up, timed from process start), the median wall
time of each subcommand's process(es) per round, and the peak resident set
of any subcommand process. With ``--trace 1`` one round runs through the
CLI, then the same calls are replayed in-process with spans and counters
(see ``replay.py``), and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks
from workloads import SETUPS, Workload

SUBCOMMANDS = ("analyze", "simulate", "compare", "fixture", "trace")
RUNS_DIR = HERE / "_runs"
LAUNCH = "import sys; from multicell.cli import main; sys.exit(main())"


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    return env


def run_process(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one ``multicell`` process to its end: (wall s, peak RSS MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH] + argv, env=env,
                                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_round(wl: Workload, wl_dir: Path, round_dir: Path, env: dict) -> dict:
    """One round of the workload's steps; returns per-subcommand wall time,
    peak RSS, operations attempted and failures with their reasons."""
    if round_dir.exists():
        shutil.rmtree(round_dir)
    round_dir.mkdir(parents=True)
    wall = {name: 0.0 for name in SUBCOMMANDS}
    rss, failures, attempted = 0.0, [], 0
    for step in wl.steps:
        attempted += 1
        secs, mb, rc = run_process(step.command(wl_dir, round_dir), env,
                                   round_dir / f"{step.out}.log")
        wall[step.name] += secs
        rss = max(rss, mb)
        if rc != 0:
            failures.append(f"{step.out}: exit code {rc}")
            continue
        try:
            problems = checks.check_step(step, wl, round_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures.append(f"{step.out}: " + "; ".join(problems))
    return {"wall": wall, "rss": rss, "attempted": attempted, "failures": failures}


def setup(workload: str, seed: int) -> tuple[Workload, Path]:
    """Make the workload's configs and inputs in a fresh directory. An
    earlier run's directory is moved aside here and deleted by
    ``clear_previous`` once set-up has been timed."""
    wl_dir = RUNS_DIR / workload
    old = RUNS_DIR / f"{workload}.previous"
    if old.exists():
        shutil.rmtree(old)
    if wl_dir.exists():
        wl_dir.rename(old)
    wl_dir.mkdir(parents=True)
    wl = SETUPS[workload](seed, wl_dir)
    return wl, wl_dir


def clear_previous(workload: str) -> None:
    shutil.rmtree(RUNS_DIR / f"{workload}.previous", ignore_errors=True)


def measure(wl: Workload, wl_dir: Path, seconds: float, env: dict) -> list[dict]:
    """Whole rounds while the next one, at the mean round time so far, still
    ends within ``seconds``; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, wl_dir, wl_dir / "round", env))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "multicell" / "cli.py").is_file():
        print(f"error: no multicell sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = program_env()
    wl, wl_dir = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    clear_previous(args.workload)
    wl.ref = checks.reference_values(wl)

    if args.trace:
        import replay
        result = replay.traced_run(wl, wl_dir, env, run_round, ROOT)
        attempted, failures, metrics = result["attempted"], result["failures"], result["metrics"]
        for line in result["notes"]:
            print(line)
    else:
        rounds = measure(wl, wl_dir, args.seconds, env)
        attempted = sum(r["attempted"] for r in rounds)
        failures = [f for r in rounds for f in r["failures"]]
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name in SUBCOMMANDS:
            metrics[f"{name}_s"] = {
                "value": statistics.median([r["wall"][name] for r in rounds]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": max(r["rss"] for r in rounds), "unit": "MB"}
        print(f"{args.workload}: {len(rounds)} round(s), seed {args.seed}")
        for name in SUBCOMMANDS:
            walls = ", ".join(f"{r['wall'][name]:.3f}" for r in rounds)
            print(f"  {name}_s per round: {walls}")
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
