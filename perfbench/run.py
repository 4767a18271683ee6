"""dpcomm benchmark: one workload, checked against its oracles, end to end or traced.

    python3 perfbench/run.py --workload library --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table each

Run it from the root of a dpcomm source tree: it imports ``dpcomm`` from
``./src`` and writes scratch output under ``.bench_out/``. The last line of
stdout is one JSON object with ``correct``, ``attempted`` (operations),
``failed`` (operations that raised or failed their oracle) and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import percentiles

WORKLOADS = ("library", "cli")
SETUP_BEFORE, SETUP_AFTER = 3, 2  # set-up-only interpreters; setup_s is the median
                                  # of these and the main worker's own set-up
WARMUP_MIN_PASSES = 3  # when at least this many passes ran, the first is a warm-up
RUN_LIMIT_S = 170.0  # every run ends within this, set-up and probes included
OUT_DIR = ".bench_out"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode, workload, seed, seconds, timeout) -> dict:
    """Run one worker process to completion; adds its set-up time as ``setup_s``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    argv = [sys.executable, WORKER, mode, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", os.path.abspath(OUT_DIR)]
    launched = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any dpcomm CLI it started
        proc.communicate()
        raise BenchError(f"{mode} worker for {workload} ran over {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}:\n"
                         f"{stderr.strip()}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - launched
    return doc


def run_workload(workload, seed, seconds, trace) -> tuple:
    """(result object, human-readable lines) of one benchmark run."""
    started = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    # Set-up samples bracket the main run, so that they span its time window.
    samples = [spawn("setup", workload, seed, seconds, remaining())
               for _ in range(SETUP_BEFORE)]
    main = spawn("trace" if trace else "run", workload, seed, seconds, remaining())
    samples.append(main)
    samples += [spawn("setup", workload, seed, seconds, remaining())
                for _ in range(SETUP_AFTER)]
    for problem in main["problems"]:
        print(f"FAILED {workload}: {problem}", file=sys.stderr)

    setups = [d["setup_s"] for d in samples]
    lines = [f"{workload} seed={seed}: {main['ops']} ops, {main['failed']} failed"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in main["metrics"].items()}
        p50, p90, _, _ = percentiles([d["import_s"] for d in samples])
        metrics["cli.import_s.p50"] = {"value": p50, "unit": "s"}
        metrics["cli.import_s.p90"] = {"value": p90, "unit": "s"}
        lines.append(f"  traced pass {main['traced_s']:.4f} s, untraced pass "
                     f"{main['untraced_s']:.4f} s; spans written to {main['spans_path']}")
    else:
        walls = main["walls"]
        timed = walls[1:] if len(walls) >= WARMUP_MIN_PASSES else walls
        metrics = {
            "wall_s": {"value": statistics.median(timed), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        lines.append(f"  wall_s is the median of {len(timed)} passes after "
                     f"{len(walls) - len(timed)} warm-up (passes: "
                     f"{', '.join(f'{w:.4f}' for w in walls)}); setup_s the median of "
                     f"{len(setups)} fresh interpreters (min {min(setups):.4f}, "
                     f"max {max(setups):.4f})")
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'ops':<44} {main['ops']:>14} count")
    lines.append(f"  {'failed_ops':<44} {main['failed']:>14} count")
    result = {"correct": main["failed"] == 0, "attempted": main["ops"],
              "failed": main["failed"], "metrics": metrics}
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60,
                        help="untraced passes continue while the next is expected to end "
                             "within this many seconds (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("run.py: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "dpcomm", "__init__.py")):
        print("run.py: no src/dpcomm here; run from the root of a dpcomm source tree",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
