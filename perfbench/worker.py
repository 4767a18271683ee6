"""One fresh-interpreter benchmark process, started by ``run.py``.

    worker.py setup --workload W --seed N               import dpcomm, make the inputs
    worker.py run   --workload W --seed N --seconds S   then untraced passes for S seconds
    worker.py trace --workload W --seed N               then the per-layer probes and
                                                        untraced, traced, untraced passes

It needs ``src`` on ``PYTHONPATH`` and prints one JSON object on stdout. Set-up
ends at ``ready``, a ``time.perf_counter()`` reading; on Linux that clock is
CLOCK_MONOTONIC, shared with the parent, which subtracts its own launch time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True, help="scratch directory for outputs")
    return parser.parse_args(argv)


def peak_rss_kb() -> int:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_untraced(run_pass, inputs, seconds, out_dir) -> dict:
    """Whole passes while the next one is expected to end within ``seconds``."""
    from spans import NullTracer
    from workloads import Tally

    tr, tally, walls = NullTracer(), Tally(), []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(inputs, tr, tally, out_dir)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    return {"walls": walls, "ops": tally.ops, "failed": tally.failed,
            "problems": tally.problems, "peak_rss_kb": peak_rss_kb()}


@contextlib.contextmanager
def traced_substreams(tr):
    """Record a span around every ``substream`` call that dpcomm makes.

    Modules bind ``substream`` at import, so each dpcomm module's reference is
    replaced, and restored on exit; no file under ``src`` changes.
    """
    import dpcomm.rng

    original = dpcomm.rng.substream

    def traced(*args, **kwargs):
        return tr.call("rng.substream", original, *args, **kwargs)

    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("dpcomm") and getattr(m, "substream", None) is original]
    for module in modules:
        module.substream = traced
    try:
        yield
    finally:
        for module in modules:
            module.substream = original


def run_traced(workload, run_pass, inputs, seed, out_dir) -> dict:
    import probes
    from spans import NullTracer, Tracer
    from workloads import Tally

    # The probes run first, so that neither pass pays for first-call warm-up.
    tr, pass_tally, probe_tally, untraced_tally = Tracer(), Tally(), Tally(), Tally()
    tr.pass_id = "probe"
    speedups = probes.run_probes(tr, probe_tally, seed, workload, out_dir)

    def untraced_pass():
        t0 = time.perf_counter()
        run_pass(inputs, NullTracer(), untraced_tally, out_dir)
        return time.perf_counter() - t0

    # One untraced pass on each side of the traced one, so that drift and
    # warm-up do not bias the difference.
    before = untraced_pass()
    tr.pass_id = "pass"
    with traced_substreams(tr):
        t0 = time.perf_counter()
        tr.call("bench.pass", run_pass, inputs, tr, pass_tally, out_dir)
        traced_s = time.perf_counter() - t0
    untraced_s = (before + untraced_pass()) / 2.0

    tally = Tally()
    for part in (untraced_tally, pass_tally, probe_tally):
        tally.ops += part.ops
        tally.failures.update(part.failures)
        tally.problems += part.problems
    values = probes.per_layer_metrics(tr, pass_tally, tally, speedups, traced_s - untraced_s)
    units = probes.metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items() if name in values}
    missing = sorted(set(units) - set(values) - {"cli.import_s.p50", "cli.import_s.p90"})
    if missing:
        raise RuntimeError(f"traced run is missing per-layer metrics {missing}")
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    tr.write(spans_path)
    return {"metrics": metrics, "untraced_s": untraced_s, "traced_s": traced_s,
            "spans_path": spans_path, "ops": tally.ops, "failed": tally.failed,
            "problems": tally.problems}


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import dpcomm
    import_s = time.perf_counter() - t0
    src = os.path.realpath("src")
    if not os.path.realpath(dpcomm.__file__).startswith(src + os.sep):
        print(f"worker: dpcomm was imported from {dpcomm.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    out = {"ready": time.perf_counter(), "import_s": import_s}
    if args.mode == "run":
        out.update(run_untraced(run_pass, inputs, args.seconds, args.out))
    elif args.mode == "trace":
        out.update(run_traced(args.workload, run_pass, inputs, args.seed, args.out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
