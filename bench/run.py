"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload refute-krs --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory.  A run sets
up its inputs several times, then performs whole rounds of operations until
``--seconds`` have passed (at least one round), checks every output, and
prints ``{"correct", "attempted", "failed", "metrics"}`` as its last line.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each round runs once plain and once traced, and the metrics are the
per-layer ones, derived from the traced rounds' spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Recorder, layer_metrics

SETUPS = 6
MAX_ERRORS_SHOWN = 20


def cpu_s() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _round(wl, state, r, rec):
    w0, c0 = perf_counter(), cpu_s()
    out = wl.run_round(state, r, rec)
    return perf_counter() - w0, cpu_s() - c0, out


def _closure_alloc_peak_mb(wl, state) -> float:
    """Largest traced allocation peak of ``closure`` over the workload's groups."""
    import tracemalloc

    from distchrom import permgroup

    peak = 0
    for gens in getattr(wl, "closure_inputs", lambda s: [])(state):
        tracemalloc.start()
        try:
            els = permgroup.closure(gens)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            del els
        finally:
            tracemalloc.stop()
    return peak / 2**20


def measure(wl, seed: int, seconds: float, traced: bool, trace_path=None) -> dict:
    """Set up, run whole rounds for ``seconds``, check, and return the result."""
    rec = Recorder(traced)
    setup_s, setup_spans = [], []

    def set_up():
        mark = len(rec.spans)
        t0 = perf_counter()
        state = wl.setup(seed, rec)
        setup_s.append(perf_counter() - t0)
        setup_spans.append(rec.spans[mark:])
        return state

    # Half the set-ups run before the timed rounds and half after, so a
    # short burst of load on the machine cannot move their median.
    state = set_up()
    for _ in range(SETUPS // 2 - 1):
        set_up()

    plain = Recorder(False) if traced else rec
    walls, cpus, traced_walls, round_spans, outputs = [], [], [], [], []
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        wall, cpu, out = _round(wl, state, r, plain)
        walls.append(wall)
        cpus.append(cpu)
        outputs.append(out)
        if traced:
            mark = len(rec.spans)
            wall, _, out = _round(wl, state, r, rec)
            traced_walls.append(wall)
            round_spans.extend(rec.spans[mark:])
            outputs.append(out)
        r += 1
    for _ in range(SETUPS - SETUPS // 2):
        set_up()
    peak = peak_rss_mb()  # before the checks, which import numpy and sympy

    if traced:
        overhead = (sum(traced_walls) - sum(walls)) / r
        metrics = layer_metrics(
            round_spans, r, traced_walls, setup_spans, _closure_alloc_peak_mb(wl, state), overhead
        )
        if trace_path is not None:
            rec.dump(trace_path)
    else:
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(cpus), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(rec.op_ms) if rec.op_ms else 0.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    errors = wl.check(state, outputs)
    for e in errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {wl.name}: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": plain.attempted + (rec.attempted if traced else 0),
        "failed": plain.failed + (rec.failed if traced else 0),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "distchrom" / "__init__.py").is_file():
        print(f"error: no src/distchrom under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    trace_path = None
    if args.trace:
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
