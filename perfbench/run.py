"""qheine benchmark: one workload, timed end to end, every output checked.

Usage, from the root of a qheine checkout:

    python3 perfbench/run.py --workload {sweep,curves,calls} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, from spans the
benchmark records around qheine's public functions (see spans.py).
See perfbench/README.md for the workloads, metrics and checks.
"""
from __future__ import annotations

import argparse
import array
import concurrent.futures
import importlib
import json
import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
# calls handed to a pool worker at a time: small enough to balance the
# slow calls across workers, large enough to amortise the hand-off
CALLS_PER_TASK = 4


def _bind_qheine():
    """Put the checkout's src/ first on sys.path and import qheine from it."""
    src = ROOT / "src"
    if not (src / "qheine" / "__init__.py").is_file():
        raise SystemExit(f"qheine sources not found under {src}")
    sys.path.insert(0, str(src))
    qheine = importlib.import_module("qheine")
    if pathlib.Path(qheine.__file__).resolve().parent != (src / "qheine").resolve():
        raise SystemExit(f"imported qheine from {qheine.__file__}, not from {src}")
    import workloads

    workloads.bind()


def _warm_up(name, seed, tmp):
    """Run the first operations once, so lazy imports and caches are filled."""
    import numpy as np
    import workloads

    rng = np.random.default_rng([seed, 1])
    if name == "sweep":
        ranges = workloads.sweep_round(rng)
        grid = workloads.scanner.GridSpec(
            **{k: workloads.scanner.Range(*ranges[k], 2) for k in "abcq"})
        workloads.scanner.records_to_csv(workloads.scanner.scan(grid, threads=1))
    elif name == "curves":
        op = workloads.curves_round(rng)[0]
        workloads.curve_op(op, str(tmp / "warm.csv"))
    else:
        for op in workloads.calls_round(rng):
            workloads.call_op(op)


def setup(name, seed, tmp):
    """Import qheine, make the first round's inputs and warm up; seconds taken.

    numpy, mpmath and the benchmark's own modules are first imported here, so
    their import counts too; measure() draws the same first round again."""
    start = time.perf_counter()
    _bind_qheine()
    import numpy as np
    import workloads

    workloads.make_round(name, np.random.default_rng(seed))
    _warm_up(name, seed, tmp)
    return time.perf_counter() - start


def _setup_probe(name, seed):
    """Set-up time of a fresh interpreter, as measured by `setup`."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# pool workers for curves and calls (sweep uses scanner.scan's own pool)

def _pool_calls(ops):
    import workloads

    return [workloads.call_op(op) for op in ops]


def _pool_curves(items):
    import workloads

    return [workloads.curve_op(op, path)[0] for op, path in items]


def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# one round per workload: pool phase, then serial phase, then checks

class Round:
    """Timings and failure counts of one round.

    Each operation runs twice, once in the pool phase and once in the
    serial one; the pool run counts as failed when the serial run failed
    or the two outputs differ.  Only counts are kept, so memory does not
    grow with throughput."""

    def __init__(self):
        self.serial_s = self.pool_s = 0.0
        self.op_times = array.array("d")
        self.ops = self.failed = self.curve_bytes = 0
        self.unexpected = []

    def add(self, what, ok, same, expected=False):
        self.ops += 1
        self.failed += (not ok) + (not (ok and same))
        if not same or (not ok and not expected):
            self.unexpected.append(f"(serial ok: {ok}, pool agrees: {same}) {what}")


def run_sweep(ranges, round_no, workers, tracer, tmp):
    import workloads

    scanner = workloads.scanner
    grid = workloads.make_grid(ranges)
    rnd = Round()
    start = time.perf_counter()
    pool_text = scanner.records_to_csv(scanner.scan(grid, threads=workers))
    rnd.pool_s = time.perf_counter() - start

    point = scanner.scan_point
    times = rnd.op_times

    def timed_point(*args, **kwargs):
        t0 = time.perf_counter()
        record = point(*args, **kwargs)
        times.append(time.perf_counter() - t0)
        return record

    scanner.scan_point = timed_point
    tracer.active = True
    try:
        start = time.perf_counter()
        text = scanner.records_to_csv(scanner.scan(grid, threads=1))
        rnd.serial_s = time.perf_counter() - start
    finally:
        tracer.active = False
        scanner.scan_point = point

    lines = text.split("\n")[1:-1]
    pool_lines = pool_text.split("\n")[1:-1]
    pool_lines += [None] * (len(lines) - len(pool_lines))
    for line, pool_line, ok in zip(lines, pool_lines, workloads.check_sweep_csv(ranges, text)):
        rnd.add(line, ok, line == pool_line)
    return rnd


def run_curves(ops, round_no, pool, tracer, tmp):
    import workloads

    rnd = Round()
    pool_paths = [str(tmp / f"pool-{i}.csv") for i in range(len(ops))]
    start = time.perf_counter()
    pool_rc = [rc for part in pool.map(_pool_curves, _chunks(list(zip(ops, pool_paths)), 1))
               for rc in part]
    rnd.pool_s = time.perf_counter() - start

    paths = [str(tmp / f"serial-{i}.csv") for i in range(len(ops))]
    codes = []
    tracer.active = True
    try:
        for op, path in zip(ops, paths):
            t0 = time.perf_counter()
            codes.append(workloads.curve_op(op, path)[0])
            rnd.op_times.append(time.perf_counter() - t0)
    finally:
        tracer.active = False
    rnd.serial_s = sum(rnd.op_times)

    fault = workloads.KEPT_FAULTS["curve_fault"]
    mp_pending = round_no < workloads.MP_ROUNDS
    for op, rc, path, prc, ppath in zip(ops, codes, paths, pool_rc, pool_paths):
        text = pathlib.Path(path).read_text() if rc == 0 else ""
        ptext = pathlib.Path(ppath).read_text() if prc == 0 else ""
        rnd.curve_bytes += len(text.encode())
        expected = op == fault
        use_mp = mp_pending and not expected
        mp_pending &= not use_mp
        rnd.add(op, workloads.check_curve(op, rc, text, use_mp),
                prc == rc and ptext == text, expected)
        for p in (path, ppath):
            if os.path.exists(p):
                os.remove(p)
    return rnd


def run_calls(ops, round_no, pool, tracer, tmp):
    import workloads

    rnd = Round()
    start = time.perf_counter()
    pool_out = [out for part in pool.map(_pool_calls, _chunks(ops, CALLS_PER_TASK))
                for out in part]
    rnd.pool_s = time.perf_counter() - start

    outputs = []
    tracer.active = True
    try:
        for op in ops:
            t0 = time.perf_counter()
            outputs.append(workloads.call_op(op))
            rnd.op_times.append(time.perf_counter() - t0)
    finally:
        tracer.active = False
    rnd.serial_s = sum(rnd.op_times)

    faults = list(workloads.KEPT_FAULTS.values())
    mp_checked = set() if round_no < workloads.MP_ROUNDS else None
    for op, out, pout in zip(ops, outputs, pool_out):
        expected = op in faults
        kind = workloads.call_kind(op)
        use_mp = mp_checked is not None and kind not in mp_checked and not expected
        if use_mp:
            mp_checked.add(kind)
        rnd.add(op, workloads.check_call(op, out, use_mp), out == pout, expected)
    return rnd


# ---------------------------------------------------------------------------

def measure(name, seed, seconds, trace, tmp):
    import numpy as np
    import workloads
    from spans import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    workers = len(os.sched_getaffinity(0))
    rng = np.random.default_rng(seed)
    rounds = []
    busy = 0.0
    pool = None
    if name != "sweep":
        # forked, like scanner.scan's pool: a spawn context would start
        # multiprocessing's resource tracker, which outlives the run
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"))
    try:
        run = {"sweep": run_sweep, "curves": run_curves, "calls": run_calls}[name]
        while busy < seconds:
            ops = workloads.make_round(name, rng)
            rnd = run(ops, len(rounds), pool if pool else workers, tracer, tmp)
            rounds.append(rnd)
            busy += rnd.serial_s + rnd.pool_s
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return rounds, tracer, workers


def summarise(rounds):
    """(correct, attempted, failed); unexpected failures are named on stderr."""
    unexpected = [what for rnd in rounds for what in rnd.unexpected]
    for what in unexpected:
        print(f"unexpected failure {what}", file=sys.stderr)
    return (not unexpected, 2 * sum(r.ops for r in rounds), sum(r.failed for r in rounds))


def rates(rounds):
    """Operations per second over the whole run, in one process and pooled.

    The machine's speed drifts by up to 2x over tens of seconds, so the
    whole run's totals are steadier than any per-round statistic."""
    ops = sum(r.ops for r in rounds)
    return (ops / sum(r.serial_s for r in rounds),
            ops / sum(r.pool_s for r in rounds))


def end_to_end(rounds, setup_s):
    import numpy as np

    p50, p95 = np.percentile(np.concatenate([r.op_times for r in rounds]), [50, 95])
    serial, pooled = rates(rounds)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (serial, "op/s"),
        "op_p50_ms": (1e3 * float(p50), "ms"),
        "op_p95_ms": (1e3 * float(p95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s_pool": (pooled, "op/s"),
    }


def per_layer(rounds, tracer, workers):
    ops = sum(r.ops for r in rounds)
    serial, pooled = rates(rounds)
    metrics = tracer.metrics(ops)
    metrics["scanner.pool_efficiency"] = (pooled / (workers * serial), "ratio")
    metrics["cli.curve_bytes"] = (sum(r.curve_bytes for r in rounds) / ops, "B")
    metrics["trace.ops_per_s"] = (serial, "op/s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "curves", "calls"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_s = [setup(args.workload, args.seed, tmp)]
        if args.setup_probe:
            print(repr(setup_s[0]))
            return 0
        # fresh-interpreter set-ups before and after the measurement, so the
        # median spans the run like the other metrics; not needed when tracing
        probes = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setup_s += [_setup_probe(args.workload, args.seed) for _ in range(probes)]
        rounds, tracer, workers = measure(args.workload, args.seed, args.seconds,
                                          args.trace, tmp)
        setup_s += [_setup_probe(args.workload, args.seed) for _ in range(probes)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct, attempted, failed = summarise(rounds)
    metrics = per_layer(rounds, tracer, workers) if args.trace else end_to_end(rounds, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
