"""fastssc benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload decode-1024-b1 --seed 0 --seconds 10 --trace 0

--trace 0 measures the untraced program and reports the end-to-end
metrics.  --trace 1 makes the same untraced measurement, then runs a fixed
amount of traced work (one code set-up plus the workload's traced calls)
with every public layer function wrapped, and reports the per-layer
metrics.  Human-readable lines and one "record" line with the environment,
the program census and the check results come first; the last line is the
result object.  Exit status: 0 when every check passed, 1 when an output
check failed (the result is still printed), 2 when fastssc cannot be
imported from this checkout's src/.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
# Pin numpy's BLAS/OpenMP pools to one thread so a run measures one core;
# these must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# end-to-end timings come from the quietest WINDOW_S window of the run (see quietest)
WINDOW_S = 1.0
SETUP_EVERY_S = 0.5


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0, help="input seed (default 0, the golden seed)")
    ap.add_argument("--seconds", type=float, default=10.0, help="untraced measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_fastssc():
    """Import fastssc from ROOT/src and nowhere else; None when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fastssc
    except ImportError as exc:
        print(f"perfbench: cannot import fastssc from {src}: {exc}", file=sys.stderr)
        return None
    if Path(fastssc.__file__).resolve().parent != src / "fastssc":
        print(f"perfbench: fastssc came from {fastssc.__file__}, not {src}", file=sys.stderr)
        return None
    return fastssc


def git_commit():
    """The checkout's commit, read from .git without running git; 'unknown' outside a repo."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def census(program, cycles, op_names):
    ops = {name: 0 for name in op_names.values()}
    for ins in program.instructions:
        ops[op_names[ins.op]] += 1
    return {"instructions": len(program.instructions), "modeled_cycles": cycles, "op_count": ops}


def measure(wl, seconds, build):
    """Untraced timed calls for `seconds`, with a timed build() every SETUP_EVERY_S.

    Returns (calls, setups, failed frames): calls and setups are lists of
    (start offset in seconds, wall seconds).
    """
    gc.collect()
    calls, setups, failed = [], [], 0
    t_start = time.perf_counter()
    next_setup = 0.0
    while True:
        now = time.perf_counter() - t_start
        if now >= next_setup:
            t0 = time.perf_counter()
            build()
            setups.append((now, time.perf_counter() - t0))
            next_setup += SETUP_EVERY_S
        wall, bad = wl.run_once()
        calls.append((now, wall))
        failed += bad
        if time.perf_counter() - t_start >= seconds:
            return calls, setups, failed


def quietest(samples):
    """Median of the WINDOW_S window of the run whose median is lowest.

    Other tenants of the host slow every call by up to ~1.7x for seconds at
    a time, so a whole-run median swings with their load; the quietest
    window's median is the program's own time, and it is what the
    end-to-end metrics report.
    """
    windows = {}
    for start, wall in samples:
        windows.setdefault(int(start // WINDOW_S), []).append(wall)
    return min(statistics.median(w) for w in windows.values())


def traced_run(wl, workloads, spans, run_id):
    """Fixed traced work: one code set-up plus wl.traced_calls calls.

    Each traced call is paired with an untraced call just before it, so the
    tracing overhead compares calls made under the same host load.  Returns
    (tracer, traced set-up wall, traced walls, untraced walls, failed frames).
    """
    tracer = spans.Tracer(run_id)
    traced, untraced, failed = [], [], 0
    with tracer.installed(workloads.TRACE_SITES):
        t0 = time.perf_counter()
        workloads.build_code(wl.n_bits, wl.k)
        setup_wall = time.perf_counter() - t0
    for _ in range(wl.traced_calls):
        wall, bad = wl.run_once()
        untraced.append(wall)
        failed += bad
        with tracer.installed(workloads.TRACE_SITES):
            wall, bad = wl.run_once()
        traced.append(wall)
        failed += bad
    return tracer, setup_wall, traced, untraced, failed


def layer_metrics(tracer, setup_wall, traced_walls, untraced_walls, program_census, kernels):
    per, root_s = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return per.get(name, zero)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("polar.construct_s", span("polar.construct")["total_s"], "s")
    for fn in ("build_tree", "compile_tree", "estimate_latency"):
        put(f"compiler.{fn}_s", span(f"compiler.{fn}")["total_s"], "s")
    put("compiler.instructions", program_census["instructions"], "count")
    put("compiler.modeled_cycles", program_census["modeled_cycles"], "count")
    for op, count in program_census["op_count"].items():
        put(f"compiler.op_count.{op}", count, "count")
    enc = span("polar.encode_systematic")
    put("polar.encode_systematic_s", enc["total_s"], "s")
    put("polar.encode_systematic_calls", enc["calls"], "count")
    put("simulate.awgn_bpsk_llr_s", span("simulate.awgn_bpsk_llr")["total_s"], "s")
    put("simulate.self_s", span("simulate.run_simulation")["self_s"], "s")
    put("quantize.quantize_channel_s", span("quantize.quantize_channel")["total_s"], "s")
    ex = span("engine.execute")
    put("engine.execute_s", ex["total_s"], "s")
    put("engine.execute_calls", ex["calls"], "count")
    put("engine.self_s", ex["self_s"], "s")
    instr_calls = ex["calls"] * program_census["instructions"]
    put("engine.self_us_per_instr", 1e6 * ex["self_s"] / instr_calls if instr_calls else 0.0,
        "us")
    for k in kernels:
        put(f"kernels.{k}_s", span(f"kernels.{k}")["total_s"], "s")
        put(f"kernels.{k}_calls", span(f"kernels.{k}")["calls"], "count")
    fg_s = span("kernels.f_op")["total_s"] + span("kernels.g_op")["total_s"]
    fg_bytes = tracer.bytes["kernels.f_op"] + tracer.bytes["kernels.g_op"]
    put("kernels.fg_gbps_computed", fg_bytes / fg_s / 1e9 if fg_s else 0.0, "GB/s")
    put("trace.overhead_frac",
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1, "fraction")
    put("trace.coverage_frac", root_s / (setup_wall + sum(traced_walls)), "fraction")
    return m


def check_error_counts(points, name, seed, report):
    """Compare per-point [frames, bit errors, frame errors] with golden.json.

    At the golden seed the counts must match exactly.  At every seed each
    point's frame errors must stay under a ceiling six Poisson deviations
    above the golden count, which catches a decoder that returns valid but
    wrong codewords where no oracle applies.
    """
    golden = json.loads((HERE / "golden.json").read_text())
    want = golden["workloads"][name]["points"]
    ceiling = [g_fe + 6 * math.sqrt(g_fe) + 6 for _, _, g_fe in want]
    under = len(points) == len(want) and all(
        frames == g[0] and fe <= c for (frames, _, fe), g, c in zip(points, want, ceiling))
    exact = points == want if seed == golden["seed"] else None
    report["golden"] = {"seed": golden["seed"], "exact": exact, "under_ceiling": under,
                        "frame_error_ceiling": ceiling}
    return under and exact is not False


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if import_fastssc() is None:
        return 2
    import numpy as np

    import spans
    import workloads
    from fastssc.compiler import OP_NAMES

    args = parse_args(argv, list(workloads.WORKLOADS))
    name = args.workload
    wl = workloads.WORKLOADS[name]

    def build():
        return workloads.build_code(wl.n_bits, wl.k)

    spec, program, cycles = build()
    program_census = census(program, cycles, OP_NAMES)
    wl.prepare(spec, program, args.seed)
    calls, setups, failed = measure(wl, args.seconds, build)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [wall for _, wall in calls]
    call_s = quietest(calls)
    n_calls = len(calls)

    if args.trace:
        run_id = f"{name}-seed{args.seed}-pid{os.getpid()}-{time.time_ns()}"
        tracer, setup_wall, traced_walls, paired_walls, traced_failed = traced_run(
            wl, workloads, spans, run_id)
        failed += traced_failed
        n_calls += len(traced_walls) + len(paired_walls)

    extra_failed, report, oracle_ok = wl.verify(n_calls)
    failed += extra_failed
    attempted = n_calls * wl.frames_per_call

    golden_ok = check_error_counts(wl.points, name, args.seed, report)
    correct = failed == 0 and oracle_ok and golden_ok

    p99 = statistics.quantiles(walls, n=100, method="inclusive")[98] if len(walls) > 1 else walls[0]
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(np),
        "census": program_census,
        "calls": {
            "samples": len(walls),
            "frames_per_call": wl.frames_per_call,
            "latency_ms_p50_quietest_window": 1e3 * call_s,
            "latency_ms_p50_run": 1e3 * statistics.median(walls),
            "latency_ms_p99_run": 1e3 * p99,
            "setup_samples": len(setups),
        },
        "engine_us_per_instr": None,
        "failed_frac": failed / attempted,
        "checks": report,
    }
    if args.trace:
        metrics = layer_metrics(tracer, setup_wall, traced_walls, paired_walls, program_census,
                                workloads.KERNELS)
        record["engine_us_per_instr"] = {
            "self": metrics["engine.self_us_per_instr"]["value"],
            "with_kernels": (1e6 * metrics["engine.execute_s"]["value"]
                             / max(1, metrics["engine.execute_calls"]["value"])
                             / program_census["instructions"]),
        }
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"spans-{name}.json"
        tracer.dump(dump)
        record["spans"] = {"run_id": run_id, "count": len(tracer.start),
                           "file": str(dump.relative_to(ROOT))}
    else:
        metrics = {
            "info_mbps": {"value": wl.k * wl.frames_per_call / call_s / 1e6, "unit": "Mb/s"},
            "latency_ms_p50": {"value": 1e3 * call_s, "unit": "ms"},
            "setup_s": {"value": quietest(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if isinstance(wl, workloads.Decode):
            record["engine_us_per_instr"] = {
                "with_kernels": 1e6 * call_s / program_census["instructions"]}

    for key, v in metrics.items():
        print(f"{key:36s} {v['value']:.6g} {v['unit']}")
    for key, v in record["calls"].items():
        print(f"{key:36s} {v:.6g}")
    print(f"{'failed_frac':36s} {failed}/{attempted}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
