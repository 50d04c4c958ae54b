"""inpaintkit benchmark: one command, three workloads, every metric with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py. A
run imports inpaintkit from the checkout's src/, builds its inputs from
the seed, and runs whole passes over the five suite images, one call per
image, in a closed loop with one caller. The number of passes is fixed
per workload, round(S / pass_s) with pass_s the seed baseline's pass time
from baseline.json, so a run measures about S seconds at the baseline
and every commit is measured on the same amount of work (and the same
tail percentile). Every call's output is checked (workloads.check).

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes, requires the traced
outputs to equal the untraced ones bit for bit, adds one call under
tracemalloc for the peak-memory metrics, writes all spans to
.perfbench_out/spans-<workload>-seed<N>.json.gz and prints the per-layer
metrics. Failed calls over calls attempted (failed_frac) is the pair of
top-level fields "failed" and "attempted"; it is not a metric because it
is 0 when nothing fails.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (per-image checks, tail percentile and sample count, run
metadata). The exit code is 0 only when a result was printed.
"""

import time

START = time.perf_counter()  # set-up time counts from here: imports, suite, masks, inputs

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread per numeric library, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter; setup_s is their median
MIN_PASSES = 3  # at least 15 calls, so the tail percentile has ten samples beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baselines = json.loads((HERE / "baseline.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    return spec, baselines["workloads"][workload]


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{n} calls give no percentile with {TAIL_BEYOND} samples beyond it")
    return ordered[k], 100.0 * (k + 1) / n, n


def checked_call(ctx, image_id, base, call=w.plain_call):
    """Run and check one call, then drop its output so outputs do not add to peak RSS."""
    outcome = w.check(ctx, w.run_call(ctx, image_id, time.perf_counter, call), base)
    outcome.output = None
    return outcome


def run_pass(ctx, order, base, outcomes, call=w.plain_call):
    """One call per image in the given order; returns the summed call time."""
    done = [checked_call(ctx, image_id, base, call) for image_id in order]
    outcomes.extend(done)
    return sum(o.seconds for o in done)


def machine():
    """Run metadata: CPU, cores, library versions, thread pinning, caches."""
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "caches_per_instance": caches,
        # computed: one 512x512 float64 image; a whole-image iteration touches
        # several (iterate, previous, original, padded copy, convolve output)
        "image_mib": 512 * 512 * 8 / 2**20,
        "working_set": "computed: a whole-image iteration keeps about five image-sized arrays live, more than one core's L2 and far less than L3",
    }


def report(outcomes, base):
    """Per-image MSE and iteration counts against the seed baseline; failures."""
    images = {}
    for o in outcomes:
        seed_value = base["images"][o.image_id]
        row = images.setdefault(o.image_id, {
            "mse": o.mse, "mse_seed_value": seed_value["mse"],
            "iterations": [], "iterations_seed_value": seed_value["iterations"], "seconds": [],
        })  # fmt: skip
        row["iterations"].append(o.iterations)
        row["seconds"].append(o.seconds)
    failures = [f"{o.image_id}: {reason}" for o in outcomes for reason in o.failures]
    differing = sorted(i for i, r in images.items() if set(r["iterations"]) != {r["iterations_seed_value"]})
    return {"images": images, "failures": failures, "iterations_differ_from_seed_values": differing}


def probe_setup(args):
    """Child process: build the inputs once and print how long that took."""
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        ik = w.import_program(ROOT)
        w.setup(ik, args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - START}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload, "--seed", str(args.seed)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(args, ctx, base, passes, own_setup):
    orders = w.pass_orders(ctx.images, args.seed, passes)
    # warm-up call: lazy set-up and caches, checked but not timed into the metrics
    warm = [checked_call(ctx, orders[0][0], base)]
    outcomes = []
    for order in orders:
        run_pass(ctx, order, base, outcomes)
    setups = setup_samples(args, own_setup)
    seconds = [o.seconds for o in outcomes]
    tail_value, tail_pct, n = tail(seconds)
    by_image = {}
    for o in outcomes:
        if o.mse is not None:
            by_image.setdefault(o.image_id, o.mse)
    metrics = {
        "setup_s": statistics.median(setups),
        "images_per_s": len(seconds) / sum(seconds),
        "call_s_p50": statistics.median(seconds),
        "call_s_tail": tail_value,
        "mse_mean": statistics.fmean(by_image.values()) if by_image else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "call_s_tail": {"percentile": tail_pct, "samples": n, "beyond": TAIL_BEYOND},
        "setup_s_samples": setups,
        **report(warm + outcomes, base),
    }
    return metrics, warm + outcomes, detail


def traced(args, ctx, base, passes, tracer):
    """Alternate untraced and traced passes, then one call under tracemalloc.

    ``tracer`` already holds the set-up spans. The tracemalloc call is a
    single image because tracemalloc slows the patch solve several times.
    """
    each = max(2, math.ceil(passes / 2))
    orders = w.pass_orders(ctx.images, args.seed, 2 * each + 1)
    plain = [checked_call(ctx, orders[0][0], base)]  # warm-up, as in end_to_end
    timed, walls = [], {"untraced": [], "traced": []}
    for p, order in enumerate(orders[:-1]):
        if p % 2 == 0:
            walls["untraced"].append(run_pass(ctx, order, base, plain))
            continue
        absent = tracer.install(ctx.ik)
        try:
            walls["traced"].append(run_pass(ctx, order, base, timed, tracer.call_next))
        finally:
            tracer.uninstall()
    memory = tracing.Tracer(memory=True)
    memory.install(ctx.ik)
    tracemalloc.start()
    try:
        mem_outcomes = [checked_call(ctx, orders[-1][0], base, memory.call_next)]
    finally:
        tracemalloc.stop()
        memory.uninstall()
    first = {}
    for o in plain + timed + mem_outcomes:  # the warm-up call comes first
        if first.setdefault(o.image_id, o.fingerprint) != o.fingerprint:
            o.failures.append("output differs from the first untraced output of this image")
    metrics = tracing.layer_metrics(tracer.spans, set(range(len(timed))), memory.peaks)
    # each traced pass is compared with the untraced pass just before it, which
    # keeps slow drift in machine speed out of the ratio
    pairs = zip(walls["untraced"], walls["traced"])
    metrics["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    detail = {
        "pass_seconds": walls,
        "boundaries_absent": absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
        **report(plain + timed + mem_outcomes, base),
    }
    return metrics, plain + timed + mem_outcomes, detail


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)
    spec, base = load_spec(args.workload)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        ik = w.import_program(ROOT)
        tracer = tracing.Tracer() if args.trace else None
        ctx = w.setup(ik, args.workload, args.seed, workdir, tracer.call if tracer else w.plain_call)
        own_setup = time.perf_counter() - START
        passes = max(MIN_PASSES, round(args.seconds / base["pass_s"]))
        if tracer:
            metrics, outcomes, detail = traced(args, ctx, base, passes, tracer)
            wanted = spec["per_layer"]
        else:
            metrics, outcomes, detail = end_to_end(args, ctx, base, passes, own_setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    failed = sum(bool(o.failures) for o in outcomes)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=passes, machine=machine())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not detail["failures"],
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
