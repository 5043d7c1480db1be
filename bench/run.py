"""primeforest benchmark: one workload per invocation, closed loop, one
client, each pass in a fresh worker process, one worker at a time.

    python3 bench/run.py --workload {codec,sieve,forest,stream}
                         --seed N --seconds S --trace {0,1}

--trace 0 runs timed passes until S seconds have passed (at least one),
then prints the end-to-end metrics.  --trace 1 ignores S and, for every
workload, runs one untraced pass, one traced pass and one cold probe, then
prints the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object.  A run record goes to
bench/out/<workload>-seed<N>-trace<T>.json.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402  (benchmark-local modules, no primeforest import)
import workloads  # noqa: E402

SETUP_ONLY_WORKERS = 9
WORKER_TIMEOUT_S = 120

# Layers with more than a few milliseconds of self time, per workload, in
# the traced pass at seed.  cli's self time is reported as cli.overhead_s;
# generator's on sieve equals bounded_value_trees.busy_s.
SELF_LAYERS = {
    "codec": ("codec", "primes", "tree_core"),
    "sieve": ("primes", "sieve"),
    "forest": ("forest_algebra", "tree_core"),
    "stream": ("rationals", "tree_core"),
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, mode):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"    # same dict and set layouts in every pass
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode,
         repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload}/{mode} worker exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def calibrate():
    """Median seconds of the reference kernel, timed before and after the
    run so that the record shows host drift.  Metrics are scaled by the
    samples taken during each pass, never by this."""
    return hostspeed.kernel_time(100)


def percentile(samples, pct):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def figures(pass_, key):
    """items/s, p50 and p99 in us of one pass, from its per-request seconds
    under `key`: latencies_s as measured, scaled_s at reference host speed
    (hostspeed.py)."""
    us = [t * 1e6 for t in pass_[key]]
    return (pass_["items"] / (sum(us) / 1e6), percentile(us, 50),
            percentile(us, 99))


def end_to_end(passes, setups):
    """The run's metrics: medians over its passes and over its workers'
    set-up times, all scaled to reference host speed."""
    items_per_s, p50, p99 = (statistics.median(f)
                             for f in zip(*(p["figures"] for p in passes)))
    return {
        "items_per_s": (items_per_s, "1/s"),
        "op_p50_us": (p50, "us"),
        "op_p99_us": (p99, "us"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def layer_metrics(workload, plain, traced, probe):
    """Per-layer metrics of one workload, named <layer>.<what>."""
    busy, calls, counts = traced["busy_s"], traced["calls"], traced["counts"]
    self_s = traced["self_s"]
    m = {}
    s, n = "s", "count"
    if workload == "codec":
        m["primes.cold_extend_s"] = (probe["primes.cold_extend_s"], s)
        m["primes.prime_index_of.busy_s"] = (
            probe["primes.prime_index_of.busy_s"], s)
        m["primes.prime_index_of.calls"] = (
            probe["primes.prime_index_of.calls"], n)
        m["codec.factor.busy_s"] = (busy["codec.factor"], s)
        m["codec.factor.calls"] = (calls["codec.factor"], n)
        m["codec.encode.busy_s"] = (busy["codec.encode"], s)
        m["codec.eval.busy_s"] = (busy["codec.eval"], s)
        m["tree_core.parse_sexpr.busy_s"] = (busy["tree_core.parse_sexpr"], s)
    if workload == "sieve":
        pairs = counts["generator.bounded_value_trees"]
        m["generator.bounded_value_trees.busy_s"] = (
            busy["generator.bounded_value_trees"], s)
        m["generator.bounded_value_trees.pairs"] = (pairs, n)
        m["generator.bounded_value_trees.peak_mb"] = (
            probe["generator.bounded_value_trees.peak_mb"], "MB")
        m["sieve.combinatorial_sieve.busy_s"] = (
            busy["sieve.combinatorial_sieve"], s)
        m["sieve.window_composites"] = (traced["window_composites"], n)
        m["sieve.window_yield"] = (traced["window_composites"] / pairs,
                                   "ratio")
        m["sieve.eratosthenes.busy_s"] = (traced["oracle_s"], s)
    if workload in ("forest", "stream"):
        m["generator.g_forest.busy_s"] = (busy["generator.g_forest"], s)
    if workload == "forest":
        m["generator.g_forest.peak_mb"] = (
            probe["generator.g_forest.peak_mb"], "MB")
        for name in ("forest_algebra.raise_forest.busy_s",
                     "forest_algebra.graft_forests.busy_s",
                     "forest_algebra.Forest.busy_s"):
            m[name] = (probe[name], s)
    if workload == "stream":
        for name in ("rationals.stage_trees.s2.busy_s",
                     "rationals.stage_trees.s3.busy_s"):
            m[name] = (probe[name], s)
        m["rationals.minimal_stage.busy_s"] = (
            busy["rationals.minimal_stage"], s)
    if workload != "sieve":
        m["tree_core.to_sexpr.busy_s"] = (busy["tree_core.to_sexpr"], s)
        m["tree_core.nodes"] = (traced["vertices"], n)
    if workload in ("sieve", "forest"):
        m["cli.run.busy_s"] = (busy["cli.run"], s)
        m["cli.overhead_s"] = (self_s["cli"], s)
    for layer in SELF_LAYERS[workload]:
        m[f"{layer}.self_s"] = (self_s[layer], s)
    m["trace.overhead"] = (
        (plain["items"] / plain["elapsed_s"])
        / (traced["items"] / traced["elapsed_s"]), "ratio")
    return m


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args):
    """Runs the workers; returns (metrics, passes, setups, note lines)."""
    if args.trace:
        metrics, passes, notes = {}, [], []
        for w in workloads.WORKLOADS:
            plain = run_worker(w, args.seed, "pass")
            traced = run_worker(w, args.seed, "traced")
            probe = run_worker(w, args.seed, "probe")
            passes += [plain, traced, probe]
            for name, value in layer_metrics(w, plain, traced,
                                             probe["probe"]).items():
                metrics[f"{w}.{name}"] = value
            notes.append(
                f"{w}: {plain['items'] / plain['elapsed_s']:.6g} items/s "
                f"untraced, {traced['items'] / traced['elapsed_s']:.6g} "
                f"traced (one pass each); {traced['spans']} spans in "
                f"bench/out/spans-{w}.csv")
        return metrics, passes, [p["setup_s"] for p in passes], notes
    workers = [run_worker(args.workload, args.seed, "setup")
               for _ in range(SETUP_ONLY_WORKERS)]
    passes = []
    deadline = time.monotonic() + args.seconds
    while not passes or time.monotonic() < deadline:
        p = run_worker(args.workload, args.seed, "pass")
        p.update(figures=figures(p, "scaled_s"),
                 unscaled_figures=figures(p, "latencies_s"))
        passes.append(p)
    workers += passes
    setups = [hostspeed.scaled(w["setup_s"], w["setup_kernel_s"])
              for w in workers]
    metrics = end_to_end(passes, setups)
    raw = [statistics.median(f)
           for f in zip(*(p["unscaled_figures"] for p in passes))]
    kernel = statistics.median(p["kernel_s"] for p in passes)
    notes = [f"{len(passes)} passes of {passes[0]['attempted']} requests, "
             f"{len(setups)} setups",
             f"unscaled: {raw[0]:.6g} items/s, p50 {raw[1]:.6g} us, "
             f"p99 {raw[2]:.6g} us, setup "
             f"{statistics.median(w['setup_s'] for w in workers):.4g} s; "
             f"reference kernel {kernel * 1e6:.1f} us in passes "
             f"(scale {hostspeed.REFERENCE_S / kernel:.3f})"]
    if args.workload == "forest":
        passes.append(run_worker(args.workload, args.seed, "oracle"))
    return metrics, passes, setups, notes


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "primeforest" / "__init__.py").is_file():
        print(f"bench: no primeforest sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cal_before = calibrate()
    try:
        metrics, passes, setups, notes = measure(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    cal_after = calibrate()

    errors = [p["error"] for p in passes if p.get("error")]
    if errors:
        print(f"bench: a request raised:\n{errors[0]}", file=sys.stderr)
    counted = [p for p in passes if "attempted" in p]
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    correct = failed == 0 and all(all(p["checks"].values()) for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "calibration_s": {"before": cal_before, "after": cal_after},
        "inputs": {w: workloads.input_summary(w, args.seed)
                   for w in (workloads.WORKLOADS if args.trace
                             else [args.workload])},
        "setups_s": setups,
        "passes": [{k: v for k, v in p.items()
                    if k not in ("latencies_s", "scaled_s")}
                   for p in passes],
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  nproc {record['nproc']}  "
          f"git {record['git_sha'][:12]}")
    for line in notes:
        print(line)
    print(f"calibration (reference kernel) {cal_before * 1e6:.1f} us "
          f"before, {cal_after * 1e6:.1f} us after")
    print(f"fail_ratio {failed / max(attempted, 1):g} "
          f"({failed} of {attempted} requests)")
    for name, (value, unit) in metrics.items():
        print(f"{name:52} {value:14.6g} {unit}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
