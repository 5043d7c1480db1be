"""One benchmark pass in a fresh process; prints one JSON line.

    python3 bench/worker.py <workload> <seed> <mode> <spawned>

mode is one of:
  setup   set up and exit (measures setup_s only)
  pass    one untraced timed pass, with host-speed sampling (hostspeed.py)
  oracle  the forest workload's brute-force oracle check only
  traced  one timed pass with spans; writes bench/out/spans-<workload>.csv
  probe   cold single-layer probes (tracemalloc runs only here)

<spawned> is time.monotonic() in the parent just before it started this
process; setup_s runs from then until the inputs are generated.
"""

import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(workload, seed, mode, spawned):
    src = ROOT / "src"
    if not (src / "primeforest" / "__init__.py").is_file():
        sys.exit(f"worker: no primeforest sources under {src}")
    sys.path.insert(0, str(src))
    import primeforest  # noqa: F401  (import time is part of setup_s)

    import hostspeed
    import tracing
    import workloads

    inputs = workloads.make_inputs(workload, int(seed))
    setup_s = time.monotonic() - float(spawned)
    result = {"setup_s": setup_s, "setup_kernel_s": hostspeed.kernel_time()}
    if mode == "pass":
        with hostspeed.Sampler() as sampler:
            result.update(workloads.PASSES[workload](
                inputs, tracing.NullTracer(), sampler.now))
        intervals = result.pop("intervals")
        result.update(latencies_s=[b - a for a, b in intervals],
                      scaled_s=sampler.scale(intervals),
                      kernel_s=statistics.median(sampler.kernel_s),
                      samples=len(sampler.kernel_s))
    elif mode == "oracle":
        result.update(checks=workloads.forest_oracle())
    elif mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        result.update(workloads.PASSES[workload](inputs, tracer,
                                                 time.perf_counter))
        del result["intervals"]
        result.update(trace_summary(tracer))
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload}.csv")
    elif mode == "probe":
        metrics, ok = workloads.PROBES[workload](inputs)
        result.update(probe=metrics, checks={"probe": ok})
    elif mode != "setup":
        sys.exit(f"worker: unknown mode {mode!r}")
    print(json.dumps(result))


def trace_summary(tracer):
    calls = tracer.calls()
    busy = {name: tracer.busy(name) for name in calls}
    busy["codec.encode"] = tracer.busy("codec.encode_integer",
                                       "codec.encode_rational")
    busy["codec.eval"] = tracer.busy("codec.eval_rational_tree",
                                     "codec.eval_integer_tree")
    return {"spans": len(tracer), "busy_s": busy, "calls": calls,
            "self_s": tracer.self_times(), "counts": tracer.counts}


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
