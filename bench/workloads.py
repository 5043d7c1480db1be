"""Seeded inputs, one timed pass per workload, and the checks on its outputs.

A pass runs inside a fresh worker process (see worker.py), so the
program's process-wide caches (the prime table, generator._g_cache) start
cold, as they do for every command-line invocation.  Input generation uses
only this file's own arithmetic, never primeforest, so it warms nothing.
"""

import gc
import hashlib
import io
import itertools
import math
import random
import time
import traceback

WORKLOADS = ("codec", "sieve", "forest", "stream")

CODEC_REQUESTS = 20_000
CODEC_FRACTION_SHARE = 4          # one request in four is a fraction p/q
CODEC_MAX = 10 ** 6
# Largest prime below 10^6.  Always drawn, so the prime table grows to the
# same length on every seed and its cost does not swing with the draw.
CODEC_ANCHOR = 999_983

SIEVE_REQUESTS = 17
SIEVE_LO, SIEVE_HI = 1_000, 30_000
# Always drawn: 30011 sets peak memory and 10007 is a second fixed size, so
# neither swings with the seed; 5479, the first prime above the range's
# log-midpoint, is the median request of every draw.
SIEVE_ANCHORS = (5_479, 10_007, 30_011)

FOREST_ARGV = ["forest", "--labels", "4", "--height", "2"]
FOREST_LABELS, FOREST_HEIGHT = 4, 2
FOREST_SHA256 = "554bfc6de743115430b408e59284a61b66d207e345ac8170127928e7e4234ec2"

# The stream stalls at item 11,676; see README.md.
STREAM_ITEMS = 11_000
STREAM_SHA256 = "f923d7c34fb7512c5d22ec7c2acba7929f194bfa4239c9e6cedbced51af8e4e9"
STREAM_STAGE_SIZES = (5, 2_596)   # stage 1 and stage 2 of the stream


# --- seeded inputs -----------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def _log_uniform(rng, lo, hi):
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def codec_inputs(seed):
    """(kind, num, den) requests: integers and fractions, log-uniform in
    [1, 10^6], in seeded random order.

    In random order the prime table grows in a few large steps (one per
    new largest prime factor seen), so they fall into items_per_s but not
    into op_p99_us, which then measures the codec's own slowest requests.
    In ascending order about 1,300 requests each grew the table a little,
    and op_p99_us landed among them and moved by 15-20% with the seed.
    """
    rng = random.Random(seed)
    n_frac = CODEC_REQUESTS // CODEC_FRACTION_SHARE
    requests = [("int", _log_uniform(rng, 1, CODEC_MAX), 1)
                for _ in range(CODEC_REQUESTS - n_frac - 1)]
    requests.append(("int", CODEC_ANCHOR, 1))
    for _ in range(n_frac):
        p = _log_uniform(rng, 1, CODEC_MAX)
        q = _log_uniform(rng, 1, CODEC_MAX)
        g = math.gcd(p, q)
        requests.append(("frac", p // g, q // g))
    rng.shuffle(requests)
    return requests


def sieve_inputs(seed):
    """Prime q values, one per equal-width stratum of log [LO, HI],
    largest first.

    Stratifying keeps the draw log-uniform while the anchors pin its
    median and maximum.  Largest first means the peak heap is reached on a
    fresh heap, so peak memory does not depend on the order.
    """
    rng = random.Random(seed)
    lo, hi = math.log(SIEVE_LO), math.log(SIEVE_HI)
    width = (hi - lo) / SIEVE_REQUESTS
    taken = {min(SIEVE_REQUESTS - 1, int((math.log(a) - lo) / width)): a
             for a in SIEVE_ANCHORS}
    qs = [taken.get(i) or _next_prime(int(math.exp(lo + (i + rng.random()) * width)))
          for i in range(SIEVE_REQUESTS)]
    return sorted(qs, reverse=True)


def make_inputs(workload, seed):
    if workload == "codec":
        return codec_inputs(seed)
    if workload == "sieve":
        return sieve_inputs(seed)
    return None                    # forest and stream take no seed


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


def codec_primes(requests):
    """Distinct primes dividing any numerator or denominator."""
    primes = set()
    for _, num, den in requests:
        primes |= _prime_factors(num) | _prime_factors(den)
    return sorted(primes)


def input_summary(workload, seed):
    inputs = make_inputs(workload, seed)
    if workload == "codec":
        primes = codec_primes(inputs)
        return {"requests": len(inputs),
                "fractions": sum(kind == "frac" for kind, _, _ in inputs),
                "largest_value": max(max(n, d) for _, n, d in inputs),
                "largest_prime_factor": primes[-1],
                "distinct_primes": len(primes)}
    if workload == "sieve":
        return {"requests": len(inputs), "q": sorted(inputs),
                "largest_value": 2 * max(inputs),
                "largest_prime_factor": max(inputs),
                "items": sum(inputs)}
    if workload == "forest":
        return {"requests": 1, "argv": FOREST_ARGV}
    return {"requests": STREAM_ITEMS}


# --- passes ------------------------------------------------------------
#
# Each pass takes its inputs, a tracer and a clock (a function returning
# seconds) and returns a dict: items, elapsed_s (the timed phase), intervals
# (one (start, end) clock pair per request), attempted, failed, checks
# (name -> bool), rss_mb (peak resident set at the end of the timed phase),
# error (the first traceback a request raised, or None), plus per-workload
# counts.  A request that raises counts as failed and the pass goes on.
# Checks run after the timed phase, with tracing paused.

class _HashingSink(io.RawIOBase):
    """Binary sink that keeps a sha256, a line count and a '(' count (one
    per tree vertex in S-expression text) instead of the bytes."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.lines = 0
        self.vertices = 0

    def writable(self):
        return True

    def write(self, b):
        b = bytes(b)
        self.sha.update(b)
        self.lines += b.count(b"\n")
        self.vertices += b.count(b"(")
        return len(b)


def _text_sink():
    sink = _HashingSink()
    return sink, io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")


def _rss_mb():
    """Peak resident set of this process's own address space (VmHWM).

    ru_maxrss is not used: Linux carries the parent's resident set at fork
    into the child's ru_maxrss, so it would grow with run.py's memory.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _result(items, elapsed, intervals, failed, checks, error, **extra):
    return dict(items=items, elapsed_s=elapsed, intervals=intervals,
                attempted=len(intervals), failed=failed, checks=checks,
                rss_mb=_rss_mb(), error=error, **extra)


def codec_pass(requests, tracer, clock):
    from primeforest import codec, tree_core
    intervals = []
    failed = vertices = 0
    error = None
    start = clock()
    for i, (kind, num, den) in enumerate(requests):
        tracer.request = i
        t0 = clock()
        try:
            if kind == "int":
                tree = codec.encode_integer(num)
            else:
                tree = codec.encode_rational(num, den)
            text = tree_core.to_sexpr(tree)
            value = codec.eval_rational_tree(tree_core.parse_sexpr(text))
        except Exception:
            intervals.append((t0, clock()))
            failed += 1
            error = error or traceback.format_exc()
            continue
        intervals.append((t0, clock()))
        vertices += text.count("(")
        if value.numerator * den != num * value.denominator:
            failed += 1
    elapsed = clock() - start
    return _result(len(requests), elapsed, intervals, failed, {}, error,
                   vertices=vertices)


def sieve_pass(qs, tracer, clock):
    from primeforest import cli, sieve
    intervals = []
    outputs = []
    error = None
    start = clock()
    for i, q in enumerate(qs):
        tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        # Each request starts with an empty collector, as each command-line
        # invocation does; otherwise a full collection lands in whichever
        # request the seed's earlier draws push it into.
        gc.collect()
        t0 = clock()
        try:
            code = cli.run(["sieve", str(q)], out=out, err=err)
        except Exception:
            code = None
            error = error or traceback.format_exc()
        intervals.append((t0, clock()))
        outputs.append((q, code, out.getvalue()))
    elapsed = clock() - start
    result = _result(sum(qs), elapsed, intervals, 0, {}, error)
    tracer.on = False
    failed = composites = 0
    oracle_s = 0.0
    for q, code, text in outputs:
        t0 = clock()
        primes = sieve.eratosthenes(2 * q)
        oracle_s += clock() - t0
        expected = [p for p in primes if p > q]
        composites += q - len(expected)
        if code != 0 or text.split() != [str(p) for p in expected]:
            failed += 1
    result.update(failed=failed, window_composites=composites,
                  oracle_s=oracle_s)
    return result


def forest_pass(_inputs, tracer, clock):
    from primeforest import cli, generator, tree_core
    sink, out = _text_sink()
    start = clock()
    tracer.request = 0
    error = None
    try:
        code = cli.run(FOREST_ARGV, out=out)
        out.flush()
    except Exception:
        code = None
        error = traceback.format_exc()
    end = clock()
    result = _result(sink.lines, end - start, [(start, end)], 0, {}, error,
                     vertices=sink.vertices)
    tracer.on = False
    checks = {
        "golden_sha256": sink.sha.hexdigest() == FOREST_SHA256,
        "line_count": sink.lines == generator.g_count(FOREST_LABELS,
                                                      FOREST_HEIGHT),
    }
    result.update(failed=int(code != 0 or not all(checks.values())),
                  checks=checks)
    return result


def stream_pass(_inputs, tracer, clock):
    from primeforest import rationals, tree_core
    sink, out = _text_sink()
    intervals = []
    trees = []
    start = clock()
    stream = rationals.rational_tree_stream()
    error = None
    try:
        for i in range(STREAM_ITEMS):
            tracer.request = i
            t0 = clock()
            tree = next(stream)
            out.write(tree_core.to_sexpr(tree) + "\n")
            intervals.append((t0, clock()))
            trees.append(tree)
    except Exception:
        error = traceback.format_exc()
    out.flush()
    elapsed = clock() - start
    result = _result(len(trees), elapsed, intervals, 0, {}, error,
                     vertices=sink.vertices)
    tracer.on = False
    stages = [rationals.minimal_stage(t) for t in trees]
    seen = set()
    failed = STREAM_ITEMS - len(trees)
    for i, tree in enumerate(trees):
        if tree in seen or (i and stages[i] < stages[i - 1]):
            failed += 1
        seen.add(tree)
    golden = sink.sha.hexdigest() == STREAM_SHA256
    result.update(attempted=STREAM_ITEMS,
                  failed=failed if golden else STREAM_ITEMS,
                  checks={"golden_sha256": golden})
    return result


def forest_oracle():
    """The brute-force oracle lists the golden forest: same trees, same
    canonical order.  Slow, so it runs once per run in its own worker."""
    from primeforest import generator, tree_core
    brute = generator.all_valid_trees_bruteforce(FOREST_LABELS, FOREST_HEIGHT)
    text = "".join(tree_core.to_sexpr(t) + "\n" for t in brute)
    return {"bruteforce": hashlib.sha256(text.encode()).hexdigest()
            == FOREST_SHA256}


PASSES = {"codec": codec_pass, "sieve": sieve_pass,
          "forest": forest_pass, "stream": stream_pass}


# --- cold probes for the traced run -------------------------------------
#
# Each runs in its own fresh worker, after the timed pass of that workload
# has been measured in another one.

def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def codec_probe(requests):
    from primeforest import primes
    sample = codec_primes(requests)
    _, cold = _timed(primes.prime_index_of, sample[-1])
    t0 = time.perf_counter()
    for p in sample:
        primes.prime_index_of(p)
    warm = time.perf_counter() - t0
    return {"primes.cold_extend_s": cold,
            "primes.prime_index_of.busy_s": warm,
            "primes.prime_index_of.calls": len(sample)}, True


def sieve_probe(qs):
    import tracemalloc
    from primeforest import generator, primes
    q = max(qs)
    labels = [primes.prime_index_of(p) for p in primes.primes_upto(q)]
    tracemalloc.start()
    generator.bounded_value_trees(labels, 2 * q)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"generator.bounded_value_trees.peak_mb": peak / 2 ** 20}, True


def forest_probe(_inputs):
    import tracemalloc
    from primeforest import forest_algebra, generator, tree_core
    n, h = FOREST_LABELS, FOREST_HEIGHT
    tracemalloc.start()
    full = generator.g_forest(n, h)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # Replay the last height step of g_forest(n, h) from public operators.
    below = generator.g_forest(n, h - 1)
    unit = forest_algebra.Forest([tree_core.singleton()])
    grown = unit
    raise_s = graft_s = 0.0
    for k in range(n):
        raised, dt = _timed(forest_algebra.raise_forest,
                            tree_core.label_tree(k), below)
        raise_s += dt
        grown, dt = _timed(forest_algebra.graft_forests, grown,
                           unit.union(raised))
        graft_s += dt
    trees = list(full)
    random.Random(0).shuffle(trees)
    rebuilt, forest_s = _timed(forest_algebra.Forest, trees)
    ok = grown == full and rebuilt.trees == full.trees
    return {"generator.g_forest.peak_mb": peak / 2 ** 20,
            "forest_algebra.raise_forest.busy_s": raise_s,
            "forest_algebra.graft_forests.busy_s": graft_s,
            "forest_algebra.Forest.busy_s": forest_s}, ok


def stream_probe(_inputs):
    from primeforest import rationals
    s1, s2 = STREAM_STAGE_SIZES
    stage2, s2_s = _timed(lambda: list(rationals.stage_trees(2)))
    prefix, s3_s = _timed(lambda: list(itertools.islice(
        rationals.stage_trees(3), STREAM_ITEMS - s1 - s2)))
    ok = len(stage2) == s2 and len(prefix) == STREAM_ITEMS - s1 - s2
    return {"rationals.stage_trees.s2.busy_s": s2_s,
            "rationals.stage_trees.s3.busy_s": s3_s}, ok


# Cold single-layer measurements; each returns (metrics, checks passed).
PROBES = {"codec": codec_probe, "sieve": sieve_probe,
          "forest": forest_probe, "stream": stream_probe}

