"""Prime sieving by composite enumeration.

All composites in (q, 2q] factor over primes <= q, and by the first
bijection each is the value of exactly one tree over those labels.  So
the sieve walks values, not trees: it marks, in a window up to 2q, every
product of prime powers over the primes <= q, depth first, and reads the
primes off as the midpoints of marked pairs at distance 2.  Each value
is marked once: a value the walk goes on from is checked at once, and
the leaves, the bulk of the marks, by one count of the flags at the end.
An exponent is itself a tree's value over the same labels, so the
exponents come from bounded_value_trees.  Trees are built, by
encode_integer, only for composites_in_window
(`sieve --show-composites`).  The gap scan runs from q to 2q: both ends
are marked (q = q^1, and the composite 2q), so it sees a prime at q + 1
or 2q - 1.

Both sieves refuse q above a fixed cap (SizeOverBudget): the window costs
2q bytes and the walk about 2q steps, and the fixpoint form grows much
faster.
"""

from bisect import bisect_right

from .codec import OVER_BOUND, _max_exponent, encode_integer, eval_bounded
from .errors import DomainError, NotPrime, SizeOverBudget
from .forest_algebra import Forest, UNIT_FOREST, graft_forests, raise_forest
from .generator import DEFAULT_CAP, bounded_value_trees
from .primes import is_prime, primes_upto
from .tree_core import label_tree

# `sieve 3999971` takes about 2 s and 44 MB peak RSS (Python 3.11, 2 vCPU)
SIEVE_CAP = 4 * 10 ** 6
# literal_fixpoint_sieve takes about 3 s at q = 211 and 19 s at q = 509
FIDELITY_CAP = 211


def eratosthenes(n):
    """Classical sieve: ascending list of primes <= n (oracle role)."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= n:
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
        p += 1
    return [i for i in range(2, n + 1) if flags[i]]


def composites_in_window(q):
    """All composites v with q < v <= 2q, each with its canonical tree,
    ascending by value.  The trees are encoded from the marked values."""
    _check_q(q, SIEVE_CAP)
    flags = _composite_flags(q)
    return [(v, encode_integer(v))
            for v in range(q + 1, 2 * q + 1) if flags[v]]


def combinatorial_sieve(q):
    """Exactly the primes in the open interval (q, 2q)."""
    _check_q(q, SIEVE_CAP)
    return _gap_midpoints(_composite_flags(q), q)


def _check_q(q, cap):
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q > cap:
        raise SizeOverBudget(f"q = {q} exceeds the sieve cap {cap}",
                             requested=q, cap=cap)


def _composite_flags(q):
    """bytearray(2q + 1) with flags[v] = 1 exactly for the v <= 2q whose
    prime factors are all <= q (the window's composites among them).

    Each value is reached once, as v times a prime power of a larger
    prime; a value reached twice would break the bijection and raises
    DomainError, at once if the walk would go on from it.
    """
    primes = primes_upto(q)
    limit = 2 * q
    # no exponent passes bits, nor has a prime factor above it
    bits = _max_exponent(limit, 2)
    exponents = sorted(e for e, _ in bounded_value_trees(
        range(bisect_right(primes, bits)), bits) if e >= 1)
    flags = bytearray(limit + 1)
    marks = 0

    def walk(v, i):
        # v times the prime powers of primes[i:], each times what follows
        nonlocal marks
        for j in range(i, len(primes)):
            p = primes[j]
            if v * p * p > limit:
                # no square of p fits, nor v * p times a larger prime: the
                # rest are the leaves v * p, checked by the count below
                leaves = primes[j:bisect_right(primes, limit // v)]
                for r in leaves:
                    flags[v * r] = 1
                marks += len(leaves)
                return
            for e in exponents:
                w = v * p ** e
                if w > limit:
                    break
                if flags[w]:
                    raise DomainError(f"the value {w} is reached twice")
                flags[w] = 1
                marks += 1
                walk(w, j + 1)

    walk(1, 0)
    # distinct marks set distinct flags, so a shortfall is a duplicate leaf
    if flags.count(1) != marks:
        raise DomainError("a leaf value is reached twice")
    return flags


def _gap_midpoints(flags, q):
    """The unflagged v with flagged neighbours v - 1 >= q and v + 1 <= 2q:
    the midpoints of marked values at distance 2.  The scan may start at
    q itself, since q = q^1 is a product over the primes <= q."""
    out = []
    v = flags.find(0, q + 1, 2 * q)
    while v != -1:
        if flags[v - 1] and flags[v + 1]:
            out.append(v)
        v = flags.find(0, v + 1, 2 * q)
    return out


def literal_fixpoint_sieve(q):
    """Same output as combinatorial_sieve, computed through the
    grafting/raising fixpoint over successive forest generations.

    Each generation is pruned to trees evaluating <= 2q (grafting and
    raising only ever increase evaluations, so nothing in the window is
    lost).  Raising and grafting are monotone, so each generation holds
    the one before it, and the loop stops at the first equal to it.
    Fidelity mode for q <= FIDELITY_CAP only.
    """
    _check_q(q, FIDELITY_CAP)
    limit = 2 * q
    n = len(primes_upto(q))

    def prune(forest):
        return Forest(t for t in forest
                      if eval_bounded(t, limit) is not OVER_BOUND)

    def next_generation(forest):
        acc = UNIT_FOREST
        for k in range(n):
            factor = prune(UNIT_FOREST.union(raise_forest(label_tree(k), forest)))
            if len(acc) * len(factor) > DEFAULT_CAP:
                raise SizeOverBudget(
                    f"fixpoint sieve generation exceeds cap {DEFAULT_CAP}")
            acc = prune(graft_forests(acc, factor))
        return acc

    g_old, g_new = Forest(), next_generation(UNIT_FOREST)
    while g_new != g_old:
        g_old, g_new = g_new, next_generation(g_new)
    flags = bytearray(limit + 1)
    for t in g_new:
        flags[eval_bounded(t, limit)] = 1
    return _gap_midpoints(flags, q)
