"""Prime sieving by composite-tree enumeration.

All composites in (q, 2q] factor over primes <= q, so enumerating
value-bounded trees over those labels lists every composite in the
window; primes are read off as the midpoints of composite pairs at
distance 2.  The window is half-open at 2q: including the composite 2q
as a closing sentinel lets the gap scan see a prime at 2q - 1.
"""

from .codec import OVER_BOUND, eval_bounded
from .errors import DomainError, NotPrime, SizeOverBudget
from .forest_algebra import Forest, UNIT_FOREST, graft_forests, raise_forest
from .generator import DEFAULT_CAP, bounded_value_trees
from .primes import is_prime, primes_upto
from .tree_core import label_tree


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
    ascending by value."""
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    labels = range(len(primes_upto(q)))
    pairs = [(v, t) for v, t in bounded_value_trees(labels, 2 * q) if v > q]
    pairs.sort()
    # distinct trees never share a value (bijection); keep the tripwire on
    if len({v for v, _ in pairs}) != len(pairs):
        raise DomainError(f"two trees share a value in ({q}, {2 * q}]")
    return pairs


def combinatorial_sieve(q):
    """Exactly the primes in the open interval (q, 2q).

    q = 2 is special-cased: the window (2, 4] holds a single composite,
    so no gap pair exists, yet 3 is prime.
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q == 2:
        return [3]
    values = [v for v, _ in composites_in_window(q)]
    return _gap_scan(values)


def _gap_scan(values):
    out = []
    for a, b in zip(values, values[1:]):
        if b - a == 2:
            out.append(a + 1)
    return out


def literal_fixpoint_sieve(q, cap=DEFAULT_CAP):
    """Same output as combinatorial_sieve, computed through the
    grafting/raising fixpoint over successive forest generations.

    Each generation is pruned to trees evaluating <= 2q (grafting and
    raising only ever increase evaluations, so nothing in the window is
    lost); the loop stops when a generation adds no tree within bound.
    Fidelity mode for small q only.
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q == 2:
        return [3]
    limit = 2 * q
    n = len(primes_upto(q))

    def prune(forest):
        return Forest(t for t in forest
                      if eval_bounded(t, limit) is not OVER_BOUND)

    def next_generation(forest):
        acc = UNIT_FOREST
        for k in range(n):
            factor = prune(UNIT_FOREST.union(raise_forest(label_tree(k), forest)))
            if len(acc) * len(factor) > cap:
                raise SizeOverBudget(
                    f"fixpoint sieve generation exceeds cap {cap}")
            acc = prune(graft_forests(acc, factor))
        return acc

    g_old = Forest()
    g_new = next_generation(UNIT_FOREST)
    while len(g_new.difference(g_old)) > 0:
        g_old, g_new = g_new, next_generation(g_new)
    values = sorted(eval_bounded(t, limit) for t in g_new
                    if not t.is_singleton and eval_bounded(t, limit) > q)
    return _gap_scan(values)
