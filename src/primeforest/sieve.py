"""Prime sieving by composite enumeration.

All composites in (q, 2q] factor over primes <= q, and by the first
bijection each is the value of exactly one tree over those labels.  So
the sieve builds values, not trees: it marks, in a window up to 2q, every
product of prime powers over the primes <= q, and reads the primes off
as the midpoints of marked pairs at distance 2.  The products are
grafted one label at a time, as generator's graft-and-raise step grafts
trees for literal_fixpoint_sieve, but over the window's flags: each
label writes the products before it into the strided slices of its
powers.  Each value is marked once, which one count of the flags checks
at the end.  The primes above isqrt(2q) take exponent 1 only and go in
together by multiplier rows: one slice of step m for each small m, in
ascending m.  An exponent is itself a tree's value over the same labels,
so the exponents come from bounded_value_trees.  Trees are built, by
encode_integer, only for composites_in_window (`sieve --show-composites`).
The gap scan runs from q to 2q: both ends are marked (q = q^1, and the
composite 2q), so it sees a prime at q + 1 or 2q - 1.

Both sieves refuse q above a fixed cap (SizeOverBudget) before testing
that q is prime: the window costs 2q bytes, the fixpoint form a tree per
value per generation, and Miller-Rabin on a huge q is slow or undecided.
"""

from bisect import bisect_right
from math import isqrt

from .codec import _approx, _max_exponent, encode_integer
from .errors import DomainError, NotPrime, SizeOverBudget, as_integer
from .generator import _graft_generation, bounded_value_trees
from .primes import is_prime, primes_upto
from .tree_core import SINGLETON, Label

# `sieve 3999971` takes about 0.4 s and 45 MB peak RSS (Python 3.11, 2 vCPU)
SIEVE_CAP = 4 * 10 ** 6
# `sieve 39989 --fidelity` takes 1.2-2 s and 63 MB peak RSS (same host)
FIDELITY_CAP = 39989
# Multipliers of the primes above isqrt(2q) written as rows, the rest per
# prime.  _composite_flags at q = 30011 / 400009 / 3999971 in ms, best of
# six (Python 3.11.7, 2 vCPU): one write per prime 1.42 / 23.3 / 273; 16,
# 32 or 64 rows 0.69-0.75 / 15.8-16.4 / 210-216; rows for every multiplier,
# few marks each at a wide stride, 0.80 / 17.5 / 270.
_ROWS = 32


def eratosthenes(n):
    """Classical sieve: ascending list of primes <= n (oracle role); a
    non-integer n raises DomainError."""
    n = as_integer(n)
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
    if as_integer(q) > cap:
        raise SizeOverBudget(f"q = {_approx(q)} exceeds the sieve cap {cap}",
                             requested=q, cap=cap)
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")


def _composite_flags(q):
    """bytearray(2q + 1) with flags[v] = 1 exactly for the v <= 2q whose
    prime factors are all <= q (the window's composites among them).

    Grafted one label at a time: with the products over the primes before
    p flagged, those times p^e fill the slice of step p^e, zero till then.
    A prime p above root = isqrt(2q) takes exponent 1 only, and every
    m <= 2q/p is below p and so already a product: its marks are all such
    m * p.  For m <= _ROWS they go in by rows: row m copies rows[x], set
    for the products and large primes x <= q, to m * x for root < x <=
    2q/m.  It also writes 0 at each m * a * p, which row m * a or the
    per-prime tail marks later, so the rows go in ascending m.  Distinct
    marks set distinct flags, so a count of the flags short of the marks
    means a value reached twice, which would break the bijection and
    raises DomainError.
    """
    primes = primes_upto(q)
    limit = 2 * q
    # no exponent passes bits, nor has a prime factor above it
    bits = _max_exponent(limit, 2)
    exponents = sorted(e for e, _ in bounded_value_trees(
        range(bisect_right(primes, bits)), bits))
    flags = bytearray(limit + 1)
    flags[1] = 1  # the empty product
    marks = 1
    root = isqrt(limit)
    big = bisect_right(primes, root)
    for p in primes[:big]:
        below = flags[:limit // p + 1]
        for e in exponents:
            step = p ** e
            if step > limit:
                break
            n = limit // step + 1
            flags[::step] = below[:n]
            marks += below.count(1, 0, n)
    rows = flags[:q + 1]
    for p in primes[big:]:
        rows[p] = 1
    rowed = min(_ROWS, limit // (root + 1))
    for m in range(1, rowed + 1):
        top = min(q, limit // m)
        flags[m * (root + 1):m * top + 1:m] = rows[root + 1:top + 1]
        marks += bisect_right(primes, top) - big
    ones = b"\x01" * (root + 1)
    for p in primes[big:bisect_right(primes, limit // (_ROWS + 1))]:
        n = limit // p - _ROWS
        flags[(_ROWS + 1) * p:limit + 1:p] = ones[:n]
        marks += n
    if flags.count(1) != marks:
        raise DomainError("a value is reached twice")
    flags[1] = 0
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
    grafting/raising fixpoint over successive generations of trees.

    A generation maps each value <= 2q to its tree; the next grafts and
    raises the primes <= q over it (generator._graft_generation, the step
    that builds bounded_value_trees).  Each generation holds the one
    before it, and the loop stops at the first equal to it.  A value
    reached twice raises DomainError.  For q <= FIDELITY_CAP only.
    """
    _check_q(q, FIDELITY_CAP)
    limit = 2 * q
    labels = [Label(p) for p in primes_upto(q)]
    g_old, g_new = {}, {1: SINGLETON}
    while g_new != g_old:
        g_old, g_new = g_new, _graft_generation(labels, g_new, limit)
    return _gap_midpoints(bytes(v in g_new for v in range(limit + 1)), q)
