"""Primality, and the prime table behind factoring and "the first n primes".

Tree labels carry their primes and are checked by is_prime alone, which
never grows the table.  The table serves factor (its trial divisors) and
the places that mean "the k-th prime": label_tree, the generator, the
rational stages and the sieve's labels.

One ascending table holds every prime up to ``_top``.  It grows on demand
by a segmented Sieve of Eratosthenes over the missing range only: each
segment is a bytearray of at most 1 MiB, one byte per odd number, struck
out by base primes read from the table itself.  Each growth at least
doubles ``_top``, so ascending requests cost O(log n) sieve passes.

Growth stops at TABLE_CAP = 10^8.  There the table holds the 5,761,455
primes below 10^8 as 4-byte machine integers, 23 MB.  A request that
needs a prime above the cap raises SizeOverBudget carrying ``requested``
and ``cap``; a composite above the cap is still reported as not prime.

Lookups take no lock: prime_by_index indexes the table and prime_index_of
bisects it.  Only growth takes the lock, and it appends the new primes
before it publishes the new ``_top``.

Above the table's top, is_prime runs Miller-Rabin with the first 13 prime
bases, which is exact below MR_BOUND ~ 3.3 * 10^24 (Sorenson and Webster
2015).  Smaller n need fewer bases: below the least strong pseudoprime to
the first k prime bases, those k bases suffice (Jaeschke 1993).  Above
MR_BOUND a number that no base proves composite raises SizeOverBudget
instead of being guessed prime.
"""

import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from math import isqrt, log

from .errors import SizeOverBudget

TABLE_CAP = 10 ** 8
# Least strong pseudoprime to all of _MR_BASES (Sorenson and Webster 2015).
MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): the first k bases decide every n < psi_k, the least strong
# pseudoprime to all of them (Jaeschke 1993; Sorenson and Webster 2015)
_MR_PLAN = ((2_047, 1), (1_373_653, 2), (25_326_001, 3),
            (3_215_031_751, 4), (2_152_302_898_747, 5),
            (3_474_749_660_383, 6), (341_550_071_728_321, 7),
            (3_825_123_056_546_413_051, 9),
            (318_665_857_834_031_151_167_461, 12), (MR_BOUND, 13))
_SEGMENT_BYTES = 1 << 20

_primes = array("i", [2, 3, 5, 7, 11, 13])
_top = 13                  # every prime <= _top is in _primes
_lock = threading.Lock()


def _sieve_to(n):
    """Extend the table with every prime up to at least n (n <= TABLE_CAP)."""
    global _top
    with _lock:
        target = min(TABLE_CAP, max(n, 2 * _top))
        while _top < target:
            # odd numbers lo, lo + 2, ..., hi; the table must already hold
            # every base prime <= isqrt(hi)
            lo = (_top + 1) | 1
            hi = min(target, _top * _top, lo + 2 * _SEGMENT_BYTES - 2)
            size = (hi - lo) // 2 + 1
            flags = bytearray(b"\x01") * size
            for p in _primes[1:bisect_right(_primes, isqrt(hi))]:
                start = max(p * p, -(-lo // p) * p)
                if not start & 1:
                    start += p
                i = (start - lo) >> 1
                if i < size:
                    flags[i::p] = bytes((size - 1 - i) // p + 1)
            _primes.extend(compress(range(lo, hi + 1, 2), flags))
            _top = hi


def _over_cap(what, requested):
    return SizeOverBudget(
        f"{what} {requested} lies past the prime table cap {TABLE_CAP}",
        requested=requested, cap=TABLE_CAP)


def _proven_composite(n):
    """True if a small prime divides n (n > 13) or a Miller-Rabin base
    witnesses that n is composite.  False means prime when n < MR_BOUND."""
    for p in _MR_BASES:
        if n % p == 0:
            return n != p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    k = next((k for bound, k in _MR_PLAN if n < bound), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def prime_by_index(k):
    """Return the k-th prime, counting from prime_by_index(0) == 2.

    Raises SizeOverBudget (requested=k) when that prime lies above
    TABLE_CAP.
    """
    if k < 0:
        raise ValueError("prime index must be >= 0")
    try:
        return _primes[k]
    except IndexError:
        pass
    # the (k+1)-th prime p_n, n >= 7, lies in
    # (n(ln n + ln ln n - 1), n(ln n + ln ln n)) (Dusart 1999; Rosser 1941)
    n = k + 1
    estimate = n * (log(n) + log(log(n)))
    if estimate - n > TABLE_CAP:
        raise _over_cap("prime index", k)
    _sieve_to(min(TABLE_CAP, int(estimate) + 1))
    if k >= len(_primes):
        raise _over_cap("prime index", k)
    return _primes[k]


def prime_index_of(p):
    """Inverse of prime_by_index.

    Raises ValueError if p is not prime, and SizeOverBudget (requested=p)
    if p is a prime above TABLE_CAP.
    """
    if p > _top:
        if _proven_composite(p):
            raise ValueError(f"{p} is not prime")
        if p > TABLE_CAP:
            raise _over_cap("prime", p)
        _sieve_to(p)
    i = bisect_left(_primes, p)
    if i == len(_primes) or _primes[i] != p:
        raise ValueError(f"{p} is not prime")
    return i


def is_prime(n):
    """Exact primality: a table lookup up to the table's top, deterministic
    Miller-Rabin above it.

    Raises SizeOverBudget for n >= MR_BOUND that no base proves composite.
    """
    if n <= _top:
        i = bisect_left(_primes, n)
        return i < len(_primes) and _primes[i] == n
    if _proven_composite(n):
        return False
    if n >= MR_BOUND:
        raise SizeOverBudget(
            f"primality of {n} is undecided above the Miller-Rabin bound "
            f"{MR_BOUND}", requested=n, cap=MR_BOUND)
    return True


def table_primes(start=0):
    """Iterator over the primes already in the table, ascending from index
    start; it grows nothing and ends where the table ends."""
    return islice(_primes, start, None)


def primes_upto(n):
    """All primes <= n, ascending; SizeOverBudget above TABLE_CAP."""
    if n > _top:
        if n > TABLE_CAP:
            raise _over_cap("bound", n)
        _sieve_to(n)
    return _primes[:bisect_right(_primes, n)].tolist()
