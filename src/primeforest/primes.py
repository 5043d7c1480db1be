"""Primality, prime counting and the k-th prime, as pure functions.

SMALL_PRIMES, the primes below 2^16, is a tuple sieved once at import.
Below 2^16, is_prime is one bisect of it, prime_index_of another.  From 2^16
on, is_prime is deterministic Miller-Rabin with the first 13 prime bases,
exact below MR_BOUND ~ 3.3 * 10^24 (Sorenson and Webster 2015).  Smaller n
need fewer bases: below the least strong pseudoprime to the first k prime
bases, those k bases suffice (Jaeschke 1993).  A base that divides n is
found by one gcd with the product of the bases.  Above MR_BOUND a number
that no base proves composite raises SizeOverBudget instead of being
guessed prime, and a number of more than MR_BIT_CAP bits with no base
factor raises it before any base runs.  Tree labels are checked by is_prime
alone.

prime_index_of asks is_prime first, so a p >= MR_BOUND that no base
proves composite gets cap == MR_BOUND, not PRIME_CAP.  Above 2^16,
primes_upto sieves, prime_index_of(p) is pi(p) - 1 by a Lucy-style count
(Lagarias, Miller and Odlyzko 1985), and prime_by_index counts the primes
below Dusart's bracket on the k-th prime and sieves the bracket.  Primes,
indices and bounds past PRIME_CAP = 10^8 raise SizeOverBudget with
``requested`` and ``cap``; non-integers raise DomainError.
"""

from bisect import bisect_left, bisect_right
from itertools import compress, islice
from math import gcd, isqrt, log, prod

from .errors import DomainError, NotPrime, SizeOverBudget, as_integer

PRIME_CAP = 10 ** 8
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
_PLAN_BOUNDS = tuple(bound for bound, _ in _MR_PLAN)
_BASE_PRODUCT = prod(_MR_BASES)
# No Miller-Rabin base runs past this bit length.  One base costs about
# 25 ms at 2,048 bits and 1.4 s at 8,192 (Python 3.11, 2 vCPU), so all 13
# at the cap take about 0.3 s
MR_BIT_CAP = 2048


def _primes_between(lo, hi, divisors):
    """Iterator over the primes in [lo, hi], lo >= 2: each d in divisors, which
    ascend and hold every prime up to isqrt(hi), strikes out its multiples."""
    flags = bytearray(b"\x01") * (hi - lo + 1)
    for d in divisors:
        if d * d > hi:
            break
        start = max(d * d, -(-lo // d) * d)
        flags[start - lo::d] = bytes(len(range(start, hi + 1, d)))
    return compress(range(lo, hi + 1), flags)


SMALL_PRIMES = tuple(_primes_between(2, (1 << 16) - 1, range(2, 1 << 8)))


def _over_cap(what, requested):
    return SizeOverBudget(
        f"{what} {requested} lies past the prime cap {PRIME_CAP}",
        requested=requested, cap=PRIME_CAP)


def _prime_count(x):
    """pi(x) for x >= 1.  S(v), the integers in [2, v] not struck yet, is
    kept in small[v] for v <= isqrt(x) and in large[i] for v = x // i;
    striking a prime p takes S(v // p) - S(p - 1) from each S(v >= p^2)."""
    r = isqrt(x)
    small = list(range(-1, r))
    large = [0] + [x // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue                    # struck: p is composite
        s = small[p - 1]
        m = min(r, x // (p * p))        # the i with x // i >= p * p
        k = min(m, r // p)              # the i with i * p <= r
        # each list is built from the old values before it is stored
        large[1:k + 1] = [a - b + s
                          for a, b in zip(large[1:k + 1], large[p::p])]
        large[k + 1:m + 1] = [large[i] - small[x // (i * p)] + s
                              for i in range(k + 1, m + 1)]
        small[p * p:] = [a - small[v // p] + s
                         for v, a in enumerate(small[p * p:], p * p)]
    return large[1]


def _proven_composite(n):
    """For n >= 2: True if a base prime divides n and is not n itself, or a
    Miller-Rabin base witnesses that n is composite.  False means prime
    when n < MR_BOUND.  Past MR_BIT_CAP bits, n with no base prime factor
    raises SizeOverBudget (requested=bits) before any base runs."""
    if gcd(n, _BASE_PRODUCT) != 1:
        return n not in _MR_BASES
    bits = n.bit_length()
    if bits > MR_BIT_CAP:
        raise SizeOverBudget(
            f"primality of a {bits}-bit number is not tested past "
            f"{MR_BIT_CAP} bits", requested=bits, cap=MR_BIT_CAP)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    i = bisect_right(_PLAN_BOUNDS, n)
    k = _MR_PLAN[i][1] if i < len(_MR_PLAN) else len(_MR_BASES)
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

    Raises DomainError for k < 0, and SizeOverBudget (requested=k) when
    that prime lies above PRIME_CAP.
    """
    k = as_integer(k)
    if k < 0:
        raise DomainError("prime index must be >= 0")
    if k < len(SMALL_PRIMES):
        return SMALL_PRIMES[k]
    # the (k+1)-th prime p_n, n >= 6, lies in (n(ln n + ln ln n - 1),
    # n(ln n + ln ln n)) (Dusart 1999; Rosser 1941), here widened by one
    n = k + 1
    estimate = n * (log(n) + log(log(n)))
    lo, hi = int(estimate) - n - 1, int(estimate) + 1
    if lo < PRIME_CAP:
        window = _primes_between(lo + 1, min(hi, PRIME_CAP), SMALL_PRIMES)
        for p in islice(window, k - _prime_count(lo), None):
            return p
    raise _over_cap("prime index", k)


def prime_index_of(p):
    """Inverse of prime_by_index.

    Asks is_prime first, so p that is not prime raises NotPrime, and p that
    is_prime refuses raises its SizeOverBudget: cap == MR_BOUND for p >=
    MR_BOUND that no base proves composite.  A prime above PRIME_CAP raises
    SizeOverBudget (requested=p, cap=PRIME_CAP).
    """
    p = as_integer(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 1 << 16:
        return bisect_left(SMALL_PRIMES, p)
    if p > PRIME_CAP:
        raise _over_cap("prime", p)
    return _prime_count(p) - 1


def is_prime(n):
    """Exact primality: membership in SMALL_PRIMES below 2^16 (False below
    2), deterministic Miller-Rabin from 2^16 on.

    Raises SizeOverBudget for n >= MR_BOUND that no base proves composite,
    and for n of more than MR_BIT_CAP bits with no base prime factor.
    """
    n = as_integer(n)
    if n < 1 << 16:
        i = bisect_left(SMALL_PRIMES, n)
        return i < len(SMALL_PRIMES) and SMALL_PRIMES[i] == n
    if _proven_composite(n):
        return False
    if n >= MR_BOUND:
        raise SizeOverBudget(
            f"primality of {n} is undecided above the Miller-Rabin bound "
            f"{MR_BOUND}", requested=n, cap=MR_BOUND)
    return True


def primes_upto(n):
    """All primes <= n, ascending; SizeOverBudget above PRIME_CAP."""
    n = as_integer(n)
    if n > PRIME_CAP:
        raise _over_cap("bound", n)
    small = SMALL_PRIMES[:bisect_right(SMALL_PRIMES, n)]
    return [*small, *_primes_between(1 << 16, n, SMALL_PRIMES)]


def first_primes(n):
    """The first n primes; SizeOverBudget when the last passes PRIME_CAP."""
    return primes_upto(prime_by_index(n - 1)) if n > 0 else []
