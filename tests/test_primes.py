import random
import subprocess
import sys
import time
from bisect import bisect_right
from math import log
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeforest import codec, primes
from primeforest.codec import SPLIT_STEPS, factor
from primeforest.errors import DomainError, NotPrime, SizeOverBudget
from primeforest.primes import (
    _MR_PLAN,
    MR_BIT_CAP,
    MR_BOUND,
    PRIME_CAP,
    SMALL_PRIMES,
    _prime_count,
    _proven_composite,
    is_prime,
    prime_by_index,
    prime_index_of,
    primes_upto,
)
from primeforest.sieve import eratosthenes

SRC = Path(__file__).resolve().parents[1] / "src"
ORACLE = eratosthenes(10 ** 6)


def run_cold(code):
    """Run code in a fresh interpreter, so nothing that earlier tests ran
    in this process can have answered for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "from primeforest import primes\n"
         "from primeforest.sieve import eratosthenes\n" + code],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_primes_upto_matches_eratosthenes():
    assert primes_upto(10 ** 6) == ORACLE
    for n in (-1, 0, 1, 2, 3, 4, 13, 14, 99_991, 99_992):
        assert primes_upto(n) == [p for p in ORACLE if p <= n]


def test_cold_index_of_and_primes_upto_a_million():
    run_cold("assert primes.prime_index_of(999_983) == 78_497\n"
             "assert primes.primes_upto(10 ** 6) == eratosthenes(10 ** 6)\n")


def test_cold_index_of_ascending_below_10_5():
    run_cold("ref = set(eratosthenes(10 ** 5))\n"
             "k = 0\n"
             "for n in range(10 ** 5):\n"
             "    if n in ref:\n"
             "        assert primes.prime_index_of(n) == k\n"
             "        k += 1\n"
             "    else:\n"
             "        try:\n"
             "            primes.prime_index_of(n)\n"
             "        except ValueError:\n"
             "            continue\n"
             "        raise AssertionError(n)\n"
             "assert k == len(ref)\n")


def test_cold_prime_by_index_past_the_top():
    run_cold("import random\n"
             "ref = eratosthenes(10 ** 6)\n"
             "assert primes.prime_by_index(9_591) == ref[9_591]\n"
             "assert primes.prime_by_index(78_497) == ref[78_497]\n"
             "n = len(primes.SMALL_PRIMES)\n"
             "assert [primes.prime_by_index(k) for k in range(n)] == ref[:n]\n"
             "for k in random.Random(21).sample(range(n, len(ref)), 1_000):\n"
             "    assert primes.prime_by_index(k) == ref[k], k\n")


def test_cold_is_prime_matches_eratosthenes():
    # is_prime bisects SMALL_PRIMES below 2^16 and runs Miller-Rabin from
    # 2^16 on, in a fresh interpreter, with no table to fill first
    run_cold("ref = set(eratosthenes(2 * 10 ** 5))\n"
             "bad = [n for n in range(-5, 2 * 10 ** 5)\n"
             "       if primes.is_prime(n) != (n in ref)]\n"
             "assert not bad, bad[:10]\n")


def test_cold_encode_and_decode_of_large_primes():
    run_cold("import io\n"
             "from primeforest import cli\n"
             "out = io.StringIO()\n"
             "assert cli.run(['encode', '1000000000039'], out=out) == 0\n"
             "assert cli.run(['decode', '(r (99999989))'], out=out) == 0\n"
             "assert out.getvalue() == '(r (1000000000039))\\n99999989\\n'\n")


def test_is_prime_matches_eratosthenes_to_a_million():
    # spans 2^16, where the SMALL_PRIMES bisect hands over to Miller-Rabin
    ref = set(ORACLE)
    assert all(is_prime(n) == (n in ref) for n in range(-5, 10 ** 6))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=200_000))
def test_index_roundtrip(k):
    assert prime_index_of(prime_by_index(k)) == k


def test_miller_rabin_alone_matches_eratosthenes():
    # below 2^16 is_prime reads SMALL_PRIMES; the Miller-Rabin path, which
    # never reads it, must agree with the sieve there too
    assert ([n for n in range(2, 2000) if not _proven_composite(n)]
            == eratosthenes(2000))


def test_rejects_non_primes():
    big = 100_000_007                    # the least prime above PRIME_CAP
    for n in (0, 1, -1, -2, -7, 4, 9, 15, 49, 999_983 ** 2, 3_215_031_751,
              big ** 2, big * 100_000_037, 2 ** 89 - 3):
        assert not is_prime(n), n
        with pytest.raises(ValueError):
            prime_index_of(n)
    with pytest.raises(ValueError):
        prime_by_index(-1)


def test_strong_pseudoprimes_are_composite():
    # psi_k, the least strong pseudoprime to the first k prime bases,
    # passes those k bases, so it must get more than k; _proven_composite
    # is the Miller-Rabin path whatever the table holds
    for psi, _ in _MR_PLAN[:-1]:
        assert _proven_composite(psi), psi
        assert not is_prime(psi), psi
    # MR_BOUND passes all 13 bases, so primality is refused, not guessed,
    # and prime_index_of refuses it through is_prime, not at PRIME_CAP
    for fn in (is_prime, prime_index_of):
        with pytest.raises(SizeOverBudget) as info:
            fn(MR_BOUND)
        assert info.value.requested == info.value.cap == MR_BOUND


def test_past_the_cap():
    big = 100_000_007
    with pytest.raises(SizeOverBudget) as info:
        prime_index_of(big)
    assert (info.value.requested, info.value.cap) == (big, PRIME_CAP)
    with pytest.raises(SizeOverBudget) as info:
        prime_by_index(10 ** 7)
    assert (info.value.requested, info.value.cap) == (10 ** 7, PRIME_CAP)
    with pytest.raises(SizeOverBudget):
        primes_upto(PRIME_CAP + 1)
    assert is_prime(big) and is_prime(10 ** 12 + 39)


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(80)
    for _ in range(2_000):
        n = rng.getrandbits(80) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(50):
        p = sympy.nextprime(rng.getrandbits(79) | 1 << 79)
        assert is_prime(p), p


def test_is_prime_against_sympy_around_the_base_bounds():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    for psi, _ in _MR_PLAN:
        around = [sympy.prevprime(psi), sympy.nextprime(psi)]
        around += [psi + rng.randint(-10 ** 4, 10 ** 4) for _ in range(300)]
        for n in around:
            expected = sympy.isprime(n)
            assert _proven_composite(n) == (not expected), n
            if n >= MR_BOUND and expected:
                with pytest.raises(SizeOverBudget):
                    is_prime(n)
            else:
                assert is_prime(n) == expected, n


def test_factor_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    inputs = [rng.randint(2, 10 ** 12) for _ in range(300)]
    inputs += [sympy.nextprime(rng.randint(10 ** 5, 10 ** 6))
               * sympy.nextprime(rng.randint(10 ** 5, 10 ** 6))
               for _ in range(20)]
    inputs += [2 ** 39, 999_983 ** 2, 10 ** 12 + 39, 2 * (10 ** 12 + 39)]
    # 60-bit semiprimes: Pollard-Brent splits what trial division leaves
    inputs += [sympy.nextprime(rng.getrandbits(30) | 1 << 29)
               * sympy.nextprime(rng.getrandbits(30) | 1 << 29)
               for _ in range(20)]
    for m in inputs:
        assert factor(m) == sorted(sympy.factorint(m).items()), m


def test_prime_count_matches_eratosthenes():
    rng = random.Random(31)
    points = [1, 2, 3, 4, 255, 256, 65_520, 65_521, 65_536, 65_537, 10 ** 6]
    points += [rng.randint(1, 10 ** 6) for _ in range(300)]
    for x in points:
        assert _prime_count(x) == bisect_right(ORACLE, x), x
    assert _prime_count(10 ** 8) == 5_761_455
    # 65,521 is the last of SMALL_PRIMES and 65,537 the first prime past it
    assert prime_index_of(65_521) == len(SMALL_PRIMES) - 1 == 6_541
    assert prime_index_of(65_537) == 6_542
    assert prime_index_of(99_999_989) == 5_761_454


def test_prime_by_index_at_the_edges_of_the_dusart_window():
    # p_n lies in (n(ln n + ln ln n - 1), n(ln n + ln ln n)), n = k + 1;
    # check the k whose prime lies nearest either end of it
    def room(k):
        n = k + 1
        upper = n * (log(n) + log(log(n)))
        return ORACLE[k] - (upper - n), upper - ORACLE[k]

    ks = range(len(SMALL_PRIMES), len(ORACLE))
    low = min(ks, key=lambda k: room(k)[0])
    high = min(ks, key=lambda k: room(k)[1])
    assert room(low)[0] > 0 and room(high)[1] > 0
    edges = {low, high, len(SMALL_PRIMES) - 1, len(SMALL_PRIMES),
             len(ORACLE) - 1}
    for k in edges:
        assert prime_by_index(k) == ORACLE[k], k
    # 99,999,989 is the last prime below the cap and 100,000,007 the next
    assert prime_by_index(5_761_454) == 99_999_989
    with pytest.raises(SizeOverBudget) as info:
        prime_by_index(5_761_455)
    assert (info.value.requested, info.value.cap) == (5_761_455, PRIME_CAP)


def test_factor_past_the_small_primes():
    big = 100_000_007
    cases = {
        big ** 2: [(big, 2)],
        65_537 ** 3: [(65_537, 3)],
        65_521 * 65_537: [(65_521, 1), (65_537, 1)],
        2 ** 5 * 65_537 ** 2 * big: [(2, 5), (65_537, 2), (big, 1)],
        65_537 * big * 1_000_000_007: [(65_537, 1), (big, 1),
                                       (1_000_000_007, 1)],
        1_000_003 * 1_000_033 * 1_000_037: [(1_000_003, 1), (1_000_033, 1),
                                            (1_000_037, 1)],
        (2 ** 31 - 1) ** 2 * (2 ** 61 - 1): [(2 ** 31 - 1, 2),
                                             (2 ** 61 - 1, 1)],
    }
    for m, expected in cases.items():
        assert factor(m) == expected, m


def _trial_division(m):
    """The factorization of m >= 1 by every d >= 2 while d * d <= m."""
    out, d = [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(m, 1)] * (m > 1)


def _factor_seam_inputs():
    """Inputs at the seams of factor: seeded 32-bit primes, semiprimes of
    two primes near 2^16, values whose only prime below 2^16 lies in the
    last block of 32 (or fewer) of SMALL_PRIMES, and 2^32 - 5."""
    rng = random.Random(22)

    def prime_from(n):
        while not is_prime(n):
            n += 1
        return n

    big = [prime_from(rng.randrange(1 << 31, 1 << 32)) for _ in range(8)]
    near = [prime_from(rng.randrange(60_000, 70_000)) for _ in range(12)]
    last = SMALL_PRIMES[len(SMALL_PRIMES) // 32 * 32:]
    inputs = big + [p * q for p, q in zip(near[::2], near[1::2])]
    inputs += [p * prime_from(rng.randrange(1 << 16, 1 << 20)) for p in last]
    inputs += [last[0] ** 3 * big[0], last[-1] * big[1]]
    return inputs + [2 ** 32 - 5]


def test_factor_matches_trial_division_at_the_seams():
    for m in _factor_seam_inputs():
        assert factor(m) == _trial_division(m), m
    for m in range(1, 3000):
        assert factor(m) == _trial_division(m), m


def test_factor_against_sympy_at_the_seams():
    sympy = pytest.importorskip("sympy")
    for m in _factor_seam_inputs():
        assert factor(m) == sorted(sympy.factorint(m).items()), m


def test_a_square_is_split_without_pollard_brent(monkeypatch):
    # with no Pollard-Brent steps allowed, only isqrt can split these
    monkeypatch.setattr(codec, "SPLIT_STEPS", 0)
    big = 100_000_007
    assert factor(big ** 2) == [(big, 2)]
    assert factor(3 * (2 ** 61 - 1) ** 2) == [(3, 1), (2 ** 61 - 1, 2)]
    assert factor(big ** 4) == [(big, 4)]
    with pytest.raises(SizeOverBudget):
        factor(big * 100_000_037)


def test_primality_past_the_bit_cap_is_refused_quickly():
    # 13,500 bits with no factor below 2^16: one Miller-Rabin base there
    # takes seconds, so no base runs
    huge = ((2 ** 61 - 1) * (2 ** 89 - 1)) ** 90
    for fn in (is_prime, prime_index_of, factor):
        start = time.perf_counter()
        with pytest.raises(SizeOverBudget) as info:
            fn(huge)
        assert time.perf_counter() - start < 1
        assert (info.value.requested, info.value.cap) == (13_500, MR_BIT_CAP)
    # a base prime factor still answers at any size
    assert not is_prime(3 * huge)
    assert factor(2 ** 20_000) == [(2, 20_000)]


def test_a_split_past_the_budget_is_refused_quickly():
    # two Mersenne primes: Pollard-Brent would need about 2^30 steps
    start = time.perf_counter()
    with pytest.raises(SizeOverBudget) as info:
        factor((2 ** 61 - 1) * (2 ** 89 - 1))
    assert time.perf_counter() - start < 5
    assert info.value.cap == SPLIT_STEPS < info.value.requested


def test_number_theory_takes_integers_only():
    for fn in (is_prime, prime_by_index, prime_index_of, primes_upto, factor):
        for bad in (7.0, 12.0, 1.5, "7", None):
            with pytest.raises(DomainError, match="not an integer"):
                fn(bad)
    assert issubclass(DomainError, ValueError)
    with pytest.raises(NotPrime):
        prime_index_of(8)
    for fn, arg in ((prime_by_index, -1), (factor, 0)):
        with pytest.raises(DomainError):
            fn(arg)
