import random
import subprocess
from array import array
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeforest import primes
from primeforest.codec import factor
from primeforest.errors import SizeOverBudget
from primeforest.primes import (
    _MR_PLAN,
    MR_BOUND,
    TABLE_CAP,
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
    """Run code in a fresh interpreter, so the prime table starts cold."""
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


def test_cold_growth_one_jump():
    run_cold("assert primes.prime_index_of(999_983) == 78_497\n"
             "assert primes.primes_upto(10 ** 6) == eratosthenes(10 ** 6)\n")


def test_cold_growth_ascending_index_of():
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
    run_cold("ref = eratosthenes(10 ** 6)\n"
             "assert primes.prime_by_index(9_591) == ref[9_591]\n"
             "assert primes.prime_by_index(78_497) == ref[78_497]\n"
             "assert [primes.prime_by_index(k) for k in range(len(ref))] == ref\n")


def test_is_prime_above_the_table_matches_eratosthenes():
    # is_prime is Miller-Rabin alone: it neither reads nor grows the table
    run_cold("ref = set(eratosthenes(2 * 10 ** 5))\n"
             "bad = [n for n in range(-5, 2 * 10 ** 5)\n"
             "       if primes.is_prime(n) != (n in ref)]\n"
             "assert not bad, bad[:10]\n"
             "assert primes._top == 13\n")


def test_labels_leave_the_table_cold():
    run_cold("import io\n"
             "from primeforest import cli\n"
             "out = io.StringIO()\n"
             "assert cli.run(['encode', '1000000000039'], out=out) == 0\n"
             "assert cli.run(['decode', '(r (99999989))'], out=out) == 0\n"
             "assert out.getvalue() == '(r (1000000000039))\\n99999989\\n'\n"
             "assert list(primes.table_primes()) == [2, 3, 5, 7, 11, 13]\n")


def test_is_prime_against_the_table():
    primes_upto(10 ** 6)
    ref = set(ORACLE)
    assert all(is_prime(n) == (n in ref) for n in range(-5, 10 ** 6))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=200_000))
def test_index_roundtrip(k):
    assert prime_index_of(prime_by_index(k)) == k


def test_is_prime_reads_no_table(monkeypatch):
    monkeypatch.setattr(primes, "_primes", array("i"))
    monkeypatch.setattr(primes, "_top", 0)
    assert [n for n in range(-5, 2000) if is_prime(n)] == eratosthenes(2000)


def test_rejects_non_primes():
    big = 100_000_007                    # the least prime above TABLE_CAP
    for n in (0, 1, -1, -2, -7, 4, 9, 15, 49, 999_983 ** 2, 3_215_031_751,
              big ** 2, big * 100_000_037, 2 ** 89 - 3):
        assert not is_prime(n), n
        with pytest.raises(ValueError):
            prime_index_of(n)


def test_strong_pseudoprimes_are_composite():
    # psi_k, the least strong pseudoprime to the first k prime bases,
    # passes those k bases, so it must get more than k; _proven_composite
    # is the Miller-Rabin path whatever the table holds
    for psi, _ in _MR_PLAN[:-1]:
        assert _proven_composite(psi), psi
        assert not is_prime(psi), psi
    # MR_BOUND passes all 13 bases, so primality is refused, not guessed
    with pytest.raises(SizeOverBudget) as info:
        is_prime(MR_BOUND)
    assert info.value.requested == MR_BOUND


def test_past_the_cap():
    big = 100_000_007
    with pytest.raises(SizeOverBudget) as info:
        prime_index_of(big)
    assert (info.value.requested, info.value.cap) == (big, TABLE_CAP)
    with pytest.raises(SizeOverBudget) as info:
        prime_by_index(10 ** 7)
    assert (info.value.requested, info.value.cap) == (10 ** 7, TABLE_CAP)
    with pytest.raises(SizeOverBudget):
        primes_upto(TABLE_CAP + 1)
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
    for m in inputs:
        assert factor(m) == sorted(sympy.factorint(m).items()), m
