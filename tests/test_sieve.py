import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from primeforest import sieve
from primeforest.codec import eval_integer_tree
from primeforest.errors import DomainError, NotPrime, SizeOverBudget
from primeforest.generator import bounded_value_trees
from primeforest.primes import is_prime, primes_upto
from primeforest.sieve import (
    FIDELITY_CAP,
    SIEVE_CAP,
    combinatorial_sieve,
    composites_in_window,
    eratosthenes,
    literal_fixpoint_sieve,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_eratosthenes():
    assert eratosthenes(10) == [2, 3, 5, 7]
    assert eratosthenes(1) == []
    assert eratosthenes(2) == [2]
    assert eratosthenes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_known_windows():
    assert combinatorial_sieve(2) == [3]
    assert combinatorial_sieve(5) == [7]
    assert combinatorial_sieve(7) == [11, 13]
    assert combinatorial_sieve(13) == [17, 19, 23]


def test_sieve_matches_eratosthenes_oracle():
    # every prime q <= 101, then the largest primes below seeded n <= 10^5
    rng = random.Random(7)
    seeded = [2 * 10 ** 4, 10 ** 5] + [rng.randrange(10 ** 3, 10 ** 5)
                                      for _ in range(4)]
    qs = eratosthenes(101) + [next(k for k in range(n, 1, -1) if is_prime(k))
                              for n in seeded]
    for q in qs:
        expected = [p for p in eratosthenes(2 * q) if p > q]
        assert combinatorial_sieve(q) == expected, q


def test_sieve_near_a_million_in_a_subprocess():
    code = ("from primeforest.sieve import combinatorial_sieve, eratosthenes\n"
            "q = 1000003\n"
            "assert combinatorial_sieve(q) == "
            "[p for p in eratosthenes(2 * q) if p > q]\n"
            "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={"PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def _prime_above(n):
    return next(k for k in itertools.count(n + 1) if is_prime(k))


def test_sieve_caps():
    # the cap is checked before primality: a composite above it, or a
    # prime past the Miller-Rabin bound, is refused on the cap, and a q
    # past the int-to-str limit is named by its magnitude
    for fn, prime, cap in ((combinatorial_sieve, 4000037, SIEVE_CAP),
                           (composites_in_window, 4000037, SIEVE_CAP),
                           (literal_fixpoint_sieve, _prime_above(FIDELITY_CAP),
                            FIDELITY_CAP)):
        for q in (prime, 2 ** 1279 - 1, 2 * cap, 10 ** 5000):
            with pytest.raises(SizeOverBudget) as info:
                fn(q)
            assert (info.value.requested, info.value.cap) == (q, cap)
            assert str(cap) in str(info.value)


def test_sieve_rejects_composite_input():
    for bad in (1, 4, 9, 100):
        with pytest.raises(NotPrime):
            combinatorial_sieve(bad)


def test_composites_in_window_values():
    assert [v for v, _ in composites_in_window(5)] == [6, 8, 9, 10]
    assert [v for v, _ in composites_in_window(3)] == [4, 6]
    assert [v for v, _ in composites_in_window(13)] \
        == [14, 15, 16, 18, 20, 21, 22, 24, 25, 26]


def test_composites_in_window_matches_the_tree_enumeration():
    # the trees come from encode_integer; bounded_value_trees builds them
    # independently
    for q in eratosthenes(101):
        labels = range(len(primes_upto(q)))
        expected = sorted((v, t) for v, t in bounded_value_trees(labels, 2 * q)
                          if v > q)
        assert composites_in_window(q) == expected, q


def test_a_value_reached_twice_is_refused(monkeypatch):
    # a repeated exponent reaches v * p twice, as a broken bijection would
    pairs = bounded_value_trees(range(1), 1)
    monkeypatch.setattr(sieve, "bounded_value_trees", lambda *_: pairs * 2)
    with pytest.raises(DomainError, match="reached twice"):
        combinatorial_sieve(13)


def test_a_leaf_reached_twice_is_refused(monkeypatch):
    # a repeated largest prime counts each m * 13 twice in the rows: at
    # q = 13, 2q // (isqrt(2q) + 1) = 4 < _ROWS, so only rows run, and the
    # count of marks catches it at the end
    monkeypatch.setattr(sieve, "primes_upto",
                        lambda n: [2, 3, 5, 7, 11, 13, 13])
    with pytest.raises(DomainError, match="reached twice"):
        combinatorial_sieve(13)


@pytest.mark.parametrize("prime", [47, 61, 67, 1009])
def test_a_repeated_large_prime_is_refused(monkeypatch, prime):
    # at q = 1009, isqrt(2q) = 44: the rows cover every prime above it and
    # the per-prime tail the primes up to 2q // (_ROWS + 1) = 61, so 47 and
    # 61 repeat in both and 67 and 1009 in the rows only
    primes = primes_upto(1009)
    primes.insert(primes.index(prime), prime)
    monkeypatch.setattr(sieve, "primes_upto", lambda n: primes)
    with pytest.raises(DomainError, match="reached twice"):
        combinatorial_sieve(1009)


@pytest.mark.parametrize("primes", [[2, 2, 3, 5, 7, 11, 13],
                                    [2, 3, 3, 5, 7, 11, 13]])
def test_a_repeated_small_prime_is_refused(monkeypatch, primes):
    # a repeated prime below isqrt(2q) reaches its multiples twice in the
    # OR of the strided slices
    monkeypatch.setattr(sieve, "primes_upto", lambda n: primes)
    with pytest.raises(DomainError, match="reached twice"):
        combinatorial_sieve(13)


def test_composite_flags_match_an_oracle():
    # flags[v] is set for every v >= 2 up to 2q except the window's primes.
    # Both ways of writing the primes above isqrt(2q) are covered: the
    # rows alone (every prime q below about 545 has no per-prime tail),
    # and rows with the tail (the larger q <= 3000 and the seeded q)
    rng = random.Random(27)
    seeded = [10 ** 6] + [rng.randrange(10 ** 4, 10 ** 6) for _ in range(3)]
    qs = eratosthenes(3000) + [next(k for k in range(n, 1, -1) if is_prime(k))
                               for n in seeded]
    for q in qs:
        expected = bytearray(2) + b"\x01" * (2 * q - 1)
        for p in eratosthenes(2 * q):
            if p > q:
                expected[p] = 0
        assert sieve._composite_flags(q) == expected, q


def test_composites_trees_evaluate_back():
    for q in (3, 5, 7, 11, 13, 17):
        for v, t in composites_in_window(q):
            assert eval_integer_tree(t) == v


def test_composite_gap_at_most_two():
    for q in eratosthenes(101):
        values = [v for v, _ in composites_in_window(q)]
        assert all(b - a <= 2 for a, b in zip(values, values[1:]))


def test_literal_fixpoint_agrees():
    # every prime q <= 211, then the largest primes below seeded n up to
    # the cap
    rng = random.Random(28)
    seeded = [rng.randrange(212, FIDELITY_CAP + 1) for _ in range(3)]
    qs = eratosthenes(211) + [next(k for k in range(n, 1, -1) if is_prime(k))
                              for n in seeded]
    for q in qs:
        assert literal_fixpoint_sieve(q) == combinatorial_sieve(q), q


@pytest.mark.parametrize("primes", [[2, 2, 3, 5, 7, 11, 13],
                                    [2, 3, 3, 5, 7, 11, 13],
                                    [2, 3, 5, 7, 11, 13, 13]])
def test_a_repeated_prime_is_refused_by_the_fixpoint(monkeypatch, primes):
    # a repeated label grafts its own powers onto a value it reached
    monkeypatch.setattr(sieve, "primes_upto", lambda n: primes)
    with pytest.raises(DomainError, match="reached twice"):
        literal_fixpoint_sieve(13)


def test_sieve_never_empty():
    # Bertrand: the window always holds a prime
    for q in eratosthenes(101):
        assert combinatorial_sieve(q)
