import pytest

from primeforest.codec import eval_integer_tree
from primeforest.errors import SizeOverBudget
from primeforest.forest_algebra import Forest, graft_forests, raise_forest
from primeforest.generator import (
    all_valid_trees_bruteforce,
    g_count,
    g_forest,
    g_stream_value_bounded,
)
from primeforest.tree_core import SINGLETON, label_tree, validate


def test_g_count_values():
    assert [g_count(1, h) for h in range(5)] == [1, 2, 3, 4, 5]
    assert g_count(2, 1) == 4
    assert g_count(2, 2) == 25
    assert g_count(3, 1) == 8
    assert g_count(3, 2) == 729
    assert g_count(5, 0) == 1


def test_g_forest_small():
    f = g_forest(2, 1)
    assert set(f) == {SINGLETON, label_tree(0), label_tree(1),
                      validate([(2, []), (3, [])])}


def test_g_forest_height_zero():
    for n in (1, 2, 5):
        assert list(g_forest(n, 0)) == [SINGLETON]


def test_g_forest_single_label_towers():
    f = g_forest(1, 3)
    values = sorted(eval_integer_tree(t) for t in f)
    assert values == [1, 2, 4, 16]  # 1, 2, 2^2, 2^(2^2)


def test_g_forest_counts_match():
    for n, h in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                 (3, 1), (3, 2)]:
        assert len(g_forest(n, h)) == g_count(n, h)


def test_g_forest_matches_bruteforce():
    for n, h in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                 (3, 1), (3, 2)]:
        assert g_forest(n, h) == all_valid_trees_bruteforce(n, h)


def _graft_raise_recurrence(n, h):
    # the paper's construction: G(n, i) grafts, for each label k, the unit
    # forest or label k raised by G(n, i - 1)
    unit = Forest([SINGLETON])
    forest = unit
    for _ in range(h):
        grown = unit
        for k in range(n):
            grown = graft_forests(
                grown, unit.union(raise_forest(label_tree(k), forest)))
        forest = grown
    return forest


def test_g_forest_matches_graft_raise_recurrence():
    for n, h in [(1, 3), (2, 2), (3, 2), (4, 1)]:
        assert g_forest(n, h).trees == _graft_raise_recurrence(n, h).trees


def test_bruteforce_single_label():
    assert len(all_valid_trees_bruteforce(1, 4)) == 5


def test_g_forest_monotone_strict():
    for n in (1, 2, 3):
        for h in (0, 1):
            small, big = g_forest(n, h), g_forest(n, h + 1)
            assert all(t in big for t in small)
            assert len(big) > len(small)


def test_size_cap():
    with pytest.raises(SizeOverBudget):
        g_forest(10, 5)
    with pytest.raises(SizeOverBudget):
        all_valid_trees_bruteforce(10, 5)


def test_value_bounded_stream_examples():
    assert [eval_integer_tree(t) for t in g_stream_value_bounded([0], 16)] \
        == [2, 4, 16]
    assert sorted(eval_integer_tree(t)
                  for t in g_stream_value_bounded([0, 1], 10)) \
        == [2, 3, 4, 6, 8, 9]
    assert list(g_stream_value_bounded([], 1000)) == []


def _smooth_values(primes, bound):
    # integers whose factorization, recursively through exponents,
    # stays inside the prime set
    allowed = set(primes)

    def ok(m):
        if m == 1:
            return True
        for p in list(allowed):
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if not ok(e):
                    return False
        return m == 1

    return [m for m in range(2, bound + 1) if ok(m)]


def test_value_bounded_stream_vs_integer_scan():
    from primeforest.primes import prime_by_index

    cases = [([0], 600), ([0, 1], 400), ([0, 1, 2], 300), ([1, 3], 500)]
    for labels, bound in cases:
        primes = [prime_by_index(k) for k in labels]
        got = sorted(eval_integer_tree(t)
                     for t in g_stream_value_bounded(labels, bound))
        assert got == _smooth_values(primes, bound)


def test_value_bounded_stream_canonical_order():
    trees = list(g_stream_value_bounded([0, 1], 50))
    assert trees == sorted(trees)
    assert all(not t.is_singleton for t in trees)
