import pytest

from primeforest.codec import encode_integer, eval_integer_tree
from primeforest.errors import DomainError, SizeOverBudget
from primeforest.forest_algebra import Forest, graft_forests, raise_forest
from primeforest.generator import (
    DEFAULT_CAP,
    all_valid_trees_bruteforce,
    bounded_value_trees,
    g_count,
    g_forest,
    g_trees,
)
from primeforest.rationals import h_count, h_forest
from primeforest.tree_core import SINGLETON, label_tree, validate


def test_g_count_values():
    assert [g_count(1, h) for h in range(5)] == [1, 2, 3, 4, 5]
    assert g_count(2, 1) == 4
    assert g_count(2, 2) == 25
    assert g_count(3, 1) == 8
    assert g_count(3, 2) == 729
    assert g_count(5, 0) == 1


def test_g_count_takes_no_steps_for_at_most_one_label():
    # S_h = (1 + h)^n; the recurrence would take h steps
    assert g_count(0, 10 ** 12) == 1
    assert g_count(1, 10 ** 12) == 10 ** 12 + 1
    assert g_count(1, 10 ** 7 - 1, DEFAULT_CAP) == DEFAULT_CAP
    with pytest.raises(SizeOverBudget) as info:
        g_count(1, 10 ** 12, DEFAULT_CAP)
    assert info.value.cap == DEFAULT_CAP
    with pytest.raises(SizeOverBudget) as info:
        g_count(1, DEFAULT_CAP, DEFAULT_CAP)
    assert (info.value.requested, info.value.cap) \
        == (DEFAULT_CAP + 1, DEFAULT_CAP)


@pytest.mark.parametrize("size", [g_count, g_forest, g_trees,
                                  all_valid_trees_bruteforce, h_count,
                                  h_forest])
@pytest.mark.parametrize("args", [(-1, 2), (2, -1), (-1, -1)])
def test_negative_sizes_are_refused(size, args):
    with pytest.raises(DomainError, match="must be >= 0") as info:
        size(*args)
    assert type(info.value) is DomainError
    # h_forest(i, m) is refused as h_count(i, m), by its own argument names
    if size in (h_count, h_forest):
        assert str(info.value).startswith("h_count({}, {}): ".format(*args))


def test_listing_stops_at_the_first_empty_height():
    for h in (1, 2, 10 ** 7 - 1):
        assert list(g_forest(0, h)) == [SINGLETON]
        assert list(g_trees(0, h)) == [SINGLETON]


def test_listing_work_budget():
    # height k + 1 pairs the one label with each of the k + 1 trees below:
    # sum_{k < h} (k + 1) = h (h + 1) / 2 steps
    assert len(g_forest(1, 300)) == 301
    for h in (4472, 20000, 10 ** 7 - 1):
        for listing in (g_forest, g_trees, all_valid_trees_bruteforce):
            with pytest.raises(SizeOverBudget, match="steps") as info:
                listing(1, h)
            assert info.value.cap == DEFAULT_CAP
            assert info.value.requested == 4472 * 4473 // 2


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
        # the brute force builds in product order, so this checks Forest's
        # sort of unsorted input against the enumerator's canonical order
        assert g_forest(n, h).trees == all_valid_trees_bruteforce(n, h).trees


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


def test_bruteforce_past_the_recursion_limit():
    # built level by level, so height is bounded by the budget alone
    assert all_valid_trees_bruteforce(1, 1200) == g_forest(1, 1200)
    assert list(all_valid_trees_bruteforce(0, 2000)) == [SINGLETON]


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
    # refused by the call itself, before any tree is asked for, though
    # the 83,521 trees below height 3 are under the cap
    with pytest.raises(SizeOverBudget):
        g_trees(4, 3)


@pytest.mark.parametrize("n, h", [(0, 0), (0, 3), (3, 0), (1, 4), (2, 2),
                                  (3, 2), (4, 2), (2, 3)])
def test_g_trees_lists_g_forest_in_order(n, h):
    assert list(g_trees(n, h)) == list(g_forest(n, h))


def test_value_bounded_stream_examples():
    assert sorted(bounded_value_trees([0], 16)) \
        == [(v, encode_integer(v)) for v in (1, 2, 4, 16)]
    assert sorted(v for v, _ in bounded_value_trees([0, 1], 10)) \
        == [1, 2, 3, 4, 6, 8, 9]
    assert bounded_value_trees([], 1000) == [(1, SINGLETON)]


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
        # each value once, paired with its own tree
        pairs = bounded_value_trees(labels, bound)
        assert sorted(v for v, _ in pairs) == [1] + _smooth_values(primes, bound)
        assert all(eval_integer_tree(t) == v for v, t in pairs)
