import time

import pytest

from primeforest.codec import (encode_integer, encode_rational,
                              eval_integer_tree, eval_rational_tree)
from primeforest.errors import DomainError, SizeOverBudget, _approx
from primeforest.forest_algebra import Forest, graft_forests, raise_forest
from primeforest.generator import (
    COUNT_BIT_CAP,
    DEFAULT_CAP,
    _graft_generation,
    all_valid_trees_bruteforce,
    bounded_value_trees,
    g_count,
    g_forest,
    g_trees,
)
from primeforest.primes import (first_primes, prime_by_index, prime_index_of,
                               primes_upto)
from primeforest.rationals import h_count, h_forest, rational_stream
from primeforest.sieve import combinatorial_sieve, eratosthenes
from primeforest.tree_core import (SINGLETON, Label, label_tree, parse_sexpr,
                                   same_trees)


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


_THREE_FOURTHS = encode_rational(3, 4)


@pytest.mark.parametrize("call", [
    lambda: g_count(2.5, 1),
    lambda: g_count("3", 1),
    lambda: g_count(2, 1, cap=10.0),
    lambda: h_count(1.5, 1),
    lambda: h_count(1, 1, cap="5"),
    lambda: g_forest(2, 1.0),
    lambda: g_trees(2, 1.0),
    lambda: all_valid_trees_bruteforce(2, 1.0),
    lambda: h_forest(1, 1.0),
    lambda: h_forest(1.0, 1),
    lambda: h_forest("1", 1),
    lambda: next(rational_stream(cap=0.5)),
    lambda: eval_rational_tree(_THREE_FOURTHS, 0.5),
    lambda: parse_sexpr(None),
    lambda: parse_sexpr(b"(r)"),
    lambda: bounded_value_trees(range(3), 10.5),
    lambda: bounded_value_trees(range(3), "10"),
    lambda: eratosthenes(10.5),
    lambda: eratosthenes("10"),
    lambda: eratosthenes(None),
    lambda: combinatorial_sieve("10"),
], ids=["g_count-float", "g_count-str", "g_count-cap", "h_count-float",
        "h_count-cap", "g_forest", "g_trees", "bruteforce", "h_forest-m",
        "h_forest-i", "h_forest-str", "rational_stream-cap",
        "eval_rational_tree-cap", "parse-None", "parse-bytes",
        "bounded_value_trees-float", "bounded_value_trees-str",
        "eratosthenes-float", "eratosthenes-str", "eratosthenes-None",
        "combinatorial_sieve-str"])
def test_non_integer_sizes_and_caps_are_refused(call):
    with pytest.raises(DomainError, match="not an integer|must be a str"):
        call()


_BIG = 10 ** 5000    # past the 4,300-digit int-to-str conversion limit


@pytest.mark.parametrize("call", [
    lambda: prime_by_index(_BIG),
    lambda: first_primes(_BIG),
    lambda: label_tree(_BIG),
    lambda: primes_upto(_BIG),
    lambda: prime_index_of(_BIG),
    lambda: g_count(_BIG, 1),
    lambda: g_count(_BIG, 1, DEFAULT_CAP),
    lambda: g_forest(_BIG, 1),
    lambda: g_trees(_BIG, 1),
    lambda: h_count(1, _BIG),
    lambda: h_forest(1, _BIG),
    lambda: bounded_value_trees(range(2), _BIG),
], ids=["prime_by_index", "first_primes", "label_tree", "primes_upto",
        "prime_index_of", "g_count", "g_count-cap", "g_forest", "g_trees",
        "h_count", "h_forest", "bounded_value_trees"])
def test_integers_past_the_print_limit_are_refused(call):
    # a refusal names the number by its magnitude, never by str(), and
    # nothing of its size is built or bracketed by a float
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        call()
    assert time.perf_counter() - start < 1
    assert "~10^" in str(info.value)


def test_refusals_print_numbers_of_up_to_30_digits():
    for n in (0, 7, -12, 10 ** 29, 10 ** 30 - 1, -(10 ** 30 - 1)):
        assert _approx(n) == str(n)
    assert _approx(10 ** 30) == "~10^30"
    assert _approx(-_BIG) == "-~10^5000"
    with pytest.raises(SizeOverBudget) as info:
        prime_by_index(10 ** 30 - 1)
    assert str(info.value) == (f"prime index {10 ** 30 - 1} lies past the "
                               f"prime cap 100000000")


def test_uncapped_counts_stop_at_the_bit_cap():
    # 2^(COUNT_BIT_CAP - 1) has COUNT_BIT_CAP bits; one more label passes
    assert g_count(COUNT_BIT_CAP - 1, 1).bit_length() == COUNT_BIT_CAP
    with pytest.raises(SizeOverBudget, match="bits") as info:
        g_count(COUNT_BIT_CAP, 1)
    assert info.value.cap == COUNT_BIT_CAP
    # a cap, when given, is the one refused
    with pytest.raises(SizeOverBudget) as info:
        g_count(COUNT_BIT_CAP, 1, DEFAULT_CAP)
    assert info.value.cap == DEFAULT_CAP


def test_listing_stops_at_the_first_empty_height():
    for h in (1, 2, 10 ** 7 - 1):
        assert list(g_forest(0, h)) == [SINGLETON]
        assert list(g_trees(0, h)) == [SINGLETON]
        assert h_forest(h, 0) == Forest([SINGLETON])


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
    # h_forest(i, 1) is refused where listing G(1, i + 1) is, although
    # h_count(i, 1) = 2i + 3 stays under the cap up to i = 4,999,998
    assert len(h_forest(1000, 1)) == 2003
    for i in (4471, 20000, 4_999_998):
        with pytest.raises(SizeOverBudget, match="steps") as info:
            h_forest(i, 1)
        assert (info.value.requested, info.value.cap) \
            == (4472 * 4473 // 2, DEFAULT_CAP)


def test_g_forest_small():
    f = g_forest(2, 1)
    assert set(f) == {SINGLETON, label_tree(0), label_tree(1),
                      parse_sexpr("(r (2) (3))")}


def test_g_forest_height_zero():
    # height 0 asks for no labels, so n past the prime cap lists the same
    for n in (1, 2, 5, 10 ** 7):
        assert list(g_forest(n, 0)) == [SINGLETON]
        assert list(g_trees(n, 0)) == [SINGLETON]
        assert list(all_valid_trees_bruteforce(n, 0)) == [SINGLETON]


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
        # the brute force builds in product order and sorts its own
        # listing, so this checks that sort against ordered_trees' order
        brute = all_valid_trees_bruteforce(n, h)
        assert type(brute) is tuple and g_forest(n, h) == brute


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
        assert g_forest(n, h) == _graft_raise_recurrence(n, h)


def test_bruteforce_single_label():
    assert len(all_valid_trees_bruteforce(1, 4)) == 5


def test_bruteforce_past_the_recursion_limit():
    # built level by level, so height is bounded by the budget alone
    assert same_trees(all_valid_trees_bruteforce(1, 1200), g_forest(1, 1200))
    assert list(all_valid_trees_bruteforce(0, 2000)) == [SINGLETON]


def test_g_forest_monotone_strict():
    for n in (1, 2, 3):
        for h in (0, 1):
            small, big = g_forest(n, h), g_forest(n, h + 1)
            assert all(t in big for t in small)
            assert len(big) > len(small)
            # a listing is a tuple whose lower heights are a prefix, which
            # h_forest slices
            assert isinstance(big, tuple)
            assert big[:g_count(n, h)] == small


def test_size_cap():
    with pytest.raises(SizeOverBudget):
        g_forest(10, 5)
    with pytest.raises(SizeOverBudget):
        all_valid_trees_bruteforce(10, 5)
    # refused by the call itself, before any tree is asked for, though
    # the 83,521 trees below height 3 are under the cap
    with pytest.raises(SizeOverBudget):
        g_trees(4, 3)
    # S_0 = 1 is held to the cap as every other count is
    for n in (0, 1, 3):
        with pytest.raises(SizeOverBudget) as info:
            g_count(n, 0, cap=0)
        assert (info.value.requested, info.value.cap) == (1, 0)


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
    # (range(6), 15) is the sieve's exponent call at its largest bound
    cases = [([0], 600), ([0, 1], 400), ([0, 1, 2], 300), ([1, 3], 500),
             (range(6), 15), (range(168), 1000)]
    for labels, bound in cases:
        primes = [prime_by_index(k) for k in labels]
        # each value once, paired with its own tree
        pairs = bounded_value_trees(labels, bound)
        assert sorted(v for v, _ in pairs) == [1] + _smooth_values(primes, bound)
        assert all(eval_integer_tree(t) == v for v, t in pairs)
        assert all(t == encode_integer(v) for v, t in pairs)
    # the 168 primes below 1000 are the only labels that add a value
    assert bounded_value_trees(range(10 ** 4), 1000) \
        == bounded_value_trees(range(168), 1000)


def test_value_bounded_budget_and_indices():
    with pytest.raises(DomainError, match="not iterable"):
        bounded_value_trees(3, 10)
    with pytest.raises(DomainError, match=">= 0"):
        bounded_value_trees([0, -1], 10)
    # refused before any prime is listed or tree built
    with pytest.raises(SizeOverBudget) as info:
        bounded_value_trees(range(3), DEFAULT_CAP + 1)
    assert (info.value.requested, info.value.cap) \
        == (DEFAULT_CAP + 1, DEFAULT_CAP)
    # an index whose prime is above the bound, or above the prime cap,
    # adds no value
    assert bounded_value_trees([0, 10 ** 9], 16) \
        == bounded_value_trees([0], 16)
    # an ascending range is clipped to the prime count before it is walked,
    # and a negative index in it is still refused
    start = time.perf_counter()
    assert bounded_value_trees(range(10 ** 9), 10) \
        == bounded_value_trees(range(4), 10)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError, match=">= 0"):
        bounded_value_trees(range(-1, 10 ** 9), 10)


@pytest.mark.parametrize("q", [13, 211, 1009])
def test_graft_generation_fixpoint_is_the_value_bounded_set(q):
    # the fidelity sieve's fixpoint over the primes <= q holds the trees
    # that bounded_value_trees builds in one step over their exponents
    labels = [Label(p) for p in primes_upto(q)]
    old, new = {}, {1: SINGLETON}
    while new != old:
        old, new = new, _graft_generation(labels, new, 2 * q)
    assert new == dict(bounded_value_trees(range(len(labels)), 2 * q))
