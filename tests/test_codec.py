import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeforest import codec
from primeforest.codec import (
    encode_integer,
    encode_rational,
    eval_integer_tree,
    eval_rational_tree,
    factor,
)
from primeforest.errors import (DomainError, InverseLabelPresent,
                                SizeOverBudget, ZeroInput)
from primeforest.generator import g_forest
from primeforest.primes import is_prime
from primeforest.tree_core import (
    SINGLETON,
    Label,
    Tree,
    graft,
    label_tree,
    parse_sexpr,
    to_sexpr,
)

from conftest import random_tree


def test_eval_known_values():
    assert eval_integer_tree(SINGLETON) == 1
    assert eval_integer_tree(label_tree(0)) == 2
    assert eval_integer_tree(label_tree(2)) == 5
    # chain r->2->3->2 is 2^(3^2), not (2^3)^2
    assert eval_integer_tree(parse_sexpr("(r (2 (3 (2))))")) == 512


def test_eval_fig2_tower():
    t = parse_sexpr("(r (2 (3) (7 (2))) (5))")
    assert eval_integer_tree(t) == 5 * 2 ** (3 * 7 ** 2)


def test_eval_rejects_inverted():
    with pytest.raises(InverseLabelPresent):
        eval_integer_tree(parse_sexpr("(r (1/2))"))
    with pytest.raises(InverseLabelPresent):
        eval_integer_tree(encode_rational(1, 2))


def test_encode_known_values():
    assert encode_integer(1) == SINGLETON
    assert to_sexpr(encode_integer(12)) == "(r (2 (2)) (3))"
    assert to_sexpr(encode_integer(512)) == "(r (2 (3 (2))))"


def test_encode_zero():
    for m in (0, -3):
        with pytest.raises(ZeroInput):
            encode_integer(m)


def test_encode_refuses_a_float_past_the_small_trees():
    # both encoders take integers only, so no float reaches the small-tree
    # index, gcd or factor's arithmetic
    for encode, value in ((encode_integer, 200.0), (encode_integer, 14.0),
                          (encode_rational, 2.0)):
        with pytest.raises(DomainError, match="not an integer"):
            encode(value)
    with pytest.raises(DomainError, match="not an integer"):
        encode_rational(3, 2.0)


def test_labels_past_the_bit_cap_are_refused_quickly():
    # 4,064 digits with no factor below 2^16: no Miller-Rabin base runs
    huge = ((2 ** 61 - 1) * (2 ** 89 - 1)) ** 90
    for refuse in (lambda: encode_integer(huge),
                   lambda: encode_rational(huge, 7),
                   lambda: parse_sexpr(f"(r ({huge}))"),
                   lambda: parse_sexpr(f"(r (1/{huge}))")):
        start = time.perf_counter()
        with pytest.raises(SizeOverBudget):
            refuse()
        assert time.perf_counter() - start < 1


def test_integer_roundtrip_range():
    for m in range(1, 5001):
        assert eval_integer_tree(encode_integer(m)) == m


def test_tree_roundtrip_over_forest():
    for t in g_forest(3, 2):
        assert encode_integer(eval_integer_tree(t)) == t


def test_eval_multiplicative(rng):
    # height capped at 2: taller random trees evaluate to towers too
    # large to materialize
    for _ in range(100):
        a = random_tree(rng, range(0, 8, 2), 2)
        b = random_tree(rng, range(1, 8, 2), 2)
        va, vb = eval_integer_tree(a), eval_integer_tree(b)
        assert eval_integer_tree(graft(a, b)) == va * vb
        # the evaluators agree, and a cap of va - 1 refuses
        assert eval_rational_tree(a, cap=va) == eval_rational_tree(a) == va
        with pytest.raises(SizeOverBudget):
            eval_rational_tree(a, cap=va - 1)
        # b's root labels inverted: the tree of va / vb
        r = Tree(a.branches + tuple((Label(label.prime, True), sub)
                                    for label, sub in b.branches))
        top = max(va, vb)
        assert eval_rational_tree(r) == eval_rational_tree(r, top) \
            == Fraction(va, vb)
        with pytest.raises(SizeOverBudget):
            eval_rational_tree(r, top - 1)


def test_rational_known_values():
    assert eval_rational_tree(parse_sexpr("(r (1/2))")) == Fraction(1, 2)
    assert eval_rational_tree(parse_sexpr("(r (3) (1/2 (2)))")) == Fraction(3, 4)
    assert eval_rational_tree(SINGLETON) == 1


def test_encode_rational_known():
    assert to_sexpr(encode_rational(8, 9)) == "(r (2 (3)) (1/3 (2)))"
    assert to_sexpr(encode_rational(6, 4)) == "(r (3) (1/2))"
    assert encode_rational(1, 1) == SINGLETON


def test_rational_roundtrip():
    for num in range(1, 80):
        for den in range(1, 80):
            t = encode_rational(num, den)
            v = eval_rational_tree(t)
            g = gcd(num, den)
            assert (v.numerator, v.denominator) == (num // g, den // g)
            assert encode_rational(v.numerator, v.denominator) == t


def _refused(t, cap):
    """eval_rational_tree(t, cap=cap) raises SizeOverBudget with that cap."""
    with pytest.raises(SizeOverBudget) as info:
        eval_rational_tree(t, cap=cap)
    assert info.value.cap == cap


def test_eval_bounded_agrees_below_bound():
    for m in range(1, 500):
        assert eval_rational_tree(encode_integer(m), cap=1000) == m
    # both sides of the cap, for values of one prime power and of towers
    for m in list(range(1, 300)) + [512, 2 ** 16, 3 ** 8, 5 ** 27, 2 ** 81,
                                    6 ** 25, 10 ** 30]:
        t = encode_integer(m)
        _refused(t, m - 1)
        for cap in (m, m + 1):
            assert eval_rational_tree(t, cap=cap) == m


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
       st.integers(-2, 2) | st.integers(-10 ** 6, 10 ** 6))
def test_a_cap_bounds_the_denominator_as_the_numerator(p, q, offset):
    g = gcd(p, q)
    p, q = p // g, q // g
    cap = max(0, max(p, q) + offset)
    t = encode_rational(p, q)
    if max(p, q) <= cap:
        assert eval_rational_tree(t, cap=cap) == Fraction(p, q)
    else:
        _refused(t, cap)


def test_eval_bounded_overbound():
    t = parse_sexpr("(r (2 (3 (2))))")  # 512
    _refused(t, 500)
    assert eval_rational_tree(t, cap=512) == 512
    assert eval_rational_tree(label_tree(0), cap=2) == 2
    assert eval_rational_tree(SINGLETON, cap=1) == 1


def test_eval_bounded_short_circuits_towers():
    tower = SINGLETON
    for _ in range(50):  # 2^2^...^2, fifty levels
        tower = Tree(((Label(2), tower),))
    _refused(tower, 10 ** 9)
    # 5,000 levels, deeper than the recursion limit: a capped walk gives
    # up within a few levels of the root
    for _ in range(4950):
        tower = Tree(((Label(2), tower),))
    assert tower.height == 5000
    _refused(tower, 10 ** 9)
    _refused(tower, 10 ** 4300)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 300), st.one_of(st.just(2), st.integers(3, 2 ** 70)))
def test_max_exponent_bounds_every_power(bound, base):
    e = codec._max_exponent(bound, base)
    assert base ** (e + 1) > bound
    assert (e >= 0) if bound else (e < 0)
    if base == 2 and bound:
        assert 2 ** e <= bound      # the exact exponent


def test_roundtrip_past_the_prime_table():
    # seeded primes in (10^8, 10^15), alone and times small primes; the
    # labels are checked by Miller-Rabin, with no prime table lookup
    rng = random.Random(15)
    big = []
    while len(big) < 40:
        n = rng.randrange(10 ** 8, 10 ** 15)
        if is_prime(n):
            big.append(n)
    for p in big:
        small = rng.choice([2, 3, 5, 12, 49, 2 ** 10])
        for num, den in ((p, 1), (p * small, 1), (p, small), (small, p)):
            tree = encode_rational(num, den)
            assert Label(p) in {label._replace(inverted=False)
                                for label, _ in tree.branches}
            back = eval_rational_tree(parse_sexpr(to_sexpr(tree)))
            assert back == Fraction(num, den)


def test_eval_rational_tree_cap():
    t = parse_sexpr("(r (2 (3)) (1/3 (2)))")
    assert eval_rational_tree(t, cap=9) == Fraction(8, 9)
    for cap in (8, 1, 0, -1):
        with pytest.raises(SizeOverBudget) as info:
            eval_rational_tree(t, cap=cap)
        assert info.value.cap == cap
    # below 1 no tree fits, not even the singleton
    for cap in (0, -1):
        with pytest.raises(SizeOverBudget):
            eval_rational_tree(SINGLETON, cap=cap)
    tower = parse_sexpr("(r (2 (2 (2 (2 (2 (2)))))))")
    with pytest.raises(SizeOverBudget):
        eval_rational_tree(tower, cap=10 ** 4300)


def test_factor():
    # 1 is the empty product
    assert factor(1) == []
    with pytest.raises(ValueError):
        factor(0)
    assert factor(12) == [(2, 2), (3, 1)]
    assert factor(97) == [(97, 1)]
    assert factor(1024) == [(2, 10)]
    for m in range(2, 2000):
        prod = 1
        last = 1
        for p, e in factor(m):
            assert p > last
            assert e >= 1
            prod *= p ** e
            last = p
        assert prod == m


def _reference_encode(m):
    # the table-free recursive encoder
    if m == 1:
        return SINGLETON
    return Tree(tuple((Label(p), _reference_encode(e)) for p, e in factor(m)))


def test_exponent_table_matches_the_reference():
    table = codec._SMALL_TREES
    assert len(table) == 128 and table[1] is SINGLETON
    for e in range(1, 128):
        assert table[e] == _reference_encode(e)
        assert encode_integer(e) is table[e]


def test_large_exponents_take_the_recursive_fallback(monkeypatch):
    calls = []

    def spying_encode(m):
        calls.append(m)
        return encode_integer(m)

    monkeypatch.setattr(codec, "encode_integer", spying_encode)
    # exponents below 128 are table reads inside encode_integer
    for m, large in ((2 ** 200, [200]), (3 ** 130 * 5, [130]),
                     (2 ** 127 * 3 ** 127, [])):
        calls.clear()
        tree = encode_integer(m)
        assert [e for e in calls if e >= 128] == large
        assert tree == _reference_encode(m)
        assert eval_integer_tree(parse_sexpr(to_sexpr(tree))) == m
    calls.clear()
    assert encode_rational(5, 2 ** 200) == Tree(
        ((Label(5), SINGLETON), (Label(2, True), _reference_encode(200))))
    assert [e for e in calls if e >= 128] == [200]
