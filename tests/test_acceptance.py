"""End-to-end acceptance suite: one test per criterion, each printing a
pass/fail line (run with -s or look at captured output)."""

import itertools
import random
import time
from math import gcd

from primeforest.codec import (
    encode_integer,
    encode_rational,
    eval_integer_tree,
    eval_rational_tree,
)
from primeforest.errors import SizeOverBudget
from primeforest.forest_algebra import Forest, raise_forest
from primeforest.generator import all_valid_trees_bruteforce, g_count, g_forest
from primeforest.primes import prime_by_index
from primeforest.rationals import (
    calkin_wilf_stream,
    h_count,
    h_forest,
    minimal_stage,
    rational_tree_stream,
)
from primeforest.sieve import (
    combinatorial_sieve,
    composites_in_window,
    eratosthenes,
    literal_fixpoint_sieve,
)
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


def report(name, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS {name}{suffix}")


def test_criterion_1_bijection_suite():
    start = time.time()
    for m in range(1, 100_001):
        assert eval_integer_tree(encode_integer(m)) == m
    forest = g_forest(3, 2)
    assert len(forest) == 729
    for t in forest:
        assert encode_integer(eval_integer_tree(t)) == t
    elapsed = time.time() - start
    assert elapsed < 30
    report("criterion 1: bijection suite", elapsed)


def test_criterion_2_counting_vs_enumeration():
    start = time.time()
    expected = {(1, 1): 2, (1, 2): 3, (1, 3): 4, (1, 4): 5,
                (2, 1): 4, (2, 2): 25, (3, 1): 8, (3, 2): 729}
    for (n, h), size in expected.items():
        assert g_count(n, h) == size
        assert len(g_forest(n, h)) == size
    elapsed = time.time() - start
    assert elapsed < 10
    report("criterion 2: counting vs enumeration", elapsed)


def test_criterion_3_bruteforce_oracle():
    assert g_forest(2, 2) == all_valid_trees_bruteforce(2, 2)
    assert len(g_forest(2, 2)) == 25
    report("criterion 3: brute-force enumeration oracle")


def test_criterion_4_sieve_oracle():
    start = time.time()
    assert combinatorial_sieve(2) == [3]
    assert combinatorial_sieve(7) == [11, 13]
    for q in eratosthenes(101):
        assert combinatorial_sieve(q) \
            == [p for p in eratosthenes(2 * q) if p > q]
    for q in (3, 5, 7, 11, 13):
        assert literal_fixpoint_sieve(q) == combinatorial_sieve(q)
    elapsed = time.time() - start
    assert elapsed < 60
    report("criterion 4: sieve vs Eratosthenes oracle", elapsed)


def test_criterion_5_composite_gap_invariant():
    violations = 0
    for q in eratosthenes(101):
        values = [v for v, _ in composites_in_window(q)]
        violations += sum(1 for a, b in zip(values, values[1:]) if b - a > 2)
    assert violations == 0
    report("criterion 5: composite-gap invariant")


def test_criterion_6_rational_forests():
    expected = {(0, 1): 3, (0, 2): 9, (0, 3): 27, (1, 1): 5, (1, 2): 81}
    for (i, m), size in expected.items():
        forest = h_forest(i, m)
        assert h_count(i, m) == size
        assert len(forest) == size
        values = [eval_rational_tree(t) for t in forest]
        assert len(set(values)) == len(values)
        for v in values:
            assert gcd(v.numerator, v.denominator) == 1
    report("criterion 6: rational forest counts, distinct and reduced")


def _stage_bound(num, den):
    # stage needed for num/den, computed from the arithmetic alone:
    # prime indices and exponent-tower heights, recursively
    from primeforest.codec import factor
    from primeforest.primes import prime_index_of

    max_index = 0

    def tower_height(m):
        nonlocal max_index
        if m == 1:
            return 0
        h = 0
        for p, e in factor(m):
            max_index = max(max_index, prime_index_of(p) + 1)
            h = max(h, tower_height(e))
        return 1 + h

    root_sub = max(tower_height(num) - 1 if num > 1 else 0,
                   tower_height(den) - 1 if den > 1 else 0)
    return max(1, max_index, root_sub)


def _within(t, cap):
    """Whether t's value fits the cap, by the capped walk."""
    try:
        eval_rational_tree(t, cap=cap)
    except SizeOverBudget:
        return False
    return True


def test_criterion_7_stream_totality():
    start = time.time()
    trees = list(itertools.islice(rational_tree_stream(), 10_000))
    assert len(set(trees)) == 10_000
    # reduced form is structural: no prime heads both a plain and an
    # inverted root branch, and inverses never sit deeper
    for t in trees:
        plain = {l.prime for l, _ in t.branches if not l.inverted}
        inv = {l.prime for l, _ in t.branches if l.inverted}
        assert not plain & inv
    # exact values, where the exponent towers stay materializable
    feasible = [t for t in trees
                if all(_within(sub, 50_000) for _, sub in t.branches)]
    values = [eval_rational_tree(t) for t in feasible]
    assert len(set(values)) == len(values)
    for v in values:
        assert gcd(v.numerator, v.denominator) == 1
    # every early Calkin-Wilf value is reachable at its computed stage:
    # stage bound = max over the value's primes p of (index(p) + 1) and
    # the exponent-tower height it needs
    early = set(trees[:2601])  # exactly stages 1 and 2
    for v in itertools.islice(calkin_wilf_stream(), 500):
        t = encode_rational(v.numerator, v.denominator)
        bound = _stage_bound(v.numerator, v.denominator)
        stage = minimal_stage(t)
        assert stage <= bound
        # structural membership in h_forest(stage, stage)
        assert t.max_prime() < prime_by_index(stage)
        assert all(sub.height <= stage for _, sub in t.branches)
        if stage <= 2:
            assert t in early
    elapsed = time.time() - start
    assert elapsed < 120
    report("criterion 7: stream totality at desk scale", elapsed)


def test_criterion_8_algebraic_laws():
    rng = random.Random(8)
    for _ in range(1000):
        a = random_tree(rng, range(0, 10, 2), 3)
        b = random_tree(rng, range(1, 10, 2), 3)
        assert graft(a, b) == graft(b, a)
        assert graft(a, SINGLETON) == a
        assert parse_sexpr(to_sexpr(a)) == a
    for _ in range(1000):
        # exact evaluation needs shallow trees; height-3 exponent towers
        # do not fit in memory
        a = random_tree(rng, range(0, 10, 2), 2)
        b = random_tree(rng, range(1, 10, 2), 2)
        assert eval_integer_tree(graft(a, b)) \
            == eval_integer_tree(a) * eval_integer_tree(b)
    t0, t1 = label_tree(0), label_tree(1)
    assert raise_forest(t0, Forest([t1])) != raise_forest(t1, Forest([t0]))
    report("criterion 8: algebraic laws, 1000 randomized cases each")


def test_criterion_9_bounded_evaluation():
    # the height-4 tower 2^(2^(2^2)) evaluates to 65536, inside 10^6, so
    # the over-bound check runs on the next tower up, 2^65536
    tower4 = SINGLETON
    for _ in range(4):
        tower4 = Tree(((Label(2), tower4),))
    assert eval_rational_tree(tower4, cap=10 ** 6) == 65536
    tower5 = Tree(((Label(2), tower4),))
    start = time.time()
    assert not _within(tower5, 10 ** 6)
    elapsed = time.time() - start
    assert elapsed < 0.001
    report("criterion 9: bounded evaluation short-circuits towers")
