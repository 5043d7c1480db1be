import hashlib
import itertools
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from primeforest.codec import (
    encode_rational,
    eval_integer_tree,
    eval_rational_tree,
)
from primeforest.rationals import (
    calkin_wilf_stream,
    h_count,
    h_forest,
    minimal_stage,
    rational_stream,
    rational_tree_stream,
    stage_trees,
)
from primeforest.errors import SizeOverBudget
from primeforest.primes import prime_by_index
from primeforest.tree_core import SINGLETON, to_sexpr

SRC = Path(__file__).resolve().parents[1] / "src"


def test_h_count_values():
    assert h_count(1, 1) == 5
    assert h_count(0, 1) == 3
    assert h_count(0, 2) == 9
    assert h_count(0, 3) == 27
    assert h_count(1, 2) == 81


def test_counts_refuse_past_the_cap():
    start = time.perf_counter()
    with pytest.raises(SizeOverBudget):
        h_forest(10, 10)
    assert time.perf_counter() - start < 1
    with pytest.raises(SizeOverBudget) as info:
        h_count(1, 2, cap=80)
    assert (info.value.requested, info.value.cap) == (81, 80)
    assert h_count(1, 2, cap=81) == 81


def test_h_forest_one_prime_height_one():
    values = sorted(eval_rational_tree(t) for t in h_forest(1, 1))
    assert values == [Fraction(1, 4), Fraction(1, 2), Fraction(1),
                      Fraction(2), Fraction(4)]


def test_h_forest_height_zero():
    values = sorted(eval_rational_tree(t) for t in h_forest(0, 1))
    assert values == [Fraction(1, 2), Fraction(1), Fraction(2)]
    assert len(h_forest(0, 2)) == 9
    assert len(h_forest(0, 3)) == 27


def test_h_forest_counts_and_distinct_reduced():
    for i, m in [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]:
        forest = h_forest(i, m)
        assert len(forest) == h_count(i, m)
        values = [eval_rational_tree(t) for t in forest]
        assert len(set(values)) == len(values)
        for v in values:
            assert gcd(v.numerator, v.denominator) == 1


def test_h_forest_monotone():
    for i, m in [(0, 1), (0, 2), (1, 1)]:
        base = h_forest(i, m)
        taller = h_forest(i + 1, m)
        wider = h_forest(i, m + 1)
        assert all(t in taller for t in base) and len(taller) > len(base)
        assert all(t in wider for t in base) and len(wider) > len(base)


def test_integer_slice_consistency():
    for t in h_forest(1, 2):
        if not t.has_inverted:
            assert eval_rational_tree(t) == eval_integer_tree(t)


def _member_predicate(t, i, m):
    # structural membership in h_forest(i, m)
    return (t.max_prime() < prime_by_index(m)
            and all(sub.height <= i for _, sub in t.branches))


def test_membership_predicate_matches_materialized():
    probe = list(h_forest(2, 2)) + list(h_forest(1, 3))
    for i, m in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]:
        forest = h_forest(i, m)
        for t in probe:
            assert (t in forest) == _member_predicate(t, i, m)


def test_stage_trees_match_forest_differences():
    h11, h22 = h_forest(1, 1), h_forest(2, 2)
    s1 = list(stage_trees(1))
    s2 = list(stage_trees(2))
    assert set(s1) == set(h11)
    assert set(s2) == set(h22.difference(h11))
    assert s1 == sorted(s1)
    assert s2 == sorted(s2)


def test_stage_three_below_height_three():
    # stage 3's trees of height <= 2 are h_forest(1, 3) less earlier stages
    low = list(itertools.takewhile(lambda t: t.height <= 2, stage_trees(3)))
    expected = sorted(t for t in h_forest(1, 3) if minimal_stage(t) == 3)
    assert len(expected) == 4_832
    assert low == expected


def test_stream_golden_hash():
    text = "".join(to_sexpr(t) + "\n"
                   for t in itertools.islice(rational_tree_stream(), 11_000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f923d7c34fb7512c5d22ec7c2acba7929f194bfa4239c9e6cedbced51af8e4e9")


def test_stream_hundred_thousand_items():
    # in a subprocess, so that a stalled stream fails on the timeout
    code = ("import itertools\n"
            "from primeforest.rationals import minimal_stage, "
            "rational_tree_stream\n"
            "trees = list(itertools.islice(rational_tree_stream(), 100_000))\n"
            "assert len(set(trees)) == 100_000\n"
            "stages = [minimal_stage(t) for t in trees]\n"
            "assert all(a <= b for a, b in zip(stages, stages[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={"PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_stream_first_entries():
    first = list(itertools.islice(rational_stream(), 5))
    assert first[0][0] == Fraction(1)
    assert first[0][1] == SINGLETON
    assert {v for v, _ in first} \
        == {Fraction(1), Fraction(2), Fraction(1, 2), Fraction(4),
            Fraction(1, 4)}


def test_stream_duplicate_free_prefix():
    trees = list(itertools.islice(rational_tree_stream(), 4000))
    assert len(set(trees)) == len(trees)
    values = [eval_rational_tree(t) for t in trees[:2601]]
    assert len(set(values)) == len(values)


def test_minimal_stage():
    assert minimal_stage(SINGLETON) == 1
    assert minimal_stage(encode_rational(3, 5)) == 3
    assert minimal_stage(encode_rational(1, 2)) == 1
    assert minimal_stage(encode_rational(512, 1)) == 2  # 2^(3^2) needs height 2


def test_three_fifths_in_stage_three():
    t = encode_rational(3, 5)
    assert _member_predicate(t, 3, 3)
    assert not _member_predicate(t, 2, 2)


def test_calkin_wilf_known_prefix():
    got = list(itertools.islice(calkin_wilf_stream(), 8))
    assert got == [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3),
                   Fraction(3, 2), Fraction(2, 3), Fraction(3), Fraction(1, 4)]


def test_calkin_wilf_distinct_reduced():
    seen = set()
    for v in itertools.islice(calkin_wilf_stream(), 10000):
        assert v > 0
        assert v not in seen
        seen.add(v)


def test_stream_values_appear_in_calkin_wilf():
    # both enumerate Q+; check a finite prefix by membership
    stage_one = {v for v, _ in itertools.islice(rational_stream(), 5)}
    cw_prefix = set(itertools.islice(calkin_wilf_stream(), 20))
    assert stage_one <= cw_prefix
