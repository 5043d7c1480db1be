"""Rational-valued forests and a duplicate-free enumeration of Q+.

h_forest(i, m), listed through ordered_trees, grafts for each of the first
m primes one of: an inverted-prime tree raised by an exponent forest,
nothing, or the plain prime raised likewise.  Its members evaluate to
distinct reduced rationals.  rational_stream() walks the nested stages
h_forest(s, s), s = 1, 2, ..., generating each stage's new trees in
canonical order, never the whole stage; every positive rational has
finite prime support and tower height, so it appears at some finite
stage.  A tree of stage s is new there when its height is s + 1 or a root
branch is new: the branch's label or its subtree has the prime p_{s-1}.
"""

import itertools
from fractions import Fraction

from .codec import eval_rational_tree
from .errors import DomainError, as_integer
from .forest_algebra import ordered_trees
from .generator import (DEFAULT_CAP, _capped_power, _check_listing, _integers,
                        g_count, g_forest)
from .primes import first_primes, prime_index_of
from .tree_core import SINGLETON, Label

# stage_trees takes the enumerator's trees this many at a time, with a new
# batch at every height, for per-item latency: one item per batch does the
# enumerator's work, the rest are list reads.  In the stream bench (Python
# 3.11, 2 vCPU, six 8 s pairs) p50 is 2.5 against 5.0 us unbatched and p99
# 7.9 against 27 us, at 162k against 154k items/s; the first 100,000 trees
# take 0.43 s either way (median of ten runs).  Batches that ran across
# heights cost about 15% at 11,000 items.  Stage 3's height-3 block (about
# 3 * 10^9 trees) can never be a list.
_BATCH = 4096


def h_count(i, m, cap=None):
    """Predicted size of h_forest(i, m): each prime independently
    contributes nothing, or one of 2 * g_count(m, i) raised trees.  Given
    a cap, a count above it raises SizeOverBudget before it is built."""
    i, m, cap = _integers(i, m, cap)
    what = f"h_count({i}, {m})"
    for name, value in (("i", i), ("m", m)):
        if value < 0:
            raise DomainError(f"{what}: {name} must be >= 0")
    return _capped_power(1 + 2 * g_count(m, i, cap), m, cap, what)


def h_forest(i, m):
    """The tuple of all rational trees over the first m primes whose root
    branches carry exponent trees of height <= i, as ordered_trees lists
    them.  Height k hangs the first g_count(m, k - 1) trees of one G(m, i),
    whose first sort key is height; with no primes it stops at height 1.
    Refused over h_count's cap, and wherever listing G(m, i + 1) is."""
    h_count(i, m, DEFAULT_CAP)
    _check_listing(m, i + 1)
    labels = [Label(p, inv) for inv in (False, True) for p in first_primes(m)]
    subs = g_forest(m, i)
    trees = [SINGLETON]
    for height in range(1, i + 2 if m else 1):
        trees += ordered_trees(labels, subs[:g_count(m, height - 1)], height)
    return tuple(trees)


def minimal_stage(t):
    """Smallest s with t a member of h_forest(s, s)."""
    if t.is_singleton:
        return 1
    return max(t.height - 1, prime_index_of(t.max_prime()) + 1)


def rational_tree_stream():
    """Unbounded stream of trees, one per positive rational, duplicate-free.

    Stage s emits the members of h_forest(s, s) not already seen at stage
    s - 1, in canonical tree order, without materializing whole stages.
    """
    for s in itertools.count(1):
        yield from stage_trees(s)


def rational_stream(cap=None):
    """rational_tree_stream paired with exact evaluations.

    Deep in the stream, exponent towers make exact values astronomically
    large (past 2^(10^6) from item 7,437 on).  Given a cap, a numerator or
    denominator above it raises SizeOverBudget before it is built.
    """
    cap = None if cap is None else as_integer(cap)
    return ((eval_rational_tree(t, cap), t) for t in rational_tree_stream())


def stage_trees(s):
    """Canonical-order members of h_forest(s, s) absent from the previous
    stage, generated lazily height by height.  Newness is read per root
    branch: one is new when its label (plain or inverted) or its subtree
    has p_{s-1}, tested by minimal_stage once per subtree and height; at
    height s + 1 every tree, so every branch, is new."""
    if s == 1:
        yield SINGLETON
    labels = [Label(p, inv) for inv in (False, True) for p in first_primes(s)]
    for height in range(1, s + 2):
        subs = g_forest(s, height - 1)
        new_subs = {sub for sub in subs
                    if height > s or minimal_stage(sub) == s}
        new_branches = {(label, sub) for label in labels for sub in subs
                        if label.prime == labels[-1].prime or sub in new_subs}
        trees = ordered_trees(labels, subs, height)
        while batch := list(itertools.islice(trees, _BATCH)):
            yield from [t for t in batch
                        if not new_branches.isdisjoint(t.branches)]


def calkin_wilf_stream():
    """The classical duplicate-free enumeration of Q+ (oracle role):
    1, 1/2, 2, 1/3, 3/2, 2/3, 3, ... via x -> 1/(2*floor(x) - x + 1)."""
    x = Fraction(1)
    while True:
        yield x
        x = 1 / (2 * (x.numerator // x.denominator) - x + 1)
