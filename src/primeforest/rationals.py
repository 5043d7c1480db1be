"""Rational-valued forests and a duplicate-free enumeration of Q+.

h_forest(i, m) grafts, for each of the first m primes, one of: an
inverted-prime tree raised by an exponent forest, nothing, or the plain
prime raised likewise.  Its members evaluate to distinct reduced
rationals.  rational_stream() walks the nested stages h_forest(s, s),
s = 1, 2, ..., generating each stage's new trees in canonical order, never
the whole stage; every positive rational has finite prime support and
tower height, so it appears at some finite stage.
"""

import itertools
from fractions import Fraction

from .codec import eval_rational_tree
from .forest_algebra import (
    UNIT_FOREST, graft_forests, ordered_trees, raise_forest)
from .generator import DEFAULT_CAP, _capped_power, g_count, g_forest
from .primes import prime_by_index, prime_index_of
from .tree_core import SINGLETON, Label, label_tree

# stage_trees takes the enumerator's trees this many at a time: resuming
# its recursive generators costs more per tree than reading a list, and
# stage 3's height-3 block (about 3 * 10^9 trees) can never be a list.
_BATCH = 4096


def h_count(i, m, cap=None):
    """Predicted size of h_forest(i, m): each prime independently
    contributes nothing, or one of 2 * g_count(m, i) raised trees.  Given
    a cap, a count above it raises SizeOverBudget before it is built."""
    return _capped_power(1 + 2 * g_count(m, i, cap), m, cap,
                         f"h_count({i}, {m})")


def h_forest(i, m, cap=DEFAULT_CAP):
    """All rational trees over the first m primes whose root branches carry
    exponent trees of height <= i."""
    h_count(i, m, cap)
    exponents = g_forest(m, i, cap)
    acc = UNIT_FOREST
    for k in range(m):
        factor = (raise_forest(label_tree(k, inverted=True), exponents)
                  .union(UNIT_FOREST)
                  .union(raise_forest(label_tree(k), exponents)))
        acc = graft_forests(acc, factor)
    return acc


def minimal_stage(t):
    """Smallest s with t a member of h_forest(s, s)."""
    if t.is_singleton:
        return 1
    return max(t.height - 1, prime_index_of(t.max_prime()) + 1)


def rational_tree_stream(cap=DEFAULT_CAP):
    """Unbounded stream of trees, one per positive rational, duplicate-free.

    Stage s emits the members of h_forest(s, s) not already seen at stage
    s - 1, in canonical tree order, without materializing whole stages.
    """
    for s in itertools.count(1):
        yield from stage_trees(s, cap)


def rational_stream(cap=DEFAULT_CAP):
    """rational_tree_stream paired with exact evaluations.

    Beware: deep in the stream, exponent towers make exact values
    astronomically large; consume through rational_tree_stream when only
    the trees are needed.
    """
    return ((eval_rational_tree(t), t) for t in rational_tree_stream(cap))


def stage_trees(s, cap=DEFAULT_CAP):
    """Canonical-order members of h_forest(s, s) absent from the previous
    stage, generated lazily height by height."""
    if s == 1:
        yield SINGLETON
    labels = [Label(p, inverted) for inverted in (False, True)
              for p in map(prime_by_index, range(s))]
    for height in range(1, s + 2):
        trees = ordered_trees(labels, g_forest(s, height - 1, cap), height)
        while batch := list(itertools.islice(trees, _BATCH)):
            yield from [t for t in batch if minimal_stage(t) == s]


def calkin_wilf_stream():
    """The classical duplicate-free enumeration of Q+ (oracle role):
    1, 1/2, 2, 1/3, 3/2, 2/3, 3, ... via x -> 1/(2*floor(x) - x + 1)."""
    x = Fraction(1)
    while True:
        yield x
        x = 1 / (2 * (x.numerator // x.denominator) - x + 1)
