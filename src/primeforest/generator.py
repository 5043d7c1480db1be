"""Bounded-height forest generation and its counting recurrence.

g_forest(n, h) builds, by grafting and raising, the forest of all validly
labeled trees over n labels with height at most h.  g_count predicts its
size exactly, all_valid_trees_bruteforce re-derives the same set from
subtrees of the complete n-ary tree, and g_stream_value_bounded prunes
generation by integer value instead of height.
"""

import itertools

from .codec import _approx, ilog
from .errors import DomainError, SizeOverBudget
from .forest_algebra import Forest, UNIT_FOREST, graft_forests, raise_forest
from .primes import prime_by_index
from .tree_core import SINGLETON, Label, Tree, label_tree

DEFAULT_CAP = 10 ** 7

_g_cache = {}


def g_count(n, h, cap=None):
    """Number of validly labeled trees over n labels with height <= h.

    S_0 = 1, S_i = (1 + S_{i-1})^n; exact big-integer arithmetic.  Given a
    cap, a count above it raises SizeOverBudget, and each step's bit
    length is bounded before its power is taken, so no count far above
    the cap is ever built.
    """
    s = 1
    for _ in range(h):
        s = _capped_power(1 + s, n, cap, f"g_count({n}, {h})")
    return s


def _capped_power(base, n, cap, what):
    """base ** n, a count named `what`.  Given a cap, a power above it
    raises SizeOverBudget; a power whose bit length alone passes the cap
    is refused before it is built."""
    if cap is None:
        return base ** n
    # base >= 2**(bit_length - 1), so base**n >= 2**cap.bit_length() > cap
    if (base.bit_length() - 1) * n >= cap.bit_length():
        raise SizeOverBudget(f"{what} exceeds the cap {_approx(cap)}",
                             cap=cap)
    s = base ** n
    if s > cap:
        raise SizeOverBudget(
            f"{what} exceeds the cap {_approx(cap)}", requested=s, cap=cap)
    return s


def g_forest(n, h, cap=DEFAULT_CAP):
    """The forest of all validly labeled trees over n labels, height <= h."""
    g_count(n, h, cap)
    key = (n, h)
    if key in _g_cache:
        return _g_cache[key]
    forest = UNIT_FOREST
    for i in range(1, h + 1):
        nxt = UNIT_FOREST
        for k in range(n):
            factor = UNIT_FOREST.union(raise_forest(label_tree(k), forest))
            grown = graft_forests(nxt, factor)
            # every pairwise graft must be distinct here
            if len(grown) != len(nxt) * len(factor):
                raise DomainError(
                    f"g_forest({n}, {i}): pairwise grafts collided")
            nxt = grown
        forest = nxt
        _g_cache[(n, i)] = forest
    _g_cache[key] = forest
    return forest


def all_valid_trees_bruteforce(n, h, cap=DEFAULT_CAP):
    """Independent enumeration via rooted subtrees of the complete n-ary tree.

    Each of the n child slots of a vertex is either absent or carries,
    recursively, any subtree of the next level down; slot k maps to
    label k.
    """
    g_count(n, h, cap)
    return Forest(_subtrees(n, h))


def _subtrees(n, h):
    if h == 0:
        return [SINGLETON]
    labels = [Label(prime_by_index(k)) for k in range(n)]
    options = [None] + _subtrees(n, h - 1)
    out = []
    for combo in itertools.product(options, repeat=n):
        branches = tuple((label, sub)
                         for label, sub in zip(labels, combo) if sub is not None)
        out.append(Tree(branches))
    return out


def g_stream_value_bounded(prime_indices, bound):
    """Yield, in canonical order, every non-singleton tree over the given
    prime labels whose integer evaluation is <= bound.

    Sound pruning: attaching a branch or deepening an exponent multiplies
    the evaluation by at least 2, so search is cut at the bound.
    """
    if bound < 2:
        return
    pairs = bounded_value_trees(prime_indices, bound)
    for tree in sorted(t for _, t in pairs if not t.is_singleton):
        yield tree


def bounded_value_trees(prime_indices, bound):
    """All (value, tree) pairs with value <= bound over the given labels,
    singleton included.  Values are exactly the integers in [1, bound]
    whose factorization, recursively through exponents, stays inside the
    label set.
    """
    labels = [Label(p) for p in sorted(map(prime_by_index, set(prime_indices)))]
    trees_memo = {}
    combo_memo = {}

    def trees_upto(budget):
        # (value, tree) with value <= budget
        if budget < 1:
            return []
        if budget not in trees_memo:
            trees_memo[budget] = [
                (v, Tree(branches)) for v, branches in combos(0, budget)]
        return trees_memo[budget]

    def combos(i, budget):
        # (value, branches) built from primes[i:], value <= budget
        key = (i, budget)
        if key in combo_memo:
            return combo_memo[key]
        out = [(1, ())]
        for j in range(i, len(labels)):
            label = labels[j]
            p = label.prime
            if p > budget:
                break
            max_exp = ilog(budget, p)
            for e, etree in trees_upto(max_exp):
                pe = p ** e
                for v, branches in combos(j + 1, budget // pe):
                    out.append((pe * v, ((label, etree),) + branches))
        combo_memo[key] = out
        return out

    return trees_upto(bound)
