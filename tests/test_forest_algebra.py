import copy
import itertools
import pickle
import re

import pytest

from primeforest.codec import encode_rational
from primeforest.errors import DomainError, SiblingCollision
from primeforest.forest_algebra import (
    Forest,
    graft_forests,
    ordered_lines,
    ordered_trees,
    raise_forest,
)
from primeforest.generator import g_forest, g_lines, g_trees
from primeforest.primes import first_primes
from primeforest.tree_core import (
    SINGLETON, Label, Tree, _cmp, label_tree, parse_sexpr, same_trees,
    to_sexpr)


def test_forest_dedupes_and_orders():
    f = Forest([label_tree(1), SINGLETON, label_tree(0), label_tree(0)])
    assert len(f) == 3
    assert list(f)[0] == SINGLETON
    # a member that is not a tree is refused by name before any hash or sort
    for members, first in (([1, 2], "1"), ([SINGLETON, 1], "1"),
                           ([[1]], "[1]")):
        with pytest.raises(DomainError, match=rf"not {re.escape(first)}$"):
            Forest(members)


def test_graft_forests_pairwise():
    f = Forest([SINGLETON, label_tree(0)])
    g = Forest([SINGLETON, label_tree(1)])
    result = graft_forests(f, g)
    assert len(result) == 4
    expected = {SINGLETON, label_tree(0), label_tree(1),
                parse_sexpr("(r (2) (3))")}
    assert set(result) == expected


def test_graft_forests_unit():
    f = Forest([label_tree(0), label_tree(2)])
    assert graft_forests(Forest([SINGLETON]), f) == f


def test_graft_forests_commutes():
    f = Forest([SINGLETON, label_tree(0)])
    g = Forest([SINGLETON, label_tree(1), label_tree(3)])
    assert graft_forests(f, g) == graft_forests(g, f)


def test_graft_forests_collision():
    f = Forest([label_tree(0)])
    with pytest.raises(SiblingCollision):
        graft_forests(f, f)


def test_raise_forest_attaches_at_every_leaf():
    # raising {r->3->(5,7), r->(5,7)} by the two-vertex tree labeled 2
    t2 = label_tree(0)
    f = Forest([parse_sexpr("(r (3 (5) (7)))"),
                parse_sexpr("(r (5) (7))")])
    raised = raise_forest(t2, f)
    assert {to_sexpr(t) for t in raised} == {
        "(r (2 (3 (5) (7))))",
        "(r (2 (5) (7)))",
    }


def test_raise_forest_multi_leaf_duplicates_subtree():
    t = parse_sexpr("(r (2) (3))")
    raised = raise_forest(t, Forest([label_tree(2)]))
    assert {to_sexpr(x) for x in raised} == {"(r (2 (5)) (3 (5)))"}


def test_raise_by_singleton_collapses():
    f = Forest([label_tree(0), label_tree(1)])
    assert raise_forest(SINGLETON, f) == Forest([SINGLETON])


def test_raise_of_singleton_member_is_identity():
    assert raise_forest(label_tree(0), Forest([SINGLETON])) \
        == Forest([label_tree(0)])


def test_raising_a_tall_tree_needs_no_recursion():
    # a chain of 1,500 labels 2, past the default recursion limit
    tall = g_forest(1, 1500)[-1]
    assert [t.height for t in raise_forest(tall, g_forest(1, 1))] \
        == [1500, 1501]


def test_raise_preserves_size():
    f = Forest([SINGLETON, label_tree(1), parse_sexpr("(r (2) (5))")])
    assert len(raise_forest(label_tree(0), f)) == len(f)


def test_raise_not_commutative():
    t0, t1 = label_tree(0), label_tree(1)
    assert raise_forest(t0, Forest([t1])) != raise_forest(t1, Forest([t0]))


def test_forests_built_apart_differ_at_the_bottom():
    # same_trees walks each pair of shared subtrees once, and a difference
    # at the bottom of the last, tallest tree still shows, in the walk as
    # in the hashes; tuple's == and != agree
    tall, apart = g_forest(1, 300), g_forest(1, 300)
    chain = Tree(((Label(3), SINGLETON),))
    for _ in range(299):
        chain = Tree(((Label(2), chain),))
    other = Forest(list(tall)[:-1] + [chain])
    assert len(other) == len(tall) and other != tall
    assert not same_trees(other, apart) and not same_trees(apart, other)
    restored = Forest(list(other)[:-1] + [list(tall)[-1]])
    assert restored == apart and same_trees(restored, apart)
    same = set()
    assert _cmp(tall[-1], apart[-1], same) == 0
    assert _cmp(chain, apart[-1], same) == 1


def test_set_operations():
    f = Forest([SINGLETON, label_tree(0)])
    g = Forest([SINGLETON])
    assert g.union(Forest([label_tree(0)])) == f
    assert label_tree(0) in f
    assert label_tree(0) not in g
    assert 3 not in f and "(r)" not in f
    # kept for the bench's forest probe: the forest is its own trees
    assert f.trees is f


def _pickled_at(protocol):
    return lambda x: pickle.loads(pickle.dumps(x, protocol))


# protocols 0 and 1 rebuild a tuple subclass without calling its __new__
@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda x: pickle.loads(pickle.dumps(x))]
                         + [pytest.param(_pickled_at(p), id=f"protocol{p}")
                            for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_trees_and_forests_copy_and_pickle(copier):
    def texts(x):
        return [to_sexpr(t) for t in (x if isinstance(x, Forest) else [x])]

    forest = g_forest(2, 2)
    for x in (encode_rational(8, 9), forest[-1], forest):
        y = copier(x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and texts(y) == texts(x)


def _labels(n, signed):
    # ascending sort_rank: every plain label before every inverted one
    return [Label(p, inverted) for inverted in (False, True)[:1 + signed]
            for p in first_primes(n)]


def _reference(labels, subs, height):
    """Every product of distinct-prime labels and subtrees of exactly
    `height`, sorted."""
    out = []
    for k in range(1, len(labels) + 1):
        for picked in itertools.combinations(labels, k):
            if len({label.prime for label in picked}) == k:
                out += (Tree(zip(picked, combo))
                        for combo in itertools.product(subs, repeat=k))
    return sorted(t for t in out if t.height == height)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_ordered_trees_matches_the_reference(n, height, signed):
    labels = _labels(n, signed)
    subs = g_forest(n, height - 1)
    if (n, height) == (3, 3):
        # G(3, 2)'s 729 trees are too many for the reference: keep a
        # canonical-order sample of every height below 3
        subs = subs[:8:3] + subs[8::60]
    listed = list(ordered_trees(labels, subs, height))
    assert listed and listed == _reference(labels, subs, height)
    # the line lister walks the same order from the branches' texts
    assert list(ordered_lines(labels, subs, height)) == [
        to_sexpr(t) + "\n" for t in listed]


@pytest.mark.parametrize("signed", [False, True])
def test_ordered_trees_needs_a_subtree_one_below_the_height(signed):
    labels = _labels(2, signed)
    subs = g_forest(2, 1)
    assert _reference(labels, subs, 3) == []
    assert list(ordered_trees(labels, subs, 3)) == []


def test_ordered_trees_over_one_label_is_the_tower():
    chain = SINGLETON
    for height in range(1, 31):
        subs = g_forest(1, height - 1)
        chain = Tree(((Label(2), chain),))
        assert list(ordered_trees([Label(2)], subs, height)) == [chain]


def test_listed_trees_share_their_branch_pairs():
    # each (label, subtree) pair is one object, whichever tree holds it
    tall = [t for t in g_trees(4, 2) if t.height == 2]
    assert len({id(branch) for t in tall for branch in t.branches}) == 4 * 16


@pytest.mark.parametrize("n, h", [(0, 5), (5, 0), (1, 40), (2, 3), (3, 2),
                                  (4, 2), (6, 1)])
def test_the_line_listing_prints_the_tree_listing(n, h):
    assert "".join(g_lines(n, h)) == "".join(to_sexpr(t) + "\n"
                                             for t in g_trees(n, h))
