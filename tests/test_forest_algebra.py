import copy
import pickle

import pytest

from primeforest.codec import encode_rational
from primeforest.errors import SiblingCollision
from primeforest.forest_algebra import (
    Forest,
    graft_forests,
    raise_forest,
)
from primeforest.generator import g_forest
from primeforest.tree_core import SINGLETON, label_tree, to_sexpr, validate


def test_forest_dedupes_and_orders():
    f = Forest([label_tree(1), SINGLETON, label_tree(0), label_tree(0)])
    assert len(f) == 3
    assert list(f)[0] == SINGLETON


def test_graft_forests_pairwise():
    f = Forest([SINGLETON, label_tree(0)])
    g = Forest([SINGLETON, label_tree(1)])
    result = graft_forests(f, g)
    assert len(result) == 4
    expected = {SINGLETON, label_tree(0), label_tree(1),
                validate([(2, []), (3, [])])}
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
    f = Forest([validate([(3, [(5, []), (7, [])])]),
                validate([(5, []), (7, [])])])
    raised = raise_forest(t2, f)
    assert {to_sexpr(t) for t in raised} == {
        "(r (2 (3 (5) (7))))",
        "(r (2 (5) (7)))",
    }


def test_raise_forest_multi_leaf_duplicates_subtree():
    t = validate([(2, []), (3, [])])
    raised = raise_forest(t, Forest([label_tree(2)]))
    assert {to_sexpr(x) for x in raised} == {"(r (2 (5)) (3 (5)))"}


def test_raise_by_singleton_collapses():
    f = Forest([label_tree(0), label_tree(1)])
    assert raise_forest(SINGLETON, f) == Forest([SINGLETON])


def test_raise_of_singleton_member_is_identity():
    assert raise_forest(label_tree(0), Forest([SINGLETON])) \
        == Forest([label_tree(0)])


def test_raise_preserves_size():
    f = Forest([SINGLETON, label_tree(1), validate([(2, []), (5, [])])])
    assert len(raise_forest(label_tree(0), f)) == len(f)


def test_raise_not_commutative():
    t0, t1 = label_tree(0), label_tree(1)
    assert raise_forest(t0, Forest([t1])) != raise_forest(t1, Forest([t0]))


def test_set_operations():
    f = Forest([SINGLETON, label_tree(0)])
    g = Forest([SINGLETON])
    assert g.union(Forest([label_tree(0)])) == f
    assert label_tree(0) in f
    assert label_tree(0) not in g
    assert 3 not in f and "(r)" not in f


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda x: pickle.loads(pickle.dumps(x))])
def test_trees_and_forests_copy_and_pickle(copier):
    def texts(x):
        return [to_sexpr(t) for t in (x if isinstance(x, Forest) else [x])]

    forest = g_forest(2, 2)
    for x in (encode_rational(8, 9), forest.trees[-1], forest):
        y = copier(x)
        assert y == x and hash(y) == hash(x) and texts(y) == texts(x)
