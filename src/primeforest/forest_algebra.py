"""Duplicate-free forests, the two forest operators (grafting and raising)
and the canonical-order enumerator of trees of one height."""

from bisect import bisect_left

from .errors import SiblingCollision
from .tree_core import SINGLETON, Tree, graft, to_sexpr


class Forest:
    """An immutable set of trees, iterated in canonical tree order."""

    __slots__ = ("trees",)

    def __init__(self, trees=()):
        # dict keeps input order, so canonical input sorts in one pass
        object.__setattr__(self, "trees", tuple(sorted(dict.fromkeys(trees))))

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __reduce__(self):
        return Forest, (self.trees,)

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __contains__(self, t):
        if not isinstance(t, Tree):
            return False
        i = bisect_left(self.trees, t)
        return i < len(self.trees) and self.trees[i] == t

    def __eq__(self, other):
        return isinstance(other, Forest) and self.trees == other.trees

    def __hash__(self):
        return hash(self.trees)

    def __repr__(self):
        return f"Forest<{len(self)} trees>"

    def union(self, other):
        return Forest(self.trees + tuple(other))


UNIT_FOREST = Forest([SINGLETON])


def graft_forests(f, g):
    """Forest of all pairwise grafts of members of f and g, deduplicated."""
    out = []
    for a in f:
        for b in g:
            try:
                out.append(graft(a, b))
            except SiblingCollision as exc:
                raise SiblingCollision(
                    f"cannot graft {to_sexpr(a)} with {to_sexpr(b)}: {exc}")
    return Forest(out)


def raise_forest(t, forest):
    """Replace each member of `forest` by t with that member's branches
    attached beneath every leaf of t.

    The singleton member maps to t itself; raising by the singleton
    collapses everything to the singleton.
    """
    if t.is_singleton:
        return UNIT_FOREST
    return Forest(_attach_at_leaves(t, member) for member in forest)


def _attach_at_leaves(t, member):
    if t.is_singleton:
        return member
    return Tree(tuple((label, _attach_at_leaves(sub, member))
                      for label, sub in t.branches))


def ordered_trees(labels, subs, height):
    """Yield, in canonical order, every tree of exactly `height` >= 1 whose
    branches pair distinct-prime `labels` (ascending sort_rank) with
    subtrees from `subs` (canonical order, each below `height`).  The order
    is height, arity, then branch by branch the label and the subtree, so
    picking each position's label and then its subtree lists them sorted.
    """
    tall = [sub.height == height - 1 for sub in subs]
    # each (label, sub) pair is built once and shared by every tree using it
    pairs = [[(label, sub) for sub in subs] for label in labels]

    def fill(arity, rest, prefix, has_tall):
        # rest: indices of the labels whose primes are still free, ascending
        for n, i in enumerate(rest[:len(rest) - arity + 1]):
            later = [j for j in rest[n + 1:]
                     if labels[j].prime != labels[i].prime]
            for pair, is_tall in zip(pairs[i], tall):
                if arity > 1:
                    yield from fill(arity - 1, later, prefix + (pair,),
                                    has_tall or is_tall)
                elif has_tall or is_tall:
                    yield Tree(prefix + (pair,))

    for arity in range(1, len({label.prime for label in labels}) + 1):
        yield from fill(arity, range(len(labels)), (), False)
