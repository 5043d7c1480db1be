"""Duplicate-free forests and the two forest operators: grafting and raising."""

from .errors import SiblingCollision
from .tree_core import SINGLETON, Tree, graft, to_sexpr


class Forest:
    """An immutable set of trees, iterated in canonical tree order."""

    __slots__ = ("trees", "_set")

    def __init__(self, trees=()):
        uniq = set(trees)
        object.__setattr__(self, "trees", tuple(sorted(uniq)))
        object.__setattr__(self, "_set", frozenset(uniq))

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __contains__(self, t):
        return t in self._set

    def __eq__(self, other):
        return isinstance(other, Forest) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def __repr__(self):
        return f"Forest<{len(self)} trees>"

    def union(self, other):
        return Forest(self.trees + tuple(other))

    def difference(self, other):
        drop = other._set if isinstance(other, Forest) else set(other)
        return Forest(t for t in self.trees if t not in drop)


EMPTY_FOREST = Forest()
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
    out = []
    for member in forest:
        if member.is_singleton:
            out.append(t)
        else:
            out.append(_attach_at_leaves(t, member))
    return Forest(out)


def _attach_at_leaves(t, member):
    if t.is_singleton:
        return member
    return Tree(tuple((label, _attach_at_leaves(sub, member))
                      for label, sub in t.branches))

