"""Duplicate-free forests, ordered_trees (the canonical enumerator the
library lists through) and the paper's operators graft_forests and
raise_forest.  A Forest is a tuple of distinct trees in canonical order;
its ==, hash, in and repr are tuple's, and tree_core.same_trees compares
two listings through the subtrees they share.  The operators,
Forest.union and the trees property stay, with tree_core.singleton(), as
public exports, the tests' oracles and the bench's forest probe."""

from bisect import bisect_left

from .errors import DomainError, SiblingCollision
from .tree_core import SINGLETON, Tree, graft, to_sexpr


class Forest(tuple):
    """Distinct trees in canonical order, a tuple in all but its checks;
    trees (the forest itself) and union stay for the bench probe."""

    __slots__ = ()

    def __new__(cls, trees=()):
        trees = tuple(trees)
        for t in trees:
            if not isinstance(t, Tree):
                raise DomainError(f"a Forest holds trees only, not {t!r}")
        # dict keeps input order, so canonical input sorts in one pass
        return super().__new__(cls, sorted(dict.fromkeys(trees)))

    trees = property(lambda self: self)

    def union(self, other):
        return Forest(self + tuple(other))


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
        return Forest([SINGLETON])
    # t's distinct subtree objects, lowest first: each is rebuilt once and
    # after its own subtrees, with no recursion however tall t is
    subs = sorted({id(sub): sub for _, sub in t._walk()}.values(),
                  key=lambda sub: sub.height) + [t]
    return Forest(_attach_at_leaves(subs, member) for member in forest)


def _attach_at_leaves(subs, member):
    """The last of subs, ordered by height, with member beneath its leaves."""
    new = {}
    for t in subs:
        new[id(t)] = member if t.is_singleton else Tree(
            tuple((label, new[id(sub)]) for label, sub in t.branches))
    return new[id(subs[-1])]


def ordered_trees(labels, subs, height):
    """Yield, in canonical order, every tree of exactly `height` >= 1 whose
    branches pair distinct-prime `labels` (ascending sort_rank) with
    subtrees from `subs`, each below `height`.  The order is height, arity,
    then branch by branch the label and the subtree, so picking each
    position's label and then its subtree lists them sorted.  subs is a
    sequence in canonical order, which sorts by height first, so its tall
    subtrees, of height `height` - 1, are a suffix.  A recursive walk
    picks all but the last branch; the last is added per run, one run of
    subtrees per label left: all of subs after a prefix holding a tall
    subtree, else the tall suffix.
    """
    cut = bisect_left(subs, height - 1, key=lambda sub: sub.height)
    # each (label, sub) pair is built once and shared by every tree using it
    pairs = [[(label, sub) for sub in subs] for label in labels]

    def prefixes(arity, rest, prefix, has_tall):
        # rest: indices of the labels whose primes are still free, ascending
        if not arity:
            yield prefix, has_tall, rest
            return
        for n, i in enumerate(rest[:len(rest) - arity]):
            later = [j for j in rest[n + 1:]
                     if labels[j].prime != labels[i].prime]
            for k, pair in enumerate(pairs[i]):
                yield from prefixes(arity - 1, later, prefix + (pair,),
                                    has_tall or k >= cut)

    for arity in range(1, len({label.prime for label in labels}) + 1):
        for prefix, has_tall, rest in prefixes(arity - 1, range(len(labels)),
                                               (), False):
            for j in rest:
                run = pairs[j] if has_tall else pairs[j][cut:]
                yield from [Tree(prefix + (pair,)) for pair in run]
