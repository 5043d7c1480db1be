"""Duplicate-free forests, the canonical enumerator and the paper's
operators graft_forests and raise_forest.  One walk, _runs, gives the
canonical order: ordered_trees builds each tree the library lists from
it, and ordered_lines prints each from its branches' texts, building
none.  A Forest is a tuple of distinct trees in canonical order;
its ==, hash, in and repr are tuple's, and tree_core.same_trees compares
two listings through the subtrees they share.  The operators,
Forest.union and the trees property stay, with tree_core.singleton(), as
public exports, the tests' oracles and the bench's forest probe."""

from bisect import bisect_left

from .errors import DomainError, SiblingCollision
from .tree_core import SINGLETON, Tree, _kept_text, graft, to_sexpr


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
    subtrees, of height `height` - 1, are a suffix.  Each (label, sub)
    pair is built once and shared by every tree using it.
    """
    for prefix, run in _runs(labels, subs, height,
                             lambda label, sub: ((label, sub),), ()):
        yield from [Tree(prefix + piece) for piece in run]


def ordered_lines(labels, subs, height):
    """ordered_trees(labels, subs, height) printed, one to_sexpr text and
    newline per tree, from the text of each branch: no tree is built."""
    # each subtree's text is the one to_sexpr keeps on it, made once
    runs = _runs(labels, subs, height,
                 lambda label, sub: " (" + label.text + _kept_text(sub) + ")",
                 "(r")
    for prefix, run in runs:
        yield from [prefix + piece + ")\n" for piece in run]


def _runs(labels, subs, height, make, start):
    """The canonical walk under ordered_trees and ordered_lines: yield
    (prefix, run) per run of trees that differ in their last branch only.
    prefix joins, onto `start`, the pieces of every branch but the last,
    and run lists the last branch's pieces in order; make(label, sub)
    makes each branch's piece once.  A recursive walk picks all but the
    last branch; the last takes one run per label left: all of subs after
    a prefix holding a tall subtree, else the tall suffix.
    """
    cut = bisect_left(subs, height - 1, key=lambda sub: sub.height)
    primes = len({label.prime for label in labels})
    # one prime allows one branch, so the walk reads only tall pieces
    skip = cut if primes == 1 else 0
    pieces = [[make(label, sub) for sub in subs[skip:]] for label in labels]
    cut -= skip

    def prefixes(arity, rest, prefix, has_tall):
        # rest: indices of the labels whose primes are still free, ascending
        if not arity:
            yield prefix, has_tall, rest
            return
        for n, i in enumerate(rest[:len(rest) - arity]):
            later = [j for j in rest[n + 1:]
                     if labels[j].prime != labels[i].prime]
            for k, piece in enumerate(pieces[i]):
                yield from prefixes(arity - 1, later, prefix + piece,
                                    has_tall or k >= cut)

    for arity in range(1, primes + 1):
        for prefix, has_tall, rest in prefixes(arity - 1, range(len(labels)),
                                               start, False):
            for j in rest:
                yield prefix, pieces[j] if has_tall else pieces[j][cut:]
