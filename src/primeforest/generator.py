"""Bounded-height forest generation and its counting recurrence.

g_forest(n, h) lists, height by height in canonical order, the forest of
all validly labeled trees over n labels with height at most h, which the
paper builds by grafting and raising.  g_count predicts its size exactly,
all_valid_trees_bruteforce re-derives the same set from subtrees of the
complete n-ary tree; both refuse more than DEFAULT_CAP trees or as much
enumeration work.  g_trees streams g_forest's listing, holding only the
trees below height h.
bounded_value_trees prunes by integer value instead of height: it is one
step of the fidelity sieve's grafting and raising, _graft_generation,
over exponent trees from the same call at the bound's bit length.
"""

import itertools
from bisect import bisect_right

from .codec import _approx, _max_exponent
from .errors import DomainError, SizeOverBudget, as_integer
from .forest_algebra import Forest, ordered_trees
from .primes import first_primes, primes_upto
from .tree_core import SINGLETON, Label, Tree, graft

DEFAULT_CAP = 10 ** 7


def g_count(n, h, cap=None):
    """Number of validly labeled trees over n labels with height <= h.

    S_0 = 1, S_i = (1 + S_{i-1})^n; exact big-integer arithmetic.  Given a
    cap, a count above it raises SizeOverBudget, and each step's bit
    length is bounded before its power is taken, so no count far above
    the cap is ever built.  For n <= 1 or h = 0, S_h = (1 + h)^n, so no
    step is taken.  A negative or non-integer n, h or cap raises DomainError.
    """
    n, h, cap = _integers(n, h, cap)
    what = f"g_count({n}, {h})"
    for name, value in (("n", n), ("h", h)):
        if value < 0:
            raise DomainError(f"{what}: {name} must be >= 0")
    if n <= 1 or not h:
        return _capped_power(1 + h, n, cap, what)
    s = 1
    for _ in range(h):
        s = _capped_power(1 + s, n, cap, what)
    return s


def _integers(*values):
    """values through as_integer, None kept: the sizes and cap of a count."""
    return [None if v is None else as_integer(v) for v in values]


def _capped_power(base, n, cap, what):
    """base ** n, a count named `what`.  Given a cap, a power above it
    raises SizeOverBudget; a power whose bit length alone passes the cap
    is refused before it is built."""
    if cap is None:
        return base ** n
    if base > 1 and n > _max_exponent(cap, base):
        raise SizeOverBudget(f"{what} exceeds the cap {_approx(cap)}",
                             cap=cap)
    s = base ** n
    if s > cap:
        raise SizeOverBudget(
            f"{what} exceeds the cap {_approx(cap)}", requested=s, cap=cap)
    return s


def _check_listing(n, h):
    """Refuse, before any tree is built, a listing of g_forest(n, h) with
    more than DEFAULT_CAP trees or enumeration work: height k + 1 pairs
    each of the n labels with each of the g_count(n, k) trees below it."""
    g_count(n, h, DEFAULT_CAP)
    work = 0
    for k in range(h if n else 0):
        work += n * g_count(n, k)
        if work > DEFAULT_CAP:
            raise SizeOverBudget(
                f"listing g_forest({n}, {h}) takes more than {DEFAULT_CAP} "
                f"steps", requested=work, cap=DEFAULT_CAP)


def g_forest(n, h):
    """The forest of all validly labeled trees over n labels, height <= h."""
    _check_listing(n, h)
    # height 0 asks for no labels, so it lists the singleton for any n
    labels = [Label(p) for p in first_primes(n if h else 0)]
    trees = [SINGLETON]
    # with no labels, no height adds a tree to the singleton
    for height in range(1, h + 1 if n else 1):
        trees += ordered_trees(labels, tuple(trees), height)
    return Forest(trees)


def g_trees(n, h):
    """Iterator over g_forest(n, h) in the same order, keeping only the
    trees below height h.  A listing over DEFAULT_CAP is refused here,
    before the first tree is taken."""
    _check_listing(n, h)
    if h == 0:
        return iter(g_forest(n, 0))
    lower = g_forest(n, h - 1)
    labels = [Label(p) for p in first_primes(n)]
    return itertools.chain(lower, ordered_trees(labels, lower, h))


def all_valid_trees_bruteforce(n, h):
    """Independent enumeration via rooted subtrees of the complete n-ary tree.

    Each of the n child slots of a vertex is either absent or carries any
    subtree of the level below; slot k maps to label k.  Levels are built
    bottom up, under g_forest's listing budget; the top one, sorted by tree
    comparison rather than listed by ordered_trees, is the tuple returned.
    """
    _check_listing(n, h)
    # as in g_forest, height 0 asks for no labels
    labels = [Label(p) for p in first_primes(n if h else 0)]
    # branches -> tree: each distinct tree is built once, so a level holds
    # no copies of the trees below it and memory stays within the forest
    known = {}
    level = [SINGLETON]
    for _ in range(h):
        options = [None] + level
        level = []
        for combo in itertools.product(options, repeat=n):
            branches = tuple((label, sub) for label, sub in zip(labels, combo)
                             if sub is not None)
            t = known.get(branches)
            if t is None:
                t = known[branches] = Tree(branches)
            level.append(t)
    return tuple(sorted(level))


def bounded_value_trees(prime_indices, bound):
    """All (value, tree) pairs with value <= bound over the given labels,
    singleton included.  Values are exactly the integers in [1, bound]
    whose factorization, recursively through exponents, stays inside the
    label set.  An index whose prime is above the bound adds no value, and
    a range ascending past the prime count is clipped before it is walked.
    A bound above DEFAULT_CAP raises SizeOverBudget; a negative or
    non-integer index or bound, or indices that are not iterable, raise
    DomainError.
    """
    bound = as_integer(bound)
    if bound > DEFAULT_CAP:
        raise SizeOverBudget(f"bound {bound} exceeds the cap {DEFAULT_CAP}",
                             requested=bound, cap=DEFAULT_CAP)
    primes = primes_upto(bound)
    r = prime_indices
    if isinstance(r, range) and r.step > 0:
        prime_indices = range(r.start, min(r.stop, len(primes)), r.step)
    try:
        indices = iter(prime_indices)
    except TypeError:
        raise DomainError(
            f"prime indices are not iterable: {prime_indices!r}") from None
    indices = {k for k in map(as_integer, indices) if k < len(primes)}
    if min(indices, default=0) < 0:
        raise DomainError("prime index must be >= 0")
    labels = [Label(primes[k]) for k in sorted(indices)]
    return list(_bounded_value_trees(labels, bound).items())


def _bounded_value_trees(labels, bound):
    # the exponents: the values up to the bound's bit length
    if bound < 1:
        return {}
    return _graft_generation(
        labels, _bounded_value_trees(labels, _max_exponent(bound, 2)), bound)


def _graft_generation(labels, members, bound):
    """value -> tree for every value <= bound grafted from at most one tree
    per label, the label raised by a member (members maps value -> tree),
    the ascending labels in turn: the trees a prune to the bound keeps, as
    grafting and raising only increase values.  A value reached twice
    raises DomainError."""
    # keys: acc's keys that later labels may graft onto, ascending
    acc, keys = {1: SINGLETON}, [1]
    exponents = sorted(members)
    for label in labels:
        if label.prime > bound:
            break
        new = []
        for e in exponents:
            b = label.prime ** e
            if b > bound:
                break
            raised = Tree(((label, members[e]),))
            for a in keys[:bisect_right(keys, bound // b)]:
                if a * b in acc:
                    raise DomainError("a value is reached twice")
                # grafting onto the singleton would only copy `raised`
                acc[a * b] = graft(acc[a], raised) if a > 1 else raised
                new.append(a * b)
        # later labels graft onto keys <= bound / p only; sorted merges
        # one ascending run and one per raised tree
        keys = sorted(v for v in keys + new if v * label.prime <= bound)
    return acc
