"""Canonical prime-labeled rooted trees.

A tree is a tuple of (Label, subtree) branches hanging from an implicit,
unlabeled root.  Construction checks the branches in one loop: canonical
order, distinct primes, no inverted label below the root.  It sorts only
input that is out of order.  A Label is unchecked: parse_sexpr is the
checked way in.  Over prime labels, structural equality is semantic.
A tree hashes its branches when something first hashes it (a set, a
dict, ==), if every subtree already had its hash when it was built;
otherwise it hashes at once.  So a first hash reads one level of branches
and never walks, and listed trees that nothing hashes cost no hash.
A Label carries its prime itself, so building, printing and evaluating a
tree never ask for a prime's index; only label_tree, which means "the
k-th prime", does.  Labels of the primes below 2^10 come from a fixed
table, read from primes.SMALL_PRIMES at import.

Every walk here is iterative, and only codec._value recurses, so
MAX_DEPTH guards parse_sexpr input only: parse_sexpr is the checked way
in.  Enumerated trees share subtrees, so to_sexpr keeps the text of each
root branch's subtree on it, walked once; deeper subtrees keep none.
"""

import functools
from bisect import bisect_left
from typing import NamedTuple

from .errors import MisplacedInverse, ParseError, SiblingCollision, _approx
from .primes import SMALL_PRIMES, is_prime, prime_by_index

MAX_DEPTH = 200
_BELOW = float("-inf")  # below every prime: any first label is in order


class Label(NamedTuple):
    """Vertex decoration: a prime, possibly inverted.

    Inverted labels (p^-1) are only legal on children of the root.  The
    record is unchecked, even by Tree: parse_sexpr is the checked way in.
    """

    prime: int
    inverted: bool = False

    @property
    def text(self):
        return f"1/{self.prime}" if self.inverted else str(self.prime)

    @property
    def sort_rank(self):
        # plain branches before inverted ones, then by prime (the same
        # order as by prime index)
        return (self.inverted, self.prime)


@functools.total_ordering
class Tree:
    """Immutable rooted tree with canonically ordered, distinct-labeled branches.

    The constructor checks order, distinct primes and inverse placement,
    not the labels: Tree([(Label(4), SINGLETON)]) is built.  It checks
    every branch in one loop and sorts only out-of-order input, which then
    goes through the loop once more, so the first fault in canonical order
    is the one raised.  The hash waits in _hash (None) until its first use
    when every subtree already has its own; otherwise the constructor
    hashes at once, so a tree with its hash deferred never has a subtree
    whose hash is deferred too.
    """

    # _text is unset until _kept_text keeps the tree's printed branches there
    __slots__ = ("branches", "height", "_hash", "_text")

    def __init__(self, branches=()):
        branches = tuple(branches)
        resorted = False
        while True:
            inverted, prime = False, _BELOW     # the label before, as a rank
            plain = ()      # the plain primes, once an inverted label follows
            height = 0
            hashed = True   # every subtree has its hash
            for label, sub in branches:
                p = label.prime
                if label.inverted == inverted:
                    if p <= prime:
                        break           # out of order, or a repeated prime
                elif inverted < label.inverted:
                    if prime != _BELOW:
                        plain = {b[0].prime for b in branches
                                 if not b[0].inverted}
                    inverted = label.inverted
                else:
                    break               # a plain label after an inverted one
                if p in plain:
                    break   # both signs of one prime: an unreduced rational
                if sub.branches and sub.branches[-1][0].inverted:
                    break
                prime = p
                if sub.height >= height:
                    height = sub.height + 1
                if sub._hash is None:
                    hashed = False
            else:
                _SET_BRANCHES(self, branches)
                _SET_HEIGHT(self, height)
                _SET_HASH(self, None if hashed else hash(branches))
                return
            if resorted:
                # the branch the sorted input stopped at holds its first fault
                if label.prime == prime or label.prime in plain:
                    raise SiblingCollision("sibling labels repeat the prime "
                                           + _approx(label.prime))
                raise MisplacedInverse("inverted label below vertex "
                                       + "1/" * label.inverted
                                       + _approx(label.prime))
            # a fault in unsorted input may not be the first in canonical
            # order, so any stop sorts the input and checks it once more
            branches = tuple(sorted(branches, key=lambda b: b[0].sort_rank))
            resorted = True

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor
        return Tree, (self.branches,)

    @property
    def has_inverted(self):
        # canonical order puts inverted labels last
        return bool(self.branches) and self.branches[-1][0].inverted

    @property
    def is_singleton(self):
        return not self.branches

    def _walk(self):
        """Every (label, subtree) branch, at any depth."""
        stack = [self]
        while stack:
            for branch in stack.pop().branches:
                yield branch
                stack.append(branch[1])

    def leaf_count(self):
        return sum(not sub.branches for _, sub in self._walk()) or 1

    def max_prime(self):
        """Largest prime used anywhere, or 1 for the singleton."""
        return max((label.prime for label, _ in self._walk()), default=1)

    def __eq__(self, other):
        return self is other or (isinstance(other, Tree)
                                 and hash(self) == hash(other)
                                 and _cmp(self, other) == 0)

    def __hash__(self):
        # __init__ defers the hash only when every subtree already has its
        # own, so the first hash here reads one level of branches: no walk
        h = self._hash
        if h is None:
            h = hash(self.branches)
            _SET_HASH(self, h)
        return h

    def __lt__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self is not other and _cmp(self, other) < 0

    def __repr__(self):
        return f"Tree({to_sexpr(self)!r})"


# each slot's own descriptor stores it, past the refusing __setattr__
_SET_BRANCHES = Tree.branches.__set__
_SET_HEIGHT = Tree.height.__set__
_SET_HASH = Tree._hash.__set__
_SET_TEXT = Tree._text.__set__


SINGLETON = Tree()


def singleton():
    """The branchless tree; identity for grafting, evaluates to 1.
    Deprecated: use SINGLETON."""
    return SINGLETON


def label_tree(k, inverted=False):
    """Two-vertex tree: the root plus one vertex labeled with the k-th
    prime, counting from label_tree(0), labeled 2."""
    return Tree(((Label(prime_by_index(k), inverted), SINGLETON),))


def graft(a, b):
    """Merge two trees at the root; their branch sets must be disjoint
    (SiblingCollision otherwise)."""
    return Tree(a.branches + b.branches)


def _cmp(a, b, same=None):
    """-1, 0 or 1 in canonical tree order: height, then branch count, then
    branch by branch the label (by sort_rank) and the subtree.  Given a
    set `same`, the walk skips the subtree pairs whose (id, id) it holds
    and adds each pair it finds equal, so trees that share subtrees compare
    in linear time.  An id names its tree only while it lives: the caller
    keeps every tree it compares alive for as long as it keeps `same`."""
    stack = [iter((((None, a), (None, b)),))]   # the roots, unlabeled
    walked = () if same is None else []     # the ids of each open pair
    while stack:
        for (la, a), (lb, b) in stack[-1]:
            if la != lb:
                return -1 if la.sort_rank < lb.sort_rank else 1
            # enumerated trees share subtree objects, so most walks stop here
            if a is not b and (same is None or (id(a), id(b)) not in same):
                if a.height != b.height:
                    return -1 if a.height < b.height else 1
                if len(a.branches) != len(b.branches):
                    return -1 if len(a.branches) < len(b.branches) else 1
                stack.append(zip(a.branches, b.branches))
                if same is not None:
                    walked.append((id(a), id(b)))
                break
        else:
            stack.pop()
            if walked:
                same.add(walked.pop())
    return 0


def same_trees(xs, ys):
    """True when the sequences xs and ys hold equal trees pair by pair (a
    non-Tree member: False).  One _cmp memo serves every pair, so listings
    built apart, each sharing its subtrees, compare in linear time: two
    g_forest(1, h) in O(h), where tuple == takes O(h^2)."""
    if len(xs) != len(ys):
        return False
    same = set()
    return all(isinstance(a, Tree) and isinstance(b, Tree)
               and hash(a) == hash(b) and _cmp(a, b, same) == 0
               for a, b in zip(xs, ys))


def _parse_label(text):
    inverted = text.startswith("1/")
    digits = text[2:] if inverted else text
    # the grammar's decimal: ASCII digits, no sign, "_" or leading zero,
    # and short enough for int()
    if not (digits.isascii() and digits.isdigit()) or digits.startswith("0"):
        raise ParseError(f"bad label {text!r}")
    try:
        value = int(digits)
    except ValueError:
        raise ParseError(f"bad label {text!r}")
    if not is_prime(value):
        raise ParseError(f"label {text!r} is not a prime")
    return Label(value, inverted)


# text -> Label of each prime below 2^10, plain and inverted
_SMALL_LABELS = {label.text: label
                 for p in SMALL_PRIMES[:bisect_left(SMALL_PRIMES, 1 << 10)]
                 for label in (Label(p), Label(p, True))}
# Label -> " (<label>", the opener to_sexpr prints for it
_OPEN = {label: " (" + text for text, label in _SMALL_LABELS.items()}


# --- canonical S-expression text form ------------------------------------
# tree   := "(" "r" branch* ")"
# branch := "(" label branch* ")"
# label  := <prime decimal> | "1/" <prime decimal>
# Example: integer 12 <-> "(r (2 (2)) (3))"

def to_sexpr(t):
    """The canonical text of t.  Each root branch's subtree keeps the text
    of its own branches, such as " (2 (2)) (3)", from its first print on;
    deeper subtrees keep none, so a tree keeps less text than its print
    (O(d) characters for a chain of depth d, not O(d^2))."""
    out = ["(r"]
    for label, sub in t.branches:
        out.append(_OPEN.get(label) or " (" + label.text)
        if sub.branches:
            out.append(_kept_text(sub))
        out.append(")")
    out.append(")")
    return "".join(out)


def _kept_text(t):
    """The text of t's branches, kept on t from its first use on."""
    try:
        return t._text
    except AttributeError:
        _SET_TEXT(t, _branches_text(t))
        return t._text


def _branches_text(t):
    """The text of t's branches, walked afresh."""
    out = []
    stack = [iter(t.branches)]
    while stack:
        for label, sub in stack[-1]:
            out.append(_OPEN.get(label) or " (" + label.text)
            if sub.branches:
                stack.append(iter(sub.branches))
                break
            out.append(")")
        else:           # every branch at this level is printed
            stack.pop()
            out.append(")")
    out.pop()           # t itself has no closing parenthesis here
    return "".join(out)


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text):
    """Parse the canonical S-expression form back into a Tree."""
    if not isinstance(text, str):
        raise ParseError(f"tree text must be a str, not {text!r}")
    tokens = iter(_tokenize(text))
    if next(tokens, None) != "(" or next(tokens, None) != "r":
        raise ParseError(f"expected '(r' at the start of {text!r}")
    labels = None       # token -> Label past _SMALL_LABELS, each checked once
    opened = []         # the label of each open branch, innermost last
    stack = [[]]        # the branches of the root, then of each open branch
    for tok in tokens:
        if tok == "(":
            if len(stack) > MAX_DEPTH:
                raise ParseError(
                    f"tree nested too deeply (over {MAX_DEPTH} levels)")
            tok = next(tokens, None)
            if tok is None:
                raise ParseError(f"unterminated branch in {text!r}")
            label = _SMALL_LABELS.get(tok)
            if label is None:
                labels = labels or {}   # made at the first miss
                label = labels[tok] = labels.get(tok) or _parse_label(tok)
            opened.append(label)
            stack.append([])
        elif tok == ")":
            children = stack.pop()
            if not stack:
                if next(tokens, None) is not None:
                    raise ParseError(f"trailing tokens in {text!r}")
                return Tree(children)
            stack[-1].append((opened.pop(),
                              Tree(children) if children else SINGLETON))
        else:
            raise ParseError(f"stray token {tok!r} in {text!r}")
    raise ParseError(f"unterminated tree in {text!r}")
