"""Canonical prime-labeled rooted trees.

A tree is a tuple of (Label, subtree) branches hanging from an implicit,
unlabeled root.  Construction canonicalizes branch order and rejects any
labeling a valid tree cannot carry, so structural equality is semantic
equality.  A Label carries its prime itself, so building, printing and
evaluating a tree never consult the prime table; only label_tree, which
means "the k-th prime", does.
"""

import functools
import re
from typing import NamedTuple

from .errors import MisplacedInverse, ParseError, SiblingCollision
from .primes import is_prime, prime_by_index


class Label(NamedTuple):
    """Vertex decoration: a prime, possibly inverted.

    Inverted labels (p^-1) are only legal on children of the root.  The
    record is unchecked; validate and parse_sexpr are the checked ways in.
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
    """Immutable rooted tree with canonically ordered, distinct-labeled branches."""

    __slots__ = ("branches", "height", "_hash")

    def __init__(self, branches=()):
        branches = tuple(sorted(branches, key=lambda b: b[0].sort_rank))
        seen = set()
        for label, sub in branches:
            if label.prime in seen:
                # also refused: one prime heading both a plain and an
                # inverted branch, which would evaluate to an unreduced
                # rational
                raise SiblingCollision(
                    f"sibling labels repeat the prime {label.prime}")
            seen.add(label.prime)
            if sub.has_inverted:
                raise MisplacedInverse(
                    f"inverted label below vertex {label.text}")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(
            self, "height",
            1 + max(s.height for _, s in branches) if branches else 0)
        object.__setattr__(self, "_hash", hash(branches))

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @property
    def has_inverted(self):
        # canonical order puts inverted labels last
        return bool(self.branches) and self.branches[-1][0].inverted

    @property
    def is_singleton(self):
        return not self.branches

    def leaf_count(self):
        if not self.branches:
            return 1
        return sum(sub.leaf_count() for _, sub in self.branches)

    def max_prime(self):
        """Largest prime used anywhere, or 1 for the singleton."""
        best = 1
        for label, sub in self.branches:
            best = max(best, label.prime, sub.max_prime())
        return best

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, Tree) and self.branches == other.branches))

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self is not other and _cmp(self, other) < 0

    def __repr__(self):
        return f"Tree({to_sexpr(self)!r})"


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


def _cmp(a, b):
    """-1, 0 or 1 in canonical tree order: height, then branch count, then
    branch by branch the label (by sort_rank) and the subtree."""
    if a.height != b.height:
        return -1 if a.height < b.height else 1
    if len(a.branches) != len(b.branches):
        return -1 if len(a.branches) < len(b.branches) else 1
    for (la, sa), (lb, sb) in zip(a.branches, b.branches):
        if la != lb:
            return -1 if la.sort_rank < lb.sort_rank else 1
        # enumerated trees share subtree objects, so most walks stop here
        if sa is not sb:
            c = _cmp(sa, sb)
            if c:
                return c
    return 0


def validate(raw):
    """Build a canonical Tree from nested raw data.

    Raw form: an iterable of branches, each branch a (label, sub_branches)
    pair where label is a prime (an int) or its text form, "<prime>" or
    "1/<prime>".
    """
    try:
        return _build(raw)
    except RecursionError:
        raise ParseError("tree nested too deeply to validate") from None


def _build(raw_branches):
    branches = []
    for item in raw_branches:
        try:
            label_spec, sub = item
        except (TypeError, ValueError):
            raise ParseError(f"branch must be a (label, children) pair: {item!r}")
        branches.append((_parse_label(label_spec), _build(sub)))
    return Tree(branches)


def _parse_label(spec):
    inverted = False
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("1/"):
            inverted = True
            text = text[2:]
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"bad label {spec!r}")
    elif isinstance(spec, int) and not isinstance(spec, bool):
        value = int(spec)
    else:
        raise ParseError(f"bad label {spec!r}")
    if not is_prime(value):
        raise ParseError(f"label {spec!r} is not a prime")
    return Label(value, inverted)


# --- canonical S-expression text form ------------------------------------
# tree   := "(" "r" branch* ")"
# branch := "(" label branch* ")"
# label  := <prime decimal> | "1/" <prime decimal>
# Example: integer 12 <-> "(r (2 (2)) (3))"

def to_sexpr(t):
    return "(r" + "".join(" " + _branch_text(b) for b in t.branches) + ")"


def _branch_text(branch):
    label, sub = branch
    return ("(" + label.text
            + "".join(" " + _branch_text(b) for b in sub.branches) + ")")


def parse_sexpr(text):
    """Parse the canonical S-expression form back into a Tree."""
    tokens = re.findall(r"[()]|[^\s()]+", text)
    pos = 0

    def expect(tok):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            raise ParseError(f"expected {tok!r} at token {pos} in {text!r}")
        pos += 1

    def parse_branches():
        nonlocal pos
        branches = []
        while pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            if pos >= len(tokens):
                raise ParseError("unterminated branch")
            label = _parse_label(tokens[pos])
            pos += 1
            children = parse_branches()
            expect(")")
            branches.append((label, Tree(children) if children else SINGLETON))
        return branches

    expect("(")
    expect("r")
    try:
        branches = parse_branches()
    except RecursionError:
        raise ParseError("tree nested too deeply to parse") from None
    expect(")")
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in {text!r}")
    return Tree(branches)
