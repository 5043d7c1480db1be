import itertools
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeforest import tree_core
from primeforest.codec import encode_integer, encode_rational
from primeforest.errors import (DomainError, MisplacedInverse, ParseError,
                                SiblingCollision)
from primeforest.generator import g_count, g_forest, g_trees
from primeforest.primes import is_prime
from primeforest.rationals import rational_tree_stream
from primeforest.tree_core import (
    MAX_DEPTH,
    SINGLETON,
    Label,
    Tree,
    graft,
    label_tree,
    parse_sexpr,
    same_trees,
    singleton,
    to_sexpr,
)

from conftest import random_tree

# root -> {5, 2 -> {3, 7 -> 2}}, the running valid-labeling example
FIG2 = "(r (2 (3) (7 (2))) (5))"


def test_singleton_is_branchless_identity():
    t = singleton()
    assert t.branches == ()
    assert t.height == 0
    assert graft(t, t) == t


def test_label_tree_basic():
    t0 = label_tree(0)
    assert to_sexpr(t0) == "(r (2))"
    assert to_sexpr(label_tree(0, inverted=True)) == "(r (1/2))"
    assert t0.height == 1
    assert t0.leaf_count() == 1


def test_graft_merges_branch_sets():
    left = parse_sexpr("(r (2) (3))")
    right = parse_sexpr("(r (5 (7) (11)))")
    merged = graft(left, right)
    assert to_sexpr(merged) == "(r (2) (3) (5 (7) (11)))"


def test_graft_commutes_and_has_identity(rng):
    for _ in range(50):
        a = random_tree(rng, range(0, 8, 2), 3)
        b = random_tree(rng, range(1, 8, 2), 3)
        assert graft(a, b) == graft(b, a)
        assert graft(a, SINGLETON) == a


def test_graft_collision():
    with pytest.raises(SiblingCollision):
        graft(label_tree(0), label_tree(0))


def test_parse_fig2_ok():
    t = parse_sexpr(FIG2)
    assert t.height == 3
    assert t.leaf_count() == 3


def test_parse_rejects_equal_siblings():
    # root -> {2, 3 -> {5, 5 -> 7}}: two siblings labeled 5
    with pytest.raises(SiblingCollision):
        parse_sexpr("(r (2) (3 (5) (5 (7))))")


def test_parse_rejects_non_prime_labels():
    for label in ("4", "1", "0", "2.0", "1/4"):
        with pytest.raises(ParseError):
            parse_sexpr(f"(r ({label}))")
    # labels follow the S-expression grammar
    for label in ("2_3", "+2", "02", "1/02", "\u0663"):
        with pytest.raises(ParseError, match="bad label"):
            parse_sexpr(f"(r ({label}))")
    # labels are checked by Miller-Rabin, with no prime table lookup
    text = f"(r ({10 ** 12 + 39} (2)))"
    assert to_sexpr(parse_sexpr(text)) == text == "(r (1000000000039 (2)))"


def test_parse_rejects_deep_inverse():
    with pytest.raises(MisplacedInverse):
        parse_sexpr("(r (3 (1/2)))")


def test_parse_rejects_plain_and_inverted_same_prime():
    with pytest.raises(SiblingCollision):
        parse_sexpr("(r (2) (1/2))")


def test_inverted_allowed_at_depth_one():
    t = parse_sexpr("(r (1/2 (3)))")
    assert t.has_inverted
    # canonical order puts the inverted branch last, whatever the input order
    for text, inverted in (("(r (3) (1/2))", True), ("(r (1/2))", True),
                           ("(r (2) (3))", False), ("(r)", False)):
        assert parse_sexpr(text).has_inverted is inverted, text
    assert parse_sexpr("(r (1/2) (3))").has_inverted


def test_parse_refuses_deep_nesting():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_sexpr("(r" + " (2" * 3000 + ")" * 3001)


def _order_sign(a, b):
    """-1, 0 or 1 read off the comparison operators, which must agree."""
    lt, le, gt, ge, eq = a < b, a <= b, a > b, a >= b, a == b
    assert lt + gt + eq == 1
    assert le == (lt or eq) and ge == (gt or eq)
    return -1 if lt else 1 if gt else 0


def test_compare_order():
    t0, t1 = label_tree(0), label_tree(1)
    assert _order_sign(SINGLETON, t0) == -1
    assert _order_sign(t0, t0) == 0
    assert _order_sign(t0, t1) == -1
    # plain sorts before inverted at equal index
    assert _order_sign(t0, label_tree(0, inverted=True)) == -1


def test_compare_total_order(rng):
    trees = [random_tree(rng, range(5), 3) for _ in range(60)]
    for a in trees:
        for b in trees:
            ca, cb = _order_sign(a, b), _order_sign(b, a)
            assert ca == -cb
            assert (ca == 0) == (a == b)
    # transitivity via sortedness
    ordered = sorted(trees)
    for x, y in zip(ordered, ordered[1:]):
        assert x <= y


def _reference_key(t):
    # the canonical order spelled out as a nested tuple
    return (t.height, len(t.branches),
            tuple((label.sort_rank, _reference_key(sub))
                  for label, sub in t.branches))


def test_order_matches_reference_key(rng):
    trees = [random_tree(rng, range(5), 3) for _ in range(50)]
    # roots mixing plain and inverted labels
    trees += [encode_rational(rng.randint(1, 60), rng.randint(1, 60))
              for _ in range(50)]
    # equal trees built apart, so the walk cannot stop at shared subtrees
    trees += [parse_sexpr(to_sexpr(t)) for t in trees[::5]]
    for a in trees:
        ka = _reference_key(a)
        for b in trees:
            kb = _reference_key(b)
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb)


_G32 = g_forest(3, 2)
_DRAWN_TREES = st.one_of(
    st.builds(encode_rational, st.integers(1, 10 ** 6),
              st.integers(1, 10 ** 6)),
    st.sampled_from(_G32))


@settings(max_examples=200, deadline=None)
@given(st.lists(_DRAWN_TREES, min_size=1, max_size=8))
def test_the_memo_walk_orders_as_the_plain_walk_and_the_reference(trees):
    # each tree against each rebuilt apart, through one shared memo: a pair
    # found equal earlier must not change a later answer
    apart = [parse_sexpr(to_sexpr(t)) for t in trees]
    same = set()
    for a in trees:
        for b in apart:
            sign = tree_core._cmp(a, b)
            key_a, key_b = _reference_key(a), _reference_key(b)
            assert tree_core._cmp(a, b, same) == sign
            assert sign == (key_a > key_b) - (key_a < key_b)


def test_order_against_non_tree_is_type_error():
    for other in (3, "(r)", None, Fraction(1, 2)):
        with pytest.raises(TypeError):
            SINGLETON < other
        with pytest.raises(TypeError):
            other > label_tree(0)
        with pytest.raises(TypeError):
            SINGLETON <= other
        with pytest.raises(TypeError):
            SINGLETON >= other
        assert SINGLETON != other


def test_sexpr_roundtrip_known():
    for text in ["(r)", "(r (2))", "(r (2 (2)) (3))", "(r (3) (1/2 (2)))"]:
        assert to_sexpr(parse_sexpr(text)) == text


def test_sexpr_roundtrip_random(rng):
    for _ in range(200):
        t = random_tree(rng, range(6), 4)
        assert parse_sexpr(to_sexpr(t)) == t


def test_parse_rejects_garbage():
    for bad in ["", "(r", "(r))", "(x (2))", "(r (4))", "(r (2)) junk",
                "(r (2.0))", "(r (1/1))"]:
        with pytest.raises(ParseError):
            parse_sexpr(bad)


def test_parse_tokens_split_on_any_whitespace():
    assert parse_sexpr("\t(r\n(2\u3000(3))\x1c(5) )") == Tree(
        ((Label(2), label_tree(1)), (Label(5), SINGLETON)))


def test_leaves_share_the_singleton():
    t = parse_sexpr("(r (2 (3)) (5))")
    leaves = [t.branches[0][1].branches[0][1], t.branches[1][1]]
    assert all(leaf is SINGLETON for leaf in leaves)


def test_trees_are_immutable():
    t = label_tree(0)
    with pytest.raises(AttributeError):
        t.branches = ()


def test_canonical_order_of_branches():
    a = Tree([(Label(3), SINGLETON), (Label(2), SINGLETON)])
    b = Tree([(Label(2), SINGLETON), (Label(3), SINGLETON)])
    assert a == b
    assert to_sexpr(a) == "(r (2) (3))"


def _chain(depth):
    """root -> 2 -> 2 -> ... -> 2, `depth` labeled vertices."""
    t = SINGLETON
    for _ in range(depth):
        t = Tree(((Label(2), t),))
    return t


def test_a_chain_at_the_depth_budget_prints_and_round_trips():
    t = _chain(MAX_DEPTH)
    text = to_sexpr(t)
    assert text == "(r" + " (2" * MAX_DEPTH + ")" * (MAX_DEPTH + 1)
    assert repr(t) == f"Tree({text!r})"
    assert parse_sexpr(text) == t
    assert (t.height, t.leaf_count(), t.max_prime()) == (MAX_DEPTH, 1, 2)


def test_one_level_past_the_depth_budget_is_refused():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_sexpr(to_sexpr(_chain(MAX_DEPTH + 1)))


def test_printing_a_tall_tree_needs_no_recursion():
    text = to_sexpr(_chain(5000))
    assert text == "(r" + " (2" * 5000 + ")" * 5001


def test_tall_trees_need_no_recursion():
    # built apart, so no walk can stop at a shared subtree
    a, b = _chain(5000), _chain(5000)
    c = Tree(((Label(2), _chain(4999)), (Label(3), SINGLETON)))
    d = Tree(((Label(2), _chain(4999)), (Label(5), SINGLETON)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a < b and a <= b and a >= b
    assert c < d and c != d and a < c
    assert sorted([d, c, b, _chain(4999)]) == [_chain(4999), a, c, d]
    assert len({a, b, c, d}) == 3
    assert (a.leaf_count(), a.max_prime()) == (1, 2)
    assert (d.leaf_count(), d.max_prime()) == (2, 5)
    assert (SINGLETON.leaf_count(), SINGLETON.max_prime()) == (1, 1)


def test_an_inverse_behind_a_plain_label_below_the_root_is_refused():
    mixed = encode_rational(7, 5)       # (r (7) (1/5)): the inverse sorts last
    with pytest.raises(MisplacedInverse, match="below vertex 2$"):
        Tree(((Label(2), mixed),))
    with pytest.raises(MisplacedInverse, match="below vertex 3$"):
        parse_sexpr("(r (3 (7) (1/5)))")


def test_tall_generated_forests_compare_equal():
    a, b = g_forest(1, 2000), g_forest(1, 2000)
    # built apart: one memo across the pairs walks each pair of chains
    # once, in milliseconds; tuple == walks every pair apart, in seconds
    start = time.perf_counter()
    assert same_trees(a, b)
    assert time.perf_counter() - start < 1
    assert same_trees(a, tuple(b)) and same_trees(list(a), b)
    # a forest is a tuple of its trees, with tuple's == and hash
    assert a[:100] == b[:100] and not (a[:100] != b[:100])
    assert hash(a) == hash(tuple(a))
    # lengths that differ, empty listings, and members that are not trees
    assert not same_trees(a, b[:-1]) and not same_trees(a[:-1], b)
    assert same_trees((), []) and not same_trees((), b[:1])
    for other in (1, "(r)", None, [1], to_sexpr(b[5])):
        assert not same_trees(a[:5] + (other,), b[:6])
        assert not same_trees(a[:6], b[:5] + (other,))
        assert not same_trees([other], [other])


_LISTINGS = st.one_of(
    st.builds(lambda start, n: _G32[start:start + n],
              st.integers(0, 729), st.integers(0, 12)),
    st.lists(st.builds(encode_rational, st.integers(1, 30),
                       st.integers(1, 30)), max_size=8))


@settings(max_examples=200, deadline=None)
@given(_LISTINGS, st.integers(0, 8), _LISTINGS)
def test_same_trees_is_tuple_equality(xs, kept, tail):
    # ys rebuilds a prefix of xs apart, so no walk stops at a shared
    # subtree, and ends in a drawn tail: equal, or not, anywhere
    ys = [parse_sexpr(to_sexpr(t)) for t in xs[:kept]] + list(tail)
    assert same_trees(xs, ys) == (tuple(xs) == tuple(ys))
    assert same_trees(ys, xs) == same_trees(xs, ys)


def _forget_printed_text(trees):
    # empties to_sexpr's memo on every subtree, shared ones included
    for t in trees:
        for _, sub in t._walk():
            if hasattr(sub, "_text"):
                Tree._text.__delete__(sub)


def test_to_sexpr_prints_alike_with_its_memo_empty_and_filled(rng):
    big = (1031, 1033, 1039, 1049)      # primes past the table's 2^10
    inner = parse_sexpr(f"(r ({big[1]} (2)) (3 ({big[0]})))")
    chain_text = "(r" + " (2" * 5000 + ")" * 5001
    cases = [
        list(g_forest(4, 2)),
        list(itertools.islice(rational_tree_stream(), 11_000)),
        [_chain(5000), SINGLETON, _chain(5000)],
        [encode_rational(rng.randint(1, 3000), rng.randint(1, 3000))
         for _ in range(300)]
        + [parse_sexpr(f"(r ({big[0]} ({big[1]})) (1/{big[2]}))"),
           parse_sexpr(f"(r ({big[3]} (2 ({big[0]}))))"),
           parse_sexpr(f"(r (1/{big[3]}))"), parse_sexpr(f"(r ({big[3]}))")],
        # a subtree printed first inside a larger tree, then on its own,
        # then deeper down, then again under a root with an inverted label
        [Tree(((Label(5), inner), (Label(big[2], True), SINGLETON))), inner,
         Tree(((Label(2), Tree(((Label(7), inner),))),)),
         Tree(((Label(2), inner), (Label(7, True), inner)))],
    ]
    for trees in cases:
        expected = [chain_text if t.height == 5000 else _reference_sexpr(t)
                    for t in trees]
        _forget_printed_text(trees)
        assert [to_sexpr(t) for t in trees] == expected
        assert all(hasattr(sub, "_text") for t in trees
                   for _, sub in t.branches if sub.branches)
        assert [to_sexpr(t) for t in trees] == expected


def _reference_sexpr(t):
    # the recursive printer that to_sexpr replaced
    return "(r" + "".join(" " + _reference_branch(b) for b in t.branches) + ")"


def _reference_branch(branch):
    label, sub = branch
    return ("(" + label.text
            + "".join(" " + _reference_branch(b) for b in sub.branches) + ")")


def test_printer_and_parser_match_the_recursive_reference(rng):
    trees = [random_tree(rng, range(6), 4) for _ in range(300)]
    # roots mixing plain and inverted labels
    trees += [encode_rational(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
              for _ in range(300)]
    trees += g_forest(3, 2)
    trees += itertools.islice(rational_tree_stream(), 3000)
    assert any(t.has_inverted and t.branches[0][0].inverted is False
               for t in trees)
    for t in trees:
        text = to_sexpr(t)
        assert text == _reference_sexpr(t)
        assert parse_sexpr(text) == t


def test_printing_leaves_no_trace_a_caller_can_see():
    printed, fresh = (list(g_forest(2, 2)) + [encode_rational(1031 ** 4, 35)]
                      for _ in range(2))

    def seen(trees):
        return ([hash(t) for t in trees],
                [(a == b, a < b) for a in trees for b in trees])

    before = seen(printed)
    assert before == seen(fresh)
    reprs = [repr(t) for t in printed]          # fills the memo
    assert seen(printed) == before
    assert [repr(t) for t in printed] == reprs == [repr(t) for t in fresh]
    assert printed == fresh
    assert all(hash(a) == hash(b) and not a < b and not b < a
               for a, b in zip(printed, fresh))
    t = printed[-1]
    with pytest.raises(AttributeError, match="immutable"):
        t._text = " (2)"
    with pytest.raises(AttributeError, match="immutable"):
        setattr(t.branches[0][1], "_text", " (2)")
    assert repr(t) == reprs[-1]


_SHARED_SUBTREES = list(g_forest(2, 2))     # shared by every example
_PRIMES = (2, 3, 5, 1031)


@st.composite
def _trees_over_shared_subtrees(draw):
    def branches(pool, inverted):
        primes = draw(st.lists(st.sampled_from(_PRIMES), unique=True,
                               max_size=3))
        return [(Label(p, draw(inverted)), draw(st.sampled_from(pool)))
                for p in primes]

    # trees that hang under others, and may be printed before or after
    pool = list(_SHARED_SUBTREES)
    for _ in range(draw(st.integers(0, 3))):
        pool.append(Tree(branches(pool, st.just(False))))
    roots = [Tree(branches(pool, st.booleans()))
             for _ in range(draw(st.integers(1, 6)))]
    return draw(st.permutations(pool + roots))


@settings(max_examples=200, deadline=None)
@given(_trees_over_shared_subtrees())
def test_printing_shared_subtrees_in_any_order_matches_the_reference(trees):
    for t in trees:
        assert to_sexpr(t) == _reference_sexpr(t)


def _rebuilt(t):
    return Tree([(label, _rebuilt(sub)) for label, sub in t.branches])


@settings(max_examples=200, deadline=None)
@given(_trees_over_shared_subtrees(), st.data())
def test_hashing_shared_subtrees_in_any_order_matches_a_rebuild(trees, data):
    # a tree's hash waits for its first use; hash some of the trees, in
    # any order, parents before or after their subtrees
    hashed = data.draw(st.lists(st.booleans(), min_size=len(trees),
                                max_size=len(trees)))
    first = [hash(t) for t, h in zip(trees, hashed) if h]
    # rebuilt apart, down to fresh leaves that are not SINGLETON
    rebuilt = [_rebuilt(t) for t in trees]
    assert first == [hash(r) for r, h in zip(rebuilt, hashed) if h]
    assert [hash(t) for t in trees] == [hash(r) for r in rebuilt]
    assert trees == rebuilt
    assert (len(set(trees)) == len(set(rebuilt)) == len(set(trees + rebuilt))
            == len(set(map(to_sexpr, trees))))


def test_listing_hashes_none_of_the_tallest_trees():
    # g_trees hashes the lower forest, so every height-2 tree is built over
    # hashed subtrees and keeps its hash deferred
    tall = [t for t in g_trees(4, 2) if t.height == 2]
    assert len(tall) == g_count(4, 2) - g_count(4, 1)
    assert all(t._hash is None for t in tall)
    assert hash(tall[-1]) == hash(tall[-1].branches) == tall[-1]._hash


def test_printing_keeps_text_in_proportion_to_the_print():
    t = _chain(5000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = len(to_sexpr(t))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the text is kept on the root branch's subtree only; text kept at
    # every level would grow with the square of the depth (about 37 MB)
    assert 0 < retained < 2 * size
    assert to_sexpr(t) == "(r" + " (2" * 5000 + ")" * 5001


@pytest.mark.parametrize("text, message", [
    ("", r"expected '\(r'"),
    ("(x (2))", r"expected '\(r'"),
    ("r (2))", r"expected '\(r'"),
    ("(r (", "unterminated branch"),
    ("(r", "unterminated tree"),
    ("(r (2 (3)", "unterminated tree"),
    ("(r junk)", "stray token 'junk'"),
    ("(r (2) 3)", "stray token '3'"),
    ("(r (2)) junk", "trailing tokens"),
    ("(r))", "trailing tokens"),
    ("(r (2.0))", "bad label '2.0'"),
    ("(r (()))", r"bad label '\('"),
    ("(r (1/x))", "bad label '1/x'"),
    ("(r (4))", "label '4' is not a prime"),
    ("(r (1/1))", "label '1/1' is not a prime"),
    # the label grammar is ASCII digits with no sign, "_" or leading zero
    ("(r (2_3))", "bad label '2_3'"),
    ("(r (+2))", r"bad label '\+2'"),
    ("(r (-2))", "bad label '-2'"),
    ("(r (02))", "bad label '02'"),
    ("(r (1/03))", "bad label '1/03'"),
    ("(r (\u0663))", "bad label '\u0663'"),
    ("(r (1/))", "bad label '1/'"),
    ("(r (" + "1" * 5000 + "))", "bad label '1111"),
])
def test_parse_errors_name_the_fault(text, message):
    with pytest.raises(ParseError, match=message):
        parse_sexpr(text)


# labels of tree text: primes above and below the label table's 2^10,
# plain and inverted, then texts that are not prime labels ("2047" is a
# strong pseudoprime to base 2)
_PRIME_PIECES = ("2", "3", "7", "1/2", "1/3", "1031", "1/1033", "65537")
_LABEL_PIECES = _PRIME_PIECES + ("4", "1/1", "0", "1/", "2047")
_BRANCH_PIECES = st.recursive(
    st.just([]),
    lambda sub: st.lists(
        st.builds(lambda label, below: ["(", label, *below, ")"],
                  # mostly primes, so that a tree with a few labels parses
                  st.sampled_from(_PRIME_PIECES)
                  | st.sampled_from(_LABEL_PIECES), sub),
        max_size=3).map(lambda branches: sum(branches, [])),
    max_leaves=8)


@st.composite
def _tree_texts(draw):
    """Tree text joined from pieces, well formed but for its labels, with
    up to three pieces put in or taken out after its "(r "."""
    pieces = ["(", "r", " ", *draw(_BRANCH_PIECES), ")"]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(3, len(pieces)))
        if draw(st.booleans()):
            pieces.insert(at, draw(st.sampled_from(
                ("(", ")", "r", " ") + _LABEL_PIECES)))
        else:
            del pieces[at:at + 1]
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_tree_texts())
def test_parse_reads_a_tree_or_raises_a_domain_error(text):
    try:
        t = parse_sexpr(text)
    except DomainError:
        return
    assert parse_sexpr(to_sexpr(t)) == t
    assert all(is_prime(label.prime) for label, _ in t._walk())


def test_parse_checks_each_label_text_once(monkeypatch):
    # labels above 2^10, past the fixed table of small labels
    checked = []

    def counting_is_prime(n):
        checked.append(n)
        return n in (1031, 1033)

    monkeypatch.setattr(tree_core, "is_prime", counting_is_prime)
    text = "(r (1031 (1031 (1031)) (1033 (1031))) (1/1033 (1031)))"
    t = parse_sexpr(text)
    assert to_sexpr(t) == text
    assert sorted(checked) == [1031, 1033, 1033]


def test_small_labels_are_the_checked_labels():
    table = tree_core._SMALL_LABELS
    assert len(table) == 2 * 172        # pi(1024) = 172 primes, two signs
    for text, label in table.items():
        assert tree_core._parse_label(text) == label
        assert label.text == text and label.prime < 2 ** 10


# the tokenizer that _tokenize replaced
_TOKEN = re.compile(r"[()]|[^\s()]+")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="()r 12/3\t\n\x1c\u3000x"))
def test_tokenizer_matches_the_regex_reference(text):
    assert tree_core._tokenize(text) == _TOKEN.findall(text)


def _reference_fault(branches):
    """The exception Tree raises: the first fault in canonical order, a
    repeated prime checked before an inverted label below."""
    seen = set()
    for label, sub in sorted(branches, key=lambda b: b[0].sort_rank):
        if label.prime in seen:
            return (SiblingCollision,
                    f"sibling labels repeat the prime {label.prime}")
        seen.add(label.prime)
        if sub.has_inverted:
            return (MisplacedInverse,
                    f"inverted label below vertex {label.text}")
    return None


def test_construction_faults_match_the_reference(rng):
    inverted_below = Tree(((Label(5, True), SINGLETON),))
    subs = [SINGLETON, label_tree(0), inverted_below]
    labels = [Label(p, inverted) for p in (2, 3) for inverted in (False, True)]
    faults = set()
    for _ in range(2000):
        branches = [(rng.choice(labels), rng.choice(subs))
                    for _ in range(rng.randint(0, 4))]
        expected = _reference_fault(branches)
        if expected is None:
            Tree(branches)
            continue
        with pytest.raises(expected[0]) as info:
            Tree(branches)
        assert str(info.value) == expected[1]
        faults.add(expected[0])
    assert faults == {SiblingCollision, MisplacedInverse}
    # one branch tuple with both faults: the first in canonical order wins
    with pytest.raises(MisplacedInverse):
        Tree([(Label(2), inverted_below), (Label(3), SINGLETON),
              (Label(3), SINGLETON)])
    with pytest.raises(SiblingCollision):
        Tree([(Label(2), SINGLETON), (Label(3), SINGLETON),
              (Label(2, True), inverted_below)])
    # the misplaced inverse comes first in the input but not in canonical
    # order, so it must not be raised before the input is sorted
    with pytest.raises(SiblingCollision, match="repeat the prime 2$"):
        Tree([(Label(3), inverted_below), (Label(2), SINGLETON),
              (Label(2), SINGLETON)])
    with pytest.raises(MisplacedInverse, match="below vertex 3$"):
        Tree([(Label(3), inverted_below), (Label(2), SINGLETON),
              (Label(2, True), SINGLETON)])


def test_every_branch_order_builds_the_sorted_tree(rng):
    # Tree checks the order of canonical input and sorts only the rest;
    # every permutation must agree with the sorted list, tree or fault
    inverted_below = Tree(((Label(5, True), SINGLETON),))
    subs = [SINGLETON, label_tree(0), encode_rational(4), inverted_below]
    # 1 is a truthy sign: Label is an unchecked record
    labels = [Label(p, sign) for p in (2, 3, 5) for sign in (False, True, 1)]
    seen = set()
    for _ in range(600):
        branches = [(rng.choice(labels), rng.choice(subs))
                    for _ in range(rng.randint(0, 4))]
        ordered = tuple(sorted(branches, key=lambda b: b[0].sort_rank))
        expected = _reference_fault(ordered)
        signs = {(label.prime, bool(label.inverted)) for label, _ in ordered}
        if len(set(ordered)) < len(ordered):
            seen.add("repeated label")
        elif len({p for p, _ in signs}) < len(signs):
            seen.add("both signs of one prime")
        if expected is None:
            want = Tree(ordered)
            assert want.branches is ordered
            if any(type(label.inverted) is int for label, _ in ordered):
                seen.add("truthy sign")
        else:
            seen.add(expected[0].__name__)
        for perm in set(itertools.permutations(branches)):
            if expected is None:
                got = Tree(perm)
                assert got.branches == want.branches
                assert (got.height, hash(got)) == (want.height, hash(want))
                if perm and perm[0][0].inverted and not perm[-1][0].inverted:
                    seen.add("inverted before plain")
            else:
                # branches of equal rank keep their input order, so which
                # fault comes first may depend on the permutation
                fault = _reference_fault(perm)
                with pytest.raises(fault[0]) as info:
                    Tree(perm)
                assert str(info.value) == fault[1]
    assert seen == {"repeated label", "both signs of one prime", "truthy sign",
                    "inverted before plain", "SiblingCollision",
                    "MisplacedInverse"}


def test_canonical_input_is_never_sorted(monkeypatch):
    # the enumerator, the encoders and the parser all hand Tree branches in
    # canonical order; re-sorting them is the cost Tree's order check saves
    def refuse(*args, **kwargs):
        raise AssertionError("Tree sorted its branches")

    monkeypatch.setattr(tree_core, "sorted", refuse, raising=False)
    assert len([to_sexpr(t) for t in g_forest(3, 2)]) == 729
    for m in range(1, 2001):
        encode_integer(m)
    for p in range(1, 60):
        for q in range(1, 60):
            t = encode_rational(p, q)
            assert parse_sexpr(to_sexpr(t)) == t
    with pytest.raises(AssertionError, match="sorted its branches"):
        Tree([(Label(3), SINGLETON), (Label(2), SINGLETON)])
