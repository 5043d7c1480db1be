"""Tree <-> number codecs.

Evaluation maps sibling branches to multiplication and a child subtree to
its parent prime's exponent, leaves first (exponentiation does not
associate).  All three evaluators run one walk, _value, exact or under a
bound, and look for inverted labels at the root only: Tree keeps them
there.  Encoding inverts this by factoring, with a table of exponent trees.
"""

from fractions import Fraction
from math import gcd

from .errors import InverseLabelPresent, SizeOverBudget, ZeroInput
from .primes import (TABLE_CAP, is_prime, prime_by_index, prime_index_of,
                     table_primes)
from .tree_core import SINGLETON, Label, Tree


class _OverBound:
    def __repr__(self):
        return "OVER_BOUND"


# Marker: a bounded evaluation exceeded its bound.  Test it with `is`.
OVER_BOUND = _OverBound()


def eval_integer_tree(t):
    """Exact integer value of a tree without inverted labels."""
    if t.has_inverted:
        raise InverseLabelPresent("tree carries inverted labels")
    return _value(t)


def encode_integer(m):
    """The unique valid tree evaluating to m >= 1."""
    if m == 0:
        raise ZeroInput("0 has no tree")
    if m < 0:
        raise ZeroInput("negative integers have no tree")
    if m == 1:
        return SINGLETON
    return Tree(_factor_branches(m))


def _factor_branches(m, inverted=False):
    """The branch p -> (tree of e) of each prime power p^e in m >= 2."""
    return [(Label(p, inverted), _EXPONENT_TREES[e] if e < len(_EXPONENT_TREES)
             else encode_integer(e)) for p, e in factor(m)]


def eval_rational_tree(t, cap=None):
    """Reduced rational value; inverted root branches feed the denominator.

    Given a cap, a numerator or denominator above it raises SizeOverBudget,
    and each root exponent is bounded before its power is taken, so no
    value far above the cap is ever built.
    """
    if cap is not None and cap < 1:
        raise _past_cap(cap)
    num = den = 1
    for label, sub in t.branches:
        p = label.prime
        e = _value(sub, None if cap is None else _max_exponent(cap, p))
        if e is OVER_BOUND:
            raise _past_cap(cap)
        if label.inverted:
            den *= p ** e
        else:
            num *= p ** e
        if cap is not None and max(num, den) > cap:
            raise _past_cap(cap)
    # reduced by construction: a prime never heads both a plain and an
    # inverted root branch
    return Fraction(num, den)


def encode_rational(num, den=1):
    """Tree for num/den (reduced internally); inverse of eval_rational_tree."""
    if num <= 0 or den <= 0:
        raise ZeroInput("only positive rationals have trees")
    g = gcd(num, den)
    num //= g
    den //= g
    branches = []
    if num > 1:
        branches += _factor_branches(num)
    if den > 1:
        branches += _factor_branches(den, inverted=True)
    return Tree(branches)


def _past_cap(cap):
    return SizeOverBudget(f"the value exceeds the cap {_approx(cap)}", cap=cap)


def _approx(n):
    """n in decimal, or its magnitude ~10^k when n has more than 30 digits
    (huge counts overflow the int-to-str conversion limit)."""
    digits = n.bit_length() * 30103 // 100000 + 1
    return str(n) if digits <= 30 else f"~10^{digits - 1}"


def _max_exponent(bound, base):
    """An upper bound on the largest e with base**e <= bound (base >= 2),
    exact for base 2, and negative for bound 0: base >= 2**(k - 1) for k
    = base.bit_length(), and bound < 2**bound.bit_length()."""
    return (bound.bit_length() - 1) // (base.bit_length() - 1)


def eval_bounded(t, bound):
    """Exact value if <= bound, else OVER_BOUND.

    Exponents are capped in logarithmic space before exponentiating, so
    this terminates quickly even on tall exponent towers.
    """
    if t.has_inverted:
        raise InverseLabelPresent("tree carries inverted labels")
    return _value(t, bound)


def _value(t, bound=None):
    """The value of a tree without inverted labels; given a bound,
    OVER_BOUND once the value passes it."""
    if bound is not None and bound < 1:
        return OVER_BOUND
    value = 1
    for label, sub in t.branches:
        p = label.prime
        e = _value(sub, None if bound is None else _max_exponent(bound, p))
        if e is OVER_BOUND:
            return OVER_BOUND
        value *= p ** e
        if bound is not None and value > bound:
            return OVER_BOUND
    return value


def factor(m):
    """Prime factorization of m >= 2, ascending primes.

    Divides only by table primes p, and only while p * p <= the cofactor.
    When the table runs out first, a prime cofactor ends the search;
    otherwise the table grows.
    """
    if m < 2:
        raise ValueError("factor needs m >= 2")
    out = []
    rest = m
    k = 0
    while True:
        for p in table_primes(k):
            if p * p > rest:
                break
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                out.append((p, e))
        else:
            # the table ran out with p * p <= rest: unless rest is prime,
            # go on past p
            if not is_prime(rest):
                k = prime_index_of(p) + 1
                try:
                    prime_by_index(k)       # grows the table past p
                except SizeOverBudget:
                    raise SizeOverBudget(
                        f"{m} leaves the composite cofactor {rest}, which has "
                        f"no prime factor below the prime table cap {TABLE_CAP}",
                        requested=m, cap=TABLE_CAP) from None
                continue
        break
    if rest > 1:
        out.append((rest, 1))
    return out


# encode_integer(e) at index e = 1..127: the exponents of every m < 2^128
_EXPONENT_TREES = ()    # empty while encode_integer builds it
_EXPONENT_TREES = (None,) + tuple(map(encode_integer, range(1, 128)))
