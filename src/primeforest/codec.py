"""Tree <-> number codecs.

Evaluation maps sibling branches to multiplication and a child subtree to
its parent prime's exponent, leaves first (exponentiation does not
associate).  Both evaluators run one walk, _value, over a tuple of
branches, exact or under a cap.  Inverted labels sit at the root only
and last in it (Tree keeps them there), so eval_rational_tree splits the
root at its first inverted branch and walks the numerator's branches and
the denominator's apart.  Encoding inverts this by factoring; factor(1),
the empty product, is empty.  Only encode_integer reads its table of the
trees of 1..127.
"""

from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod

from .errors import (DomainError, InverseLabelPresent, SizeOverBudget,
                     ZeroInput, as_integer)
from .primes import SMALL_PRIMES, is_prime
from .tree_core import SINGLETON, Label, Tree


SPLIT_STEPS = 1 << 20           # Pollard-Brent's budget for one split


def eval_integer_tree(t):
    """Exact integer value of a tree without inverted labels."""
    if t.has_inverted:
        raise InverseLabelPresent("tree carries inverted labels")
    return _value(t.branches)


def encode_integer(m):
    """The unique valid tree evaluating to m >= 1."""
    m = as_integer(m)
    if 0 < m < len(_SMALL_TREES):
        return _SMALL_TREES[m]
    if m < 1:
        raise ZeroInput("only positive integers have trees")
    return Tree(_factor_branches(m))


def _factor_branches(m, inverted=False):
    """The branch p -> (tree of e) of each prime power p^e in m >= 1."""
    return [(Label(p, inverted), encode_integer(e)) for p, e in factor(m)]


def eval_rational_tree(t, cap=None):
    """Reduced rational value; inverted root branches feed the denominator.

    Given a cap, a numerator or denominator above it raises SizeOverBudget,
    and each root exponent is bounded before its power is taken, so no
    value far above the cap is ever built.
    """
    cap = None if cap is None else as_integer(cap)
    branches = t.branches
    if branches and branches[-1][0].inverted:
        # canonical order puts the inverted branches last
        split = len(branches) - 1
        while split and branches[split - 1][0].inverted:
            split -= 1
        num, den = _value(branches[:split], cap), _value(branches[split:], cap)
    else:
        num, den = _value(branches, cap), 1
    if num is None or den is None:
        raise SizeOverBudget(f"the value exceeds the cap {_approx(cap)}",
                             cap=cap)
    # reduced by construction: a prime never heads both a plain and an
    # inverted root branch; Fraction(num) skips the gcd of Fraction(num, 1)
    return Fraction(num, den) if den > 1 else Fraction(num)


def encode_rational(num, den=1):
    """Tree for num/den (reduced internally); inverse of eval_rational_tree."""
    num, den = as_integer(num), as_integer(den)
    if num <= 0 or den <= 0:
        raise ZeroInput("only positive rationals have trees")
    g = gcd(num, den)
    return Tree(_factor_branches(num // g)
                + _factor_branches(den // g, inverted=True))


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


def _value(branches, bound=None):
    """The product of p^e over branches p -> (tree of e), none inverted;
    given a bound, None once the product passes it."""
    if bound is not None and bound < 1:
        return None
    value = 1
    for label, sub in branches:
        p = label.prime
        e = _value(sub.branches,
                   None if bound is None else _max_exponent(bound, p))
        if e is None:
            return None
        value *= p ** e
        if bound is not None and value > bound:
            return None
    return value


def factor(m):
    """Prime factorization of m >= 1, ascending primes ([] for m = 1).

    Walks SMALL_PRIMES by the block while p * p <= the cofactor for the
    block's first prime p: a block whose product is coprime to the
    cofactor is passed by one gcd, and only the primes of that gcd divide.
    A cofactor left below 2^32 is then 1 or prime; _large_primes factors a
    larger one.
    """
    m = as_integer(m)
    if m < 1:
        raise DomainError("factor needs m >= 1")
    out = []
    rest = m
    for square, block, product in _BLOCKS:
        if square > rest:
            break
        g = gcd(rest, product)
        if g == 1:
            continue
        for p in block:
            if g % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                out.append((p, e))
                g //= p
                if g == 1:
                    break
    if rest >= 1 << 32:
        return out + sorted(Counter(_large_primes(rest)).items())
    if rest > 1:
        out.append((rest, 1))
    return out


def _large_primes(n):
    """The prime factors of n > 1, repeated, if no prime below 2^16 divides
    n: Brent's form of Pollard's rho (Brent 1980) splits a composite within
    SPLIT_STEPS steps, each weighed by n's 64-bit words, or refuses it.
    A perfect square is taken by isqrt first."""
    if is_prime(n):
        return [n]
    r = isqrt(n)
    if r * r == n:
        return 2 * _large_primes(r)
    steps = 0
    for c in count(1):
        y = g = r = 1
        while g == 1:
            steps += r * (n.bit_length() // 64 + 1)
            if steps > SPLIT_STEPS:
                raise SizeOverBudget(
                    f"{n} is not split in {SPLIT_STEPS} Pollard-Brent steps",
                    requested=steps, cap=SPLIT_STEPS)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(y - x, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return _large_primes(g) + _large_primes(n // g)


# (p * p, the block, its product) for each run of 32 of SMALL_PRIMES, p its
# first prime.  Blocks of 64 were slower on inputs below 10^6, and blocks of
# 16 on 32-bit inputs
_BLOCKS = tuple((SMALL_PRIMES[i] ** 2, block, prod(block))
                for i in range(0, len(SMALL_PRIMES), 32)
                for block in [SMALL_PRIMES[i:i + 32]])
# encode_integer(m) at index m = 1..127, the exponents of every m < 2^128
_SMALL_TREES = (None, SINGLETON)    # all there is while it builds the rest
_SMALL_TREES += tuple(map(encode_integer, range(2, 128)))
