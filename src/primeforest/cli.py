"""Command-line surface: encode, decode, forest, count, sieve, rationals,
selftest.  Results go to stdout, diagnostics to stderr; exit codes are
0 (ok), 1 (domain error), 2 (usage error)."""

import argparse
import itertools
import sys

from . import codec, generator, rationals, sieve
from .errors import DomainError, SizeOverBudget
from .tree_core import parse_sexpr, to_sexpr


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="primeforest",
        description="Prime-labeled rooted trees: integer/rational codecs, "
                    "forest generation, combinatorial sieve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="integer or p/q to S-expression")
    p.add_argument("value")

    p = sub.add_parser("decode", help="S-expression to integer or p/q")
    p.add_argument("sexpr")

    p = sub.add_parser("forest", help="all valid trees for n labels, height <= h")
    p.add_argument("--labels", type=_natural, required=True)
    p.add_argument("--height", type=_natural, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("count", help="exact forest size without enumeration")
    p.add_argument("--labels", type=_natural, required=True)
    p.add_argument("--height", type=_natural, required=True)

    p = sub.add_parser("sieve", help="primes in (q, 2q)")
    p.add_argument("q", type=int)
    p.add_argument("--show-composites", action="store_true")
    p.add_argument("--fidelity", action="store_true",
                   help="use the forest-fixpoint form (small q only)")

    p = sub.add_parser("rationals", help="duplicate-free enumeration of Q+")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", type=_natural)
    group.add_argument("--locate")
    p.add_argument("--max-stage", type=_natural)

    sub.add_parser("selftest", help="run oracle cross-checks")
    return parser


def _natural(text):
    """argparse type for counts and sizes: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return value


def _parse_rational(text):
    if "/" in text:
        num, den = text.split("/", 1)
        return int(num), int(den)
    return int(text), 1


def _print_cap():
    """Largest integer that int-to-str will convert, or None if unlimited."""
    limit = sys.get_int_max_str_digits()
    return 10 ** limit - 1 if limit else None


def _format_value(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _cmd_encode(args, out):
    num, den = _parse_rational(args.value)
    if den == 1:
        tree = codec.encode_integer(num)
    else:
        tree = codec.encode_rational(num, den)
    print(to_sexpr(tree), file=out)
    return 0


def _cmd_decode(args, out):
    tree = parse_sexpr(args.sexpr)
    value = codec.eval_rational_tree(tree, _print_cap())
    print(_format_value(value), file=out)
    return 0


def _forest_dot(forest, out):
    print("digraph forest {", file=out)
    counter = itertools.count()

    def emit(node, node_id):
        for label, sub in node.branches:
            child_id = next(counter)
            print(f'  n{child_id} [label="{label.text}"];', file=out)
            print(f"  n{node_id} -> n{child_id};", file=out)
            emit(sub, child_id)

    for tree in forest:
        root_id = next(counter)
        print(f'  n{root_id} [label="r"];', file=out)
        emit(tree, root_id)
    print("}", file=out)


def _cmd_forest(args, out):
    if args.count_only:
        return _cmd_count(args, out)
    forest = generator.g_forest(args.labels, args.height)
    if args.dot:
        _forest_dot(forest, out)
    else:
        for tree in forest:
            print(to_sexpr(tree), file=out)
    return 0


def _cmd_count(args, out):
    # refuse, before computing it, a count too long for int-to-str
    count = generator.g_count(args.labels, args.height, _print_cap())
    print(count, file=out)
    return 0


def _cmd_sieve(args, out):
    if args.show_composites:
        for value, tree in sieve.composites_in_window(args.q):
            print(f"{value}\t{to_sexpr(tree)}", file=out)
    if args.fidelity:
        primes = sieve.literal_fixpoint_sieve(args.q)
    else:
        primes = sieve.combinatorial_sieve(args.q)
    for p in primes:
        print(p, file=out)
    return 0


def _cmd_rationals(args, out):
    if args.locate is not None:
        num, den = _parse_rational(args.locate)
        tree = codec.encode_rational(num, den)
        print(rationals.minimal_stage(tree), file=out)
        return 0
    budget = args.count
    if args.max_stage is not None:
        # entries through stage S are exactly the members of h_forest(S, S);
        # a count above the budget leaves the budget as it is
        try:
            budget = rationals.h_count(args.max_stage, args.max_stage, budget)
        except SizeOverBudget:
            pass
    cap = _print_cap()
    for tree in itertools.islice(rationals.rational_tree_stream(), budget):
        value = codec.eval_rational_tree(tree, cap)
        print(f"{_format_value(value)}\t{to_sexpr(tree)}", file=out)
    return 0


def _cmd_selftest(args, out):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # report, don't abort the suite
            print(f"FAIL {name}: {exc}", file=out)
            checks.append(False)
            return
        print(f"{'PASS' if ok else 'FAIL'} {name}", file=out)
        checks.append(ok)

    check("integer roundtrip 1..2000",
          lambda: all(codec.eval_integer_tree(codec.encode_integer(m)) == m
                      for m in range(1, 2001)))
    check("counting matches enumeration",
          lambda: all(len(generator.g_forest(n, h)) == generator.g_count(n, h)
                      for n, h in [(1, 4), (2, 2), (3, 2)]))
    check("generator matches brute force (2,2)",
          lambda: generator.g_forest(2, 2)
          == generator.all_valid_trees_bruteforce(2, 2))
    check("sieve matches Eratosthenes up to q=31",
          lambda: all(sieve.combinatorial_sieve(q)
                      == [p for p in sieve.eratosthenes(2 * q) if p > q]
                      for q in sieve.eratosthenes(31)))
    check("rational forests distinct and reduced",
          lambda: _rational_forest_ok())
    check("stream prefix duplicate-free",
          lambda: _stream_prefix_ok(500))
    failed = checks.count(False)
    print(f"{len(checks) - failed}/{len(checks)} checks passed", file=out)
    return 0 if failed == 0 else 1


def _rational_forest_ok():
    for i, m in [(0, 1), (0, 2), (1, 1), (1, 2)]:
        forest = rationals.h_forest(i, m)
        values = [codec.eval_rational_tree(t) for t in forest]
        if len(forest) != rationals.h_count(i, m):
            return False
        if len(set(values)) != len(values):
            return False
    return True


def _stream_prefix_ok(n):
    seen = set()
    for value, _ in itertools.islice(rationals.rational_stream(), n):
        if value in seen:
            return False
        seen.add(value)
    return True


_HANDLERS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "forest": _cmd_forest,
    "count": _cmd_count,
    "sieve": _cmd_sieve,
    "rationals": _cmd_rationals,
    "selftest": _cmd_selftest,
}


def run(argv, out=None, err=None):
    """Dispatch argv; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _HANDLERS[args.command](args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
