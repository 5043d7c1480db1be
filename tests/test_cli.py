import hashlib
import io
import itertools
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from primeforest import cli, sieve
from primeforest.cli import _forest_dot, _print_cap, run
from primeforest.generator import g_count
from primeforest.primes import is_prime
from primeforest.sieve import eratosthenes
from primeforest.tree_core import SINGLETON, Label, Tree

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv, flags=(), timeout=10):
    """Run the CLI in a fresh interpreter; a hang fails on the timeout."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "primeforest.cli", *argv],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_readme_examples():
    # README lines "primeforest ARGS  # -> EXPECTED": EXPECTED is stdout,
    # its lines joined by ", "
    examples = re.findall(r"^primeforest (.+?)\s+# -> (.+?)\s*$",
                          README.read_text(), re.MULTILINE)
    assert examples
    for args, expected in examples:
        code, out, err = invoke(*shlex.split(args))
        assert (code, ", ".join(out.splitlines()), err) == (0, expected, ""), \
            args


def test_encode_integer():
    code, out, _ = invoke("encode", "12")
    assert code == 0
    assert out == "(r (2 (2)) (3))\n"


def test_encode_rational():
    code, out, _ = invoke("encode", "8/9")
    assert code == 0
    assert out == "(r (2 (3)) (1/3 (2)))\n"


def test_encode_refuses_negative_rationals():
    for value in ("-3/4", "3/-4", "-3"):
        code, out, err = invoke("encode", "--", value)
        assert (code, out) == (1, "")
        assert "error:" in err


def test_a_label_past_the_bit_cap_exits_1():
    # 4,064 digits with no factor below 2^16: refused before any
    # Miller-Rabin base runs
    huge = str(((2 ** 61 - 1) * (2 ** 89 - 1)) ** 90)
    for argv in (("encode", huge), ("decode", f"(r ({huge}))")):
        code, out, err = run_cli(*argv, timeout=5)
        assert (code, out) == (1, ""), argv[0]
        assert "error:" in err and "Traceback" not in err


def test_decode_integer():
    code, out, _ = invoke("decode", "(r (2 (2)) (3))")
    assert code == 0
    assert out == "12\n"


def test_decode_rational():
    code, out, _ = invoke("decode", "(r (1/2))")
    assert code == 0
    assert out == "1/2\n"


def test_decode_roundtrip_textual():
    for m in list(range(1, 300)) + [10 ** 4]:
        _, sexpr, _ = invoke("encode", str(m))
        _, back, _ = invoke("decode", sexpr.strip())
        assert back.strip() == str(m)


def test_count():
    code, out, _ = invoke("count", "--labels", "2", "--height", "2")
    assert code == 0
    assert out == "25\n"


def test_forest_listing():
    code, out, _ = invoke("forest", "--labels", "2", "--height", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["(r)", "(r (2))", "(r (3))", "(r (2) (3))"]


def test_forest_count_only():
    code, out, _ = invoke("forest", "--labels", "3", "--height", "2",
                          "--count-only")
    assert (code, out) == (0, "729\n")


def test_refused_forest_prints_nothing():
    for dot in ((), ("--dot",)):
        code, out, err = invoke("forest", "--labels", "5", "--height", "3",
                                *dot)
        assert (code, out) == (1, "")
        assert "exceeds the cap" in err


def test_forest_listing_holds_no_forest():
    # the 83,521 trees cost about 18 MB when the listing kept them all
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            code = run(["forest", "--labels", "4", "--height", "2"], out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2 ** 20


def test_forest_dot():
    code, out, _ = invoke("forest", "--labels", "1", "--height", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="r"' in out
    assert 'label="2"' in out


def test_sieve():
    code, out, _ = invoke("sieve", "7")
    assert (code, out) == (0, "11\n13\n")


def test_sieve_prints_the_primes_above_q():
    for q in (2, 3, 7, 1009, 30011):
        expected = "".join(f"{p}\n" for p in eratosthenes(2 * q) if p > q)
        assert invoke("sieve", str(q)) == (0, expected, ""), q


def test_the_cached_parser_keeps_no_state():
    # one parser serves every call in a process; each call still answers
    # as a fresh interpreter does
    argvs = (["sieve", "7", "--show-composites"], ["sieve", "7"],
             ["sieve", "7", "--nonsense"], ["encode", "12"])
    for argv in argvs:
        code, out, _ = invoke(*argv)
        assert (code, out) == run_cli(*argv)[:2], argv
    assert cli._build_parser() is cli._build_parser()


def test_sieve_show_composites():
    code, out, _ = invoke("sieve", "5", "--show-composites")
    assert code == 0
    assert out.splitlines() == [
        "6\t(r (2) (3))",
        "8\t(r (2 (3)))",
        "9\t(r (3 (2)))",
        "10\t(r (2) (5))",
        "7",
    ]


def test_sieve_fidelity():
    code, out, _ = invoke("sieve", "11", "--fidelity")
    assert (code, out) == (0, "13\n17\n19\n")


def test_sieve_show_composites_golden_hashes():
    for q, digest in (
            ("1009", "8dfa527c539d2d77e16a2c6094394cc5"
                     "33302bf0dca0ca3703e6557a77dc4113"),
            ("30011", "998cf15a13d6ebaf8eda2b2767e047ec"
                      "0cb65ea3995c25a09ea07ffd8a8c5866")):
        code, out, _ = invoke("sieve", q, "--show-composites")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, q


def test_sieve_caps_refuse_large_q():
    above = next(k for k in itertools.count(sieve.FIDELITY_CAP + 1)
                 if is_prime(k))
    # a prime past the Miller-Rabin bound is refused on the cap, untested
    for argv, cap in ((["sieve", "4000037"], "4000000"),
                      (["sieve", "4000037", "--show-composites"], "4000000"),
                      (["sieve", str(above), "--fidelity"],
                       str(sieve.FIDELITY_CAP)),
                      (["sieve", str(2 ** 1279 - 1)], "4000000")):
        code, out, err = run_cli(*argv, timeout=2)
        assert (code, out) == (1, "")
        assert f"sieve cap {cap}" in err and "Traceback" not in err


def test_sieve_not_prime_is_domain_error():
    code, out, err = invoke("sieve", "8")
    assert code == 1
    assert out == ""
    assert "prime" in err


def test_rationals_count():
    code, out, _ = invoke("rationals", "--count", "3")
    assert code == 0
    assert out.splitlines() == [
        "1\t(r)",
        "2\t(r (2))",
        "1/2\t(r (1/2))",
    ]


def test_rationals_count_stops_at_the_print_cap():
    # items 1-101 print; item 102's value is refused before it is built
    code, out, err = run_cli("rationals", "--count", "102", timeout=10)
    assert code == 1
    assert len(out.splitlines()) == 101
    assert "cap" in err and "string conversion" not in err


def test_print_cap_without_a_digit_limit(monkeypatch):
    # Python before 3.10.7 has no int-to-str limit and no way to read one
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert _print_cap() is None


def test_rationals_max_stage():
    code, out, _ = invoke("rationals", "--count", "100", "--max-stage", "1")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_rationals_locate():
    code, out, _ = invoke("rationals", "--locate", "3/5")
    assert (code, out) == (0, "3\n")


def test_usage_errors():
    assert invoke()[0] == 2
    assert invoke("bogus")[0] == 2
    assert invoke("sieve", "7", "--nonsense")[0] == 2
    assert invoke("rationals")[0] == 2
    assert invoke("rationals", "--count", "-3")[:2] == (2, "")


def test_usage_errors_and_help_go_to_the_given_streams(capsys):
    code, out, err = invoke("sieve", "7", "--nonsense")
    assert (code, out) == (2, "")
    assert err.startswith("usage: primeforest")
    assert "unrecognized arguments: --nonsense" in err
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: primeforest")
    assert capsys.readouterr() == ("", "")


def test_domain_error_decode():
    code, _, err = invoke("decode", "(r (4))")
    assert code == 1
    assert err


def test_forest_golden_hash():
    code, out, _ = invoke("forest", "--labels", "4", "--height", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "554bfc6de743115430b408e59284a61b66d207e345ac8170127928e7e4234ec2")


def test_forest_dot_golden_hash():
    code, out, _ = invoke("forest", "--labels", "2", "--height", "2", "--dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "93e46889b07ce647a9ffbdddfe12b1a424679d58f3ee3a57a306e461d7f5b2bd")


def test_forest_dot_of_a_tall_chain():
    # vertices are numbered in preorder by a loop, not a recursion
    chain = SINGLETON
    for _ in range(3000):
        chain = Tree(((Label(2), chain),))
    out = io.StringIO()
    _forest_dot([SINGLETON, chain], out)
    lines = out.getvalue().splitlines()
    assert len(lines) == 2 + 2 + 2 * 3000
    assert lines[-3:] == ['  n3001 [label="2"];', "  n3000 -> n3001;", "}"]


def test_rationals_golden_hash():
    # items 1-101 print, then the cap stops the stream with exit 1
    code, out, _ = invoke("rationals", "--count", "3000")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fe7daebb9bcf84048e66a34170fc3fff77e974832c4de1231b13f6f4031c832a")


def test_deterministic_output():
    a = invoke("forest", "--labels", "2", "--height", "2")
    b = invoke("forest", "--labels", "2", "--height", "2")
    assert a == b


def test_selftest():
    code, out, _ = invoke("selftest")
    assert code == 0
    assert "FAIL" not in out


def test_labels_past_the_prime_table_cap():
    # labels are checked by Miller-Rabin, not looked up in the prime table
    code, out, _ = run_cli("encode", "1000000000039", timeout=2)
    assert (code, out) == (0, "(r (1000000000039))\n")
    code, out, _ = run_cli("decode", "(r (1000000000039 (2)) (1/3))",
                           timeout=2)
    assert (code, out) == (0, f"{(10 ** 12 + 39) ** 2}/3\n")
    # past the Miller-Rabin bound primality is refused, not guessed
    prime_30_digits = "100000000000000000000000000319"
    for argv in (["encode", prime_30_digits],
                 ["decode", f"(r ({prime_30_digits}))"]):
        code, out, err = run_cli(*argv, timeout=2)
        assert (code, out) == (1, "")
        assert prime_30_digits in err and "Miller-Rabin" in err
        assert "Traceback" not in err


def test_factors_and_prime_indices_past_the_small_primes():
    # Pollard-Brent splits what trial division below 2^16 leaves, and a
    # prime's index is counted, not looked up
    for argv, expected, seconds in (
            (["encode", "10000001400000049"], "(r (100000007 (2)))\n", 1),
            (["encode", "1000000016000000063"],
             "(r (1000000007) (1000000009))\n", 1),
            (["rationals", "--locate", "99999989"], "5761455\n", 0.5),
            # height 0 asks for no labels: not the first 10^5 primes, nor
            # 6 * 10^6 of them, past the prime cap
            (["forest", "--labels", "100000", "--height", "0"], "(r)\n", 2),
            (["forest", "--labels", "6000000", "--height", "0"], "(r)\n",
             10)):
        assert run_cli(*argv, timeout=seconds) == (0, expected, ""), argv


def test_decode_refuses_values_too_long_to_print():
    # 2^(2^65536): the root exponent is bounded before the power is taken
    code, out, err = run_cli("decode", "(r (2 (2 (2 (2 (2 (2)))))))",
                             timeout=2)
    assert (code, out) == (1, "")
    assert "cap" in err and "Traceback" not in err
    # 2^65536 has 19,729 digits, past the default limit of 4,300
    code, out, err = invoke("decode", "(r (1/3) (2 (2 (2 (2 (2))))))")
    assert (code, out) == (1, "")
    assert "cap" in err
    assert invoke("decode", "(r (2 (2 (2 (2)))))")[:2] == (0, "65536\n")


def test_decode_refuses_deep_nesting():
    deep = "(r " + "(2 " * 3000 + ")" * 3001
    code, out, err = run_cli("decode", deep, timeout=2)
    assert (code, out) == (1, "")
    assert "nested too deeply" in err and "Traceback" not in err


def test_rationals_max_stage_only_lowers_the_budget():
    code, out, err = run_cli("rationals", "--count", "1", "--max-stage", "10",
                             timeout=2)
    assert (code, out) == (0, "1\t(r)\n"), err


def test_count_refuses_counts_too_long_to_print():
    for argv in (["count", "--labels", "10", "--height", "10"],
                 ["forest", "--labels", "10", "--height", "10",
                  "--count-only"]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert "g_count(10, 10)" in err and "cap" in err
    # 1,450 digits: under the default limit of 4,300, so it still prints
    code, out, _ = invoke("count", "--labels", "2", "--height", "12")
    assert (code, out) == (0, f"{g_count(2, 12)}\n")


def test_one_label_or_none_answers_at_any_height():
    code, out, err = run_cli("count", "--labels", "0", "--height",
                             "100000000", timeout=5)
    assert (code, out) == (0, "1\n"), err
    code, out, err = run_cli("count", "--labels", "1", "--height",
                             "100000000", timeout=5)
    assert (code, out) == (0, "100000001\n"), err
    code, out, err = run_cli("forest", "--labels", "0", "--height",
                             "10000000", timeout=5)
    assert (code, out) == (0, "(r)\n"), err
    for height in ("20000", "9999999"):
        code, out, err = run_cli("forest", "--labels", "1", "--height",
                                 height, timeout=5)
        assert (code, out) == (1, "")
        assert "steps" in err and "Traceback" not in err


def test_selftest_under_optimize():
    code, out, err = run_cli("selftest", flags=("-O",), timeout=60)
    assert code == 0, out + err
    assert "FAIL" not in out


def _small(top):
    """A number argument up to top, mostly, or text that is not one."""
    number = st.integers(-1, top).map(str)
    return st.one_of(number, number,
                     st.sampled_from(["", "x", "1.5", "0x1f", "1e3", "--"]))


def _prime(top):
    """A prime argument up to top, mostly, or any _small(top)."""
    return st.one_of(st.sampled_from(eratosthenes(top)).map(str), _small(top))


def _flags(*names):
    return st.lists(st.sampled_from(names), max_size=2)


_RATIONAL = st.one_of(
    _small(10 ** 6),
    st.builds("{}/{}".format, _small(10 ** 4), _small(10 ** 4)),
    st.sampled_from(["2/", "/3", "1/2/3"]))
_SEXPR = st.one_of(
    st.text("r()1235/ ", max_size=16),
    st.sampled_from(["(r)", "(r (2 (2)) (3))", "(r (1/2))", "(r (4))",
                     "(r (3) (2))", "(r (2) (1/2))", "(r (2 (1/2)))"]))
_ARGV = st.one_of(
    st.builds(lambda v: ["encode", v], _RATIONAL),
    st.builds(lambda t: ["decode", t], _SEXPR),
    st.builds(lambda n, h: ["count", "--labels", n, "--height", h],
              _small(3), _small(3)),
    st.builds(lambda n, h, f: ["forest", "--labels", n, "--height", h, *f],
              _small(3), _small(3), _flags("--count-only", "--dot")),
    st.builds(lambda q, f: ["sieve", q, *f],
              _prime(2000), _flags("--show-composites")),
    st.builds(lambda q, f: ["sieve", q, "--fidelity", *f],
              _prime(61), _flags("--show-composites")),
    st.builds(lambda n, f: ["rationals", "--count", n, *f],
              _small(50), st.one_of(st.just([]), _small(3).map(
                  lambda s: ["--max-stage", s]))),
    st.builds(lambda v: ["rationals", "--locate", v], _RATIONAL))


@settings(max_examples=200, deadline=None)
@given(_ARGV)
def test_any_short_argv_answers_with_an_exit_code(argv):
    # an answer, a domain error or a usage error; never a traceback
    code, out, err = invoke(*argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out == "" and err.startswith("error: "), argv
