import hashlib
import io
import subprocess
import sys
from pathlib import Path

from primeforest.cli import run
from primeforest.generator import g_count

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_encode_integer():
    code, out, _ = invoke("encode", "12")
    assert code == 0
    assert out == "(r (2 (2)) (3))\n"


def test_encode_rational():
    code, out, _ = invoke("encode", "8/9")
    assert code == 0
    assert out == "(r (2 (3)) (1/3 (2)))\n"


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


def test_forest_dot():
    code, out, _ = invoke("forest", "--labels", "1", "--height", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="r"' in out
    assert 'label="2"' in out


def test_sieve():
    code, out, _ = invoke("sieve", "7")
    assert (code, out) == (0, "11\n13\n")


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


def test_domain_error_decode():
    code, _, err = invoke("decode", "(r (4))")
    assert code == 1
    assert err


def test_forest_golden_hash():
    code, out, _ = invoke("forest", "--labels", "4", "--height", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "554bfc6de743115430b408e59284a61b66d207e345ac8170127928e7e4234ec2")


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


def test_selftest_under_optimize():
    code, out, err = run_cli("selftest", flags=("-O",), timeout=60)
    assert code == 0, out + err
    assert "FAIL" not in out
