import hashlib
import json
import re

from flagmirror.cli import _parse_q, main
from flagmirror.combinat import all_shapes
from flagmirror.verify import ACCEPTANCE_SHAPES

# sha256 of the concatenated stdout of `superpotential` (text, json and latex,
# each without and with --young) and `divisors` (text and json), in that order
# per shape, for every shape with 2 <= n <= 7 in `all_shapes` order
SYMBOLIC_OUTPUT_SHA256 = "29951ba711922e26e92b37fc5894389bb827e55a8b8b9090cf3f16a3c8903a70"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_superpotential_text(capsys):
    code, out, _ = run(capsys, "superpotential", "--shape", "2,4;7")
    assert code == 0
    assert "p_27" in out and "p_1467" in out
    assert out.count("D") >= 8


def test_superpotential_latex(capsys):
    code, out, _ = run(capsys, "superpotential", "--shape", "2,4;7",
                       "--format", "latex")
    assert code == 0
    assert "\\frac{q_{2} p_{46}}{p_{67}}" in out
    assert "p_{24} p_{1567}" in out


def test_superpotential_json(capsys):
    code, out, _ = run(capsys, "superpotential", "--shape", "1,2;4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert sorted(d["divisor_k"] for d in data) == [1, 2, 3, 4, 5]


def test_superpotential_young(capsys):
    # the partition-indexed rendering: every Plucker symbol re-indexed, the
    # middle term included
    code, out, _ = run(capsys, "superpotential", "--shape", "2,4;7", "--young")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == [f"D{k}" for k in range(1, 9)]
    assert "p(2)(5,1)" in out and "p(4)(3,3,2)" in out and "p_" not in out
    assert "[u-mid(3, 1)]" in out
    code, out, _ = run(capsys, "superpotential", "--shape", "2,4;7", "--young",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [d["divisor_k"] for d in data] == list(range(1, 9))
    assert "p(2)(5,1)" in out and "p(4)(3,3,2)" in out and "p_" not in out
    assert [d["family"] for d in data].count("u-mid") == 1


def test_symbolic_outputs_match_golden_digest(capsys):
    # every printed polynomial, byte for byte, over 960 runs
    digest = hashlib.sha256()
    for n in range(2, 8):
        for shape in all_shapes(n):
            s = shape.to_string()
            runs = [("superpotential", "--shape", s, "--format", f, *young)
                    for f in ("text", "json", "latex") for young in ((), ("--young",))]
            runs += [("divisors", "--shape", s, "--format", f) for f in ("text", "json")]
            for argv in runs:
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, ""), argv
                digest.update(out.encode())
    assert digest.hexdigest() == SYMBOLIC_OUTPUT_SHA256


def test_divisors(capsys):
    code, out, _ = run(capsys, "divisors", "--shape", "2,4;7")
    assert code == 0
    assert "p_17" in out and out.count("D") == 8


def test_qh_mult(capsys):
    code, out, _ = run(capsys, "qh-mult", "--n", "3", "--u", "213", "--v", "213")
    assert code == 0
    assert "q1" in out and "312" in out


def test_c1_spectrum_json(capsys):
    code, out, _ = run(capsys, "c1-spectrum", "--shape", "2;4", "--q", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6 and len(data["eigenvalues"]) == 6


def test_crit_and_verify_mirror(capsys):
    code, out, _ = run(capsys, "crit", "--shape", "1;2", "--q", "1")
    assert code == 0 and "2 points" in out
    code, out, _ = run(capsys, "verify-mirror", "--shape", "1,2;4", "--q", "1,1")
    assert code == 0
    assert out.startswith("PASS")
    assert "12 matched pairs" in out
    assert "-3.000000000" in out


def test_crit_near_degenerate_fiber(capsys):
    # some chart lifts at this fiber factor with a singular U (rejected, not an error)
    code, out, _ = run(capsys, "crit", "--shape", "1,5;6",
                       "--q", "1.0000009+0.00000013i,1.0000009+0.00000026i")
    assert code == 0 and "30 points" in out


def test_complex_q_parsing(capsys):
    code, out, _ = run(capsys, "c1-spectrum", "--shape", "1;2", "--q", "1+0.2i")
    assert code == 0
    # only a trailing i is the imaginary unit: inf is not read as jnf
    assert _parse_q("1+0.2i, 0.5-i,i,inf,2") == [1 + 0.2j, 0.5 - 1j, 1j, float("inf"), 2]


def test_negative_q_needs_the_equals_form(capsys):
    # argparse reads "--q -1,2" as a missing value followed by an option
    code, out, _ = run(capsys, "c1-spectrum", "--shape", "1,2;3", "--q=-1,2",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)["eigenvalues"]) == 6
    assert run(capsys, "c1-spectrum", "--shape", "1,2;3", "--q", "-1,2")[0] == 2
    for command in ("c1-spectrum", "crit", "verify-mirror"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "needs the form --q=-1,2" in " ".join(out.split())


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify-identity", "--shape", "2,4;7",
                       "--j", "1", "--i", "4")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify-identity", "--sweep-max-n", "4")
    assert code == 0 and out.startswith("PASS shape 1,3;4 j=1 i=2 (2 terms, ")
    # below n = 4 there is no key identity: a sweep that checks nothing is a
    # usage error, not a PASS
    for n in ("3", "2", "0", "-3"):
        code, out, err = run(capsys, "verify-identity", "--sweep-max-n", n)
        assert (code, out, err) == (2, "", f"error: no key identity has n <= {n}\n")
    # past the cap the error names the n asked for, and nothing is checked first
    code, out, err = run(capsys, "verify-identity", "--sweep-max-n", "12")
    assert (code, out, err) == (2, "", "error: monk operators support 2 <= n <= 8, got 12\n")
    # j = 3 is past the last step of 2,4;7: a usage error, not a FAIL
    code, out, err = run(capsys, "verify-identity", "--shape", "2,4;7", "--j", "3", "--i", "4")
    assert (code, out, err) == (2, "", "error: need 1 <= j <= r-1 = 1, got j=3\n")


def test_verify_detformula(capsys):
    code, out, _ = run(capsys, "verify-detformula", "--n", "4")
    assert code == 0 and "14 permutations" in out


def test_verify_detformula_n6(capsys):
    code, out, _ = run(capsys, "verify-detformula", "--n", "6")
    assert code == 0 and out.startswith("PASS") and "132 permutations" in out


def test_usage_errors(capsys):
    assert main(["superpotential"]) == 2  # missing --shape
    assert main(["no-such-command"]) == 2
    code, _, err = run(capsys, "superpotential", "--shape", "nonsense")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify-identity", "--shape", "2,4;7")
    assert code == 2 and "--sweep-max-n" in err
    # the Monk operators are built in memory; there is no cache to point at
    code, _, err = run(capsys, "--cache-dir=ops", "qh-mult", "--n", "3",
                       "--u", "213", "--v", "213")
    assert code == 2 and "unrecognized arguments: --cache-dir" in err
    # the critical-point search is deterministic: it takes no seed or budget
    for cmd in (["crit", "--shape", "1;2", "--q", "1"],
                ["verify-mirror", "--shape", "1;2", "--q", "1"], ["report-all", "--quick"]):
        for flag in ("--seed", "--starts"):
            code, _, err = run(capsys, *cmd, flag, "3")
            assert code == 2 and f"unrecognized arguments: {flag}" in err


def test_wrong_number_of_quantum_parameters(capsys):
    # one finite nonzero q per step, or a usage error with an error line:
    # never a spectrum of the wrong fiber, an ignored q, or a traceback with
    # the FAIL exit code
    per_step = "takes one quantum parameter per step"
    finite = "quantum parameters must be finite, got"
    for cmd, shape, q, want in (
            ("c1-spectrum", "1,2;3", "1", f"1,2;3 {per_step} (2), got 1"),
            ("crit", "1;3", "1,5", f"1;3 {per_step} (1), got 2"),
            ("verify-mirror", "1,2;3", "1", f"1,2;3 {per_step} (2), got 1"),
            ("verify-mirror", "1,2;3", "1,0", "all quantum parameters must be nonzero"),
            ("crit", "2;4", "1e400", f"{finite} [(inf+0j)]"),
            ("verify-mirror", "2;4", "1e400", f"{finite} [(inf+0j)]"),
            ("c1-spectrum", "1,2;3", "1,nan", f"{finite} [(1+0j), (nan+0j)]"),
            ("crit", "1;2", "inf", f"{finite} [(inf+0j)]"),
            ("verify-mirror", "1;2", "1+infi", f"{finite} [(1+infj)]")):
        code, out, err = run(capsys, cmd, "--shape", shape, "--q", q)
        assert (code, out, err) == (2, "", f"error: {want}\n")


def test_report_all_quick(capsys):
    code, out, _ = run(capsys, "report-all", "--quick")
    assert code == 0
    assert "== overall: PASS ==" in out
    for s in ACCEPTANCE_SHAPES[:4]:
        assert f"  PASS {s} q=1:" in out
    assert f"{ACCEPTANCE_SHAPES[4]} q=1" not in out
    assert re.search(r"^  PASS 1,3;4 q=1,1: 10 points, max residual \d\.\d\de-\d\d$", out, re.M)
    assert re.search(r"^  PASS 2,4;5 q=1\.1,0\.9: 30 points, max residual \d\.\d\de-\d\d$", out, re.M)
