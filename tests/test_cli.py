import hashlib
import io
import json
import sys

import pytest

from koornwinder import duality, noumi, paramfield, polynomials
from koornwinder.cli import main

from conftest import peak_mib


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_e_trivial(capsys):
    code, out, _ = run_cli(capsys, "compute-e", "--n", "1", "--alpha", "0")
    assert code == 0
    report = json.loads(out)
    assert report["label"] == [0]
    assert report["terms"] == [{"exp": [0], "coeff": 1}]
    assert report["verified"] is True


def test_compute_e_symbolic_monic(capsys):
    code, out, _ = run_cli(capsys, "compute-e", "--n", "1", "--alpha", "-1",
                           "--mode", "symbolic")
    assert code == 0
    report = json.loads(out)
    lead = [t for t in report["terms"] if t["exp"] == [-1]]
    assert lead and lead[0]["coeff"] == 1


def test_compute_p(capsys):
    code, out, _ = run_cli(capsys, "compute-p", "--n", "2", "--lambda", "1,0")
    assert code == 0
    report = json.loads(out)
    assert report["label"] == [1, 0]
    assert len(report["terms"]) == 5


def test_check_relations_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check-relations", "--n", "2",
                           "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True


def test_check_duality_symbolic(capsys):
    code, out, _ = run_cli(capsys, "check-duality", "--n", "1",
                           "--max-weight", "1", "--symbolic")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    kinds = {c["kind"] for c in report["checks"]}
    assert kinds == {"E", "P", "ratio"}


def test_check_duality_symbolic_flag_is_mode_symbolic(capsys):
    args = ("check-duality", "--n", "1", "--max-weight", "1")
    _, flag, _ = run_cli(capsys, *args, "--symbolic")
    _, mode, _ = run_cli(capsys, *args, "--mode", "symbolic")
    assert flag == mode


def test_basis_check(capsys):
    code, out, _ = run_cli(capsys, "basis-check", "--n", "2", "--degree", "1")
    assert code == 0
    assert json.loads(out)["invertible"] is True


def test_determinism(capsys):
    args = ("compute-e", "--n", "2", "--alpha", "1,-1", "--seed", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("check-relations", "--n", "1", "--degree", "1", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_text_and_json_agree(capsys):
    _, as_json, _ = run_cli(capsys, "compute-e", "--n", "1", "--alpha", "1")
    _, as_text, _ = run_cli(capsys, "compute-e", "--n", "1", "--alpha", "1",
                            "--text")
    report = json.loads(as_json)
    assert "label: 1" in as_text
    assert "verified: True" in as_text
    for term in report["terms"]:
        if term["exp"] == [1]:
            assert str(term["coeff"]) in as_text or "x1" in as_text


def test_explicit_degenerate_assignment_fails(capsys):
    code, _, err = run_cli(capsys, "compute-e", "--n", "1", "--alpha", "-1",
                           "--assignment", "1,1,1,1,1,1")
    assert code == 1
    assert "error" in json.loads(err)


def test_specialize_with_redraw(capsys, tmp_path):
    # 1/(q - 4) vanishes at the default assignment (q = 4) and triggers
    # the deterministic re-draw
    from koornwinder.paramfield import FieldElement, ONE
    q = FieldElement.monomial((2, 0, 0, 0, 0, 0))
    element = ONE / (q - 4)
    path = tmp_path / "element.json"
    path.write_text(json.dumps(element.to_json_obj()))
    code, out, _ = run_cli(capsys, "specialize", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["assignment"] != ["2", "3", "5", "7", "11", "13"]
    # and twice gives the same redraw
    code2, out2, _ = run_cli(capsys, "specialize", "--input", str(path))
    assert out == out2


def test_specialize_stdin_value(capsys, tmp_path, monkeypatch):
    from koornwinder.paramfield import SQRT_TN, SQRT_UN
    element = SQRT_TN * SQRT_UN
    path = tmp_path / "a.json"
    path.write_text(json.dumps(element.to_json_obj()))
    code, out, _ = run_cli(capsys, "specialize", "--input", str(path),
                           "--assignment", "1,1,1,7,1,13")
    assert code == 0
    assert json.loads(out)["value"] == "91"


def test_specialize_sparse_element(capsys, monkeypatch):
    # 1 + q^7000 at q^(1/2) = 2: the evaluator tabulates the two exponents
    # that occur; running powers over the 14001 between them peak near
    # 27 MiB.  A larger exponent would print more digits than Python's
    # int-to-str limit allows.
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"num":[["1",[0,0,0,0,0,0]],["1",[14000,0,0,0,0,0]]],'
        '"den":[["1",[0,0,0,0,0,0]]]}'))
    (code, out, err), peak = peak_mib(lambda: run_cli(capsys, "specialize"))
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == str(1 + 2 ** 14000)
    assert peak < 5


def test_specialize_past_the_digit_limit_is_a_plain_error(capsys,
                                                          monkeypatch):
    # 1 + q^7200 at q^(1/2) = 2 has 4335 digits, past the interpreter's
    # int-to-str limit; the error names the limit, not a setting the CLI
    # cannot reach
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"num":[["1",[0,0,0,0,0,0]],["1",[14400,0,0,0,0,0]]],'
        '"den":[["1",[0,0,0,0,0,0]]]}'))
    code, out, err = run_cli(capsys, "specialize")
    assert (code, out) == (1, "")
    message = json.loads(err)["error"]
    assert message == ("the value exceeds Python's %d-digit limit"
                       % sys.get_int_max_str_digits())


# an element with a negative exponent and a two-term denominator; its
# value at the rational assignment was recorded while FieldElement.specialize
# and the specialized Laurent evaluation were still separate code
PINNED_ELEMENT = ('{"num":[["3",[2,-1,0,0,0,1]],["-5",[0,0,3,0,0,0]]],'
                  '"den":[["7",[0,2,0,0,-1,0]],["1",[1,0,0,0,0,0]]]}')
RATIONAL = "--assignment=-1/2,3,5/3,7,11,-13"


@pytest.mark.parametrize("flags, expected", [
    ((), '{"assignment":["2","3","5","7","11","13"],"value":"4/9"}\n'),
    (("--text",), "4/9\n"),
    ((RATIONAL,), '{"assignment":["-1/2","3","5/3","7","11","-13"],'
                  '"value":"-31361/6210"}\n'),
])
def test_specialize_reads_stdin(capsys, monkeypatch, flags, expected):
    # the rational assignment reads PINNED_ELEMENT, the others q/t
    monkeypatch.setattr("sys.stdin", io.StringIO(
        PINNED_ELEMENT if RATIONAL in flags else
        '{"num":[["1",[2,0,0,0,0,0]]],"den":[["1",[0,2,0,0,0,0]]]}'))
    code, out, err = run_cli(capsys, "specialize",
                             "--assignment", "2,3,5,7,11,13", *flags)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("payload", [
    {"num": [["1", [0, 0]]], "den": [["1", [0, 0, 0, 0, 0, 0]]]},
    {"num": 5},
    [1, 2],
])
def test_specialize_rejects_malformed_element(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "specialize", "--input", str(path))
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_cache_dir_and_env(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("compute-e", "--n", "2", "--alpha", "2,0",
            "--cache-dir", str(cache))
    _, first, _ = run_cli(capsys, *args)
    assert list(cache.glob("*.json"))
    _, second, _ = run_cli(capsys, *args)  # warm start
    assert first == second
    # --cache-dir is the only way to name a cache
    monkeypatch.setenv("KOORNWINDER_CACHE_DIR", str(tmp_path / "envcache"))
    _, third, _ = run_cli(capsys, "compute-e", "--n", "2", "--alpha", "2,0")
    assert first == third
    assert not (tmp_path / "envcache").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["compute-e", "--n", "1"])  # missing --alpha
    assert info.value.code == 2
    # requests that would pass vacuously over zero labels or zero checks
    for argv in (["compute-e", "--n", "0", "--alpha", "0"],
                 ["basis-check", "--n", "-1", "--degree", "1"],
                 ["basis-check", "--n", "1", "--degree", "-1"],
                 ["check-relations", "--n", "1", "--degree", "-1"],
                 ["check-duality", "--n", "1", "--max-weight", "-1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compute-e", "--n", "1", "--alpha", "1",
     "--assignment", "1/0,1,1,1,1,1"],
    ["compute-e", "--n", "1", "--alpha", "1",
     "--assignment", "2,3,5,7,11,1/0"],
    ["compute-e", "--n", "1", "--alpha", "1", "--assignment", "2,3"],
    ["specialize", "--assignment", "2,3,x,7,11,13"],
    ["compute-e", "--n", "1", "--alpha", "x"],
    ["compute-e", "--n", "2", "--alpha", "1"],
    ["compute-p", "--n", "2", "--lambda", "1"],
    ["compute-p", "--n", "2", "--lambda", "0,1"],
    # only compute-e takes a cache directory
    ["compute-p", "--n", "2", "--lambda", "1,0", "--cache-dir", "cache"],
    ["basis-check", "--n", "1", "--degree", "1", "--cache-dir", "cache"],
    ["check-relations", "--n", "1", "--degree", "1", "--cache-dir", "cache"],
    ["check-duality", "--n", "1", "--max-weight", "1", "--cache-dir", "cache"],
])
def test_malformed_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error" in err
    if "1/0" in " ".join(argv):
        assert "square-root value '1/0' has a zero denominator" in err


def test_negative_first_assignment_value_takes_the_equals_form(capsys):
    # argparse reads "-2,..." after a space as an option string
    with pytest.raises(SystemExit) as info:
        main(["compute-p", "--n", "1", "--lambda", "1",
              "--assignment", "-2,3,5,7,11,13"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "compute-p", "--n", "1", "--lambda", "1",
                           "--assignment=-2,3,5,7,11,13")
    assert code == 0
    assert json.loads(out)["verified"] is True


def _only_cache_file(cache):
    files = list(cache.glob("*.json"))
    assert len(files) == 1
    return files[0]


def test_truncated_cache_entry_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("compute-e", "--n", "2", "--alpha", "2,-1",
            "--cache-dir", str(cache))
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    path = _only_cache_file(cache)
    full = path.read_bytes()
    path.write_bytes(full[:len(full) // 2])
    code, again, _ = run_cli(capsys, *args)
    assert code == 0
    assert again == cold
    assert path.read_bytes() == full  # rewritten
    assert not list(cache.glob("*.tmp"))


def test_cache_entry_with_a_short_exponent_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("compute-e", "--n", "1", "--alpha", "1", "--mode", "symbolic",
            "--cache-dir", str(cache))
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    path = _only_cache_file(cache)
    full = path.read_bytes()
    entry = json.loads(full)
    coeff = next(t["coeff"] for t in entry["terms"]
                 if isinstance(t["coeff"], dict))
    coeff["num"][0][1] = coeff["num"][0][1][:2]
    path.write_text(json.dumps(entry))
    code, again, _ = run_cli(capsys, *args)
    assert code == 0
    assert again == cold
    assert path.read_bytes() == full  # rewritten


def test_failed_eigen_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(noumi.NoumiRepresentation, "d_eigen_holds",
                        lambda self, f, lam: False)
    code, out, err = run_cli(capsys, "compute-p", "--n", "2",
                             "--lambda", "1,0")
    assert code == 1
    assert out == ""
    assert "eigenvalue" in json.loads(err)["error"]


# --text reports of passing runs, recorded before the subcommands shared
# one report path
PINNED_TEXT = {
    ("check-relations", "--n", "1", "--degree", "1"):
        "quadratic T0: pass\nquadratic T1: pass\n"
        "quadratic X1^-1 T1^-1 (un): pass\nquadratic U0 (u0): pass\n"
        "all_pass: True\n",
    ("check-duality", "--n", "1", "--max-weight", "1"):
        "checks: 17\nfailures: 0\nall_pass: True\n",
    ("basis-check", "--n", "2", "--degree", "1"):
        "basis n=2 degree=1: rank 5 of 5 (invertible)\n",
    ("compute-e", "--n", "1", "--alpha", "1"):
        "label: 1\nn: 1\n"
        "polynomial: 1*x1 + (2766448/934219) + (6432/6533)*x1^-1\n"
        "spectrum: 140\nverified: True\n",
    ("compute-p", "--n", "1", "--lambda", "1"):
        "label: 1\nn: 1\npolynomial: 1*x1 + (695512/233519) + 1*x1^-1\n"
        "spectrum: 140\nverified: True\n",
}


@pytest.mark.parametrize("argv", sorted(PINNED_TEXT), ids=" ".join)
def test_text_report_is_pinned(capsys, argv):
    assert run_cli(capsys, *argv, "--text") == (0, PINNED_TEXT[argv], "")


def test_failed_relation_exits_one(capsys, broken_t1):
    argv = ("check-relations", "--n", "1", "--degree", "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["all_pass"] is False
    assert report["results"][1] == {"relation": "quadratic T1",
                                    "status": "fail", "witness": [0]}
    assert run_cli(capsys, *argv, "--text") == (1, (
        "quadratic T0: pass\nquadratic T1: fail\n"
        "quadratic X1^-1 T1^-1 (un): fail\nquadratic U0 (u0): pass\n"
        "all_pass: False\n"), "")


def test_failed_duality_check_is_listed(capsys, monkeypatch):
    check = duality.DualityChecker.check_duality_e
    monkeypatch.setattr(
        duality.DualityChecker, "check_duality_e",
        lambda self, a, b: (a, b) != ((-1,), (1,)) and check(self, a, b))
    assert run_cli(capsys, "check-duality", "--n", "1", "--max-weight", "1",
                   "--text") == (
        1, "checks: 17\nfailures: 1\n  E [-1] | [1]\nall_pass: False\n", "")


def test_singular_basis_exits_one(capsys, monkeypatch):
    state = polynomials.KoornwinderFamily._generic_state

    def escaped(self, alpha):
        raw, lead = state(self, alpha)
        return raw * raw.ring.gen(1) * raw.ring.gen(1), lead

    monkeypatch.setattr(polynomials.KoornwinderFamily, "_generic_state",
                        escaped)
    assert run_cli(capsys, "basis-check", "--n", "2", "--degree", "1",
                   "--text") == (
        1, "basis n=2 degree=1: error: support escapes the filtration\n", "")


def test_unverified_polynomial_is_reported_and_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(polynomials.KoornwinderFamily, "verify_spectrum",
                        lambda self, labeled: False)
    argv = ("compute-e", "--n", "1", "--alpha", "1")
    assert run_cli(capsys, *argv) == (1, (
        '{"label":[1],"n":1,"spectrum":[140],"terms":[{"coeff":"6432/6533",'
        '"exp":[-1]},{"coeff":"2766448/934219","exp":[0]},{"coeff":1,'
        '"exp":[1]}],"verified":false}\n'), "")
    assert run_cli(capsys, *argv, "--text") == (1, (
        "label: 1\nn: 1\n"
        "polynomial: 1*x1 + (2766448/934219) + (6432/6533)*x1^-1\n"
        "spectrum: 140\nverified: False\n"), "")


# stdout of two symbolic commands, recorded before the coefficient field
# moved onto sympy's sparse polynomial ring; the canonical form must not
# change a byte.  The two specialized compute-p commands were recorded
# while D's eigen equation was still checked on the (d+1)^n product grid.
# The specialized check-duality report was recorded while
# LaurentPolynomial.evaluate still summed term by term in Fractions; it
# pins every pairing and evaluation ratio, all of which the specialized
# common-denominator evaluation now computes.
PINNED_STDOUT = {
    ("compute-e", "--n", "1", "--alpha", "-1", "--mode", "symbolic"): (
        '{"label":[-1],"n":1,"spectrum":[{"den":[["1",[2,0,1,1,0,0]]],"nu'
        'm":[["1",[0,0,0,0,0,0]]]}],"terms":[{"coeff":1,"exp":[-1]},{"coe'
        'ff":{"den":[["-1",[0,0,0,0,1,1]],["1",[2,0,2,2,1,1]]],"num":[["-'
        '1",[0,0,0,1,1,0]],["1",[0,0,0,1,1,2]],["-1",[1,0,1,2,0,1]],["1",'
        '[1,0,1,2,2,1]]]},"exp":[0]}],"verified":true}' "\n"),
    ("compute-p", "--n", "1", "--lambda", "2", "--mode", "symbolic"): (
        '{"label":[2],"n":1,"spectrum":[{"den":[["1",[0,0,0,0,0,0]]],"num'
        '":[["1",[4,0,1,1,0,0]]]}],"terms":[{"coeff":1,"exp":[-2]},{"coef'
        'f":{"den":[["-1",[0,0,0,0,1,1]],["1",[6,0,2,2,1,1]]],"num":[["-1'
        '",[0,0,0,1,1,0]],["1",[0,0,0,1,1,2]],["-1",[1,0,1,0,0,1]],["1",['
        '1,0,1,0,2,1]],["-1",[2,0,0,1,1,0]],["1",[2,0,0,1,1,2]],["-1",[3,'
        '0,1,0,0,1]],["1",[3,0,1,0,2,1]],["-1",[3,0,1,2,0,1]],["1",[3,0,1'
        ',2,2,1]],["-1",[4,0,2,1,1,0]],["1",[4,0,2,1,1,2]],["-1",[5,0,1,2'
        ',0,1]],["1",[5,0,1,2,2,1]],["-1",[6,0,2,1,1,0]],["1",[6,0,2,1,1,'
        '2]]]},"exp":[-1]},{"coeff":{"den":[["1",[0,0,0,0,2,2]],["-1",[4,'
        '0,2,2,2,2]],["-1",[6,0,2,2,2,2]],["1",[10,0,4,4,2,2]]],"num":[["'
        '1",[0,0,0,0,2,2]],["-1",[0,0,0,2,2,2]],["1",[1,0,1,1,1,1]],["-1"'
        ',[1,0,1,1,1,3]],["-1",[1,0,1,1,3,1]],["1",[1,0,1,1,3,3]],["1",[2'
        ',0,0,0,2,2]],["1",[2,0,0,2,2,0]],["-1",[2,0,0,2,2,2]],["1",[2,0,'
        '0,2,2,4]],["-1",[2,0,2,0,2,2]],["-1",[2,0,2,2,2,2]],["1",[3,0,1,'
        '1,1,1]],["-1",[3,0,1,1,1,3]],["-1",[3,0,1,1,3,1]],["1",[3,0,1,1,'
        '3,3]],["1",[3,0,1,3,1,1]],["-1",[3,0,1,3,1,3]],["-1",[3,0,1,3,3,'
        '1]],["1",[3,0,1,3,3,3]],["1",[4,0,2,0,0,2]],["-1",[4,0,2,0,2,2]]'
        ',["1",[4,0,2,0,4,2]],["1",[4,0,2,2,0,2]],["1",[4,0,2,2,2,0]],["-'
        '5",[4,0,2,2,2,2]],["1",[4,0,2,2,2,4]],["1",[4,0,2,2,4,2]],["1",['
        '5,0,1,3,1,1]],["-1",[5,0,1,3,1,3]],["-1",[5,0,1,3,3,1]],["1",[5,'
        '0,1,3,3,3]],["1",[5,0,3,1,1,1]],["-1",[5,0,3,1,1,3]],["-1",[5,0,'
        '3,1,3,1]],["1",[5,0,3,1,3,3]],["1",[6,0,2,2,0,2]],["1",[6,0,2,2,'
        '2,0]],["-5",[6,0,2,2,2,2]],["1",[6,0,2,2,2,4]],["1",[6,0,2,2,4,2'
        ']],["1",[6,0,2,4,0,2]],["-1",[6,0,2,4,2,2]],["1",[6,0,2,4,4,2]],'
        '["1",[7,0,3,1,1,1]],["-1",[7,0,3,1,1,3]],["-1",[7,0,3,1,3,1]],["'
        '1",[7,0,3,1,3,3]],["1",[7,0,3,3,1,1]],["-1",[7,0,3,3,1,3]],["-1"'
        ',[7,0,3,3,3,1]],["1",[7,0,3,3,3,3]],["-1",[8,0,2,2,2,2]],["-1",['
        '8,0,2,4,2,2]],["1",[8,0,4,2,2,0]],["-1",[8,0,4,2,2,2]],["1",[8,0'
        ',4,2,2,4]],["1",[8,0,4,4,2,2]],["1",[9,0,3,3,1,1]],["-1",[9,0,3,'
        '3,1,3]],["-1",[9,0,3,3,3,1]],["1",[9,0,3,3,3,3]],["-1",[10,0,4,2'
        ',2,2]],["1",[10,0,4,4,2,2]]]},"exp":[0]},{"coeff":{"den":[["-1",'
        '[0,0,0,0,1,1]],["1",[6,0,2,2,1,1]]],"num":[["-1",[0,0,0,1,1,0]],'
        '["1",[0,0,0,1,1,2]],["-1",[1,0,1,0,0,1]],["1",[1,0,1,0,2,1]],["-'
        '1",[2,0,0,1,1,0]],["1",[2,0,0,1,1,2]],["-1",[3,0,1,0,0,1]],["1",'
        '[3,0,1,0,2,1]],["-1",[3,0,1,2,0,1]],["1",[3,0,1,2,2,1]],["-1",[4'
        ',0,2,1,1,0]],["1",[4,0,2,1,1,2]],["-1",[5,0,1,2,0,1]],["1",[5,0,'
        '1,2,2,1]],["-1",[6,0,2,1,1,0]],["1",[6,0,2,1,1,2]]]},"exp":[1]},'
        '{"coeff":1,"exp":[2]}],"verified":true}' "\n"),
    ("compute-p", "--n", "3", "--lambda", "2,1,0"): (
        '{"label":[2,1,0],"n":3,"spectrum":[45360,1260,35],"terms":[{"coef'
        'f":1,"exp":[-2,-1,0]},{"coeff":1,"exp":[-2,0,-1]},{"coeff":"10912'
        '080/3338621","exp":[-2,0,0]},{"coeff":1,"exp":[-2,0,1]},{"coeff":'
        '1,"exp":[-2,1,0]},{"coeff":1,"exp":[-1,-2,0]},{"coeff":"696/323",'
        '"exp":[-1,-1,-1]},{"coeff":"106112150928782640/14991808243896341"'
        ',"exp":[-1,-1,0]},{"coeff":"696/323","exp":[-1,-1,1]},{"coeff":1,'
        '"exp":[-1,0,-2]},{"coeff":"106112150928782640/14991808243896341",'
        '"exp":[-1,0,-1]},{"coeff":"1677960795508030321352388416/103034499'
        '139654792961916379","exp":[-1,0,0]},{"coeff":"106112150928782640/'
        '14991808243896341","exp":[-1,0,1]},{"coeff":1,"exp":[-1,0,2]},{"c'
        'oeff":"696/323","exp":[-1,1,-1]},{"coeff":"106112150928782640/149'
        '91808243896341","exp":[-1,1,0]},{"coeff":"696/323","exp":[-1,1,1]'
        '},{"coeff":1,"exp":[-1,2,0]},{"coeff":1,"exp":[0,-2,-1]},{"coeff"'
        ':"10912080/3338621","exp":[0,-2,0]},{"coeff":1,"exp":[0,-2,1]},{"'
        'coeff":1,"exp":[0,-1,-2]},{"coeff":"106112150928782640/1499180824'
        '3896341","exp":[0,-1,-1]},{"coeff":"1677960795508030321352388416/'
        '103034499139654792961916379","exp":[0,-1,0]},{"coeff":"1061121509'
        '28782640/14991808243896341","exp":[0,-1,1]},{"coeff":1,"exp":[0,-'
        '1,2]},{"coeff":"10912080/3338621","exp":[0,0,-2]},{"coeff":"16779'
        '60795508030321352388416/103034499139654792961916379","exp":[0,0,-'
        '1]},{"coeff":"33667740320792996173738638720/113337949053620272258'
        '1080169","exp":[0,0,0]},{"coeff":"1677960795508030321352388416/10'
        '3034499139654792961916379","exp":[0,0,1]},{"coeff":"10912080/3338'
        '621","exp":[0,0,2]},{"coeff":1,"exp":[0,1,-2]},{"coeff":"10611215'
        '0928782640/14991808243896341","exp":[0,1,-1]},{"coeff":"167796079'
        '5508030321352388416/103034499139654792961916379","exp":[0,1,0]},{'
        '"coeff":"106112150928782640/14991808243896341","exp":[0,1,1]},{"c'
        'oeff":1,"exp":[0,1,2]},{"coeff":1,"exp":[0,2,-1]},{"coeff":"10912'
        '080/3338621","exp":[0,2,0]},{"coeff":1,"exp":[0,2,1]},{"coeff":1,'
        '"exp":[1,-2,0]},{"coeff":"696/323","exp":[1,-1,-1]},{"coeff":"106'
        '112150928782640/14991808243896341","exp":[1,-1,0]},{"coeff":"696/'
        '323","exp":[1,-1,1]},{"coeff":1,"exp":[1,0,-2]},{"coeff":"1061121'
        '50928782640/14991808243896341","exp":[1,0,-1]},{"coeff":"16779607'
        '95508030321352388416/103034499139654792961916379","exp":[1,0,0]},'
        '{"coeff":"106112150928782640/14991808243896341","exp":[1,0,1]},{"'
        'coeff":1,"exp":[1,0,2]},{"coeff":"696/323","exp":[1,1,-1]},{"coef'
        'f":"106112150928782640/14991808243896341","exp":[1,1,0]},{"coeff"'
        ':"696/323","exp":[1,1,1]},{"coeff":1,"exp":[1,2,0]},{"coeff":1,"e'
        'xp":[2,-1,0]},{"coeff":1,"exp":[2,0,-1]},{"coeff":"10912080/33386'
        '21","exp":[2,0,0]},{"coeff":1,"exp":[2,0,1]},{"coeff":1,"exp":[2,'
        '1,0]}],"verified":true}' "\n"),
    ("compute-p", "--n", "4", "--lambda", "1,1,0,0"): (
        '{"label":[1,1,0,0],"n":4,"spectrum":[102060,11340,315,35],"terms"'
        ':[{"coeff":1,"exp":[-1,-1,0,0]},{"coeff":1,"exp":[-1,0,-1,0]},{"c'
        'oeff":1,"exp":[-1,0,0,-1]},{"coeff":"1167085752/353637889","exp":'
        '[-1,0,0,0]},{"coeff":1,"exp":[-1,0,0,1]},{"coeff":1,"exp":[-1,0,1'
        ',0]},{"coeff":1,"exp":[-1,1,0,0]},{"coeff":1,"exp":[0,-1,-1,0]},{'
        '"coeff":1,"exp":[0,-1,0,-1]},{"coeff":"1167085752/353637889","exp'
        '":[0,-1,0,0]},{"coeff":1,"exp":[0,-1,0,1]},{"coeff":1,"exp":[0,-1'
        ',1,0]},{"coeff":1,"exp":[0,0,-1,-1]},{"coeff":"1167085752/3536378'
        '89","exp":[0,0,-1,0]},{"coeff":1,"exp":[0,0,-1,1]},{"coeff":"1167'
        '085752/353637889","exp":[0,0,0,-1]},{"coeff":"1563090853411315749'
        '44/14631991919317774573","exp":[0,0,0,0]},{"coeff":"1167085752/35'
        '3637889","exp":[0,0,0,1]},{"coeff":1,"exp":[0,0,1,-1]},{"coeff":"'
        '1167085752/353637889","exp":[0,0,1,0]},{"coeff":1,"exp":[0,0,1,1]'
        '},{"coeff":1,"exp":[0,1,-1,0]},{"coeff":1,"exp":[0,1,0,-1]},{"coe'
        'ff":"1167085752/353637889","exp":[0,1,0,0]},{"coeff":1,"exp":[0,1'
        ',0,1]},{"coeff":1,"exp":[0,1,1,0]},{"coeff":1,"exp":[1,-1,0,0]},{'
        '"coeff":1,"exp":[1,0,-1,0]},{"coeff":1,"exp":[1,0,0,-1]},{"coeff"'
        ':"1167085752/353637889","exp":[1,0,0,0]},{"coeff":1,"exp":[1,0,0,'
        '1]},{"coeff":1,"exp":[1,0,1,0]},{"coeff":1,"exp":[1,1,0,0]}],"ver'
        'ified":true}' "\n"),
    ("compute-e", "--n", "3", "--alpha", "2,-1,0"): (
        '{"label":[2,-1,0],"n":3,"spectrum":[45360,"1/1260",35],"terms":[{"'
        'coeff":"25311454854626757504/30457162402656091459","exp":[-2,-1,0]'
        '},{"coeff":"1528823808/2114683163","exp":[-2,0,-1]},{"coeff":"1283'
        '270669813302397475840/513407684575172974841089","exp":[-2,0,0]},{"'
        'coeff":"1528823808/2114683163","exp":[-2,0,1]},{"coeff":"46448640/'
        '57153599","exp":[-2,1,0]},{"coeff":"426126517248/518097374935","ex'
        'p":[-1,-2,0]},{"coeff":"9284350441189680897024/5330003420464816005'
        '325","exp":[-1,-1,-1]},{"coeff":"47487583263624314148757371072/817'
        '6017376859629624344342325","exp":[-1,-1,0]},{"coeff":"928435044118'
        '9680897024/5330003420464816005325","exp":[-1,-1,1]},{"coeff":"1672'
        '151040/2114683163","exp":[-1,0,-2]},{"coeff":"65075819499807686080'
        '4210688/166857497486931216823353925","exp":[-1,0,-1]},{"coeff":"39'
        '7051648441703923194709414918656/43259307940964300342405915241575",'
        '"exp":[-1,0,0]},{"coeff":"650758194998076860804210688/166857497486'
        '931216823353925","exp":[-1,0,1]},{"coeff":"1672151040/2114683163",'
        '"exp":[-1,0,2]},{"coeff":"2100805632/2114683163","exp":[-1,1,-1]},'
        '{"coeff":"140023638057378744297455616/33371499497386243364670785",'
        '"exp":[-1,1,0]},{"coeff":"2100805632/2114683163","exp":[-1,1,1]},{'
        '"coeff":"50803200/57153599","exp":[-1,2,0]},{"coeff":"36864/45325"'
        ',"exp":[0,-2,-1]},{"coeff":"10685504981943679488/39737058367633376'
        '75","exp":[0,-2,0]},{"coeff":"36864/45325","exp":[0,-2,1]},{"coeff'
        '":"1152/1295","exp":[0,-1,-2]},{"coeff":"3473487052250696494503471'
        '6672/8176017376859629624344342325","exp":[0,-1,-1]},{"coeff":"1138'
        '1503145288469960285026832608/1169170484890927036281240952475","exp'
        '":[0,-1,0]},{"coeff":"34734870522506964945034716672/81760173768596'
        '29624344342325","exp":[0,-1,1]},{"coeff":"1152/1295","exp":[0,-1,2'
        ']},{"coeff":"15769497612782592/16219207496993215","exp":[0,0,-2]},'
        '{"coeff":"5693977823518928217821771455488/116917048489092703628124'
        '0952475","exp":[0,0,-1]},{"coeff":"8982063254057547169099287661355'
        '52/80338714747505129207325271162925","exp":[0,0,0]},{"coeff":"5693'
        '977823518928217821771455488/1169170484890927036281240952475","exp"'
        ':[0,0,1]},{"coeff":"15769497612782592/16219207496993215","exp":[0,'
        '0,2]},{"coeff":"90055790740021248/81096037484966075","exp":[0,1,-1'
        ']},{"coeff":"795562053319311830596099357056/1670243549844181480401'
        '77278925","exp":[0,1,0]},{"coeff":"90055790740021248/8109603748496'
        '6075","exp":[0,1,1]},{"coeff":"3151465964236800/3243841499398643",'
        '"exp":[0,2,0]},{"coeff":"32/35","exp":[1,-2,0]},{"coeff":"50656/45'
        '325","exp":[1,-1,-1]},{"coeff":"2951102607609582510410544336/62892'
        '4413604586894180334025","exp":[1,-1,0]},{"coeff":"50656/45325","ex'
        'p":[1,-1,1]},{"coeff":"99059977791376128/81096037484966075","exp":'
        '[1,0,-1]},{"coeff":"6027508926247903767589424135072/11691704848909'
        '27036281240952475","exp":[1,0,0]},{"coeff":"99059977791376128/8109'
        '6037484966075","exp":[1,0,1]},{"coeff":"19809214348766976/16219207'
        '496993215","exp":[1,1,0]},{"coeff":1,"exp":[2,-1,0]},{"coeff":"620'
        '32824/56756557","exp":[2,0,0]}],"verified":true}' "\n"),
    ("check-duality", "--n", "2", "--max-weight", "1"): (
        '{"all_pass":true,"checks":[{"kind":"E","left":[-1,0],"right":[-1,0'
        '],"status":"pass"},{"kind":"E","left":[-1,0],"right":[0,-1],"statu'
        's":"pass"},{"kind":"E","left":[-1,0],"right":[0,0],"status":"pass"'
        '},{"kind":"E","left":[-1,0],"right":[0,1],"status":"pass"},{"kind"'
        ':"E","left":[-1,0],"right":[1,0],"status":"pass"},{"kind":"E","lef'
        't":[0,-1],"right":[-1,0],"status":"pass"},{"kind":"E","left":[0,-1'
        '],"right":[0,-1],"status":"pass"},{"kind":"E","left":[0,-1],"right'
        '":[0,0],"status":"pass"},{"kind":"E","left":[0,-1],"right":[0,1],"'
        'status":"pass"},{"kind":"E","left":[0,-1],"right":[1,0],"status":"'
        'pass"},{"kind":"E","left":[0,0],"right":[-1,0],"status":"pass"},{"'
        'kind":"E","left":[0,0],"right":[0,-1],"status":"pass"},{"kind":"E"'
        ',"left":[0,0],"right":[0,0],"status":"pass"},{"kind":"E","left":[0'
        ',0],"right":[0,1],"status":"pass"},{"kind":"E","left":[0,0],"right'
        '":[1,0],"status":"pass"},{"kind":"E","left":[0,1],"right":[-1,0],"'
        'status":"pass"},{"kind":"E","left":[0,1],"right":[0,-1],"status":"'
        'pass"},{"kind":"E","left":[0,1],"right":[0,0],"status":"pass"},{"k'
        'ind":"E","left":[0,1],"right":[0,1],"status":"pass"},{"kind":"E","'
        'left":[0,1],"right":[1,0],"status":"pass"},{"kind":"E","left":[1,0'
        '],"right":[-1,0],"status":"pass"},{"kind":"E","left":[1,0],"right"'
        ':[0,-1],"status":"pass"},{"kind":"E","left":[1,0],"right":[0,0],"s'
        'tatus":"pass"},{"kind":"E","left":[1,0],"right":[0,1],"status":"pa'
        'ss"},{"kind":"E","left":[1,0],"right":[1,0],"status":"pass"},{"kin'
        'd":"P","left":[0,0],"right":[0,0],"status":"pass"},{"kind":"ratio"'
        ',"left":[0,0],"right":[0,0],"status":"pass"},{"kind":"P","left":[0'
        ',0],"right":[1,0],"status":"pass"},{"kind":"ratio","left":[0,0],"r'
        'ight":[1,0],"status":"pass"},{"kind":"P","left":[1,0],"right":[0,0'
        '],"status":"pass"},{"kind":"ratio","left":[1,0],"right":[0,0],"sta'
        'tus":"pass"},{"kind":"P","left":[1,0],"right":[1,0],"status":"pass'
        '"},{"kind":"ratio","left":[1,0],"right":[1,0],"status":"pass"}],"m'
        'ax_weight":1,"mode":"specialized","n":2}' "\n"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT), ids=" ".join)
def test_symbolic_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == PINNED_STDOUT[argv]


# sha256 of the stdout of symbolic commands whose coefficients have more
# than GCD_TERM_THRESHOLD terms, so that their canonical form went through
# the full gcd reduction; the first two were recorded while chain states
# were still built over the field, the last two while every such
# coefficient was still reduced by the gcd.
PINNED_DIGESTS = {
    ("compute-e", "--n", "1", "--alpha", "3", "--mode", "symbolic"):
        "cc0dff023e77d84f1856ff920b0728a2106a5224f6bab676061a3f7b09166f38",
    ("compute-e", "--n", "2", "--alpha", "1,1", "--mode", "symbolic"):
        "0f3b71b5e754a43343bff0ee1911ffa4d8cbfd5aeeb753807c9c012547c5d9c6",
    ("compute-e", "--n", "1", "--alpha", "-3", "--mode", "symbolic"):
        "831a1b4865eb0a13f42d91d33f0d6c8f44fe0d778435a10a15ac19bc8884786d",
    ("compute-e", "--n", "2", "--alpha", "2,-1", "--mode", "symbolic"):
        "3975445aa3f86fb9d5f66574488ca5ae26106f4c4f235444a6c3242d86048d7a",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DIGESTS), ids=" ".join)
def test_gcd_reduced_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]
    sizes = [len(t["coeff"][side]) for t in json.loads(out)["terms"]
             if isinstance(t["coeff"], dict) for side in ("num", "den")]
    assert max(sizes) > paramfield.GCD_TERM_THRESHOLD


# sha256 of the stdout of specialized commands, recorded while specialized
# polynomials still stored one Fraction per coefficient; the last command's
# assignment has a rational and negative q^(1/2) and t0^(1/2).
PINNED_SPECIALIZED_DIGESTS = {
    ("compute-e", "--n", "3", "--alpha", "2,-1,0"):
        "1a26973061f5e6da6ceffc8043bc0555ec32786e5211014bebc5770bfcb344bd",
    ("compute-p", "--n", "2", "--lambda", "2,1"):
        "45fa2b76a323dfafdc6c334e7d7e17b23af8728bf967bd796050bddfe63638fa",
    ("compute-p", "--n", "2", "--lambda", "2,1", "--text"):
        "984dbc578cbf5fb2b886e36894e45ede66995aebbca23bebd6142ef0e642fc43",
    ("compute-p", "--n", "4", "--lambda", "1,1,0,0"):
        "a1751605ec7011a871c2372a26c7d5e41d7944066221ae1e6ce04b897ae59b63",
    ("check-duality", "--n", "2", "--max-weight", "2"):
        "43f70579dc1f39ff73f8e995571657392a16749ee635205687630ff24c04d651",
    ("basis-check", "--n", "3", "--degree", "2"):
        "243e27505f18756f6dd08000b101ac0737468267cd5d52b5f91333038ed47223",
    ("compute-e", "--n", "2", "--alpha", "2,-1", RATIONAL):
        "927ffcc4ddb257e0ac2872da6aaacf0befb92dc5469f4c545aff77262a474a24",
}


@pytest.mark.parametrize("argv", sorted(PINNED_SPECIALIZED_DIGESTS),
                         ids=" ".join)
def test_specialized_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PINNED_SPECIALIZED_DIGESTS[argv]
