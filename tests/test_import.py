"""sympy is imported by the first gcd of field elements, or the first lcm
of denominators that differ: not by the package, the symbolic domain, a
symbolic command whose coefficients stay small and share one
denominator, or a symbolic E_alpha that is normalized by its chain's own
factors.

Each test runs its snippet in a fresh interpreter, so that no module
imported by another test is already in sys.modules.
"""

import os
import subprocess
import sys

from test_cli import PINNED_STDOUT

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_fresh(source):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_specialized_commands_never_import_sympy():
    run_fresh("""
import sys
import koornwinder
from koornwinder import cli
for argv in (["compute-e", "--n", "2", "--alpha", "1,-1"],
             ["compute-p", "--n", "2", "--lambda", "1,0"],
             ["basis-check", "--n", "2", "--degree", "2"],
             ["check-relations", "--n", "2", "--degree", "1"],
             ["check-duality", "--n", "2", "--max-weight", "1"]):
    assert cli.main(argv) == 0, argv
assert "sympy" not in sys.modules
field = sys.modules["koornwinder.paramfield"]
assert field.FieldElement and field._full_reduce
""")


def test_constants_import_first():
    run_fresh("""
from fractions import Fraction
from koornwinder.paramfield import ONE, SQRT_TN
x = (ONE + SQRT_TN) ** 2 / SQRT_TN
assert x - 2 == ONE / SQRT_TN + SQRT_TN
assert x.specialize([1, 1, 1, 2, 1, 1]) == Fraction(9, 2)
""")


def test_specialize_of_a_json_element_first():
    run_fresh("""
from fractions import Fraction
from koornwinder.paramfield import FieldElement
obj = {"num": [["1", [2, 0, 0, 0, 0, 0]]], "den": [["1", [0, 2, 0, 0, 0, 0]]]}
value = FieldElement.from_json_value(obj).specialize([2, 3, 5, 7, 11, 13])
assert value == Fraction(4, 9), value
""")


def test_symbolic_domain_first_then_symbolic_compute_e():
    argv = ("compute-e", "--n", "1", "--alpha", "-1", "--mode", "symbolic")
    out = run_fresh("""
from koornwinder import SymbolicDomain, cli
domain = SymbolicDomain()
assert domain.one == 1 and domain.zero == 0
assert cli.main(%r) == 0
""" % (list(argv),))
    assert out == PINNED_STDOUT[argv]


def test_sympy_is_imported_only_when_a_gcd_needs_it(tmp_path):
    element = tmp_path / "element.json"
    element.write_text('{"num":[["1",[2,0,0,0,0,0]]],'
                       '"den":[["1",[0,2,0,0,0,0]]]}')
    run_fresh("""
import sys
from koornwinder import cli
for argv in (["basis-check", "--n", "1", "--degree", "4", "--mode", "symbolic"],
             ["check-relations", "--n", "1", "--degree", "2",
              "--mode", "symbolic"],
             ["compute-e", "--n", "1", "--alpha", "1", "--mode", "symbolic"],
             ["compute-e", "--n", "1", "--alpha", "3", "--mode", "symbolic"],
             ["compute-p", "--n", "1", "--lambda", "0", "--mode", "symbolic"],
             ["check-duality", "--n", "1", "--max-weight", "0", "--symbolic"],
             ["specialize", "--input", %r, "--assignment", "2,3,5,7,11,13"]):
    assert cli.main(argv) == 0, argv
    assert "sympy" not in sys.modules, argv
assert cli.main(["compute-p", "--n", "1", "--lambda", "2", "--mode", "symbolic"]) == 0
assert "sympy" in sys.modules
""" % (str(element),))
