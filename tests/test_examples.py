"""The worked-example forms against sympy: det3 and its two variants as
determinants of 3x3 matrices of linear forms, and each q-form as the
polynomial its docstring states."""

from fractions import Fraction

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, implicit_multiplication,
                                        parse_expr, standard_transformations)

from orbitlimits import examples

X = sympy.symbols("x1:10")
x1, x2, x3, x4, x5, x6, x7, x8, x9 = X


def _terms(expr) -> dict:
    poly = sympy.Poly(sympy.expand(expr), *X)
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}


GENERIC = sympy.Matrix(3, 3, X)
SKEW = sympy.Matrix([[0, x1, -x2], [-x1, 0, x3], [x2, -x3, 0]])
SYM = sympy.Matrix([[2 * x6, x8, x9], [x8, 2 * x5, x7], [x9, x7, 2 * x4]])


@pytest.mark.parametrize("name, matrix", [
    ("det3_form", GENERIC),
    # z = x1 + x5 + x9 renamed into the ninth slot
    ("det3_z_adapted_form", GENERIC.subs(x9, x9 - x1 - x5, simultaneous=True)),
    ("det3_skew_sym_form", SKEW + SYM),
])
def test_det3_forms_are_determinants(name, matrix):
    f = getattr(examples, name)()
    assert (f.nvars, f.degree) == (9, 3)
    assert f.terms == _terms(matrix.det())


@pytest.mark.parametrize("name", ["q1_prime_form", "q2_form", "q3_form", "q4_form",
                                  "q4_prime_form"])
def test_q_forms_match_their_docstrings(name):
    fn = getattr(examples, name)
    text = fn.__doc__.split(" in the ")[0].strip().rstrip(".")
    expr = parse_expr(text, local_dict={"z": x9, **{str(x): x for x in X}},
                      transformations=standard_transformations
                      + (implicit_multiplication, convert_xor))
    f = fn()
    assert (f.nvars, f.degree) == (9, 3)
    assert f.terms == _terms(expr)
