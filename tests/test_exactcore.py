"""Exact rational/polynomial linear algebra kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy

from orbitlimits.exactcore import (Mat, Q0, Q1, RationalFn, UniPoly,
                                   clear_denominators, column_normalize,
                                   coords_in_basis, det_bareiss,
                                   lin_indep_subset, nullspace, rank, rref,
                                   solve)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def rand_mat(draw, n, m):
    return Mat([[draw(rationals) for _ in range(m)] for _ in range(n)])


# ---------------------------------------------------------------------------
# UniPoly


def test_unipoly_basic():
    p = UniPoly({2: Fraction(1), 0: Fraction(-1)})      # t^2 - 1
    q = UniPoly({1: Fraction(1), 0: Fraction(1)})       # t + 1
    quo, rem = p.divmod(q)
    assert quo == UniPoly({1: Q1, 0: -Q1})
    assert not any(rem.c.values())
    assert p.degree() == 2 and p.valuation() == 0
    assert p(Fraction(3)) == 8
    assert p.derivative() == UniPoly({1: Fraction(2)})


def test_unipoly_gcd_monic():
    p = UniPoly({2: Fraction(2), 1: Fraction(2)})       # 2t^2 + 2t
    q = UniPoly({2: Fraction(1), 0: Fraction(-1)})      # t^2 - 1
    g = p.gcd(q)
    assert g.monic() == UniPoly({1: Q1, 0: Q1})         # t + 1


def test_unipoly_exact_div_raises_on_remainder():
    p = UniPoly({1: Q1, 0: Q1})
    with pytest.raises(ValueError):
        p.exact_div(UniPoly({1: Q1}))


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
def test_unipoly_mul_evaluates(a, b):
    p = UniPoly({i: c for i, c in enumerate(a)})
    q = UniPoly({i: c for i, c in enumerate(b)})
    t0 = Fraction(3, 2)
    assert (p * q)(t0) == p(t0) * q(t0)


def test_rationalfn_reduces():
    num = UniPoly({2: Q1, 1: Q1})                       # t^2 + t
    den = UniPoly({1: Fraction(2)})                     # 2t
    r = RationalFn(num, den)
    assert r.den.degree() == 0                          # common factor t removed
    assert r(Fraction(5)) == Fraction(6, 2)


# ---------------------------------------------------------------------------
# matrices


def test_solve_and_inverse():
    m = Mat.rational([[2, 1], [1, 1]])
    cols = solve(m, [[Q1, Q0], [Q0, Q1]])
    inv = Mat.from_cols(cols)
    assert m * inv == Mat.identity(2)
    assert inv.a == sympy.Matrix(m.a).inv().tolist()


def test_rank_nullspace():
    m = Mat.rational([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    assert not any(m.apply(list(ns[0])))


def test_rref_pivots():
    rows, pivots = rref(Mat.rational([[0, 1], [1, 0]]))
    assert pivots == [0, 1]


def test_det_bareiss_vs_adjugate():
    m = Mat.rational([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    d = det_bareiss(m)
    assert d == 1 + 70
    assert d == sympy.Matrix(m.a).det()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nullspace_vectors_are_in_kernel(data):
    n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    mat = rand_mat(data.draw, n, m)
    for v in nullspace(mat):
        assert not any(mat.apply(list(v)))
    assert rank(mat) + len(nullspace(mat)) == m


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_det_multiplicative(data):
    n = data.draw(st.integers(2, 3))
    a, b = rand_mat(data.draw, n, n), rand_mat(data.draw, n, n)
    assert det_bareiss(a * b) == det_bareiss(a) * det_bareiss(b)


def test_coords_in_basis():
    basis = [[Q1, Q0, Q0], [Q0, Q1, Q0]]
    assert coords_in_basis(basis, [Fraction(2), Fraction(3), Q0]) == \
        [Fraction(2), Fraction(3)]
    assert coords_in_basis(basis, [Q0, Q0, Q1]) is None


def test_lin_indep_subset():
    vs = [[Q1, Q0], [Fraction(2), Q0], [Q0, Q1]]
    assert lin_indep_subset(vs) == [0, 2]


def test_clear_denominators_and_normalize():
    t, one = UniPoly.t(1, 1), UniPoly.const(1)
    col = [RationalFn(one, t + one), RationalFn(t, one)]   # 1/(t+1), t
    cleared = clear_denominators(col)
    assert cleared[0] == one
    assert cleared[1] == t * (t + one)
    m = column_normalize(Mat([[UniPoly.t(1, 1)], [UniPoly.t(2, 1)]]))
    col0 = m.col(0)
    assert min(p.valuation() for p in col0 if p) == 0
    assert rank(m.eval_at(Q0)) == 1
