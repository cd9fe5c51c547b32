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


# the sparse product against independent oracles


def _entries(draw, entry, zero, n, m):
    """An n x m matrix of `entry` draws, sparse or dense: each entry is
    `zero` with a drawn probability of 0, 1/2 or 9/10."""
    level = draw(st.sampled_from([0, 5, 9]))
    return Mat([[zero if draw(st.integers(0, 9)) < level else draw(entry)
                 for _ in range(m)] for _ in range(n)], m)


@st.composite
def product_pairs(draw, entry, zero):
    k, n, m = (draw(st.integers(0, 5)) for _ in range(3))
    return _entries(draw, entry, zero, k, n), _entries(draw, entry, zero, n, m)


def _sympy(a):
    return sympy.Matrix(a.rows, a.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in a.a for x in row])


def _triple_loop(a, b, zero):
    return [[sum((a.a[i][k] * b.a[k][j] for k in range(a.cols)), zero)
             for j in range(b.cols)] for i in range(a.rows)]


def _check_product(a, b, zero):
    c = a * b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    zero_type = type(zero) if a.cols else Fraction         # an empty row has Q0
    for i, row in enumerate(c.a):
        for j, x in enumerate(row):
            if not any(a.a[i][k] and b.a[k][j] for k in range(a.cols)):
                assert type(x) is zero_type and not x     # the zero of the row's type
    return c


polys = st.builds(lambda cs: UniPoly(dict(enumerate(cs))),
                  st.lists(rationals, min_size=1, max_size=3)).filter(bool)
ratfns = st.builds(RationalFn, polys, polys)


@settings(max_examples=80, deadline=None)
@given(product_pairs(rationals.filter(bool), Q0))
def test_product_matches_sympy(ab):
    a, b = ab
    c = _check_product(a, b, Q0)
    want = _sympy(a) * _sympy(b)
    assert c.a == [[Fraction(int(x.p), int(x.q)) for x in want.row(i)]
                   for i in range(want.rows)]


@settings(max_examples=40, deadline=None)
@given(product_pairs(polys, UniPoly.zero()))
def test_unipoly_product_matches_triple_loop(ab):
    a, b = ab
    assert _check_product(a, b, UniPoly.zero()).a == _triple_loop(a, b, UniPoly.zero())


@settings(max_examples=25, deadline=None)
@given(product_pairs(ratfns, RationalFn(0)))
def test_rationalfn_product_matches_triple_loop(ab):
    a, b = ab
    assert _check_product(a, b, RationalFn(0)).a == _triple_loop(a, b, RationalFn(0))


def test_product_of_empty_shapes():
    k0, m0 = Mat([[], [], []], 0), Mat([], 4)                # 3 x 0 and 0 x 4
    c = k0 * m0
    assert (c.rows, c.cols) == (3, 4) and c == Mat.zeros(3, 4)
    c = m0 * Mat.zeros(4, 2)                                 # 0 x 4 times 4 x 2
    assert (c.rows, c.cols) == (0, 2)
    c = Mat.zeros(2, 3) * Mat([[], [], []], 0)               # 2 x 3 times 3 x 0
    assert (c.rows, c.cols) == (2, 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(2, 3) * Mat.zeros(2, 3)


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
