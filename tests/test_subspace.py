"""Differential tests of the Subspace echelon and the functions built on it,
against sympy over Q and Q(t), including 0-row and 0-column shapes."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlimits.exactcore import (Mat, Q0, Q1, RationalFn, Subspace, UniPoly,
                                   coords_in_basis, lin_indep_subset,
                                   nullspace)

# mostly zeros, so that the matrices are sparse like the action maps
entries = st.one_of(st.just(Q0), st.just(Q0),
                    st.fractions(min_value=-5, max_value=5, max_denominator=4))
T = sympy.Symbol("t")


def vectors(data, dim, count):
    return [[data.draw(entries) for _ in range(dim)] for _ in range(count)]


def to_sympy(x):
    if isinstance(x, UniPoly):
        return sum((to_sympy(c) * T**e for e, c in x.c.items()), sympy.Integer(0))
    if isinstance(x, RationalFn):
        return to_sympy(x.num) / to_sympy(x.den)
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def sym_cols(cols, dim):
    return sympy.Matrix(dim, len(cols), lambda i, j: to_sympy(cols[j][i]))


def sym_rank(cols, dim):
    return sym_cols(cols, dim).rank(simplify=True) if cols and dim else 0


def greedy(cols, dim):
    """Indices of the greedy independent subset, by sympy ranks."""
    out = []
    for i, v in enumerate(cols):
        if sym_rank([cols[k] for k in out] + [v], dim) > len(out):
            out.append(i)
    return out


def combination(coeffs, cols, dim):
    v = [Q0] * dim
    for c, col in zip(coeffs, cols):
        v = [a + c * b for a, b in zip(v, col)]
    return v


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subspace_add_contains_coords_against_sympy(data):
    dim, count = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    gens = vectors(data, dim, count)
    sp = Subspace(dim)
    flags = [sp.add(g) for g in gens]
    idx = greedy(gens, dim)
    assert [i for i, f in enumerate(flags) if f] == idx
    assert len(sp) == sym_rank(gens, dim)
    basis = [gens[i] for i in idx]
    if data.draw(st.booleans()):
        v = combination([data.draw(entries) for _ in basis], basis, dim)
    else:
        v = vectors(data, dim, 1)[0]
    inside = sym_rank(basis + [v], dim) == len(basis)
    co = sp.coords(v)
    assert (v in sp) == inside == (co is not None)
    if inside and basis:
        sol, params = sym_cols(basis, dim).gauss_jordan_solve(sympy.Matrix([to_sympy(x) for x in v]))
        assert params.shape[0] == 0
        assert co == [Fraction(int(x.p), int(x.q)) for x in sol]
        assert all(type(c) is Fraction for c in co)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_complete_with_units_is_greedy(data):
    dim, count = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
    gens = vectors(data, dim, count)
    sp = Subspace(dim, gens)
    units = sp.complete_with_units()
    assert len(sp) == dim
    cur = [gens[i] for i in greedy(gens, dim)]
    expected = []
    for j in range(dim):
        e = [Q1 if i == j else Q0 for i in range(dim)]
        if sym_rank(cur + [e], dim) > len(cur):
            cur.append(e)
            expected.append(j)
    assert units == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lin_indep_subset_and_coords_in_basis_against_sympy(data):
    dim, count = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    cols = vectors(data, dim, count)
    idx = greedy(cols, dim)
    assert lin_indep_subset(cols) == (idx if dim else [])
    v = (combination([data.draw(entries) for _ in cols], cols, dim)
         if data.draw(st.booleans()) else vectors(data, dim, 1)[0])
    co = coords_in_basis(cols, v)
    inside = sym_rank(cols + [v], dim) == sym_rank(cols, dim)
    assert (co is not None) == inside
    if inside:
        # dependent columns get 0, and the rest reproduce v
        assert all(c == 0 for i, c in enumerate(co) if i not in idx)
        assert combination(co, cols, dim) == v


def test_integer_input_gives_fractions():
    sp = Subspace(2, [[2, 4], [0, 3]])
    co = sp.coords([1, 1])
    assert co == [Fraction(1, 2), Fraction(-1, 3)]
    assert all(type(c) is Fraction for c in co)
    assert all(type(c) is Fraction for c in coords_in_basis([[2, 0], [0, 3]], [1, 1]))
    assert all(type(x) is Fraction for row, _ in sp.rows.values() for x in row.values())


def test_zero_row_and_zero_column_shapes():
    assert Mat.zeros(0, 3).cols == 3 and Mat.from_cols([[], [], []]).cols == 3
    assert Mat.zeros(0, 3).transpose().rows == 3
    assert nullspace(Mat.zeros(0, 3)) == [[Q1 if i == j else Q0 for i in range(3)]
                                         for j in range(3)]
    assert nullspace(Mat.from_cols([[], []])) == [[Q1, Q0], [Q0, Q1]]
    assert lin_indep_subset([[], []]) == [] and coords_in_basis([[], []], []) == [Q0, Q0]
    sp = Subspace(0)
    assert not sp.add([]) and [] in sp and sp.coords([]) == []
    assert sp.complete_with_units() == []


polys = st.builds(lambda a, b: UniPoly({0: a, 1: b}),
                  st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_subspace_over_qt_against_sympy(data):
    dim, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    gens = [[data.draw(polys) for _ in range(dim)] for _ in range(count)]
    sp = Subspace(dim)
    flags = [sp.add(g) for g in gens]
    idx = greedy(gens, dim)
    assert [i for i, f in enumerate(flags) if f] == idx
    basis = [gens[i] for i in idx]
    coeffs = [data.draw(polys) for _ in basis]
    v = [sum((c * b[i] for c, b in zip(coeffs, basis)), UniPoly.zero())
         for i in range(dim)]
    co = sp.coords(v)
    assert co is not None and all(RationalFn.coerce(c) == RationalFn.coerce(p)
                                  for c, p in zip(co, coeffs))
    w = [data.draw(polys) for _ in range(dim)]
    assert (w in sp) == (sym_rank(basis + [w], dim) == len(basis))


def test_qt_vector_over_rational_basis_stays_polynomial():
    t = UniPoly.t()
    sp = Subspace(2, [[Q1, Q1], [Q0, Fraction(2)]])
    co = sp.coords([t, t * t])
    assert all(isinstance(c, (UniPoly, Fraction)) for c in co)
    assert co[0] == t and co[1] == (t * t - t) * Fraction(1, 2)
