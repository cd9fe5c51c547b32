"""Differential tests of the Subspace echelon on sparse vectors over Q, its
residue (quotient) map and the functions built on it (rref, nullspace,
rank, solve, and the dense adapters lin_indep_subset and coords_in_basis),
and of the sparse fraction-free
Bareiss determinant and rank over Q[t], against sympy, including 0-row and
0-column shapes.  The oracle is sympy's DomainMatrix over QQ and
QQ.frac_field(t), whose entries are canonical, so that results compare
exactly without symbolic simplification."""

from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from oracles import charpoly
from orbitlimits.conjclosure import minimal_polynomial
from orbitlimits.exactcore import (Mat, Q0, Q1, Subspace, UniPoly, coords_in_basis,
                                   dense, det_bareiss, kernel, lin_indep_subset, nullspace,
                                   rank, rank_qt, rref, solve, sparse)

# mostly zeros, so that the matrices are sparse like the action maps
entries = st.one_of(st.just(Q0), st.just(Q0),
                    st.fractions(min_value=-5, max_value=5, max_denominator=4))
# the same with plain `int`s and integral `Fraction`s such as Fraction(4, 2),
# which a vector may mix
mixed_entries = st.one_of(entries, st.integers(-5, 5),
                          st.integers(-5, 5).map(lambda k: Fraction(2 * k, 2)))
T = sympy.Symbol("t")
QT = sympy.QQ.frac_field(T)


def vectors(data, dim, count, entries=entries):
    return [[data.draw(entries) for _ in range(dim)] for _ in range(count)]


def entered(data, v):
    """sparse(v), sometimes with a stored zero (0 or Fraction(0)) at one of
    v's zero coordinates: `Subspace` takes such a vector as it is."""
    s = sparse(v)
    zeros = [i for i, x in enumerate(v) if not x]
    if zeros and data.draw(st.booleans()):
        s[data.draw(st.sampled_from(zeros))] = data.draw(st.sampled_from([0, Q0]))
    return s


def to_sympy(x):
    if isinstance(x, UniPoly):
        return sum((to_sympy(c) * T**e for e, c in x.c.items()), sympy.Integer(0))
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def sym_cols(cols, dim):
    return sympy.Matrix(dim, len(cols), lambda i, j: to_sympy(cols[j][i]))


def domain_of(*blocks):
    """QQ(t) if any entry of the nested lists is over Q[t], else QQ."""
    qt = any(isinstance(x, UniPoly) for rows in blocks for r in rows for x in r)
    return QT if qt else sympy.QQ


def dom_mat(rows, cols, K=None):
    """Mat(rows, cols) as a sympy DomainMatrix over K (by default domain_of(rows))."""
    K = K or domain_of(rows)
    return DomainMatrix([[K.from_sympy(to_sympy(x)) for x in r] for r in rows],
                        (len(rows), cols), K)


def sym_rank(cols, dim):
    # the rank of the matrix whose rows are cols
    return dom_mat(cols, dim).rank() if cols and dim else 0


def greedy(cols, dim):
    """Indices of the greedy independent subset, by sympy ranks."""
    out = []
    for i, v in enumerate(cols):
        if sym_rank([cols[k] for k in out] + [v], dim) > len(out):
            out.append(i)
    return out


def exact_types(values) -> bool:
    """The scalar rule of a sparse vector over Q: an `int` for each integer
    value and a `Fraction` for any other, so never a float, a bool or a
    `Fraction` with denominator 1."""
    return all(x.denominator != 1 if type(x) is Fraction else type(x) is int for x in values)


def assert_no_stored_zeros(sp, *vectors):
    """No row of sp and no given sparse vector (None is skipped) keeps a zero."""
    assert all(x for row in sp.rows.values() for x in row.values())
    assert all(x for v in vectors if v is not None for x in v.values())


def combination(coeffs, cols, dim):
    v = [Q0] * dim
    for c, col in zip(coeffs, cols):
        v = [a + c * b for a, b in zip(v, col)]
    return v


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subspace_add_contains_coords_against_sympy(data):
    dim, count = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    gens = vectors(data, dim, count, mixed_entries)
    sp = Subspace(dim)
    flags = [sp.add(entered(data, g)) for g in gens]
    idx = greedy(gens, dim)
    assert [i for i, f in enumerate(flags) if f] == idx
    assert len(sp) == sym_rank(gens, dim)
    assert exact_types(x for row in sp.rows.values() for x in row.values())
    basis = [gens[i] for i in idx]
    if data.draw(st.booleans()):
        v = combination([data.draw(mixed_entries) for _ in basis], basis, dim)
    else:
        v = vectors(data, dim, 1, mixed_entries)[0]
    inside = sym_rank(basis + [v], dim) == len(basis)
    co = sp.coords(entered(data, v))
    assert (entered(data, v) in sp) == inside == (co is not None)
    assert_no_stored_zeros(sp, co)
    if inside and basis:
        sol, params = sym_cols(basis, dim).gauss_jordan_solve(sympy.Matrix([to_sympy(x) for x in v]))
        assert params.shape[0] == 0
        assert co == sparse([Fraction(int(x.p), int(x.q)) for x in sol])
        assert exact_types(co.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residue_is_the_quotient_map_against_sympy(data):
    dim, count = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    gens = vectors(data, dim, count, mixed_entries)
    sp = Subspace(dim, [entered(data, g) for g in gens])
    basis = [gens[i] for i in greedy(gens, dim)]

    def draw_vector():
        if data.draw(st.booleans()):
            return combination([data.draw(mixed_entries) for _ in basis], basis, dim)
        return vectors(data, dim, 1, mixed_entries)[0]

    u, v, c = draw_vector(), draw_vector(), data.draw(mixed_entries)
    r = sp.residue(entered(data, u))
    assert all(0 <= i < dim for i in r) and exact_types(r.values())
    assert_no_stored_zeros(sp, r)
    # zero exactly on the span, and the part taken off lies in the span
    inside = sym_rank(basis + [u], dim) == len(basis)
    assert (not r) == inside == (entered(data, u) in sp)
    assert sym_rank(basis + [[a - b for a, b in zip(u, dense(r, dim))]], dim) == len(basis)
    # linear
    assert sp.residue(entered(data, [a + c * b for a, b in zip(u, v)])) == \
        sparse([a + c * b for a, b in zip(dense(r, dim), dense(sp.residue(entered(data, v)), dim))])


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


# dense vectors with large coefficients, some of them ints: the rows meet
# each other everywhere, so the integers of the elimination grow
big_entries = st.one_of(st.integers(-10**6, 10**6),
                        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_subspace_on_dense_large_coefficients_against_sympy(data):
    dim, count = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 12))
    gens = [[data.draw(big_entries) for _ in range(dim)] for _ in range(count)]
    sp = Subspace(dim)
    flags = [sp.add(sparse(g)) for g in gens]
    idx = greedy(gens, dim)
    assert [i for i, f in enumerate(flags) if f] == idx
    basis = [gens[i] for i in idx]
    # rows: the reduced row echelon form of the span
    want, pivots = dom_mat(basis, dim).rref()
    want_rows = {p: r for p, r in zip(pivots, want.to_list())}
    assert sorted(sp.rows) == list(pivots)
    for p, row in sp.rows.items():
        assert same([dense(row, dim)], [want_rows[p]], sympy.QQ)
    assert_no_stored_zeros(sp)
    assert exact_types(x for row in sp.rows.values() for x in row.values())
    # residue: v minus v[p] times the row with pivot p, for every pivot p
    v = ([data.draw(big_entries) for _ in range(dim)] if data.draw(st.booleans())
         else combination([data.draw(big_entries) for _ in basis], basis, dim))
    r = sp.residue(sparse(v))
    expected = [sympy.QQ.from_sympy(to_sympy(x)) for x in v]
    for p, row in want_rows.items():
        c = expected[p]
        expected = [a - c * b for a, b in zip(expected, row)]
    assert same([dense(r, dim)], [expected], sympy.QQ)
    # coords: the solution of basis . x = v, by the rref of [basis | v]
    co = sp.coords(sparse(v))
    k = len(basis)
    aug, aug_pivots = dom_mat([[b[i] for b in basis] + [v[i]] for i in range(dim)], k + 1).rref()
    assert (co is None) == (k in aug_pivots) == bool(r)
    if co is not None:
        sol = [row[-1] for row in aug.to_list()[:k]]
        assert same([dense(co, k)], [sol], sympy.QQ)
    assert_no_stored_zeros(sp, r, co)
    assert exact_types(x for w in (r, co or {}) for x in w.values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_back_substitution_reaches_the_columns_it_filled(data):
    """The chain vectors e_k + c_k e_(k+1), added for k = 0, 1, ..., each clear
    column k of the row before, which fills its column k + 1; the next chain
    vector must find that row under column k + 1 of the column index, or the
    row stays unreduced.  Rows and coords are checked against sympy's rref."""
    dim = data.draw(st.integers(2, 8))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    gens = [[Q1 if i == k else data.draw(nonzero) if i == k + 1 else Q0 for i in range(dim)]
            for k in range(data.draw(st.integers(2, dim)) - 1)]
    gens += vectors(data, dim, data.draw(st.integers(0, 2)))
    sp = Subspace(dim)
    basis = [g for g in gens if sp.add(sparse(g))]
    want, pivots = dom_mat(basis, dim).rref()
    assert sorted(sp.rows) == list(pivots)
    for (p, row), want_row in zip(sorted(sp.rows.items()), want.to_list()):
        assert same([dense(row, dim)], [want_row], sympy.QQ)
    assert_no_stored_zeros(sp)
    v = combination([data.draw(entries) for _ in basis], basis, dim)
    co = sp.coords(sparse(v))
    k = len(basis)
    aug, _ = dom_mat([[b[i] for b in basis] + [v[i]] for i in range(dim)], k + 1).rref()
    assert same([dense(co, k)], [[row[-1] for row in aug.to_list()[:k]]], sympy.QQ)


def test_split_residue_and_coords_return_fresh_dicts():
    """Changing a dict that `split`, `residue` or `coords` returned changes
    neither the vector asked about nor any later answer, on the `int` path
    (D = 1, with and without a row met) and the `Fraction` path."""
    gens = [{0: 1, 1: 2}, {1: 3, 2: Fraction(1, 2)}]
    probes = [{3: 5}, {0: 1, 1: 2}, {0: 2, 1: 7, 2: Fraction(1, 2)},
              {1: Fraction(1, 3), 3: 1}, {0: 1, 3: 2}, {2: 4}]
    sp, fresh = Subspace(4, [dict(g) for g in gens]), Subspace(4, gens)
    asked = [dict(v) for v in probes]
    for v in asked:
        for d in (*sp.split(v), *sp.split(v, False), sp.residue(v), sp.coords(v)):
            if d is not None:
                d.clear()
                d[1] = 13
    assert asked == probes and sp.rows == fresh.rows
    for v in probes:
        assert (sp.split(v), sp.residue(v), sp.coords(v)) == \
            (fresh.split(v), fresh.residue(v), fresh.coords(v))
    assert sp.add({3: 1}) and fresh.add({3: 1}) and sp.rows == fresh.rows


def test_integral_values_are_ints():
    """Subspace, the dense adapters, `Mat` arithmetic, `det_bareiss`,
    `charpoly`, `minimal_polynomial` and the `UniPoly` methods give an int
    exactly for an integer value, whether their input was an int or a
    Fraction."""
    sp = Subspace(2, [{0: 2, 1: 4}, {1: 3}])
    co = sp.coords({0: 1, 1: 1})
    assert co == {0: Fraction(1, 2), 1: Fraction(-1, 3)} and exact_types(co.values())
    co = sp.coords({0: Fraction(4), 1: 11})
    assert co == {0: 2, 1: 1} and exact_types(co.values())
    co = coords_in_basis([[2, 0], [0, 3]], [2, 1])
    assert co == [1, Fraction(1, 3)] and exact_types(co)
    assert sp.rows == {0: {0: 1}, 1: {1: 1}}
    assert exact_types(x for row in sp.rows.values() for x in row.values())
    line = Subspace(3, [{0: 2, 1: 4}])
    r = line.residue({0: Fraction(1), 2: Fraction(3, 2)})
    assert r == {1: -2, 2: Fraction(3, 2)} and exact_types(r.values())
    for rows, want in (([{0: 2, 1: 4}], [{0: -2, 1: 1}, {2: 1}]),
                       ([{0: 2, 1: 3}], [{0: Fraction(-3, 2), 1: 1}, {2: 1}])):
        ker = kernel(3, rows)
        assert ker == want and all(exact_types(v.values()) for v in ker)

    # Mat: products of halves and thirds that are integers, sums, scaling
    a = Mat([[Fraction(1, 2), Fraction(3, 2)], [1, Fraction(1, 3)]])
    b = Mat([[2, 0], [Fraction(2, 3), 3]])
    ab = a * b
    assert ab.a == [[2, Fraction(9, 2)], [Fraction(20, 9), 1]]
    abv = ab * Mat.from_cols([[1, 2]])
    assert abv.a == [[11], [Fraction(38, 9)]]
    assert (a + a).a == [[1, 3], [2, Fraction(2, 3)]] and (a - a).a == [[0, 0], [0, 0]]
    assert a.scale(6).a == [[3, 9], [6, 2]] and Mat.identity(2).a == [[1, 0], [0, 1]]
    for m in (ab, abv, a + a, a - a, a.scale(6), Mat.identity(2), Mat.zeros(2, 1)):
        assert all(exact_types(r) for r in m.a)
    # det_bareiss: an integer matrix in ints, and integer determinants of
    # rational matrices, with and without a pivot 1
    for rows, want in (([[2, 1], [1, 1]], 1), ([[Fraction(1, 2), 1], [3, 8]], 1),
                       ([[1, Fraction(1, 2)], [2, 3]], 2), ([[Fraction(1, 2)]], Fraction(1, 2)),
                       ([[0, 1], [1, 0]], -1), ([[1, 1], [1, 1]], 0)):
        d = det_bareiss(Mat(rows))
        assert d == want and exact_types([d])
    p = charpoly(Mat([[Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(1, 2)]]))
    assert p == UniPoly({2: 1, 1: -1, 0: Fraction(-1, 2)}) and exact_types(p.c.values())
    for m, want in ((Mat([[Fraction(2), 0], [0, Fraction(2)]]), UniPoly({1: 1, 0: -2})),
                    (Mat([[Fraction(1, 2), 1], [0, Fraction(1, 2)]]),
                     UniPoly({2: 1, 1: -1, 0: Fraction(1, 4)}))):
        p = minimal_polynomial(m)
        assert p == want and exact_types(p.c.values())
    # UniPoly: divmod, and halves that add or multiply to integers
    p, q = UniPoly({2: Fraction(2), 1: Fraction(2)}), UniPoly({2: 1, 0: -1})
    h = UniPoly.t(1, Fraction(1, 2))
    got = [*p.divmod(q), q.divmod(UniPoly({1: 2, 0: 2}))[0], h + h, h * 2, h * h * 4 - h]
    assert got == [UniPoly({0: 2}), UniPoly({1: 2, 0: 2}),
                   UniPoly({1: Fraction(1, 2), 0: Fraction(-1, 2)}), UniPoly.t(),
                   UniPoly.t(), UniPoly({2: 1, 1: Fraction(-1, 2)})]
    assert all(exact_types(r.c.values()) for r in got)
    assert exact_types([p(Fraction(1, 2)), q(3), UniPoly.const(Fraction(4, 2)).lc()])


def test_zero_row_and_zero_column_shapes():
    assert Mat.zeros(0, 3).cols == 3 and Mat.from_cols([[], [], []]).cols == 3
    assert nullspace(Mat.zeros(0, 3)) == [[Q1 if i == j else Q0 for i in range(3)]
                                         for j in range(3)]
    assert nullspace(Mat.from_cols([[], []])) == [[Q1, Q0], [Q0, Q1]]
    assert lin_indep_subset([[], []]) == [] and coords_in_basis([[], []], []) == [Q0, Q0]
    sp = Subspace(0)
    assert not sp.add({}) and {} in sp and sp.coords({}) == {}
    assert sp.free_columns() == [] and sp.orthogonal() == []


polys = st.builds(lambda a, b: UniPoly({0: a, 1: b}),
                  st.integers(-2, 2), st.integers(-2, 2))


def same(ours, theirs, K):
    """Entrywise equality of nested lists, ours converted into the domain K
    of theirs."""
    return (len(ours) == len(theirs)
            and all(len(a) == len(b) and all(K.from_sympy(to_sympy(x)) == y
                                              for x, y in zip(a, b))
                    for a, b in zip(ours, theirs)))


def check_elimination(rows, cols):
    """rref, nullspace and rank of Mat(rows, cols) against sympy; every entry
    of the results follows the scalar rule (`exact_types`)."""
    m, dm = Mat(rows, cols), dom_mat(rows, cols)
    got, pivots = rref(m)
    want, want_pivots = dm.rref()
    assert pivots == list(want_pivots) and same(got, want.to_list(), dm.domain)
    ns = nullspace(m)
    # one basis vector per free column, 1 there: sympy's Matrix.nullspace basis
    assert same(ns, dm.nullspace(divide_last=True).to_list(), dm.domain)
    assert rank(m) == len(pivots) == dm.rank()
    assert all(exact_types(r) for r in got) and all(exact_types(v) for v in ns)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_nullspace_rank_against_sympy(data):
    nr, nc = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    check_elimination(vectors(data, nc, nr), nc)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_nullspace_rank_over_qt_against_sympy(data):
    nr, nc = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    rows = [[data.draw(st.one_of(polys, entries)) for _ in range(nc)] for _ in range(nr)]
    # the elimination over Q is rref's; with an entry over Q[t], the rank over
    # Q(t) is the fraction-free one
    if any(isinstance(x, UniPoly) for r in rows for x in r):
        assert rank_qt([sparse(r) for r in rows]) == sym_rank(rows, nc)
    else:
        check_elimination(rows, nc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_against_sympy(data):
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2))
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    rhs = [[data.draw(entries) for _ in range(n)] for _ in range(k)]
    K = sympy.QQ
    dm = dom_mat(rows, n, K)
    if n and not dm.det():
        with pytest.raises(ValueError):
            solve(Mat(rows, n), rhs)
        return
    got = solve(Mat(rows, n), rhs)
    want = [dm.lu_solve(dom_mat([[x] for x in b], 1, K)).to_list_flat() for b in rhs]
    assert same(got, want, K)
    assert all(exact_types(col) for col in got)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# Q[t] entries of t-degree <= 2, two thirds of them zero (some a zero UniPoly)
qt_entries = st.one_of(st.just(Q0), st.just(UniPoly()),
                       st.builds(lambda a, b, c: UniPoly({0: a, 1: b, 2: c}),
                                 small, small, small))


def sparse_square(data, n, cell, shape):
    """An n x n matrix over `cell`, bent into one of the shapes that steer
    Bareiss down each of its branches."""
    nonzero = cell.filter(bool)
    if shape == "identity-plus-sparse":    # like C = I + λ_S∘B in the local model
        rows = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
        for _ in range(data.draw(st.integers(0, 2 * n))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            rows[i][j] = rows[i][j] + data.draw(nonzero)
        return rows
    rows = [[data.draw(cell) for _ in range(n)] for _ in range(n)]
    if shape == "singular":                 # one row a combination of the others
        i = data.draw(st.integers(0, n - 1))
        others = [r for k, r in enumerate(rows) if k != i]
        rows[i] = combination([data.draw(entries) for _ in others], others, n)
    elif shape == "swap" and n >= 2:        # zero leading pivot: rows must swap
        rows[0][0] = Q0
        rows[data.draw(st.integers(1, n - 1))][0] = data.draw(nonzero)
    elif shape == "triangular":
        # the rows below each pivot have a 0 in its column and no pivot is 1,
        # so every step only rescales them
        diag = nonzero.filter(lambda x: x != 1)
        rows = [[data.draw(diag) if i == j else (x if j > i else Q0)
                 for j, x in enumerate(r)] for i, r in enumerate(rows)]
    return rows


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_det_bareiss_against_sympy(data):
    n = data.draw(st.integers(0, 8))
    cell = data.draw(st.sampled_from([entries, qt_entries]))
    shape = data.draw(st.sampled_from(["sparse", "singular", "swap", "triangular",
                                       "identity-plus-sparse"]))
    rows = sparse_square(data, n, cell, shape) if n else []
    d = det_bareiss(Mat(rows, n))
    if not n:
        assert d == 1 and type(d) is int
        return
    if any(isinstance(x, UniPoly) for r in rows for x in r):
        assert type(d) is UniPoly and exact_types(d.c.values())
    else:
        assert exact_types([d])
    K = domain_of(rows)
    assert K.from_sympy(to_sympy(d)) == dom_mat(rows, n, K).det()
    if shape == "singular":
        assert not d


dense_qt = st.builds(lambda a, b, c: UniPoly({0: a, 1: b, 2: c}),
                    small, small, small).filter(bool)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_rank_qt_against_sympy(data):
    # sparse, dense and rational draws; a zero row, or one row a Q[t]-combination
    # of the others
    nr, nc = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    cell = data.draw(st.sampled_from([qt_entries, dense_qt, entries]))
    rows = [[data.draw(cell) for _ in range(nc)] for _ in range(nr)]
    shape = data.draw(st.sampled_from(["random", "zero-row", "deficient"]))
    deficient = (shape == "zero-row" and nr >= 1) or (shape == "deficient" and nr >= 2)
    i = data.draw(st.integers(0, nr - 1)) if deficient else None
    if deficient and shape == "zero-row":
        rows[i] = [Q0] * nc
    elif deficient:
        others = [r for k, r in enumerate(rows) if k != i]
        rows[i] = combination([data.draw(qt_entries) for _ in others], others, nc)
    got = rank_qt([sparse(r) for r in rows])
    assert got == sym_rank(rows, nc)
    if deficient:
        assert got < nr


def test_det_bareiss_of_non_square_matrix_raises():
    with pytest.raises(ValueError):
        det_bareiss(Mat.zeros(2, 3))
