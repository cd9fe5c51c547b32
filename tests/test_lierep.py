"""Representations of gl(n): symmetric powers and conjugation, and the sparse
gl arithmetic (bracket, actions on sparse coordinate vectors, linear
combinations) against dense references."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlimits.exactcore import Mat, Q0, Q1, Subspace, UniPoly, exact, lin_comb, sparse
from orbitlimits.lierep import (ConjRep, Form, SymRep, bracket, elementary, group_act_form,
                                monomial_basis, stabilizer_algebra)

small = st.integers(-4, 4)


def rand_gl(draw, n):
    return Mat.rational([[draw(small) for _ in range(n)] for _ in range(n)])


def gl(m):
    """The coordinates of the matrix m as an element of gl(n)."""
    return ConjRep(m.rows).to_coords(m)


def test_sym_action_is_derivation_rule():
    # g . f = sum g[i][j] x_j df/dx_i: e_01 sends x^2 to 2xy, e_10 kills it
    rep = SymRep(2, 2)
    f = Form(2, 2, {(2, 0): 1})
    v = rep.to_coords(f)
    assert rep.from_coords(rep.act(gl(elementary(2, 0, 1)), v)) == \
        Form(2, 2, {(1, 1): 2})
    assert not rep.act(gl(elementary(2, 1, 0)), v)


def test_sym_euler_identity():
    # the identity matrix acts as multiplication by the degree
    rep = SymRep(3, 4)
    f = Form(3, 4, {(2, 1, 1): Fraction(5), (4, 0, 0): 1})
    v = rep.to_coords(f)
    assert rep.act(gl(Mat.identity(3)), v) == {k: 4 * x for k, x in v.items()}


def test_conj_action_is_commutator():
    rep = ConjRep(3)
    g = Mat.rational([[1, 2, 0], [0, 1, 0], [3, 0, 2]])
    y = Mat.rational([[0, 1, 1], [2, 0, 0], [0, 0, 5]])
    assert rep.act(gl(g), gl(y)) == bracket(gl(g), gl(y), 3) == gl(g * y - y * g)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bracket_jacobi(data):
    n = 3
    a, b, c = (gl(rand_gl(data.draw, n)) for _ in range(3))
    lhs = lin_comb({0: Q1, 1: Q1, 2: Q1},
                   [bracket(a, bracket(b, c, n), n), bracket(b, bracket(c, a, n), n),
                    bracket(c, bracket(a, b, n), n)])
    assert lhs == {}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_action_is_lie_algebra_homomorphism(data):
    rep = ConjRep(2)
    a, b = gl(rand_gl(data.draw, 2)), gl(rand_gl(data.draw, 2))
    v = sparse([Fraction(data.draw(small)) for _ in range(rep.dim)])
    lhs = lin_comb({0: Q1, 1: -Q1}, [rep.act(a, rep.act(b, v)), rep.act(b, rep.act(a, v))])
    assert lhs == rep.act(bracket(a, b, 2), v)


def test_stabilizer_annihilates():
    rep = SymRep(3, 3)
    f = Form(3, 3, {(1, 1, 1): 1})          # x y z
    v = rep.to_coords(f)
    H = stabilizer_algebra(rep, v)
    # the stabilizer of xyz is the trace-zero diagonal torus
    assert len(H) == 2
    for h in H:
        assert not rep.act(h, v)


def test_stabilizer_of_zero_is_full_gl():
    rep = SymRep(2, 2)
    H = stabilizer_algebra(rep, {})
    assert len(H) == 4


def test_tangent_space_dim():
    """The image gl.v, spanned by the E_ij.v, and the stabilizer have
    complementary dimensions in gl(2)."""
    rep = ConjRep(2)
    v = rep.to_coords(Mat.rational([[0, 1], [0, 0]]))
    T = Subspace(rep.dim, [rep.act_elementary(i, j, v) for i in range(2) for j in range(2)])
    H = stabilizer_algebra(rep, v)
    assert len(T) == len(H) == 2


def test_group_act_form_substitution():
    # (x, y) -> (x + y, y) sends x^2 to x^2 + 2xy + y^2
    A = Mat.rational([[1, 1], [0, 1]])
    f = Form(2, 2, {(2, 0): 1})
    assert group_act_form(A, f) == Form(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


@pytest.mark.parametrize("nvars,degree", [(1, 0), (1, 3), (2, 0), (3, 2), (4, 3), (5, 4)])
def test_monomial_basis_and_coord_weights(nvars, degree):
    """The basis is every exponent of the degree once, lexicographically
    descending; coord_weights pairs each exponent with the weights."""
    rep, w = SymRep(nvars, degree), [3, -1, 0, 2, 5][:nvars]
    assert rep.basis == sorted(set(rep.basis), reverse=True)
    assert len(rep.basis) == math.comb(nvars + degree - 1, degree)
    assert all(len(e) == nvars and sum(e) == degree and min(e) >= 0 for e in rep.basis)
    assert rep.coord_weights(w) == [sum(k * x for k, x in zip(e, w)) for e in rep.basis]
    crep = ConjRep(nvars)
    assert crep.coord_weights(w) == [w[i] - w[j] for i, j in crep.basis]


def _recursive_monomial_basis(nvars, degree):
    """The exponents of the degree with the first entry largest first, then
    the rest by recursion: graded-lex order."""
    out = []

    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(prefix + (rem,))
            return
        for k in range(rem, -1, -1):
            rec(prefix + (k,), rem - k, slots - 1)

    rec((), degree, nvars)
    return out


def test_monomial_basis_order_is_the_recursive_one():
    for nvars in range(1, 6):
        for degree in range(6):
            assert monomial_basis(nvars, degree) == _recursive_monomial_basis(nvars, degree)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gl_weights_follow_their_definitions(data):
    """SymRep: E_ij moves a monomial x^e with e_i > 0 by d_j - d_i (and kills
    it when e_i = 0).  ConjRep: diag(t^d) E_ij diag(t^-d) = t^(d_i - d_j) E_ij,
    taken at t = 2."""
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="d")
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, n - 1), label="j")
    rep = SymRep(n, data.draw(st.integers(1, 3), label="degree"))
    cw, glw = rep.coord_weights(d), rep.gl_weights(d)
    k = data.draw(st.integers(0, rep.dim - 1), label="monomial")
    moved = rep.act_elementary(i, j, {k: 1})
    if rep.basis[k][i]:
        (m,) = moved
        assert cw[m] - cw[k] == glw[i * n + j] == d[j] - d[i]
    else:
        assert not moved
    lam, lam_inv = (Mat.rational([[Fraction(2) ** (s * d[a]) if a == b else 0 for b in range(n)]
                                  for a in range(n)]) for s in (1, -1))
    assert lam * elementary(n, i, j) * lam_inv == elementary(n, i, j).scale(
        Fraction(2) ** ConjRep(n).gl_weights(d)[i * n + j])


# -- sparse gl arithmetic against dense references ---------------------------

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.builds(lambda a, b: UniPoly({0: a, 1: b}), fracs, fracs)
# each scalar ring with its own zero; three draws in four are zero
NONZERO = {"Q": fracs.filter(bool), "Q[t]": polys.filter(bool)}
ZERO = {"Q": lambda: Q0, "Q[t]": UniPoly.zero}
rings = st.sampled_from(sorted(NONZERO))


def scalars(draw, ring, count, nonzero=1):
    """count entries over ring, `nonzero` in four of them nonzero, and all
    zero one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return [ZERO[ring]() for _ in range(count)]
    return [draw(NONZERO[ring]) if draw(st.integers(0, 3)) < nonzero else ZERO[ring]()
            for _ in range(count)]


def sparse_mat(draw, ring, n):
    flat = scalars(draw, ring, n * n)
    return Mat([flat[i * n:(i + 1) * n] for i in range(n)])


def types(entries):
    """The entry types of a dense list, or of a sparse vector by index.  A
    rational may be an `int` or a `Fraction` (`exactcore.exact`), so both
    read as `Fraction`; a float or a bool keeps its own type."""
    kind = {int: Fraction}
    if isinstance(entries, dict):
        return {k: kind.get(type(x), type(x)) for k, x in entries.items()}
    return [kind.get(type(x), type(x)) for x in entries]


def flat(m):
    return [x for row in m.a for x in row]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_bracket_against_dense_products(data):
    draw = data.draw
    n, ring = draw(st.integers(1, 4)), draw(rings)
    a, b = sparse_mat(draw, ring, n), sparse_mat(draw, ring, n)
    got, want = bracket(gl(a), gl(b), n), gl(a * b - b * a)
    assert got == want and types(got) == types(want) and all(got.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_conj_act_against_dense_products(data):
    draw = data.draw
    n = draw(st.integers(1, 4))
    rep = ConjRep(n)
    g = sparse_mat(draw, draw(rings), n)
    v = scalars(draw, draw(rings), rep.dim)
    m = Mat([v[i * n:(i + 1) * n] for i in range(n)])
    got, want = rep.act(gl(g), sparse(v)), rep.to_coords(g * m - m * g)
    assert got == want and types(got) == types(want) and all(got.values())


def dense_sym_act(rep, g, v):
    """g . v for a dense v, as the sum over g_ij E_ij, each E_ij applied by
    act_elementary."""
    out = [Q0] * rep.dim
    for i in range(rep.n):
        for j in range(rep.n):
            if g.a[i][j]:
                for idx, x in rep.act_elementary(i, j, sparse(v)).items():
                    out[idx] = out[idx] + g.a[i][j] * x
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_sym_act_against_act_elementary(data):
    draw = data.draw
    rep = SymRep(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    g = sparse_mat(draw, draw(rings), rep.n)
    v = scalars(draw, draw(rings), rep.dim)
    got, want = rep.act(gl(g), sparse(v)), sparse(dense_sym_act(rep, g, v))
    assert got == want and types(got) == types(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lin_comb_against_dense_sums(data):
    draw = data.draw
    n, count = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    cring, tring = draw(rings), draw(rings)
    coeffs = scalars(draw, cring, count, nonzero=3)
    mats = [sparse_mat(draw, tring, n) for _ in range(count)]
    want = [Q0] * (n * n)
    for c, m in zip(coeffs, mats):
        if c:
            want = [a + c * b for a, b in zip(want, flat(m))]
    # gl elements combine in coordinates; from_coords fills in the int 0
    glrep = ConjRep(n)
    got = flat(glrep.from_coords(lin_comb(sparse(coeffs), [glrep.to_coords(m) for m in mats])))
    assert got == want and types(sparse(got)) == types(sparse(want))
    assert all(type(x) is int for x in got if not x)
    vecs = [scalars(draw, tring, n * n) for _ in range(count)]
    want = [Q0] * (n * n)
    for c, v in zip(coeffs, vecs):
        if c:
            want = [a + c * b for a, b in zip(want, v)]
    got = lin_comb(sparse(coeffs), [sparse(v) for v in vecs])
    assert got == sparse(want) and types(got) == types(sparse(want)) and all(got.values())


def _act_by_slicing(rep, g, v):
    """g . v by the tuple-slicing formula: x_j d/dx_i sends x^e to
    e_i x^(e - e_i + e_j), the target's exponent built and looked up per term."""
    rows: dict = {}
    for k, x in g.items():
        rows.setdefault(k // rep.n, []).append((k % rep.n, x))
    out: dict = {}
    nz = [(rep.basis[k], c) for k, c in v.items()]
    for i, gi in rows.items():
        lowered = [(e[:i] + (e[i] - 1,) + e[i + 1:], e[i] * c) for e, c in nz if e[i]]
        for j, gij in gi:
            for e, mc in lowered:
                tgt = rep.index[e[:j] + (e[j] + 1,) + e[j + 1:]]
                p = gij * mc
                out[tgt] = out[tgt] + p if tgt in out else p
    return {k: exact(x) for k, x in out.items() if x}


def _act_elementary_by_slicing(rep, i, j, v):
    out = {}
    for idx, c in v.items():
        e = rep.basis[idx]
        if e[i]:
            ee = list(e)
            ee[i] -= 1
            ee[j] += 1
            out[rep.index[tuple(ee)]] = e[i] * c
    return out


nonzero = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_move_table_agrees_with_tuple_slicing(data):
    draw = data.draw
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    rep = SymRep(n, d)
    v = draw(st.dictionaries(st.integers(0, rep.dim - 1), nonzero, max_size=6))
    g = draw(st.dictionaries(st.integers(0, n * n - 1), nonzero, max_size=2 * n))
    for _ in range(2):   # the first pass fills the table, the second reads it
        got, want = rep.act(g, v), _act_by_slicing(rep, g, v)
        assert list(got.items()) == list(want.items())
        assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
        for i in range(n):
            for j in range(n):
                got, want = rep.act_elementary(i, j, v), _act_elementary_by_slicing(rep, i, j, v)
                assert list(got.items()) == list(want.items())


def test_move_table_follows_the_support_acted_on():
    # det5 in 25 variables: dim V = 118,755, of which det5 has 120 monomials
    terms = {}
    for p in itertools.permutations(range(5)):
        e = [0] * 25
        for i, j in enumerate(p):
            e[i * 5 + j] = 1
        terms[tuple(e)] = (-1) ** sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5))
    rep = SymRep(25, 5)
    det5 = rep.to_coords(Form(25, 5, terms))
    assert not rep._move
    tangent = [rep.act_elementary(i, j, det5) for i in range(25) for j in range(25)]
    rep.act({0: 1, 26: -1}, det5)
    assert set(rep._move) == set(det5)
    rep.act({1: 1, 30: 2}, tangent[1])
    assert set(rep._move) == set(det5) | set(tangent[1])
