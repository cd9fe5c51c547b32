"""Representations of gl(n): symmetric powers and conjugation."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlimits.exactcore import Mat, Q0
from orbitlimits.lierep import (ConjRep, Form, SymRep, action_matrix,
                                bracket, elementary, group_act_form,
                                stabilizer_algebra, tangent_space)

small = st.integers(-4, 4)


def rand_gl(draw, n):
    return Mat.rational([[draw(small) for _ in range(n)] for _ in range(n)])


def test_sym_action_is_derivation_rule():
    # g . f = sum g[i][j] x_j df/dx_i: e_01 sends x^2 to 2xy, e_10 kills it
    rep = SymRep(2, 2)
    f = Form(2, 2, {(2, 0): 1})
    v = rep.to_coords(f)
    assert rep.from_coords(rep.act(elementary(2, 0, 1), v)) == \
        Form(2, 2, {(1, 1): 2})
    assert not any(rep.act(elementary(2, 1, 0), v))


def test_sym_euler_identity():
    # the identity matrix acts as multiplication by the degree
    rep = SymRep(3, 4)
    f = Form(3, 4, {(2, 1, 1): Fraction(5), (4, 0, 0): 1})
    v = rep.to_coords(f)
    assert rep.act(Mat.identity(3), v) == [4 * x for x in v]


def test_conj_action_is_commutator():
    rep = ConjRep(3)
    g = Mat.rational([[1, 2, 0], [0, 1, 0], [3, 0, 2]])
    y = Mat.rational([[0, 1, 1], [2, 0, 0], [0, 0, 5]])
    assert rep.from_coords(rep.act(g, rep.to_coords(y))) == bracket(g, y)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bracket_jacobi(data):
    n = 3
    a, b, c = (rand_gl(data.draw, n) for _ in range(3))
    lhs = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + \
        bracket(c, bracket(a, b))
    assert lhs == Mat.zeros(n, n)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_action_matrix_consistent_with_act(data):
    rep = SymRep(2, 3)
    g = rand_gl(data.draw, 2)
    v = [Fraction(data.draw(small)) for _ in range(rep.dim)]
    assert action_matrix(rep, g).apply(v) == rep.act(g, v)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_action_is_lie_algebra_homomorphism(data):
    rep = ConjRep(2)
    a, b = rand_gl(data.draw, 2), rand_gl(data.draw, 2)
    v = [Fraction(data.draw(small)) for _ in range(rep.dim)]
    lhs = [x - y for x, y in zip(rep.act(a, rep.act(b, v)),
                                 rep.act(b, rep.act(a, v)))]
    assert lhs == rep.act(bracket(a, b), v)


def test_stabilizer_annihilates():
    rep = SymRep(3, 3)
    f = Form(3, 3, {(1, 1, 1): 1})          # x y z
    v = rep.to_coords(f)
    H = stabilizer_algebra(rep, v)
    # the stabilizer of xyz is the trace-zero diagonal torus
    assert len(H) == 2
    for h in H:
        assert not any(rep.act(h, v))


def test_stabilizer_of_zero_is_full_gl():
    rep = SymRep(2, 2)
    H = stabilizer_algebra(rep, [Q0] * rep.dim)
    assert len(H) == 4


def test_tangent_space_dim():
    rep = ConjRep(2)
    j = Mat.rational([[0, 1], [0, 0]])
    T = tangent_space(rep, rep.to_coords(j))
    H = stabilizer_algebra(rep, rep.to_coords(j))
    assert len(T) + len(H) == 4


def test_group_act_form_substitution():
    # (x, y) -> (x + y, y) sends x^2 to x^2 + 2xy + y^2
    A = Mat.rational([[1, 1], [0, 1]])
    f = Form(2, 2, {(2, 0): 1})
    assert group_act_form(A, f) == Form(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_act_weight_conventions():
    rep = SymRep(2, 2)
    d = [3, 1]
    # acting by e_ij changes a monomial weight by d_j - d_i
    assert rep.act_weight(0, 1, d) == -2
    crep = ConjRep(2)
    assert crep.act_weight(0, 1, d) == 2
