"""Torus weight supports and the instability optimizer."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitlimits.conjclosure import jordan_block
from orbitlimits.exactcore import Mat
from orbitlimits.kempf import (WeightComponent, WeightSupport,
                               centered_ap_direction, grid_minimize, kempf_f,
                               kempf_descent, kempf_optimum, kempf_support,
                               leading_term_along, mu, pairing)
from orbitlimits.lierep import ConjRep, Form, SymRep, elementary


def _jn_support(n):
    rep = ConjRep(n)
    return kempf_support(rep, rep.to_coords(jordan_block(n)))


def test_support_of_monomial_form():
    rep = SymRep(3, 3)
    f = Form(3, 3, {(1, 1, 1): 1})
    sup = kempf_support(rep, rep.to_coords(f))
    assert sup.weights == [(1, 1, 1)]


def test_support_of_jn():
    # J_3 has entries at (0,1) and (1,2): weights e_0 - e_1 and e_1 - e_2
    sup = _jn_support(3)
    assert sorted(sup.weights) == [(0, 1, -1), (1, -1, 0)]


def test_support_rejects_zero_vector():
    rep = ConjRep(2)
    with pytest.raises(ValueError):
        kempf_support(rep, [Fraction(0)] * 4)


def test_mu_and_pairing_exact():
    sup = _jn_support(3)
    ell = [Fraction(1), Fraction(0), Fraction(-1)]
    assert mu(ell, sup) == 1
    assert pairing(ell, (1, -1, 0)) == 1


def test_leading_term_picks_minimal_weight():
    A = Mat.rational([[1, 2, 0, 5], [0, 1, 3, 0],
                      [0, 0, 1, 2], [0, 0, 0, 1]])
    rep = ConjRep(4)
    sup = kempf_support(rep, rep.to_coords(A))
    m, coords = leading_term_along([0, 1, 2, 3], sup)
    assert m == -3
    assert rep.from_coords(coords) == elementary(4, 0, 3, Fraction(5))


def test_single_weight_support_constant_f():
    rep = SymRep(3, 3)
    sup = kempf_support(rep, rep.to_coords(Form(3, 3, {(1, 1, 1): 1})))
    ell = centered_ap_direction(3)
    assert abs(kempf_f(10.0, ell, sup) - 1.0) < 1e-12
    res = kempf_descent(sup, 10.0)
    assert abs(res.f_value - 1.0) < 1e-12
    assert abs(res.mu_value) < 1e-12


def test_descent_deterministic():
    sup = _jn_support(3)
    a = kempf_descent(sup, 100.0, seed=7)
    b = kempf_descent(sup, 100.0, seed=7)
    assert a.ell == b.ell and a.f_value == b.f_value


@pytest.mark.parametrize("n", [3, 4])
def test_descent_matches_grid(n):
    sup = _jn_support(n)
    res = kempf_descent(sup, 1000.0)
    gp, gf = grid_minimize(sup, 1000.0)
    assert res.converged and res.monotone
    assert res.max_residual < 1e-9
    assert abs(res.f_value - gf) <= 1e-3 * abs(gf)
    assert res.mu_value >= float(mu(gp, sup)) - 1e-3


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_minimizer_destabilizes_jn(t):
    # the f-minimizer enters {mu > 0} for every t on the documented set
    for n in (3, 4):
        res = kempf_descent(_jn_support(n), t)
        assert res.mu_value > 0


def test_descent_rejects_small_t():
    with pytest.raises(ValueError):
        kempf_descent(_jn_support(3), 1.0)


def test_constraint_residual_at_machine_precision():
    res = kempf_descent(_jn_support(4), 100.0)
    assert abs(sum(res.ell)) < 1e-12
    assert abs(math.sqrt(sum(x * x for x in res.ell)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the exact optimum


def _support(n, weights):
    return WeightSupport(n, [WeightComponent(chi, Fraction(a), ()) for chi, a in weights])


@st.composite
def supports(draw, max_n=4, max_weights=6):
    n = draw(st.integers(2, max_n))
    chis = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                         min_size=1, max_size=max_weights, unique=True))
    norms = draw(st.lists(st.integers(1, 9), min_size=len(chis), max_size=len(chis)))
    return _support(n, zip(chis, norms))


def _oracle_min_norm_point(support):
    """The minimum-norm point of the hull of the projected weights, by brute
    force in sympy: over every affinely independent subset, the minimum-norm
    point x = s0 + D^T beta of its affine hull, (D D^T) beta = -D s0, kept if
    its barycentric coefficients are >= 0 and <x, q> >= |x|^2 for every
    weight q; the smallest kept point."""
    n = support.n
    pts = {tuple(sympy.Rational(x) - sympy.Rational(sum(chi), n) for x in chi)
           for chi in support.weights}
    best = None
    for k in range(1, min(len(pts), n) + 1):
        for sub in itertools.combinations(sorted(pts), k):
            s0 = sympy.Matrix(sub[0])
            D = sympy.Matrix([[a - b for a, b in zip(s, sub[0])] for s in sub[1:]])
            if k > 1 and D.rank() < k - 1:
                continue
            beta = (D * D.T).solve(-D * s0) if k > 1 else sympy.zeros(0, 1)
            x = s0 + D.T * beta if k > 1 else s0
            coeffs = [1 - sum(beta)] + list(beta)
            xx = x.dot(x)
            if (all(c >= 0 for c in coeffs)
                    and all(x.dot(sympy.Matrix(q)) >= xx for q in pts)
                    and (best is None or xx < best[1])):
                best = (tuple(x), xx)
    return tuple(Fraction(int(c.p), int(c.q)) for c in best[0]), \
        Fraction(int(best[1].p), int(best[1].q))


@settings(max_examples=60, deadline=None)
@given(supports())
def test_wolfe_against_brute_force_oracle(sup):
    p, p2 = kempf_optimum(sup)
    assert (p, p2) == _oracle_min_norm_point(sup)
    assert sum(p) == 0 and p2 == sum(x * x for x in p)


@pytest.mark.parametrize("n", range(2, 10))
def test_jn_optimum_closed_form(n):
    p, p2 = kempf_optimum(_jn_support(n))
    assert p2 == Fraction(12, n * (n * n - 1))
    ap = [n - 1 - 2 * i for i in range(n)]
    c = p[0] / ap[0]
    assert c > 0 and list(p) == [c * x for x in ap]


@pytest.mark.parametrize("n", [4, 5])
def test_descent_mu_rises_towards_mu_star(n):
    sup = _jn_support(n)
    mu_star = math.sqrt(kempf_optimum(sup)[1])
    mus = [kempf_descent(sup, t).mu_value for t in (10.0, 1e3, 1e6, 1e12)]
    assert all(0 < m <= mu_star for m in mus)
    assert mus == sorted(mus)


@settings(max_examples=40, deadline=None)
@given(supports(max_n=3), st.sampled_from([10.0, 100.0, 1000.0]))
# f is about 1e-4 at the optimum: a descent on f itself stalled above the grid
@example(_support(3, [((0, -1, 1), 1), ((0, -2, 0), 1)]), 1000.0)
# f is about 1e-8: a gradient test allowing gtol / f stopped 0.8% above the grid
@example(_support(3, [((-1, 2, -2), 1), ((0, 2, -2), 2)]), 1000.0)
# unit first steps bounced across the minimum for 2,000 iterations
@example(_support(3, [((2, 0, 1), 8), ((-1, -2, 2), 8)]), 100.0)
def test_single_start_never_worse_than_grid(sup, t):
    assume(kempf_optimum(sup)[1] > 0)
    res = kempf_descent(sup, t)
    _, gf = grid_minimize(sup, t)
    assert res.f_value <= gf * (1 + 1e-9)
    assert res.converged and res.monotone
    assert res.max_residual < 1e-9


def test_dense_semistable_descent_converges():
    # f is in the thousands here; an absolute gradient test never stops
    A = Mat.rational([[4, 1, 7, 3], [2, 8, 5, 9], [6, 3, 1, 4], [5, 7, 2, 6]])
    rep = ConjRep(4)
    sup = kempf_support(rep, rep.to_coords(A))
    res = kempf_descent(sup, 100.0)
    _, gf = grid_minimize(sup, 100.0)
    assert res.mu_star_squared == 0
    assert res.converged is True
    assert abs(res.f_value - gf) <= 1e-3 * abs(gf)
