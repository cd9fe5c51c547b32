"""Torus weight supports and the instability optimizer."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitlimits.conjclosure import jordan_block
from orbitlimits.exactcore import Mat
from orbitlimits.kempf import (GRID_RESOLUTION, WeightComponent, WeightSupport,
                               _grid_seed, centered_ap_direction, grid_minimize,
                               kempf_f, kempf_descent, kempf_optimum, kempf_support,
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
        kempf_support(rep, {})


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
    assert res.converged
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
    assert res.converged
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


# ---------------------------------------------------------------------------
# the grid oracle against its definition


def _grid_reference(support, t):
    """`grid_minimize` as first written: every tuple of (-R..R)^(n-1), the
    trace-zero ones evaluated by `kempf_f` at q/|q|, the first least f kept."""
    n = support.n
    best_p, best_f = None, math.inf
    R = GRID_RESOLUTION
    for q in itertools.product(range(-R, R + 1), repeat=n - 1):
        last = -sum(q)
        if abs(last) > R:
            continue
        full = list(q) + [last]
        if all(x == 0 for x in full):
            continue
        nrm = math.sqrt(sum(x * x for x in full))
        p = [x / nrm for x in full]
        fv = kempf_f(t, p, support)
        if fv < best_f:
            best_f, best_p = fv, p
    return best_p, best_f


def _grid_supports():
    """J_2-J_4, seeded sparse and dense integer matrices with n <= 4, and
    seeded forms in 2-4 variables."""
    rng = random.Random(18)
    cases = [(f"J_{n}", _jn_support(n)) for n in (2, 3, 4)]
    for n in (2, 2, 3, 3, 4):
        rep = ConjRep(n)
        for kind, density in (("sparse", 0.3), ("dense", 1.0)):
            rows = [[rng.randint(-3, 3) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(n)]
            rows[0][n - 1] = rows[0][n - 1] or 1   # keep the matrix nonzero
            cases.append((f"{kind}-{n}x{n}-{len(cases)}",
                          kempf_support(rep, rep.to_coords(Mat.rational(rows)))))
    for nvars, degree in ((2, 3), (2, 5), (3, 2), (3, 3), (4, 3)):
        rep = SymRep(nvars, degree)
        exps = rng.sample(rep.basis, min(len(rep.basis), rng.randint(2, 5)))
        form = Form(nvars, degree, {tuple(e): rng.choice([-3, -1, 1, 2, 5]) for e in exps})
        cases.append((f"form-{nvars}v-deg{degree}", kempf_support(rep, rep.to_coords(form))))
    return cases


def _form_support(nvars, terms):
    degree = sum(next(iter(terms)))
    rep = SymRep(nvars, degree)
    return kempf_support(rep, rep.to_coords(Form(nvars, degree, terms)))


def _pruning_supports():
    """Supports that probe the AM-GM bound of `grid_minimize`, each at its
    values of t."""
    near_one = 1 + 1e-9                # ln t about 1e-9: the margin matters
    return [
        # x^3 + 2xyz + 5y^2z: unstable, with unequal norms
        ("cubic125-3v", _form_support(3, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 2, 1): 5}),
         (near_one, 2.0, 1e300)),
        ("cubic125-4v", _form_support(4, {(3, 0, 0, 0): 1, (1, 1, 1, 0): 2, (0, 2, 1, 0): 5}),
         (near_one, 2.0)),
        ("J_3", _jn_support(3), (near_one,)),
        ("J_4", _jn_support(4), (near_one,)),
        # the rays k (1, -1, 0) tie up to rounding: the seed (20, -20, 0) is
        # not the first least-f point, and at t = 1e300 every f underflows
        ("ray-tie", _support(3, [((1, -1, 0), 1)]), (1000.0, 1e300)),
        ("ray-tie-4v", _support(4, [((1, -1, 0, 0), 1)]), (1000.0,)),
        # t^(-<p, chi>) underflows to a subnormal near 1e-318 at the best
        # points and |v_chi|^2 = 5e165 lifts it back: their float f is below
        # the exact f by far more than the margin
        ("underflow", _support(2, [((6, -3), 5 * 10**165)]), (1e50,)),
        # semistable, so no seed
        ("semistable", _support(3, [((1, -1, 0), 1), ((-1, 1, 0), 5), ((0, 1, -1), 2)]),
         (near_one, 10.0, 1e300)),
        ("zero-weight", _support(3, [((0, 0, 0), 3), ((1, -1, 0), 1), ((0, 2, -2), 2)]),
         (near_one, 10.0, 1e300)),
    ]


# the reference loop takes about 0.5 s a call at n = 4: there J_4 runs at
# every t and the other supports at one moderate and one overflowing t, and
# the pruning supports add four n = 4 calls
GRID_CASES = ([pytest.param(sup, t, id=f"{name}-t{t:g}")
               for name, sup in _grid_supports()
               for t in (2.0, 10.0, 1000.0, 1e300)
               if sup.n < 4 or name == "J_4" or t in (10.0, 1e300)]
              + [pytest.param(sup, t, id=f"{name}-t{t:.10g}")
                 for name, sup, ts in _pruning_supports() for t in ts])


@pytest.mark.parametrize("sup, t", GRID_CASES)
def test_grid_equals_reference_loop(sup, t):
    p, f = grid_minimize(sup, t)
    rp, rf = _grid_reference(sup, t)
    assert p == rp and f == rf


def test_grid_seed_is_not_always_the_winner():
    # f is constant on the ray of (1, -1, 0) up to rounding; the seed's f is
    # a rounding above the least, which (3, -3, 0) is the first to reach
    sup = _support(3, [((1, -1, 0), 1)])
    assert _grid_seed(sup) == [20, -20, 0]
    p, f = grid_minimize(sup, 1000.0)
    nrm = math.sqrt(18)
    assert p == [3 / nrm, -3 / nrm, 0 / nrm]
    seed_nrm = math.sqrt(800)
    assert kempf_f(1000.0, [20 / seed_nrm, -20 / seed_nrm, 0 / seed_nrm], sup) > f


def test_grid_seed_nearest_the_optimum():
    # J_4's optimum is (3, 1, -1, -3)/10: scaled to max 20, (20, 6.67, ...)
    assert _grid_seed(_jn_support(4)) == [20, 7, -7, -20]
    # p = 0 on a semistable support: no seed
    assert _grid_seed(_support(3, [((1, -1, 0), 1), ((-1, 1, 0), 5)])) is None


def test_grid_without_a_finite_point():
    # f = 2 + t^sqrt2 + t^-sqrt2 at both points of the rank-2 grid: every f
    # is +inf at t = 1e300, and no point is best
    rep = ConjRep(2)
    sup = kempf_support(rep, rep.to_coords(Mat.rational([[1, 1], [1, 1]])))
    assert grid_minimize(sup, 1e300) == _grid_reference(sup, 1e300) == (None, math.inf)
    # the rank-1 grid is empty
    sup = _support(1, [((2,), 1)])
    assert grid_minimize(sup, 10.0) == _grid_reference(sup, 10.0) == (None, math.inf)


@pytest.mark.parametrize("n, points", [(2, 40), (3, 1260), (4, 45960)])
def test_grid_ties_go_to_the_first_point(n, points):
    # a zero weight makes f constant, so every one of the documented number
    # of grid points ties, and the first in lexicographic order is returned
    R = GRID_RESOLUTION
    grid = [q + (-sum(q),) for q in itertools.product(range(-R, R + 1), repeat=n - 1)
            if any(q) and abs(sum(q)) <= R]
    assert len(grid) == points
    p, f = grid_minimize(_support(n, [((0,) * n, 1)]), 10.0)
    nrm = math.sqrt(sum(x * x for x in grid[0]))
    assert f == 1.0 and p == [x / nrm for x in grid[0]]
