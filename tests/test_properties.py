"""Randomized invariant suites across the pipeline."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, HealthCheck
from hypothesis import strategies as st

import qt_oracle
from oracles import charpoly, filtered_dims
from test_subspace import exact_types
from orbitlimits.conjclosure import jn_local_model, minimal_polynomial
from orbitlimits.curvature import _project_off, gamma_squared
from orbitlimits.examples import O2_LAM, O3_LAM, o2_form, o3_form
from orbitlimits.exactcore import (Mat, Q1, SingularMatrix, Subspace, UniPoly, column_normalize,
                                   dense, det_bareiss, kernel, lin_comb, nullspace, rref, solve,
                                   sparse)
from orbitlimits.lierep import ConjRep, Form, SymRep, bracket
from orbitlimits.limits import (LimitProblem, OnePS, extension_feasible, limit_algebra,
                                limit_algebra_by_conjugation, same_span)
from orbitlimits.localmodel import NotTransverse, build_local_model
from orbitlimits.reproduce import _lam_data

coef = st.integers(-3, 3)


def _random_form(draw, nvars, degree, coefs=coef):
    from orbitlimits.lierep import monomial_basis
    basis = monomial_basis(nvars, degree)
    terms = {}
    for e in basis:
        c = draw(coefs)
        if c:
            terms[e] = Fraction(c)
    assume(terms)
    return Form(nvars, degree, terms)


def _limit_pair(draw, nvars=2, coefs=coef):
    degree = draw(st.integers(3, 4))
    f = _random_form(draw, nvars, degree, coefs)
    w = [draw(st.integers(0, 3)) for _ in range(nvars)]
    assume(len(set(w)) > 1)          # nontrivial 1-PS
    return f, OnePS(w)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_dual_pipeline_k0_agreement(data):
    """The M_N-kernel route and the symbolic conjugation route produce the
    same K0 span on random (form, 1-PS) instances."""
    f, lam = _limit_pair(data.draw)
    try:
        d1 = limit_algebra(f, lam)
        d2 = limit_algebra_by_conjugation(LimitProblem(f, lam))
    except (NotTransverse, ValueError):
        assume(False)
        return
    assert same_span(d1.K0_coords, d2, f.nvars)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_k0_bracket_closure_and_star(data):
    f, lam = _limit_pair(data.draw)
    try:
        d = limit_algebra(f, lam)
    except (NotTransverse, ValueError):
        assume(False)
        return
    glrep, K0 = ConjRep(f.nvars), d.K0
    span = Subspace(glrep.dim, [glrep.to_coords(m) for m in K0])
    for i in range(len(K0)):
        for j in range(i + 1, len(K0)):
            br = glrep.to_coords(K0[i] * K0[j] - K0[j] * K0[i])
            assert span.coords(br) is not None
    # K0 lies in H and star-annihilates f_b
    h_span = Subspace(glrep.dim, d.model.H)
    fb = (d.rep.to_coords(d.expansion.f_b)
          if d.expansion.f_b is not None else None)
    for k in map(glrep.to_coords, K0):
        assert h_span.coords(k) is not None
        if fb is not None:
            assert not d.model.star(k, fb)


def test_reconstruction_identity_100_random_pairs():
    """s (x + n) + n' = dv holds for the computed decomposition."""
    model = jn_local_model(3)
    rep = model.rep
    rng = random.Random(11)
    done = 0
    while done < 100:
        nc = sparse([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(len(model.N))])
        n = model.n_vec(nc)
        dv = sparse([Fraction(rng.randint(-4, 4)) for _ in range(rep.dim)])
        try:
            sc, nprime = model.solve_decomposition(n, dv)
        except Exception:
            continue                 # 1 + theta(n) singular for this n
        recon = rep.act(model.s_vec(sc), lin_comb({0: Q1, 1: Q1}, [model.x, n]))
        recon = lin_comb({0: Q1, 1: Q1}, [recon, model.n_vec(nprime)])
        assert recon == dv
        done += 1


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_filtered_vs_graded_dims(data):
    """K^{>=i} is decreasing in i and refines the graded dims of K0."""
    f, lam = _limit_pair(data.draw)
    try:
        d = limit_algebra(f, lam)
        fd = filtered_dims(d)
    except (NotTransverse, ValueError):
        assume(False)
        return
    keys = sorted(fd)
    for a, b in zip(keys, keys[1:]):
        assert fd[a] >= fd[b]
    if keys:
        assert fd[keys[0]] == len(d.K0)
    else:
        assert len(d.K0) == 0


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_s_parts_vanish_to_order_b_minus_a(data):
    """k(t) = h(t) + s(t) with the s-part divisible by t^(b-a)."""
    f, lam = _limit_pair(data.draw)
    try:
        d = limit_algebra(f, lam)
    except (NotTransverse, ValueError):
        assume(False)
        return
    if d.expansion.b is None:
        return
    order = d.expansion.b - d.expansion.a
    for kt in d.Kt:
        for c in kt.s_coeffs.values():
            assert isinstance(c, UniPoly) and c
            assert c.valuation() >= order


def _sym_cols(cols, dim):
    """The sympy matrix with the sparse columns cols of length dim."""
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in dense(c, dim)]
                         for c in cols]).T


def _fb_coords(d):
    exp = d.expansion
    return d.rep.to_coords(exp.f_b) if exp.f_b is not None else {}


def _assert_epsilon_extension(d, feas):
    """Each pair (k_m, -dbar_m) of the eps-extension has dbar_m - d_b(k_m) in
    H = stab g, and dbar is a derivation modulo K0:
    sum_m beta_ij^m dbar_m - [k_i, dbar_j] + [k_j, dbar_i] lies in span K0,
    with the structure constants beta of K0 from a sympy solve, and brackets
    as matrix products."""
    rep, glrep = d.rep, d.glrep
    K0 = [k for k, _ in feas.epsilon_basis]
    dbar = [{i: -x for i, x in s.items()} for _, s in feas.epsilon_basis]
    assert K0 == d.K0_coords
    g, fb = rep.to_coords(d.expansion.g), _fb_coords(d)
    for k, x in zip(K0, dbar):
        # d_b(k) is any s with s.g = k.f_b, so dbar(k) - d_b(k) is in H iff it kills g
        assert rep.act(x, g) == rep.act(k, fb)
    k0 = _sym_cols(K0, glrep.dim)
    K0, dbar = d.K0, [glrep.from_coords(x) for x in dbar]

    def bracket(a, b):
        return a * b - b * a

    for i in range(len(K0)):
        for j in range(i + 1, len(K0)):
            br = _sym_cols([glrep.to_coords(bracket(K0[i], K0[j]))], glrep.dim)
            beta, free = k0.gauss_jordan_solve(br)
            assert free.shape[0] == 0
            v = bracket(K0[j], dbar[i]) - bracket(K0[i], dbar[j])
            for m, x in enumerate(dbar):
                v = v + x.scale(Fraction(int(beta[m].p), int(beta[m].q)))
            assert k0.rank() == k0.row_join(_sym_cols([glrep.to_coords(v)], glrep.dim)).rank()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_epsilon_extension_extends_db_as_a_derivation(data):
    # sparse ternary forms, so that K0 often has dimension 2 or more
    f, lam = _limit_pair(data.draw, 3, st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2]))
    try:
        d = limit_algebra(f, lam)
        feas = extension_feasible(d)
    except (NotTransverse, ValueError):
        assume(False)
        return
    assume(feas.feasible)
    _assert_epsilon_extension(d, feas)


def test_epsilon_extension_corrects_db():
    """x^2 + xy + yz under (1, 1, -1): dim K0 = 3, and the solved dbar differs
    from d_b itself, so the extension system has a nonzero solution."""
    f = Form(3, 2, {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(1), (0, 1, 1): Fraction(1)})
    d = limit_algebra(f, OnePS([1, 1, -1]))
    feas = extension_feasible(d)
    assert feas.feasible and len(d.K0) == 3
    _assert_epsilon_extension(d, feas)
    model, fb = d.model, _fb_coords(d)
    db = [model.s_vec(model.split_V(d.rep.act(k, fb))[0]) for k in d.K0_coords]
    assert any({i: -x for i, x in s.items()} != x for (_, s), x in zip(feas.epsilon_basis, db))


# ---------------------------------------------------------------------------
# the slice equations along f^+(t) over Q(t), solved by sympy, as an oracle for K(t)


def _fplus(problem):
    """f^+(t) = sum_{c>a} t^(c-a) f_c as a sparse vector of UniPoly; the f_c
    have disjoint supports."""
    rep, exp = problem.rep, problem.expansion
    return {rep.index[e]: UniPoly.t(c - exp.a, coef)
            for c, form in exp.tail.items() for e, coef in form.terms.items()}


def _monic_gcd(a, b):
    """The monic gcd of two polynomials over Q, by Euclid's algorithm."""
    while b:
        a, b = b, a.divmod(b)[1]
    return a * Fraction(1, a.lc()) if a else a


def _clear_denominators(col):
    """The Q(t)-column col (elements of sympy's QQ(t)) times the lcm of its
    denominators, over Q[t]."""
    parts = [qt_oracle.poly_parts(x) for x in col]
    lcm = UniPoly.const(1)
    for _, den in parts:
        lcm = lcm * den.exact_div(_monic_gcd(lcm, den))
    return [num * lcm.exact_div(den) for num, den in parts]


def _kt_over_qt(d):
    """(s-coefficients, h(t) + s(t)) for each element of K(t), from the slice
    equations solved along f^+(t) over Q(t) by sympy: ker M_N cleared and
    normalized by column_normalize, and s = -M_S alpha."""
    model, nh = d.model, len(d.model.H)
    ker, m_s = qt_oracle.slice_equations(model, _fplus(d))
    if not ker:
        return []
    out = []
    cleared = [_clear_denominators(v) for v in ker]
    for alpha in column_normalize([sparse(c) for c in cleared]):
        s = m_s * qt_oracle.columns([{j: -a for j, a in alpha.items()}], nh)
        sc = sparse([qt_oracle.as_poly(x) for x in s.to_list_flat()])
        out.append((sc, model.element(alpha, sc)))
    return out


def _assert_kt_matches_the_qt_route(d):
    oracle = _kt_over_qt(d)
    assert len(oracle) == len(d.Kt)
    for (sc, k), kt in zip(oracle, d.Kt):
        assert kt.s_coeffs == sc
        assert kt.coords == k


@pytest.mark.parametrize("name", ["det3-l2", "det3-l4", "O2", "O3"])
def test_kt_matches_the_qt_route_on_the_examples(name):
    if name.startswith("det3-"):
        d = _lam_data(name[5:])
    else:
        d = limit_algebra(*{"O2": (o2_form(), O2_LAM), "O3": (o3_form(), O3_LAM)}[name])
    assert d.Kt
    _assert_kt_matches_the_qt_route(d)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_kt_matches_the_qt_route(data):
    """K(t) from the slice equations at f^+(1) over Q, with t put back by the
    weights, equals K(t) from the equations along f^+(t) over Q(t).  The
    random binary form is taken in three variables, so that E_zx, E_zy and
    E_zz stabilize it and K(t) has dimension at least 3: a binary form alone
    mostly has a trivial stabilizer, and then both routes give nothing."""
    f, lam = _limit_pair(data.draw)
    f = Form(3, f.degree, {e + (0,): c for e, c in f.terms.items()})
    lam = OnePS(lam.weights + [data.draw(st.integers(0, 3))])
    try:
        d = limit_algebra(f, lam)
    except (NotTransverse, ValueError):
        assume(False)
        return
    assert len(d.Kt) >= 3
    _assert_kt_matches_the_qt_route(d)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_delta_is_one_and_kt_is_polynomial(data):
    """Delta = det(1 + theta(f^+(t))) is 1 at the limit's local model, whose
    bases are weight-pure, and every entry of K(t) is a polynomial."""
    f, lam = _limit_pair(data.draw)
    try:
        d = limit_algebra(f, lam)
    except (NotTransverse, ValueError):
        assume(False)
        return
    assert d.model.delta(_fplus(d)) == 1
    for kt in d.Kt:
        assert kt.coords and all(isinstance(x, UniPoly) for x in kt.coords.values())


# rationals as a mixed input: ints, integral Fractions and proper Fractions
mixed = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))


def _rational(values) -> bool:
    """Every value is an int or a Fraction: never a float or a bool."""
    return all(type(x) in (int, Fraction) for x in values)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mixed_int_and_fraction_input_never_gives_float_or_bool(data):
    """The vector operations on sparse vectors whose entries mix ints and
    Fractions give ints and Fractions only, and Subspace's outputs, `act`,
    `bracket` and `lin_comb` give ints exactly where the value is an
    integer."""
    draw = data.draw
    rep = SymRep(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    n = rep.n

    def vector(dim):
        return sparse([draw(mixed) for _ in range(dim)])

    gens = [vector(rep.dim) for _ in range(draw(st.integers(0, 4)))]
    v, g, h = vector(rep.dim), vector(n * n), vector(n * n)
    sp = Subspace(rep.dim, gens)
    assert exact_types(x for row in sp.rows.values() for x in row.values())
    assert exact_types(sp.residue(v).values())
    assert exact_types((sp.coords(lin_comb(vector(len(gens)), gens)) or {}).values())
    assert all(exact_types(k.values()) for k in kernel(rep.dim, gens))
    assert exact_types(rep.act(g, v).values()) and exact_types(bracket(g, h, n).values())
    assert exact_types(lin_comb(vector(2), [g, h]).values())
    x = vector(rep.dim)
    assume(x)
    model = build_local_model(rep, x)
    lam_s, lam_n = model.split_V(v)
    assert _rational(lam_s.values()) and _rational(lam_n.values())
    try:
        (w,) = model.inv_one_plus_theta(model.n_vec(vector(len(model.N))), [v])
    except SingularMatrix:
        return
    assert _rational(w.values())


def _scalars(*results) -> list:
    """The scalars of each result in order: a Mat's entries, a UniPoly's
    coefficients by exponent (with the exponents), a list's items."""
    out = []
    for r in results:
        if isinstance(r, Mat):
            out += [x for row in r.a for x in row]
        elif isinstance(r, UniPoly):
            out += [v for e in sorted(r.c) for v in (e, r.c[e])]
        elif isinstance(r, (list, tuple)):
            out += _scalars(*r)
        else:
            out.append(r)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_int_and_fraction_matrices_equal_the_fraction_computation(data):
    """`Mat` arithmetic, `det_bareiss`, `charpoly`, `minimal_polynomial`,
    `rref`, `nullspace`, `solve`, the `UniPoly` methods and the curvature
    quotients on input that mixes ints and Fractions give ints and Fractions
    only, an int exactly where the value is an integer, and the values of the
    same computation on all-Fraction input."""
    draw = data.draw
    n = draw(st.integers(1, 4))
    a_rows, b_rows = ([[draw(mixed) for _ in range(n)] for _ in range(n)] for _ in range(2))
    v, s = [draw(mixed) for _ in range(n)], draw(mixed)
    p_c, q_c = ([draw(mixed) for _ in range(draw(st.integers(1, 4)))] for _ in range(2))
    assume(any(q_c) and any(v))

    def results(cast):
        a, b = (Mat([[cast(x) for x in r] for r in rows]) for rows in (a_rows, b_rows))
        w = [cast(x) for x in v]
        p, q = (UniPoly({e: cast(x) for e, x in enumerate(c)}) for c in (p_c, q_c))
        d = det_bareiss(a)
        out = [a * b, a + b, a - b, a.scale(cast(s)), a * Mat.from_cols([w]), d,
               charpoly(a), minimal_polynomial(a), rref(a)[0], nullspace(a),
               solve(a, [w]) if d else [], p * q, p + q, p - q, p.divmod(q), p(cast(s)),
               sorted(_project_off(sparse(w), sparse(a.a[0])).items()),
               gamma_squared(b, a) if any(map(any, b_rows)) else 0]
        return _scalars(*out)

    got, want = results(lambda x: x), results(Fraction)
    assert got == want and exact_types(got) and exact_types(want)
