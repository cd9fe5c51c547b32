"""Randomized invariant suites across the pipeline."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, HealthCheck
from hypothesis import strategies as st

from orbitlimits.conjclosure import jn_local_model
from orbitlimits.exactcore import Mat, Q0, coords_in_basis
from orbitlimits.lierep import ConjRep, Form, SymRep, bracket
from orbitlimits.limits import (OnePS, limit_algebra,
                                limit_algebra_by_conjugation, same_span)
from orbitlimits.localmodel import NotTransverse

coef = st.integers(-3, 3)


def _random_form(draw, nvars, degree):
    from orbitlimits.lierep import monomial_basis
    basis = monomial_basis(nvars, degree)
    terms = {}
    for e in basis:
        c = draw(coef)
        if c:
            terms[e] = Fraction(c)
    assume(terms)
    return Form(nvars, degree, terms)


def _limit_pair(draw):
    nvars, degree = 2, draw(st.integers(3, 4))
    f = _random_form(draw, nvars, degree)
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
        d2 = limit_algebra_by_conjugation(f, lam)
    except (NotTransverse, ValueError):
        assume(False)
        return
    assert same_span(d1.K0, d2.K0, f.nvars)


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
    glrep = ConjRep(f.nvars)
    flat = [glrep.to_coords(m) for m in d.K0]
    for i in range(len(d.K0)):
        for j in range(i + 1, len(d.K0)):
            br = glrep.to_coords(bracket(d.K0[i], d.K0[j]))
            assert coords_in_basis(flat, br) is not None
    # K0 lies in H and star-annihilates f_b
    h_flat = [glrep.to_coords(m) for m in d.model.H]
    fb = (d.rep.to_coords(d.expansion.f_b)
          if d.expansion.f_b is not None else None)
    for k in d.K0:
        assert coords_in_basis(h_flat, glrep.to_coords(k)) is not None
        if fb is not None:
            assert not any(d.model.star(k, fb))


def test_reconstruction_identity_100_random_pairs():
    """s (x + n) + n' = dv holds for the computed decomposition."""
    model = jn_local_model(3)
    rep = model.rep
    rng = random.Random(11)
    done = 0
    while done < 100:
        nc = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for _ in range(len(model.N))]
        n = model.n_vec(nc)
        dv = [Fraction(rng.randint(-4, 4)) for _ in range(rep.dim)]
        try:
            sc, nprime = model.solve_decomposition(n, dv)
        except Exception:
            continue                 # 1 + theta(n) singular for this n
        recon = rep.act(model.s_mat(sc),
                        [a + b for a, b in zip(model.x, n)])
        recon = [a + b for a, b in zip(recon, model.n_vec(nprime))]
        assert recon == dv
        done += 1


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.data())
def test_filtered_vs_graded_dims(data):
    """K^{>=i} is decreasing in i and refines the graded dims of K0."""
    from orbitlimits.limits import filtered_dims
    f, lam = _limit_pair(data.draw)
    try:
        d = limit_algebra(f, lam)
        fd = filtered_dims(f, lam)
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
    from orbitlimits.exactcore import RationalFn
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
        for c in kt.s_coeffs:
            c = RationalFn.coerce(c)
            if c.num:
                assert c.den(Q0)
                assert c.num.valuation() >= order
