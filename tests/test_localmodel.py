"""Local model at a base point: splittings, theta map, slice stabilizers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qt_oracle
from orbitlimits.exactcore import (Mat, Q1, SingularMatrix, Subspace, UniPoly, dense, lin_comb,
                                   sparse)
from orbitlimits.lierep import (ConjRep, Form, SymRep, elementary, monomial_basis,
                                stabilizer_algebra)
from orbitlimits.localmodel import NotTransverse, build_local_model


def _g(a, b, c) -> dict:
    """The element [[a, b], [c, -a]] of sl(2), in gl coordinates."""
    return ConjRep(2).to_coords(Mat.rational([[a, b], [c, -a]]))


@pytest.fixture(scope="module")
def sl2_model():
    rep = SymRep(2, 2)
    ambient = [_g(1, 0, 0), _g(0, 1, 0), _g(0, 0, 1)]
    x = rep.to_coords(Form(2, 2, {(2, 0): 1}))
    return rep, x, build_local_model(rep, x, ambient=ambient)


def test_sl2_splitting_dims(sl2_model):
    rep, x, model = sl2_model
    assert (len(model.H), len(model.S), len(model.N)) == (1, 2, 1)
    assert model.verify() is True


def test_sl2_theta_and_inverse(sl2_model):
    rep, x, model = sl2_model
    n = rep.to_coords(Form(2, 2, {(0, 2): 1}))        # y^2
    theta = model.theta_matrix(n)
    # theta(y^2) maps x^2 to -y^2 and kills xy and y^2
    assert [[str(c) for c in row] for row in theta.a] == \
        [["0", "0", "0"], ["0", "0", "0"], ["-1", "0", "0"]]
    # (1 + theta)^{-1} = 1 - theta here since theta^2 = 0
    inv_cols = model.inv_one_plus_theta(n, [{j: Q1} for j in range(3)])
    inv = Mat.from_cols([dense(c, 3) for c in inv_cols])
    assert (Mat.identity(3) + theta) * inv == Mat.identity(3)


def test_sl2_slice_completion(sl2_model):
    rep, x, model = sl2_model
    n = rep.to_coords(Form(2, 2, {(0, 2): 1}))
    stab = model.slice_stabilizer(n)
    assert len(stab) == 1
    el = stab[0]
    c = el.get(2)
    assert c and el == {k: c * x for k, x in _g(0, -1, 1).items()}
    # the completed element stabilizes x^2 + y^2
    p2 = lin_comb({0: Q1, 1: Q1}, [x, n])
    assert not rep.act(el, p2)


def test_solve_decomposition_reconstructs(sl2_model):
    rep, x, model = sl2_model
    rng = random.Random(3)
    for _ in range(25):
        nc = sparse([Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
        n = model.n_vec(nc)
        dv = sparse([Fraction(rng.randint(-3, 3)) for _ in range(rep.dim)])
        sc, nprime = model.solve_decomposition(n, dv)
        recon = rep.act(model.s_vec(sc), lin_comb({0: Q1, 1: Q1}, [x, n]))
        recon = lin_comb({0: Q1, 1: Q1}, [recon, model.n_vec(nprime)])
        assert recon == dv


def test_star_action_matches_quotient(sl2_model):
    rep, x, model = sl2_model
    n = rep.to_coords(Form(2, 2, {(0, 2): 1}))
    h = model.H[0]
    hn = rep.act(h, n)
    assert model.star(h, n) == model.lamN(hn)


def test_explicit_policy_validates_complement():
    rep = ConjRep(2)
    j = Mat.rational([[0, 1], [0, 0]])
    x = rep.to_coords(j)
    # a supplied S that overlaps the stabilizer must be rejected
    with pytest.raises(NotTransverse, match="supplied S is not a complement of the stabilizer"):
        build_local_model(rep, x, S=[rep.to_coords(m) for m in
                                     (j, Mat.identity(2), elementary(2, 1, 0))])


@pytest.mark.parametrize("N", [
    [{1: Q1}],                          # xy lies in the tangent space x·(x, y)
    [{2: Q1}, {2: Q1}],                 # y^2 twice: too many vectors
    [],                                 # too few
])
def test_supplied_N_must_complement_the_tangent_space(N):
    rep = SymRep(2, 2)
    x = rep.to_coords(Form(2, 2, {(2, 0): 1}))
    with pytest.raises(NotTransverse, match="supplied N is not a complement of the tangent space"):
        build_local_model(rep, x, N=N)


def test_N_contains_must_meet_the_tangent_space_only_in_zero():
    rep = SymRep(2, 2)
    x = rep.to_coords(Form(2, 2, {(2, 0): 1}))
    with pytest.raises(NotTransverse, match="N_contains meets the tangent space"):
        build_local_model(rep, x, N_contains=[{2: Q1}, {0: Q1, 1: Q1}])
    # y^2 alone is a complement, so N is just y^2
    model = build_local_model(rep, x, N_contains=[{2: Q1}])
    assert model.N == [{2: Q1}] and model.verify()


@pytest.mark.parametrize("N_contains", [
    [{1: Q1}],                          # xy lies in the tangent space
    [{1: Q1, 2: Q1}, {1: -Q1, 2: Q1}],  # neither lies in it, but their span holds xy
])
def test_N_contains_inside_the_tangent_space_is_rejected(N_contains):
    rep = SymRep(2, 2)
    x = rep.to_coords(Form(2, 2, {(2, 0): 1}))
    with pytest.raises(NotTransverse, match="N_contains meets the tangent space"):
        build_local_model(rep, x, N_contains=N_contains)


def test_split_over_N_contains_and_unit_vectors():
    """With N = N_contains followed by unit vectors, lambda_S and lambda_N
    rebuild v over TO and N, and lambda_N(v) is empty exactly on TO."""
    rng = random.Random(8)
    checked = 0
    while checked < 12:
        nvars, degree = rng.randint(2, 3), rng.randint(2, 3)
        rep = SymRep(nvars, degree)
        basis = monomial_basis(nvars, degree)
        x = rep.to_coords(Form(nvars, degree, {e: Fraction(rng.choice([-2, -1, 1, 2]))
                                               for e in rng.sample(basis, rng.randint(1, 3))}))
        tail = [dict(zip(rng.sample(range(rep.dim), 2), (Q1, Fraction(rng.choice([-2, -1, 1, 2])))))
                for _ in range(rng.randint(1, 2))]
        try:
            model = build_local_model(rep, x, N_contains=tail)
        except NotTransverse:
            continue
        units = model.N[len(tail):]
        if not units:
            continue
        assert model.N[:len(tail)] == tail
        assert all(len(v) == 1 and set(v.values()) == {Q1} for v in units)
        assert [min(v) for v in units] == sorted(min(v) for v in units)
        checked += 1
        for inside in (False, True):
            v = sparse([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rep.dim)])
            if inside:
                v = lin_comb({i: Fraction(rng.randint(-3, 3)) for i in range(len(model.TO))},
                             model.TO)
            s, n = model.split_V(v)
            assert lin_comb({0: Q1, 1: Q1}, [lin_comb(s, model.TO), model.n_vec(n)]) == v
            assert (not n) == (v in Subspace(rep.dim, model.TO))
        for nv in model.N:
            assert model.split_V(nv) == ({}, {model.N.index(nv): Q1})


def test_zero_base_point_rejected():
    rep = SymRep(2, 2)
    with pytest.raises(ValueError):
        build_local_model(rep, {})


def test_orthogonal_policy_full_gl():
    rep = SymRep(2, 2)
    f = Form(2, 2, {(2, 0): 1, (0, 2): 1})
    model = build_local_model(rep, rep.to_coords(f))
    assert len(model.H) + len(model.S) == 4
    assert len(model.TO) + len(model.N) == rep.dim
    assert model.verify() is True


def test_weighted_model_has_weight_pure_bases():
    rep, weights = SymRep(3, 2), [1, 0, -1]
    x = rep.to_coords(Form(3, 2, {(1, 0, 1): 1, (0, 2, 0): 1}))      # xz + y^2, weight 0
    model = build_local_model(rep, x, weights=weights)
    glw = rep.gl_weights(weights)
    cw = rep.coord_weights(weights)
    for m in model.H + model.S:
        assert len({glw[i] for i in m}) == 1
    for v in model.N:
        assert len({cw[i] for i in v}) == 1
    # x^2 + y^2 has stabilizer so(2), spanned by E_01 - E_10 of weights -1 and 1
    x = rep.to_coords(Form(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1}))
    with pytest.raises(ValueError, match="^subspace is not weight-graded$"):
        build_local_model(rep, x, weights=weights)


def test_weights_and_ambient_are_exclusive():
    # the weight-purity test covers the kernel bases of the full gl only
    rep = SymRep(2, 2)
    ambient = [_g(1, 0, 0), _g(0, 1, 0), _g(0, 0, 1)]
    x = rep.to_coords(Form(2, 2, {(2, 0): 1}))
    with pytest.raises(ValueError, match="^weights and ambient cannot both be given$"):
        build_local_model(rep, x, weights=[1, 0], ambient=ambient)


@st.composite
def _homogeneous_points(draw):
    """(rep, x, weights): a nonzero form (2-3 variables, degree 2-3) or 2x2 or
    3x3 matrix whose coordinates all have one weight under random weights."""
    n = draw(st.integers(2, 3))
    rep = draw(st.sampled_from([ConjRep(n), SymRep(n, 2), SymRep(n, 3)]))
    weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    cw = rep.coord_weights(weights)
    w = draw(st.sampled_from(cw))
    coords = [i for i in range(rep.dim) if cw[i] == w]
    values = draw(st.lists(st.integers(-3, 3), min_size=len(coords), max_size=len(coords)))
    x = {i: c for i, c in zip(coords, values) if c}
    if not x:
        x = {coords[0]: 1}
    return rep, x, weights


@settings(max_examples=60, deadline=None)
@given(_homogeneous_points())
def test_weighted_model_at_a_homogeneous_point_is_the_unweighted_one(case):
    """H, S and N are kernel bases, each the unique one that is the identity
    on its columns; at a weight-homogeneous point they are graded, so the
    weights only check them."""
    rep, x, weights = case
    plain, weighted = build_local_model(rep, x), build_local_model(rep, x, weights=weights)
    assert (weighted.H, weighted.S, weighted.N) == (plain.H, plain.S, plain.N)


def _random_models(rng, count):
    """count local models with orthogonal complements, alternately at a random
    form (2-3 variables, degree 2-3, 1-3 terms) and a random 2x2 or 3x3 matrix."""
    made = 0
    while made < count:
        if made % 2:
            n = rng.randint(2, 3)
            rep = ConjRep(n)
            x = rep.to_coords(Mat([[Fraction(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)]
                                   for _ in range(n)]))
        else:
            nvars, degree = rng.randint(2, 3), rng.randint(2, 3)
            rep = SymRep(nvars, degree)
            terms = {e: Fraction(rng.choice([-2, -1, 1, 2]))
                     for e in rng.sample(monomial_basis(nvars, degree), rng.randint(1, 3))}
            x = rep.to_coords(Form(nvars, degree, terms))
        if x:
            made += 1
            yield rep, x, build_local_model(rep, x)


def _slice_points(rng, model, count):
    for _ in range(count):
        yield model.n_vec(sparse([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in model.N]))


def test_slice_stabilizer_is_the_stabilizer_of_the_slice_point():
    # k = h + s kills x + n exactly when h.n + (1 + theta(n))(s.x) = 0, so where
    # 1 + theta(n) is invertible the slice stabilizer is all of stab(x + n)
    rng = random.Random(5)
    checked = 0
    for rep, x, model in _random_models(rng, 24):
        for n in _slice_points(rng, model, 3):
            try:
                stab = model.slice_stabilizer(n)
            except SingularMatrix:
                continue
            p = lin_comb({0: Q1, 1: Q1}, [x, n])
            assert all(not rep.act(k, p) for k in stab)
            assert len(stab) == len(stabilizer_algebra(rep, p))
            checked += 1
    assert checked >= 60


def test_theta_matrix_columns_are_lamS_times_n():
    # the definition: column k of theta(n) is lambda_S(e_k) . n
    rng = random.Random(6)
    for rep, x, model in _random_models(rng, 16):
        for n in _slice_points(rng, model, 2):
            cols, theta = model.theta_columns(n), model.theta_matrix(n)
            assert len(cols) == rep.dim and (theta.rows, theta.cols) == (rep.dim, rep.dim)
            for k in range(rep.dim):
                want = rep.act(model.s_vec(model.lamS({k: Q1})), n)
                assert cols[k] == want
                assert [theta[i, k] for i in range(rep.dim)] == dense(want, rep.dim)


def test_denominators_over_qt_divide_delta():
    # along n(t) = t n1, (1 + theta(n(t)))^-1 is solved through C, whose
    # determinant is Delta, so Delta is a common denominator of every result;
    # the results come from sympy over QQ(t)
    rng = random.Random(8)
    nonconstant = 0
    for rep, x, model in _random_models(rng, 12):
        n_t = {i: UniPoly.t(1, a) for i, a in next(_slice_points(rng, model, 1)).items()}
        delta = UniPoly.coerce(model.delta(n_t))
        ws = qt_oracle.inv_one_plus_theta(model, n_t, [rep.act(h, n_t) for h in model.H])
        if ws is None:
            continue
        nonconstant += delta.degree() > 0
        for row in ws.to_list():
            for c in row:
                assert not delta.divmod(qt_oracle.poly_parts(c)[1])[1]
    assert nonconstant >= 4
