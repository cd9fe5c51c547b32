"""Limits of forms under one-parameter subgroups: K(t), K0, feasibility."""

import copy
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlimits.examples import (LAM4, O2_LAM, O3_LAM, det3_form, o2_form,
                                  o3_form, o3_reference_kt, q4_form,
                                  q4_prime_form, O3_STRUCTURE)
from orbitlimits.exactcore import Mat, Q0, Q1, Subspace, UniPoly, lin_comb, sparse
from orbitlimits.lierep import ConjRep, Form, bracket, elementary, monomial_basis
from orbitlimits.limits import (KtElement, LimitProblem, NotGraded, OnePS,
                                _is_nil, _verify_limit_algebra, _weight_kernel,
                                check_graded_conditions, classify_case, derivation_db,
                                expand_orbit_curve, extension_feasible, filtered_dims,
                                graded_dims_of, hoffman_case, limit_algebra,
                                limit_algebra_by_conjugation, same_span, triple_stabilizers)
from orbitlimits.localmodel import LocalModel, NotTransverse, weight_split
from orbitlimits.reproduce import _by_weight, _lam_data


@pytest.fixture(scope="module")
def o2_data():
    return limit_algebra(o2_form(), O2_LAM)


@pytest.fixture(scope="module")
def o3_data():
    return limit_algebra(o3_form(), O3_LAM)


# ---------------------------------------------------------------------------
# expansions


def test_o2_expansion():
    exp = expand_orbit_curve(o2_form(), O2_LAM)
    assert (exp.a, exp.b) == (0, 2)
    assert exp.g == Form(2, 4, {(0, 4): 1})          # y^4
    assert exp.f_b == Form(2, 4, {(2, 2): 2})        # 2 y^2 z^2


def test_trivial_oneps_gives_whole_form():
    f = o2_form()
    exp = expand_orbit_curve(f, OnePS([0, 0]))
    assert exp.g == f and exp.b is None


# ---------------------------------------------------------------------------
# O2: K(t), K0, feasibility


def gl(m):
    """The coordinates of the matrix m as an element of gl(n)."""
    return ConjRep(m.rows).to_coords(m)


def test_o2_kt_and_k0(o2_data):
    assert len(o2_data.Kt) == 1
    kt = ConjRep(2).from_coords(o2_data.Kt[0].coords)
    alpha = kt.a[0][1]
    assert alpha
    assert kt.a[1][0] == alpha * UniPoly.t(2, -1)
    k0 = o2_data.K0[0]
    assert k0 == elementary(2, 0, 1, k0.a[0][1])


def _wrongly_regraded(problem):
    """K(t) with one k(t) = h(t) + s(t) replaced by h(t) + t s(t): it has the
    same K0 and an s-part of higher order, and equals k(t) at t = 1."""
    t = UniPoly.t(1, 1)
    i, kt = next((i, kt) for i, kt in enumerate(problem.Kt) if kt.s_coeffs)
    s = problem.model.s_vec(kt.s_coeffs)
    wrong = list(problem.Kt)
    wrong[i] = KtElement({j: t * c for j, c in kt.s_coeffs.items()},
                         lin_comb({0: Q1, 1: t - 1}, [kt.coords, s]))
    return wrong


def test_verification_catches_a_wrong_regrading(o2_data):
    """Only a check away from t = 1 can tell `_wrongly_regraded` is wrong."""
    _verify_limit_algebra(o2_data)
    wrong = copy.copy(o2_data)
    wrong.Kt = _wrongly_regraded(o2_data)
    with pytest.raises(ValueError, match="does not annihilate"):
        _verify_limit_algebra(wrong)


def test_no_k0_is_read_off_an_unverified_kt(o2_data):
    """A problem whose K(t) fails verification raises on every read of K0 and
    of what is derived from it, and keeps nothing."""
    problem = LimitProblem(o2_form(), O2_LAM)
    problem.Kt = _wrongly_regraded(o2_data)
    reads = [lambda p: p.K0_coords, lambda p: p.K0, lambda p: p.K0_span, lambda p: p.beta,
             lambda p: p.graded_dims, limit_algebra, derivation_db, extension_feasible,
             check_graded_conditions]
    for read in reads:
        with pytest.raises(ValueError, match="does not annihilate"):
            read(problem)
    assert "_verified" not in vars(problem) and "K0" not in vars(problem)


def test_kt_is_built_once_per_problem(monkeypatch):
    """limit_algebra twice, then the feasibility test and the case decision on
    one problem: the slice equations are solved once."""
    calls = []
    solve = LocalModel.slice_equations

    def counted(self, n):
        calls.append(n)
        return solve(self, n)

    monkeypatch.setattr(LocalModel, "slice_equations", counted)
    problem = LimitProblem(o2_form(), O2_LAM)
    assert limit_algebra(problem) is problem
    assert limit_algebra(problem) is problem
    assert extension_feasible(problem)
    assert classify_case(problem) == "A"
    assert len(calls) == 1


def test_verification_catches_a_kt_that_agrees_at_one_half(o2_data):
    """k(t) + (2t - 1) t^(b-a) s for an s in S equals k(t) at t = 1/2 and has
    the same K0 and an s-part divisible by t^(b-a), but it is not a
    polynomial identity: (2t - 1) t^(b-a) s.g is not 0."""
    t = UniPoly.t(1, 1)
    bump = (t * 2 - 1) * UniPoly.t(o2_data.expansion.b - o2_data.expansion.a, 1)
    kt = o2_data.Kt[0]
    s_coeffs = dict(kt.s_coeffs)
    s_coeffs[0] = s_coeffs.get(0, UniPoly.zero()) + bump
    wrong = copy.copy(o2_data)
    wrong.Kt = [KtElement(s_coeffs, lin_comb({0: Q1, 1: bump}, [kt.coords, o2_data.model.S[0]]))]
    wrong.Kt += o2_data.Kt[1:]
    def at(v, x):
        return {j: y for j, p in v.items() if (y := p(x))}

    assert at(wrong.Kt[0].coords, Fraction(1, 2)) == at(kt.coords, Fraction(1, 2))
    assert at(wrong.Kt[0].coords, 0) == at(kt.coords, 0)
    with pytest.raises(ValueError, match="does not annihilate"):
        _verify_limit_algebra(wrong)


def test_o2_feasibility(o2_data):
    feas = extension_feasible(o2_data)
    assert feas.feasible
    assert feas.hoffman == 3
    assert feas.regular == (True, True)


def test_o2_case_classification():
    assert classify_case(LimitProblem(o2_form(), O2_LAM)) == "A"


def test_o2_filtered_dims():
    fd = filtered_dims(LimitProblem(o2_form(), O2_LAM))
    # dim K = 1 and the element has a weight -1 component
    assert fd[-1] == 1 and fd[0] == 0


# ---------------------------------------------------------------------------
# O3: structure constants over Q(t)


def test_o3_kt_spans_printed_basis(o3_data):
    assert len(o3_data.Kt) == 3
    assert same_span([kt.coords for kt in o3_data.Kt], [gl(m) for m in o3_reference_kt()], 3)


def test_o3_printed_structure_constants():
    kt = [gl(m) for m in o3_reference_kt()]
    for (i, j), coeffs in O3_STRUCTURE.items():
        assert bracket(kt[i], kt[j], 3) == lin_comb(dict(enumerate(coeffs)), kt)


def test_o3_case_classification():
    assert classify_case(LimitProblem(o3_form(), O3_LAM)) == "B"


def test_o3_computed_structure_closed(o3_data):
    assert sorted(o3_data.closed_pairs()) == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# dual pipeline


def test_dual_pipeline_o2():
    d1 = limit_algebra(o2_form(), O2_LAM)
    d2 = limit_algebra_by_conjugation(LimitProblem(o2_form(), O2_LAM))
    assert same_span(d1.K0_coords, d2, 2)


def test_dual_pipeline_o3():
    d1 = limit_algebra(o3_form(), O3_LAM)
    d2 = limit_algebra_by_conjugation(LimitProblem(o3_form(), O3_LAM))
    assert same_span(d1.K0_coords, d2, 3)


# ---------------------------------------------------------------------------
# det3 with lambda_4 (the cheapest-to-state full-size case)


@pytest.fixture(scope="module")
def lam4_data():
    return _lam_data("l4")


def test_lam4_expansion(lam4_data):
    exp = lam4_data.expansion
    assert (exp.a, exp.b) == (1, 2)
    assert exp.g == q4_form()
    assert exp.f_b == q4_prime_form()


def test_lam4_k0_dims(lam4_data):
    assert len(lam4_data.K0) == 16
    assert _by_weight(lam4_data.graded_dims) == (1, 10, 5)


def test_lam4_filtered_dims():
    fd = filtered_dims(LimitProblem(det3_form(), LAM4))
    assert fd == {-1: 16, 0: 11, 1: 1, 2: 0}


def test_lam4_triple_stabilizers():
    problem = LimitProblem(det3_form(), LAM4)
    assert _by_weight(triple_stabilizers(problem).Klf_dims) == (1, 6, 1)
    assert len(problem.K) == 16


# ---------------------------------------------------------------------------
# graded conditions and K0 invariants


def test_o2_graded_conditions(o2_data):
    conds = check_graded_conditions(o2_data)
    assert conds and all(c["status"] in ("solved", "zero") for c in conds)


def test_graded_conditions_of_lambda_homogeneous_form():
    # x^2 is fixed up to scale by lambda: no f_b, so no leading-order condition
    data = limit_algebra(Form(2, 2, {(2, 0): 1}), OnePS([1, 0]))
    assert data.expansion.f_b is None
    assert check_graded_conditions(data) == []


def _graded_conditions_by_subspaces(problem):
    """The graded conditions with a Subspace of S_w.g for each weight w: S_w is
    spanned by the weight-w components of the S basis, and h_w.f_b must lie in
    S_(b-a+w).g."""
    model, rep, glw = problem.model, problem.rep, problem.glw
    exp = problem.expansion
    if exp.f_b is None:
        return []
    s_comps = {}
    for s in model.S:
        for w, part in weight_split(s, glw).items():
            s_comps.setdefault(w, []).append(part)
    fb, g = rep.to_coords(exp.f_b), rep.to_coords(exp.g)
    d = exp.b - exp.a
    case = "b-a=1" if d == 1 else ("b-a=2" if d == 2 else "b-a>2")
    report = []
    for ki, k in enumerate(problem.K0_coords):
        for w, hw in sorted(weight_split(k, glw).items()):
            target = rep.act(hw, fb)
            entry = {"element": ki, "weight": w, "s_weight": d + w, "case": case}
            if not target:
                entry["status"] = "zero"
            elif d + w in s_comps:
                span = Subspace(rep.dim, [rep.act(s, g) for s in s_comps[d + w]])
                entry["status"] = "solved" if target in span else "unsolvable"
            else:
                entry["status"] = "nonzero-no-s"
            report.append(entry)
    return report


def _random_gl_elements(rng, glw, count):
    """count random gl elements, each supported on one or two weights of glw."""
    weights = sorted(set(glw))
    out = []
    for _ in range(count):
        ws = rng.sample(weights, min(len(weights), rng.randint(1, 2)))
        coords = [Fraction(rng.randint(-2, 2)) if w in ws else Q0 for w in glw]
        out.append(sparse(coords))
    return out


def test_graded_conditions_match_the_subspace_formulation():
    rng = random.Random(17)
    statuses = Counter()
    done = 0
    while done < 30:
        nvars, degree = rng.randint(2, 3), rng.randint(2, 4)
        basis = monomial_basis(nvars, degree)
        terms = {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                 for e in rng.sample(basis, rng.randint(2, min(5, len(basis))))}
        lam = OnePS([rng.randint(-2, 2) for _ in range(nvars)])
        try:
            data = limit_algebra(Form(nvars, degree, terms), lam)
        except (NotTransverse, ValueError):
            continue
        if data.expansion.f_b is None:
            continue
        done += 1
        assert check_graded_conditions(data) == _graded_conditions_by_subspaces(data)
        # the same problem with K0 replaced by random gl elements
        fake = copy.copy(data)
        fake._verified = (_random_gl_elements(rng, data.glw, 4), None, None)
        report = check_graded_conditions(fake)
        assert report == _graded_conditions_by_subspaces(fake)
        statuses.update(e["status"] for e in report)
    assert set(statuses) == {"zero", "solved", "unsolvable", "nonzero-no-s"}


def test_k0_killed_by_star(o2_data):
    # every k in K0 lies in H and annihilates f_b modulo the tangent space
    model = o2_data.model
    rep = o2_data.rep
    fb = rep.to_coords(o2_data.expansion.f_b)
    h_span = Subspace(4, model.H)
    for k in o2_data.K0_coords:
        assert h_span.coords(k) is not None
        # star-annihilation: lambda_N(k . f_b) = 0
        assert not model.star(k, fb)


def test_k0_bracket_closed(o3_data):
    glrep = ConjRep(3)
    K0 = o3_data.K0
    span = Subspace(glrep.dim, [glrep.to_coords(m) for m in K0])
    for i in range(len(K0)):
        for j in range(i + 1, len(K0)):
            br = glrep.to_coords(K0[i] * K0[j] - K0[j] * K0[i])
            assert span.coords(br) is not None


def test_hoffman_requires_codim_one():
    H = [gl(elementary(2, 0, 1)), gl(elementary(2, 1, 0))]
    assert hoffman_case(H, H, 2) is None


def test_hoffman_trichotomy_branches():
    e, f = gl(elementary(2, 0, 1)), gl(elementary(2, 1, 0))
    h = gl(Mat.rational([[1, 0], [0, -1]]))
    # the Borel <e, h> of sl2 contains no nonzero ideal of sl2
    assert hoffman_case([e, f, h], [e, h], 2) == 1
    # <h> inside <h, e>: the largest ideal inside <h> is 0, of codim 1
    assert hoffman_case([h, e], [h], 2) == 2
    # <e> is an ideal of <h, e>
    assert hoffman_case([h, e], [e], 2) == 3


def _codim_of_largest_ideal(ad, phi) -> int:
    """Codimension in ker phi of the largest ad-stable subspace inside it, from
    the dual side: that subspace is the annihilator of the smallest subspace D
    of functionals that contains phi and is closed under psi -> psi∘ad(h), so
    the codimension is dim D - 1.  sympy ranks decide each step."""
    D = [sympy.Matrix([phi])]
    for psi in D:       # D grows while it is walked
        for a in ad:
            cand = psi * a
            if sympy.Matrix.vstack(*D, cand).rank() > len(D):
                D.append(cand)
    return len(D) - 1


@pytest.mark.parametrize("n,positions,expected", [
    (2, [(i, j) for i in range(2) for j in range(2)], {1: 4, 3: 1}),        # gl(2)
    (3, [(i, j) for i in range(3) for j in range(i, 3)], {2: 6, 3: 13}),    # b(3)
])
def test_hoffman_case_against_dual_oracle(n, positions, expected):
    """Every codimension-1 subalgebra ker phi, phi in {-1, 0, 1}^dim H, of H
    spanned by the elementary matrices at `positions`; phi and -phi give one
    kernel, counted once.  Between them the two algebras reach all three cases."""
    H = [elementary(n, i, j) for i, j in positions]
    ad = [sympy.Matrix([[(h * hj - hj * h).a[i][j] for hj in H] for i, j in positions])
          for h in H]
    seen = Counter()
    for phi in itertools.product((-1, 0, 1), repeat=len(H)):
        p = next((k for k, c in enumerate(phi) if c), None)
        if p is None or phi[p] < 0:      # zero, or the same kernel as -phi
            continue
        K0 = [H[j] - H[p].scale(Fraction(phi[j], phi[p])) for j in range(len(H)) if j != p]
        if any(sum(c * (a * b - b * a).a[i][j] for c, (i, j) in zip(phi, positions))
               for a in K0 for b in K0):
            continue                     # ker phi is not a subalgebra
        codim = _codim_of_largest_ideal(ad, phi)
        case = hoffman_case([gl(m) for m in H], [gl(m) for m in K0], n)
        assert case == {0: 3, 1: 2, 2: 1}.get(codim), phi
        seen[case] += 1
    assert seen == expected


def test_nil_test_on_sl2_and_the_upper_triangular_algebra():
    # e, f and h + e - f are each nilpotent, but they span sl(2)
    e, f, h = {1: 1}, {2: 1}, {0: 1, 3: -1}
    assert not _is_nil([e, f, lin_comb({0: 1, 1: 1, 2: -1}, [h, e, f])], ConjRep(2))
    # E_01, E_02, E_12: the strictly upper-triangular 3 x 3 matrices
    assert _is_nil([{1: 1}, {2: 1}, {5: 1}], ConjRep(3))
    assert _is_nil([], ConjRep(3))


def _nilpotent_by_sympy(g: dict, n: int) -> bool:
    x = sympy.Symbol("x")
    m = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(g.get(i * n + j, 0))))
    return m.charpoly(x).as_expr() == x ** n


# x^4, x^2 Q and Q^2 with Q = y^2 - 2xz span the quartics killed by the
# nilpotent x d/dy + y d/dz, and most of their combinations by nothing else
_NIL_STABLE_QUARTICS = [{(4, 0, 0): 1}, {(2, 2, 0): 1, (3, 0, 1): -2},
                        {(0, 4, 0): 1, (1, 2, 1): -4, (2, 0, 2): 4}]


def _random_form(rng: random.Random) -> Form:
    """A sparse random form, or a combination of the quartics above in
    permuted variables, whose K ∩ p is then often nonzero and nil."""
    coef = [-3, -2, -1, 1, 2, 3]
    if rng.random() < 0.5:
        n, d = rng.randint(2, 4), rng.randint(2, 4)
        basis = monomial_basis(n, d)
        return Form(n, d, {e: rng.choice(coef)
                           for e in rng.sample(basis, min(len(basis), rng.randint(2, 5)))})
    perm = rng.sample(range(3), 3)
    f = Form(3, 4, {})
    for q in _NIL_STABLE_QUARTICS:
        f = f + Form(3, 4, {tuple(e[i] for i in perm): x for e, x in q.items()}).scale(
            rng.choice(coef))
    return f


def test_case_b_exactly_when_k_cap_p_is_not_nil():
    """Where classify_case answers B with no pure element, a seeded integer
    combination of the basis of q = K ∩ p is not nilpotent by sympy's
    charpoly; where it answers A, every one is, and so is every seeded
    combination of the basis of K0 taken by conjugation."""
    rng, k0_rng = random.Random(5), random.Random(6)
    seen = Counter()
    while min(seen["A", True], seen["B", True]) < 10:
        f = _random_form(rng)
        problem = LimitProblem(f, OnePS([rng.randint(-3, 3) for _ in range(f.nvars)]))
        if not f or problem.triple.pure:
            continue
        K, glw, n = problem.K, problem.glw, f.nvars
        q = [lin_comb(alpha, K) for alpha in _weight_kernel(K, glw, lambda w: w < 0)]
        case = classify_case(problem)
        combos = q + [lin_comb(sparse([rng.randint(-5, 5) for _ in q]), q) for _ in range(4)]
        assert all(_nilpotent_by_sympy(g, n) for g in combos) == (case == "A"), (f, problem.lam)
        if case == "A":
            K0 = limit_algebra_by_conjugation(problem)
            K0 += [lin_comb(sparse([k0_rng.randint(-5, 5) for _ in K0]), K0) for _ in range(4)]
            assert all(_nilpotent_by_sympy(g, n) for g in K0), (f, problem.lam)
        seen[case, bool(q)] += 1


# ---------------------------------------------------------------------------
# graded dims against sympy


@st.composite
def _weighted_vectors(draw):
    """(vectors, coordinate weights): weight-pure vectors mixed by a random
    invertible-or-not combination (graded, possibly with dependent
    generators), or vectors drawn freely (usually not graded)."""
    D = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(-2, 2), min_size=D, max_size=D))
    entry = st.integers(-2, 2).map(Fraction)
    if draw(st.booleans()):
        pure = []
        for _ in range(draw(st.integers(1, D))):
            w = draw(st.sampled_from(weights))
            pure.append([draw(entry) if weights[i] == w else Q0 for i in range(D)])
        mix = draw(st.lists(st.lists(entry, min_size=len(pure), max_size=len(pure)),
                            min_size=1, max_size=len(pure) + 1))
        vectors = [[sum((c * v[i] for c, v in zip(row, pure)), Q0) for i in range(D)]
                   for row in mix]
    else:
        vectors = draw(st.lists(st.lists(entry, min_size=D, max_size=D),
                                min_size=1, max_size=D))
    return vectors, weights


@settings(max_examples=200, deadline=None)
@given(_weighted_vectors())
def test_graded_dims_of_against_sympy(case):
    """dim(span ∩ V_w) = dim U + dim V_w - dim(U + V_w) by sympy ranks, where
    V_w is the weight-w coordinate subspace; the span is graded exactly when
    these add up to dim U."""
    vectors, weights = case
    U = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                      for v in vectors])
    dim_u = U.rank()
    expected = {}
    for w in sorted(set(weights)):
        Vw = sympy.Matrix([[1 if k == i else 0 for k in range(len(weights))]
                           for i, x in enumerate(weights) if x == w])
        d = dim_u + Vw.rows - sympy.Matrix.vstack(U, Vw).rank()
        if d:
            expected[w] = d
    if sum(expected.values()) == dim_u:
        assert graded_dims_of([sparse(v) for v in vectors], weights) == expected
    else:
        with pytest.raises(NotGraded):
            graded_dims_of([sparse(v) for v in vectors], weights)


@settings(max_examples=200, deadline=None)
@given(_weighted_vectors())
@example(([[Q1, Q1], [Q1, Q0]], [0, 1]))      # graded, spanned by an impure basis
@example(([[Q1, Q1]], [0, 1]))                # not graded
def test_graded_dims_of_against_the_weight_kernels(case):
    """dim(span ∩ V_w) is the dimension of the combinations whose other
    weights vanish (`_weight_kernel`) less that of the dependencies among
    the vectors; the span is graded exactly when these add up to its
    dimension."""
    vectors, weights = case
    vectors = [sparse(v) for v in vectors]
    deps = len(_weight_kernel(vectors, weights, lambda w: True))
    expected = {}
    for w in sorted(set(weights)):
        if d := len(_weight_kernel(vectors, weights, lambda x: x != w)) - deps:
            expected[w] = d
    if sum(expected.values()) == len(vectors) - deps:
        assert graded_dims_of(vectors, weights) == expected
    else:
        with pytest.raises(NotGraded):
            graded_dims_of(vectors, weights)


def _det_form(n: int) -> Form:
    """The determinant of the generic n x n matrix, variables row-major."""
    terms = {}
    for p in itertools.permutations(range(n)):
        e = [0] * (n * n)
        for i, j in enumerate(p):
            e[i * n + j] = 1
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        terms[tuple(e)] = Fraction((-1) ** inversions)
    return Form(n * n, n, terms)


def test_det4_limit_under_weight_one_on_five_variables():
    """det4 (dim V = 3,876) with the unit vectors of N never added to V."""
    data = limit_algebra(_det_form(4), OnePS([1] * 5 + [0] * 11))
    rep, g = data.rep, data.rep.to_coords(data.expansion.g)
    assert len(data.K0_coords) == 30
    assert all(not rep.act(k, g) for k in data.K0_coords)
    assert data.graded_dims == {1: 2, 0: 20, -1: 8}
    assert extension_feasible(data)
