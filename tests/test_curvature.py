"""Second fundamental forms, Gauss curvature contraction, worked models."""

from fractions import Fraction

import pytest

from test_subspace import exact_types
from orbitlimits.curvature import (L_op, _e, _project_off, adjoint_offdiagonal_vanishing,
                                   adjoint_pi, block_pi, block_pi_verify,
                                   chart_second_fundamental_form, cyc_power,
                                   cyclic_chart_form, cyclic_shift,
                                   cyclic_shift_suite, ell_bar, gamma_squared,
                                   p_closed, p_trace, riemann_and_ricci,
                                   second_fundamental_form, sphere_model,
                                   sphere_ricci)
from orbitlimits.exactcore import Mat, Q0
from orbitlimits.lierep import ConjRep


# ---------------------------------------------------------------------------
# sphere


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [Fraction(1), Fraction(2), Fraction(3, 2)])
def test_sphere_ricci_exact(m, r):
    ric = sphere_ricci(m, r)
    for i in range(m):
        for j in range(m):
            expected = Fraction(m - 1) / (r * r) if i == j else Q0
            assert ric[i][j] == expected


def test_sphere_second_form_skew_and_symmetric():
    curv = second_fundamental_form(*sphere_model(3, Fraction(2)))
    assert curv.skew is True
    assert curv.beta_is_minus_alpha is True
    L = curv.tangent_dim
    assert all(curv.pi[i][j] == curv.pi[j][i] for i in range(L) for j in range(L))


def test_non_orthonormal_frame_rejected():
    rep, x, S, N = sphere_model(2, Fraction(2))
    bad = [{k: 2 * c for k, c in S[0].items()}, S[1]]
    with pytest.raises(ValueError, match="tangent basis"):
        second_fundamental_form(rep, x, bad, N)
    with pytest.raises(ValueError, match="normal basis is not orthonormal"):
        second_fundamental_form(rep, x, S, [{0: 2}])
    with pytest.raises(ValueError, match="not orthogonal"):
        second_fundamental_form(rep, x, S[:1], [{2: 1}, {1: 1}])


def test_second_fundamental_form_on_the_adjoint_orbit():
    """ConjRep(3) at x = diag(1, 2, 4), S the normalized e_pq and N the E_ii:
    Pi(e_pq, e_qp) = -(lam_q - lam_p) d_pq, with d_pq from `adjoint_pi`,
    and every other component vanishes."""
    lams = [1, 2, 4]
    rep = ConjRep(3)
    pairs = [(p, q) for p in range(3) for q in range(3) if p != q]
    curv = second_fundamental_form(rep, {0: 1, 4: 2, 8: 4}, [_e(lams, p, q) for p, q in pairs],
                                   [{4 * i: 1} for i in range(3)])
    d = adjoint_pi(lams)
    for a, (p, q) in enumerate(pairs):
        for b, (r, s) in enumerate(pairs):
            want = ([-(lams[q] - lams[p]) * x for x in d[(p, q)]] if (r, s) == (q, p)
                    else [0] * 3)
            assert curv.pi[a][b] == want and exact_types(curv.pi[a][b])
    assert curv.skew is False and curv.beta_is_minus_alpha is None


# ---------------------------------------------------------------------------
# adjoint orbit at a regular diagonal matrix


def test_adjoint_pi_table():
    lams = (Fraction(1), Fraction(2), Fraction(4))
    table = adjoint_pi(lams)
    for (p, q), diag in table.items():
        d = (lams[q] - lams[p]) ** 2
        expected = [Q0] * 3
        expected[p] = -1 / d
        expected[q] = 1 / d
        assert diag == expected
    assert adjoint_offdiagonal_vanishing(lams)


def test_adjoint_pi_rejects_repeated_eigenvalues():
    with pytest.raises(Exception):
        adjoint_pi((Fraction(1), Fraction(1), Fraction(2)))


# ---------------------------------------------------------------------------
# block form


def test_block_pi_formula():
    X = Mat.rational([[1, 2], [3, 5]])
    Y = Mat.rational([[2, 0], [1, 4]])
    out = block_pi(X, Y)
    XY, YX = X * Y, Y * X
    for i in range(2):
        for j in range(2):
            assert out.a[i][j] == XY.a[i][j]
            assert out.a[2 + i][2 + j] == -YX.a[i][j]
            assert not out.a[i][2 + j] and not out.a[2 + i][j]


def test_block_pi_both_routes():
    X = Mat.rational([[0, 1], [1, 1]])
    Y = Mat.rational([[2, 2], [0, 3]])
    assert block_pi_verify(X, Y, Fraction(2), Fraction(5))


# ---------------------------------------------------------------------------
# cyclic shift


@pytest.mark.parametrize("n", range(3, 8))
def test_cyclic_shift_suite(n):
    suite = cyclic_shift_suite(n)
    assert suite["stabilizer_is_c_powers"]
    assert suite["ell_bar_in_S"]
    assert suite["closed_form_matches_trace"]
    assert suite["no_c0_component"]
    assert suite["gamma_squared"] == Fraction(12, n + 1)
    assert suite["gamma_constant_on_ell_ij"]
    assert suite["even_spacing_minimizes"]
    assert suite["riemann_antisymmetry"]


@pytest.mark.parametrize("n,flags", [(3, [0, 1]), (4, [0, 2]), (5, [0, 2]),
                                     (6, [0, 3]), (7, [0, 3])])
def test_cyclic_chart_vanishing_flags(n, flags):
    assert cyclic_shift_suite(n)["chart_vanishing_L"] == flags


def test_cyclic_closed_form_values():
    # spot checks of p_ij^k = (n-1)-(i+j) at k = i+j+1 mod n, k != 0
    assert p_closed(5, 0, 0) == p_trace(5, 0, 0)
    assert p_closed(5, 4, 4)[4] == Fraction(-4)
    assert not any(p_closed(5, 4, 0))   # wraps to k = 0


def test_cyclic_chart_machinery_n5():
    chart = cyclic_chart_form(5)
    assert chart.osculates is True
    assert chart.chart_matches_projection is True
    P = cyclic_shift_suite(5)["p_tables"]
    for i in range(5):
        for j in range(5):
            assert chart.pi[i][j] == \
                [Q0 if k == 1 else P[i][j][k] for k in range(5)]


def test_gamma_squared_direct():
    n = 5
    assert gamma_squared(ell_bar(n), cyclic_shift(n)) == Fraction(2)


# ---------------------------------------------------------------------------
# Gauss contraction sanity


def test_riemann_antisymmetry_on_sphere():
    curv = riemann_and_ricci(second_fundamental_form(*sphere_model(3, Fraction(1))))
    r = curv.riemann
    m = 3
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    assert r[i][j][k][l] == -r[j][i][k][l]
                    assert r[i][j][k][l] == -r[i][j][l][k]


# ---------------------------------------------------------------------------
# exact quotients on int input


def test_projection_of_int_vectors_is_exact():
    """Integer-valued vectors held as `int`s: the projection off y divides
    two dot products through `qdiv`, so an integer entry is an int and any
    other a Fraction, never a float."""
    got = _project_off({0: 1, 1: 1}, {0: 2, 2: 3})
    assert got == {0: 1, 1: -1, 2: 3} and exact_types(got.values())
    got = _project_off({0: 1, 1: 1, 2: 1}, {0: 1})
    assert got == {0: Fraction(2, 3), 1: Fraction(-1, 3), 2: Fraction(-1, 3)}
    assert exact_types(got.values())
    assert _e([1, 2, 4], 0, 2) == {2: Fraction(1, 3)} and _e([1, 2, 4], 0, 1) == {1: 1}
    assert exact_types([*_e([1, 2, 4], 0, 2).values(), *_e([1, 2, 4], 0, 1).values()])


def test_chart_form_on_int_inputs_is_exact():
    """The cyclic chart form at n = 3 with y, the s_i and the normal basis
    all as `int` coordinates equals the same computation on `Fraction`s and
    the reference, entry by entry by the scalar rule."""
    n, rep = 3, ConjRep(3)
    y = rep.to_coords(cyclic_shift(n))
    S = [rep.to_coords(L_op(n, i)) for i in range(n)]
    N = [rep.to_coords(cyc_power(n, k)) for k in range(n)]
    forms = []
    for cast in (int, Fraction):
        def vec(v):
            return {k: cast(x) for k, x in v.items()}
        forms.append(chart_second_fundamental_form(
            rep, vec(y), [vec(s) for s in S], [vec(v) for v in N]).pi)
    assert forms[0] == forms[1] == cyclic_chart_form(n).pi
    assert all(exact_types(v) for pi in forms for row in pi for v in row)


def test_chart_form_rejects_a_point_in_its_tangent_space():
    """J_3 = [h, J_3] for h = diag(1, 0, -1): y lies in gl.y."""
    rep = ConjRep(3)
    with pytest.raises(ValueError, match="not a simple point"):
        chart_second_fundamental_form(rep, {1: 1, 5: 1}, [{0: 1}], [{0: 1}])


def test_chart_form_rejects_normals_off_the_orthogonal_complement():
    """E_00 is not orthogonal to gl.c: [E_02, c] = E_00 - E_22."""
    n, rep = 3, ConjRep(3)
    y = rep.to_coords(cyclic_shift(n))
    S = [rep.to_coords(L_op(n, i)) for i in range(n)]
    with pytest.raises(ValueError, match="not orthogonal"):
        chart_second_fundamental_form(rep, y, S, [{0: 1}])
