"""Extrinsic geometry of orbits: second fundamental form, the projective
chart correction, Gauss-equation curvature, and the cyclic-shift suite.

Conventions:
  * V carries the standard inner product of its coordinate basis (for matrix
    spaces this is Tr(a b^T) in the row-major coordinates); V-vectors are
    sparse coordinate dicts, and gl elements their coordinates {i*n + j: x};
  * a Lie algebra element s acts through `rep.act`: the associated vector
    field is v |-> s.v, its value at x is the tangent vector s.x, and the
    derivative of the field of s_j along the direction s_i.x is s_j.(s_i.x);
  * the second fundamental form is reported as
        pi[i][j]^r = <v_r, s_j.(s_i.x)>        (the normal component),
    together with alpha[i][j]^r = -<x, s_j.(s_i.v_r)>, which equals
    -pi[i][j]^r whenever every s_i acts by a skew-symmetric operator;
  * the chart at y is the sphere {|v| = |y|}; its projection at y is
    P = I - y y^T / y^T y, the chart fields are v |-> P (s.v), and the chart
    second fundamental form is the normal part of P s_j.(P s_i.y).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import Mat, Subspace, _as_q, exact, lin_comb, qdiv
from .lierep import ConjRep, Representation, SymRep, _action_map_cols, stabilizer_algebra


def dot(u: dict, v: dict):
    """<u, v> of sparse vectors, over the entries of the shorter one."""
    if len(v) < len(u):
        u, v = v, u
    s = 0
    for k, x in u.items():
        if k in v:
            s = s + x * v[k]
    return exact(s)


def _check_orthonormal(vectors: list, what: str) -> None:
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            if dot(u, v) != (1 if i == j else 0):
                raise ValueError(f"{what} is not orthonormal")


def _check_orthogonal(tangents: list, N: list) -> None:
    if any(dot(t, v) for t in tangents for v in N):
        raise ValueError("normal basis is not orthogonal to the tangent space")


@dataclass
class CurvatureData:
    """Second-fundamental-form tables and (optionally) their contraction.

    pi[i][j] is the component vector of Pi(X_i, X_j) on the normal basis;
    alpha[i][j][r] is the theta-side table -<x, s_j.(s_i.v_r)>; skew says
    that every s_i is a skew-symmetric matrix; riemann is the Gauss-equation
    tensor r[i][j][k][l] and ricci its contraction R_{jk} = sum_i r[i][j][k][i].
    normal_gram is the Gram matrix of the normal basis used for inner
    products of pi-vectors (identity when the basis is orthonormal).
    """

    pi: list
    alpha: list | None = None
    skew: bool = False
    beta_is_minus_alpha: bool | None = None
    normal_gram: list | None = None
    riemann: list | None = None
    ricci: list | None = None
    osculates: bool | None = None
    chart_matches_projection: bool | None = None

    @property
    def tangent_dim(self) -> int:
        return len(self.pi)

    @property
    def normal_dim(self) -> int:
        return len(self.pi[0][0]) if self.pi and self.pi[0] else 0


def second_fundamental_form(rep: Representation, x: dict, S: list,
                            N: list) -> CurvatureData:
    """Pi and alpha tables at x for orthonormal tangent/normal bases.

    S is a basis of the tangent-generating complement in gl coordinates and
    N a basis of normal V-vectors; the tangent vectors s_i.x and N must each
    be orthonormal and mutually orthogonal (raises ValueError otherwise).
    """
    tangents = [rep.act(s, x) for s in S]
    _check_orthonormal(tangents, "tangent basis s_i.x")
    _check_orthonormal(N, "normal basis")
    _check_orthogonal(tangents, N)
    L, K = len(S), len(N)
    pi = [[[dot(v, rep.act(s_j, t_i)) for v in N] for s_j in S] for t_i in tangents]
    s_N = [[rep.act(s_i, v) for v in N] for s_i in S]
    alpha = [[[-dot(x, rep.act(s_j, w)) for w in s_N[i]] for s_j in S]
             for i in range(L)]
    n = rep.n
    skew = all(s.get(k % n * n + k // n, 0) == -c for s in S for k, c in s.items())
    beta_flag = None
    if skew:
        beta_flag = all(pi[i][j][r] == -alpha[i][j][r]
                        for i in range(L) for j in range(L) for r in range(K))
    return CurvatureData(pi=pi, alpha=alpha, skew=skew,
                         beta_is_minus_alpha=beta_flag)


def riemann_and_ricci(curv: CurvatureData) -> CurvatureData:
    """Fill in the Gauss-equation tensor and its Ricci contraction.

    r[i][j][k][l] = <Pi(X_i,X_l), Pi(X_j,X_k)> - <Pi(X_j,X_l), Pi(X_i,X_k)>,
    R_{jk} = sum_i r[i][j][k][i].
    """
    L = curv.tangent_dim
    K = curv.normal_dim
    gram = curv.normal_gram
    if gram is None:
        def inner(a, b):
            s = 0
            for x, y in zip(a, b):
                if x and y:
                    s = s + x * y
            return exact(s)
    else:
        def inner(a, b):
            s = 0
            for r in range(K):
                for q in range(K):
                    g = gram[r][q]
                    if a[r] and b[q] and g:
                        s = s + a[r] * g * b[q]
            return exact(s)
    pi = curv.pi
    riem = [[[[exact(inner(pi[i][l], pi[j][k]) - inner(pi[j][l], pi[i][k]))
               for l in range(L)] for k in range(L)]
             for j in range(L)] for i in range(L)]
    ricci = [[exact(sum(riem[i][j][k][i] for i in range(L)))
              for k in range(L)] for j in range(L)]
    curv.riemann = riem
    curv.ricci = ricci
    return curv


def _project_off(y: dict, v: dict) -> dict:
    """v minus its component along y, c y with c = <y, v> / <y, y> (`qdiv`):
    an `int` for each integer entry."""
    return lin_comb({0: 1, 1: -qdiv(dot(y, v), dot(y, y))}, [v, y])


def chart_second_fundamental_form(rep: Representation, y: dict, S: list,
                                  N: list) -> CurvatureData:
    """Second fundamental form of the orbit chart {|v| = |y|} at y.

    Works with arbitrary (not necessarily orthonormal) bases: the tangent
    space is the image gl.y, and N must span its orthogonal complement.
    Components of the chart form are reported on the *original* N basis
    vectors; the direction of y itself collapses in the chart.

    Raises ValueError when y is not a simple point (y in gl.y).
    """
    # one basis: the tangent space, then the chart normals
    chart = Subspace(rep.dim)
    t_basis = [c for c in _action_map_cols(rep, y) if chart.add(c)]
    if y in chart:
        raise ValueError("y is not a simple point: y lies in its own tangent space")
    _check_orthogonal(t_basis, N)

    # N is orthogonal to the tangent space, so a set of projected normals is
    # independent modulo the tangent space exactly when it is independent
    proj_N = [_project_off(y, v) for v in N]
    n_idx = [k for k, v in enumerate(proj_N) if chart.add(v)]
    t, K = len(t_basis), len(N)

    def lam_N_tilde(w):
        coords = chart.coords(w)
        if coords is None:
            raise ValueError("vector does not decompose in tangent + chart normal")
        out = [0] * K
        for pos, k in enumerate(n_idx):
            out[k] = coords.get(t + pos, 0)
        return out

    tangents = [rep.act(s, y) for s in S]
    pi = [[lam_N_tilde(_project_off(y, rep.act(s_j, _project_off(y, t_i)))) for s_j in S]
          for t_i in tangents]

    osc = all(not dot(y, t_i) for t_i in tangents)
    match = None
    if osc:
        # ambient Pi then chart projection (the osculation identity)
        ambient = Subspace(rep.dim, t_basis + N)
        match = True
        for i, t_i in enumerate(tangents):
            for j, s_j in enumerate(S):
                coords = ambient.coords(rep.act(s_j, t_i))
                if coords is None:
                    match = False
                    continue
                amb = lin_comb({g - t: c for g, c in coords.items() if g >= t}, N)
                if lam_N_tilde(_project_off(y, amb)) != pi[i][j]:
                    match = False
    gram = [[dot(u, v) for v in proj_N] for u in proj_N]
    return CurvatureData(pi=pi, normal_gram=gram, osculates=osc,
                         chart_matches_projection=match)


# ---------------------------------------------------------------------------
# sphere model: SO(m+1) acting on R^{m+1}, orbit the sphere S^m of radius r


def sphere_model(sphere_dim: int, r) -> tuple:
    """(rep, x, S, N) for the radius-r sphere S^sphere_dim in R^(dim+1).

    V is the space of linear forms in dim+1 variables, where g acts by its
    transpose; x = r x_1, and s_i rotates the (1,i) plane scaled by 1/r so
    that s_i.x = x_i.
    """
    n = sphere_dim + 1
    r = _as_q(r)
    S = [{i: qdiv(1, r), i * n: qdiv(-1, r)} for i in range(1, n)]
    return SymRep(n, 1), {0: r}, S, [{0: 1}]


def sphere_ricci(sphere_dim: int, r) -> list:
    """Exact Ricci matrix of the radius-r sphere S^sphere_dim via Gauss."""
    return riemann_and_ricci(second_fundamental_form(*sphere_model(sphere_dim, r))).ricci


# ---------------------------------------------------------------------------
# adjoint action at a regular diagonal point


def _e(lams, p, q) -> dict:
    """The normalized off-diagonal element e_pq = E_pq / (lam_q - lam_p), in
    gl coordinates."""
    return {p * len(lams) + q: qdiv(1, lams[q] - lams[p])}


def adjoint_pi(lams) -> dict:
    """Pi table of the conjugation orbit at x = diag(lams), distinct entries.

    Uses the normalized off-diagonal elements e_pq = E_pq / (lam_q - lam_p)
    in both slots: the component of Pi(e_rs, e_pq) on the diagonal normal
    space is the diagonal part of [e_pq, e_rs], nonzero exactly for
    (r,s) = (q,p) where it equals the diagonal matrix d_pq with
        d_pq(p,p) = -1/(lam_q - lam_p)^2,  d_pq(q,q) = +1/(lam_q - lam_p)^2.
    Returns {(p, q): diagonal entries of d_pq} (0-indexed), verified against
    the commutator computed through the generic gl-action machinery.
    """
    lams = [_as_q(x) for x in lams]
    n = len(lams)
    if len(set(lams)) != n:
        raise ValueError("eigenvalues must be distinct")
    rep = ConjRep(n)
    table = {}
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            # dual route: the generic action of e_pq on the coordinates of e_qp
            w = rep.act(_e(lams, p, q), _e(lams, q, p))
            diag = [exact(w.get(i * (n + 1), 0)) for i in range(n)]
            d = (lams[q] - lams[p]) ** 2
            expected = [0] * n
            expected[p] = qdiv(-1, d)
            expected[q] = qdiv(1, d)
            if diag != expected:
                raise AssertionError("adjoint Pi table mismatch between routes")
            # off-resonance entries (r,s) != (q,p) must have no diagonal part
            table[(p, q)] = diag
    return table


def adjoint_offdiagonal_vanishing(lams) -> bool:
    """Pi(e_rs, e_pq) has no normal (diagonal) component unless (rs) = (qp)."""
    lams = [_as_q(x) for x in lams]
    n = len(lams)
    rep = ConjRep(n)
    for p, q, r, s in itertools.product(range(n), repeat=4):
        if p == q or r == s or (r, s) == (q, p):
            continue
        w = rep.act(_e(lams, p, q), _e(lams, r, s))
        if any(i * (n + 1) in w for i in range(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# block example: x = diag(lam I_m, mu I_m) under conjugation


def block_pi(X: Mat, Y: Mat) -> Mat:
    """Normal (block-diagonal) component of Pi for X in S+, Y in S-.

    X, Y are the m x m blocks of the strictly-upper / strictly-lower
    off-diagonal elements; the component is block-diag(XY, -YX).
    """
    m = X.rows
    out = Mat.zeros(2 * m, 2 * m)
    XY = X * Y
    YX = Y * X
    for i in range(m):
        for j in range(m):
            out.a[i][j] = XY.a[i][j]
            out.a[m + i][m + j] = -YX.a[i][j]
    return out


def block_pi_verify(X: Mat, Y: Mat, lam, mu) -> bool:
    """Check block_pi against the generic machinery at x = diag(lam I, mu I).

    With algebra elements normalized so their fields have value Xhat, Yhat at
    x, the exact Pi carries an extra scalar 1/(mu - lam); the displayed table
    is the block-diagonal part of [Xhat, Yhat], which is what we verify.
    """
    lam, mu = _as_q(lam), _as_q(mu)
    if lam == mu or not lam or not mu:
        raise ValueError("blocks need distinct nonzero scalars")
    m = X.rows
    n = 2 * m
    rep = ConjRep(n)
    Xhat = Mat.zeros(n, n)
    Yhat = Mat.zeros(n, n)
    for i in range(m):
        for j in range(m):
            Xhat.a[i][m + j] = X.a[i][j]
            Yhat.a[m + i][j] = Y.a[i][j]
    # block-diagonal part of [Xhat, Yhat]
    comm = Xhat * Yhat - Yhat * Xhat
    disp = block_pi(X, Y)
    for i in range(n):
        for j in range(n):
            blockdiag = (i < m) == (j < m)
            if blockdiag and comm.a[i][j] != disp.a[i][j]:
                return False
            if not blockdiag and comm.a[i][j]:
                return False
    # scaled route: fields with value Xhat, Yhat at x come from Xhat/(mu-lam)
    # and Yhat/(lam-mu); their Pi is the commutator route divided by (mu-lam).
    s = qdiv(1, mu - lam)
    w = rep.act(rep.to_coords(Yhat.scale(-s)), rep.to_coords(Xhat))
    for i in range(n):
        for j in range(n):
            if (i < m) == (j < m) and w.get(i * n + j, 0) != disp.a[i][j] * s:
                return False
    return True


# ---------------------------------------------------------------------------
# the cyclic-shift suite


def cyc_power(n: int, k: int) -> Mat:
    """c^k: c^k(i, j) = 1 iff j - i = k mod n."""
    m = Mat.zeros(n, n)
    for i in range(n):
        m.a[i][(i + k) % n] = 1
    return m


def cyclic_shift(n: int) -> Mat:
    """c(i, j) = 1 iff j - i = 1 mod n."""
    return cyc_power(n, 1)


def ell_matrix(n: int) -> Mat:
    return Mat([[i + 1 if i == j else 0 for j in range(n)] for i in range(n)])


def ell_bar(n: int) -> Mat:
    c = qdiv(n + 1, 2)
    return Mat([[(i + 1 - c) if i == j else 0 for j in range(n)]
                for i in range(n)])


def ell_ij(n: int, i: int, j: int) -> Mat:
    """c^i ell_bar c^{-j}, an element of S of shifted-diagonal degree i - j."""
    return cyc_power(n, i) * ell_bar(n) * cyc_power(n, (-j) % n)


def L_op(n: int, i: int) -> Mat:
    """L_i = ell . c^i (the curvature-lemma basis)."""
    return ell_matrix(n) * cyc_power(n, i)


def shifted_diagonal_sums(m: Mat) -> list:
    """[sum over D_k of entries] for k = 0..n-1; zero vector iff m in S."""
    n = m.rows
    return [exact(sum(m.a[i][(i + k) % n] for i in range(n))) for k in range(n)]


def p_trace(n: int, i: int, j: int) -> list:
    """Components of Pi(L_i, L_j) on c^0..c^{n-1} via the trace formula:
    p^k = (1/n) Tr([L_j, [L_i, c]] (c^k)^T), where Tr(A (c^k)^T) is the sum
    of A over the k-th shifted diagonal (`shifted_diagonal_sums`)."""
    c = cyclic_shift(n)
    Li, Lj = L_op(n, i), L_op(n, j)
    inner = Li * c - c * Li
    outer = Lj * inner - inner * Lj
    return [qdiv(q, n) for q in shifted_diagonal_sums(outer)]


def p_closed(n: int, i: int, j: int) -> list:
    """Closed form: p^k = (n-1)-(i+j) when k != 0 and k = i+j+1 mod n, else 0."""
    out = [0] * n
    k = (i + j + 1) % n
    if k != 0:
        out[k] = (n - 1) - (i + j)
    return out


def gamma_squared(s: Mat, c: Mat):
    """Compression gamma(s)^2 = |[s, c]|^2 / |s|^2 (Frobenius), by `qdiv`."""
    t = s * c - c * s
    num = sum(x * x for row in t.a for x in row)
    den = sum(x * x for row in s.a for x in row)
    return qdiv(num, den)


def cyclic_shift_suite(n: int) -> dict:
    """All exact checks of the cyclic-shift example in one report.

    Verifies: the stabilizer of c is span{c^i}; ell_bar lies in S (shifted
    diagonal sums vanish); the trace formula for p_ij^k equals the closed
    form for all (i,j,k); Pi(L_i, L_j) has no c^0 component; even spacing
    minimizes the non-wrap difference sum at fixed wrap gap; all ell_ij
    achieve the same compression as ell_bar; and which L_i have vanishing
    chart form Pi_C(L_i, L_i) (the direction of c itself collapses in the
    chart, so the k = 1 component never contributes).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rep = ConjRep(n)
    c = cyclic_shift(n)
    c_coords = rep.to_coords(c)

    stab = stabilizer_algebra(rep, c_coords)
    powers = [rep.to_coords(cyc_power(n, k)) for k in range(n)]
    stab_ok = len(stab) == n and len(Subspace(rep.dim, stab + powers)) == n

    lb = ell_bar(n)
    lb_in_S = not any(shifted_diagonal_sums(lb))

    P = [[p_trace(n, i, j) for j in range(n)] for i in range(n)]
    closed_match = all(P[i][j] == p_closed(n, i, j)
                       for i in range(n) for j in range(n))
    no_c0 = all(not P[i][j][0] for i in range(n) for j in range(n))

    # compression: gamma is constant on {ell_ij}, and at fixed wrap gap the
    # evenly spaced diagonal minimizes the sum of the remaining differences.
    g2 = gamma_squared(lb, c)
    gamma_constant = all(gamma_squared(ell_ij(n, i, j), c) == g2
                         for i in range(n) for j in range(n))
    even = [Fraction(1, n - 1)] * (n - 1)
    even_num = sum(d * d for d in even)
    perturbed_ok = True
    for k in range(n - 1):
        for eps in (Fraction(1, 3), Fraction(-1, 2)):
            d = list(even)
            d[k] += eps
            d[(k + 1) % (n - 1)] -= eps
            if sum(x * x for x in d) <= even_num:
                perturbed_ok = False

    # chart flags: Pi_C(L_i, L_i) = 0 iff every component with k != 1 vanishes
    flags = []
    for i in range(n):
        comps = list(P[i][i])
        comps[1] = 0
        if not any(comps):
            flags.append(i)

    # assemble the Gauss tensor from the exact P tables (normal Gram = n I)
    curv = CurvatureData(
        pi=[[P[i][j] for j in range(n)] for i in range(n)],
        normal_gram=[[n if r == q else 0 for q in range(n)] for r in range(n)])
    riemann_and_ricci(curv)
    L = n
    antisym = all(curv.riemann[i][j][k][l] == -curv.riemann[j][i][k][l]
                  and curv.riemann[i][j][k][l] == -curv.riemann[i][j][l][k]
                  for i in range(L) for j in range(L)
                  for k in range(L) for l in range(L))

    return {
        "n": n,
        "stabilizer_is_c_powers": stab_ok,
        "ell_bar_in_S": lb_in_S,
        "p_tables": P,
        "closed_form_matches_trace": closed_match,
        "no_c0_component": no_c0,
        "gamma_squared": g2,
        "gamma_constant_on_ell_ij": gamma_constant,
        "even_spacing_minimizes": perturbed_ok,
        "chart_vanishing_L": flags,
        "curvature": curv,
        "riemann_antisymmetry": antisym,
    }


def cyclic_chart_form(n: int) -> CurvatureData:
    """Pi_C at y = c computed through the generic chart machinery, with the
    normal basis {c^k}; components on {c^k}."""
    rep = ConjRep(n)
    return chart_second_fundamental_form(
        rep, rep.to_coords(cyclic_shift(n)),
        [rep.to_coords(L_op(n, i)) for i in range(n)],
        [rep.to_coords(cyc_power(n, k)) for k in range(n)])
