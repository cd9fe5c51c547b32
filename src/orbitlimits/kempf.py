"""Torus weight supports and the instability optimizer.

For the diagonal torus of GL(n), a vector v in a module V splits as
v = sum_chi v_chi over integer weight vectors chi; diag(l) acts on v_chi with
factor <l, chi>.  The functional

    f(t, l) = sum_chi |v_chi|^2 t^{-<l, chi>}

is minimized over the trace-zero unit sphere O_{n-2} = {sum p = 0, |p| = 1};
for t large its minimizer lands in {l : mu(l, v) > alpha} whenever that set
is non-empty, where mu(l, v) = min_chi <l, chi>.

Its limit as t -> oo is Kempf's optimal destabilizing direction.  For a
torus that is the minimum-norm point p of the convex hull of the weights
projected to the trace-zero plane (Kempf 1978); `kempf_optimum` finds it
exactly, in rationals, by Wolfe's algorithm (Wolfe 1976).  v is unstable
exactly when p != 0, and then l* = p/|p| and mu* = max mu = |p|.

`kempf_descent` minimizes f(t, .) by projected gradient descent on log f,
with Barzilai-Borwein trial steps and backtracking: the gradient of log f,
grad f / f, does not shrink with f, so a start where f is small does not
stall, and its scale, at most ln t max |chi|, does not depend on the size
of v's coordinates.  On an unstable v it makes one
start, at l*: f is convex on the plane and <grad f, l*> < 0 everywhere on
it, so f has no critical point inside the unit ball and its ball minimizer
is the sphere minimizer.  On a semistable v (p = 0) it keeps a
deterministic multi-start.  An exhaustive rational-grid oracle
(`grid_minimize`) cross-checks both for small n; the float norms both read
are computed once per support (`WeightSupport.float_norms`).  The CLI
compares the descent with the grid by f and mu on an unstable v, and by f
alone on a semistable one, where mu at a finite-t minimizer is no
optimality measure.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactcore import Q0, Q1, Mat, _as_fraction, solve
from .lierep import ConjRep, SymRep


@dataclass(frozen=True)
class WeightComponent:
    chi: tuple[int, ...]
    norm_sq: Fraction
    coords: tuple  # full V-coordinate vector of v_chi


@dataclass
class WeightSupport:
    """The torus support Xi(v): weight vectors with their component norms."""

    n: int                      # torus rank (number of diagonal entries)
    components: list[WeightComponent]

    def __post_init__(self):
        if any(not c.norm_sq for c in self.components):
            raise ValueError("zero-norm component in support")

    @property
    def weights(self) -> list[tuple[int, ...]]:
        return [c.chi for c in self.components]

    @cached_property
    def float_norms(self) -> list[float]:
        """|v_chi|^2 as floats, one per component: the only float copy of the
        norms, shared by `kempf_f` and `kempf_descent`."""
        return [float(c.norm_sq) for c in self.components]


def kempf_support(rep: SymRep | ConjRep, v) -> WeightSupport:
    """Group the coordinates of v by diagonal-torus weight.

    Sym^d basis monomial x^e has weight e; the matrix entry (i, j) has
    weight e_i - e_j.
    """
    if not any(v):
        raise ValueError("support of the zero vector")
    n = rep.nvars if isinstance(rep, SymRep) else rep.n
    groups: dict[tuple, list] = {}
    for idx, c in enumerate(v):
        if not c:
            continue
        if isinstance(rep, SymRep):
            chi = tuple(rep.basis[idx])
        else:
            i, j = rep.basis[idx]
            w = [0] * n
            w[i] += 1
            w[j] -= 1
            chi = tuple(w)
        groups.setdefault(chi, [Q0] * rep.dim)[idx] = _as_fraction(c)
    comps = []
    for chi in sorted(groups):
        coords = groups[chi]
        nsq = sum((x * x for x in coords), Q0)
        comps.append(WeightComponent(chi, nsq, tuple(coords)))
    return WeightSupport(n=n, components=comps)


def pairing(ell, chi):
    s = None
    for a, b in zip(ell, chi):
        if b:
            p = a * b
            s = p if s is None else s + p
    return 0 if s is None else s


def mu(ell, support: WeightSupport):
    """min <l, chi> over the support; exact when l is rational."""
    return min(pairing(ell, c.chi) for c in support.components)


def kempf_f(t: float, ell, support: WeightSupport) -> float:
    return sum(nsq * t ** (-float(pairing(ell, c.chi)))
               for nsq, c in zip(support.float_norms, support.components))


def leading_term_along(ell, support: WeightSupport):
    """(mu, coords of v_l): the sum of minimal-pairing weight components.

    Exact when l is rational; v_l is a projective limit of v along t^l.
    """
    vals = [pairing(ell, c.chi) for c in support.components]
    m = min(vals)
    dim = len(support.components[0].coords)
    out = [Q0] * dim
    for val, c in zip(vals, support.components):
        if val == m:
            out = [a + b for a, b in zip(out, c.coords)]
    return m, out


# ---------------------------------------------------------------------------
# the exact optimum: Wolfe's minimum-norm point


def _affine_min_norm(S: list) -> list[Fraction]:
    """Barycentric coordinates of the minimum-norm point of the affine hull
    of the affinely independent points S: the solution alpha of
    [G 1; 1^T 0] (alpha, theta) = (0, 1), G the Gram matrix of S."""
    k = len(S)
    rows = [[pairing(a, b) for b in S] + [1] for a in S] + [[1] * k + [0]]
    return solve(Mat.rational(rows), [[0] * k + [1]])[0][:k]


def kempf_optimum(support: WeightSupport) -> tuple[tuple[Fraction, ...], Fraction]:
    """(p, |p|^2): the minimum-norm point p of the convex hull of the weights
    projected to the trace-zero plane, chi - (sum chi / n) 1, in rationals.

    Wolfe's algorithm on the integer points n chi - (sum chi) 1, which are
    n times the projected weights.  A major cycle adds the point q that
    minimizes <x, q> unless <x, q> >= |x|^2 (then x is optimal); a minor
    cycle moves x to the affine minimum-norm point of the corral S, and
    while that point leaves conv S it stops at the boundary and drops the
    points whose weight reaches 0.  Exact arithmetic makes every test exact
    and |x| strictly decreases between major cycles, so it terminates.
    """
    n = support.n
    pts = sorted({tuple(n * x - sum(chi) for x in chi) for chi in support.weights})
    S = [min(pts, key=lambda q: pairing(q, q))]
    lam = [Q1]
    while True:
        # x = sum lam_i S_i, as an integer vector xi over the denominator den
        den = math.lcm(*(c.denominator for c in lam))
        w = [int(c * den) for c in lam]
        xi = [sum(c * s[j] for c, s in zip(w, S)) for j in range(n)]
        xx = pairing(xi, xi)
        if not xx:
            break
        q = min(pts, key=lambda q: pairing(xi, q))
        if pairing(xi, q) * den >= xx:
            break
        S.append(q)
        lam.append(Q0)
        while True:
            alpha = _affine_min_norm(S)
            if all(a > 0 for a in alpha):
                lam = alpha
                break
            theta = min(c / (c - a) for c, a in zip(lam, alpha) if a <= 0)
            lam = [theta * a + (1 - theta) * c for c, a in zip(lam, alpha)]
            S = [s for s, c in zip(S, lam) if c > 0]
            lam = [c for c in lam if c > 0]
    d = den * n
    return tuple(Fraction(x, d) for x in xi), Fraction(xx, d * d)


# ---------------------------------------------------------------------------
# projected gradient descent on O_{n-2}


def _project_point(p: list[float]) -> list[float]:
    m = sum(p) / len(p)
    q = [x - m for x in p]
    nrm = math.sqrt(sum(x * x for x in q))
    if nrm < 1e-300:
        raise ValueError("point collapsed to the origin during projection")
    return [x / nrm for x in q]


def _project_gradient(g: list[float], p: list[float]) -> list[float]:
    m = sum(g) / len(g)
    g = [x - m for x in g]
    dp = sum(a * b for a, b in zip(g, p))
    return [a - dp * b for a, b in zip(g, p)]


def centered_ap_direction(n: int) -> list[float]:
    """The descending centered arithmetic progression on O_{n-2}."""
    raw = [(n + 1) / 2.0 - (i + 1) for i in range(n)]
    return _project_point(raw)


def _seed_points(n: int, n_starts: int, seed: int) -> list[list[float]]:
    seeds = [centered_ap_direction(n),
             [-x for x in centered_ap_direction(n)]]
    for i in range(n - 1):
        raw = [0.0] * n
        raw[i], raw[i + 1] = 1.0, -1.0
        seeds.append(_project_point(raw))
    rng = random.Random(seed)
    while len(seeds) < n_starts:
        seeds.append(_project_point([rng.gauss(0.0, 1.0) for _ in range(n)]))
    return seeds[:max(n_starts, 2)]


@dataclass
class KempfResult:
    ell: list[float]
    f_value: float
    mu_value: float
    converged: bool
    iterations: int
    monotone: bool
    max_residual: float
    min_norm_point: tuple[Fraction, ...]   # p of `kempf_optimum`
    mu_star_squared: Fraction              # |p|^2; v is unstable iff it is > 0


def kempf_descent(support: WeightSupport, t: float, *, seed: int = 0,
                  n_starts: int = 8, max_iter: int = 2000,
                  gtol: float = 1e-8) -> KempfResult:
    """Minimize f(t, .) on O_{n-2} by projected gradient descent on log f.

    Computes the exact optimum p first.  If p != 0 (v unstable) it makes
    one start, at p/|p|, which the module docstring certifies; otherwise
    it makes a deterministic multi-start (centered arithmetic progressions,
    adjacent coordinate differences, then a Gaussian fill seeded by
    `seed`).  It descends on log f, a log-sum-exp.  Each iteration tries the
    Barzilai-Borwein step first (at most 1), then halves it until an Armijo
    condition on log f holds; every iterate is re-projected so the
    constraint residuals stay at machine precision.  The projected gradient
    of log f is compared with gtol * ln t, the scale of that gradient; an
    absolute test on grad f (gtol / f on grad log f) would stop where f is
    tiny, with f still well above its minimum.  `f_value` reports f.
    Non-convergence is reported through the `converged` flag with the
    best iterate.
    """
    if t <= 1:
        raise ValueError("need t > 1")
    n = support.n
    p_star, p2 = kempf_optimum(support)
    terms = [(math.log(nsq), [float(x) for x in c.chi])
             for nsq, c in zip(support.float_norms, support.components)]
    lt = math.log(t)

    def logf_and_grad(p):
        # log f = log sum exp(log |v_chi|^2 - <p, chi> ln t), shifted by its
        # largest exponent so that neither f nor its terms under- or overflow
        es = [lnsq - lt * sum(a * b for a, b in zip(p, chi)) for lnsq, chi in terms]
        top = max(es)
        ws = [math.exp(e - top) for e in es]
        sw = sum(ws)
        g = [0.0] * n
        for w, (_, chi) in zip(ws, terms):
            for i in range(n):
                if chi[i]:
                    g[i] -= lt * chi[i] * w
        return top + math.log(sw), [x / sw for x in g]

    if p2:
        starts = [_project_point([float(x) for x in p_star])]
    else:
        starts = _seed_points(n, n_starts, seed)
    best = None
    for p0 in starts:
        p = list(p0)
        lf, g = logf_and_grad(p)
        monotone = True
        converged = False
        it = 0
        gn = math.inf
        max_res = _residual(p)
        p_prev = pg_prev = None
        for it in range(1, max_iter + 1):
            pg = _project_gradient(g, p)
            gn2 = sum(x * x for x in pg)
            gn = math.sqrt(gn2)
            if gn < gtol * lt:
                converged = True
                break
            # first trial step: Barzilai-Borwein, |s|^2 / <s, y> over the last
            # move s and the change y of the projected gradient, at most 1
            step = 1.0
            if p_prev is not None:
                s = [a - b for a, b in zip(p, p_prev)]
                sy = sum(a * (b - c) for a, b, c in zip(s, pg, pg_prev))
                if sy > 0:
                    step = min(1.0, sum(a * a for a in s) / sy)
            p_prev, pg_prev = p, pg
            accepted = False
            for _ in range(60):
                cand = _project_point([a - step * b for a, b in zip(p, pg)])
                lc, gc = logf_and_grad(cand)
                if lc <= lf - 1e-4 * step * gn2:
                    if lc > lf:
                        monotone = False
                    p, lf, g = cand, lc, gc
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            max_res = max(max_res, _residual(p))
        if not converged:
            converged = gn < 1e-6 * lt
        res = KempfResult(ell=p, f_value=math.exp(lf), mu_value=float(mu(p, support)),
                          converged=converged, iterations=it,
                          monotone=monotone, max_residual=max_res,
                          min_norm_point=p_star, mu_star_squared=p2)
        if best is None or res.f_value < best.f_value:
            best = res
    return best


def _residual(p: list[float]) -> float:
    return max(abs(sum(p)),
               abs(math.sqrt(sum(x * x for x in p)) - 1.0))


def grid_minimize(support: WeightSupport, t: float,
                  resolution: int = 20) -> tuple[list[float], float]:
    """Brute-force oracle: best direction q/|q|, q in (Z/resolution)^n with
    sum q = 0, evaluated on f(t, .).  Intended for small n."""
    n = support.n
    best_p, best_f = None, math.inf
    R = resolution
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
