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
deterministic multi-start.  A rational-grid oracle (`grid_minimize`)
cross-checks both for small n: it returns the first least-f point of the
grid, as an exhaustive scan would, but skips the points where an AM-GM lower
bound on f already exceeds the least f known, seeded with f at the grid
point nearest p.  The float norms and the exact optimum both read are
computed once per support (`WeightSupport.float_norms`,
`WeightSupport.optimum`).  The CLI
compares the descent with the grid by f and mu on an unstable v, and by f
alone on a semistable one, where mu at a finite-t minimizer is no
optimality measure.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exactcore import Mat, _as_q, exact, qdiv, solve
from .lierep import ConjRep, SymRep

# kempf_descent: starts on a semistable v, iterations per start, and the
# stopping test |P grad log f| < GTOL ln t
N_STARTS = 8
MAX_ITER = 2000
GTOL = 1e-8
# grid_minimize evaluates f at the points q/|q|, q in (Z/GRID_RESOLUTION)^n
GRID_RESOLUTION = 20
# it skips a point only where the AM-GM bound on its f exceeds the least f
# known by at least this relative margin
GRID_MARGIN = 1e-9


class FloatRangeError(ValueError):
    """A squared component norm outside the range of normal floats."""


@dataclass(frozen=True)
class WeightComponent:
    chi: tuple[int, ...]
    norm_sq: int | Fraction
    coords: dict  # sparse V-coordinate vector of v_chi


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
        norms, shared by `kempf_f`, `grid_minimize` and `kempf_descent`.

        Raises FloatRangeError, naming the weight, where a norm lies outside
        [sys.float_info.min, sys.float_info.max]: the descent and the grid's
        bound take logarithms of the norms."""
        norms = []
        for c in self.components:
            try:
                x = float(c.norm_sq)
            except OverflowError:
                x = math.inf
            if not sys.float_info.min <= x <= sys.float_info.max:
                raise FloatRangeError(
                    f"the squared norm of the weight-{c.chi} component is outside the "
                    f"float range [{sys.float_info.min:.4g}, {sys.float_info.max:.4g}]")
            norms.append(x)
        return norms

    @cached_property
    def optimum(self) -> tuple[tuple, int | Fraction]:
        """`kempf_optimum` of the support, computed once and shared by
        `kempf_descent` and `grid_minimize`."""
        return kempf_optimum(self)


def kempf_support(rep: SymRep | ConjRep, v) -> WeightSupport:
    """Group the coordinates of v by diagonal-torus weight.

    Sym^d basis monomial x^e has weight e; the matrix entry (i, j) has
    weight e_i - e_j.
    """
    if not v:
        raise ValueError("support of the zero vector")
    n = rep.n
    groups: dict[tuple, dict] = {}
    for idx, c in v.items():
        if isinstance(rep, SymRep):
            chi = tuple(rep.basis[idx])
        else:
            i, j = rep.basis[idx]
            w = [0] * n
            w[i] += 1
            w[j] -= 1
            chi = tuple(w)
        groups.setdefault(chi, {})[idx] = _as_q(c)
    comps = []
    for chi in sorted(groups):
        coords = groups[chi]
        nsq = exact(sum(x * x for x in coords.values()))
        comps.append(WeightComponent(chi, nsq, coords))
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
    """f(t, l) in floats; math.inf where a term t^(-<l, chi>) overflows.

    The terms are added left to right from 0, the order `grid_minimize`
    reproduces (the builtin `sum` compensates float rounding from Python
    3.12 on)."""
    f = 0.0
    try:
        for nsq, c in zip(support.float_norms, support.components):
            f += nsq * t ** (-float(pairing(ell, c.chi)))
    except OverflowError:
        return math.inf
    return f


def leading_term_along(ell, support: WeightSupport):
    """(mu, coords of v_l): the sum of minimal-pairing weight components.

    Exact when l is rational; v_l is a projective limit of v along t^l.
    """
    vals = [pairing(ell, c.chi) for c in support.components]
    m = min(vals)
    # the components have disjoint supports
    return m, {i: x for val, c in zip(vals, support.components) if val == m
               for i, x in c.coords.items()}


# ---------------------------------------------------------------------------
# the exact optimum: Wolfe's minimum-norm point


def _affine_min_norm(S: list) -> list:
    """Barycentric coordinates of the minimum-norm point of the affine hull
    of the affinely independent points S: the solution alpha of
    [G 1; 1^T 0] (alpha, theta) = (0, 1), G the Gram matrix of S, by the
    scalar rule (an `int` for an integer coordinate)."""
    k = len(S)
    rows = [[pairing(a, b) for b in S] + [1] for a in S] + [[1] * k + [0]]
    return solve(Mat.rational(rows), [[0] * k + [1]])[0][:k]


def kempf_optimum(support: WeightSupport) -> tuple[tuple, int | Fraction]:
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
    pts = sorted({tuple([n * x - sum(chi) for x in chi]) for chi in support.weights})
    S = [min(pts, key=lambda q: pairing(q, q))]
    lam = [1]
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
        lam.append(0)
        while True:
            alpha = _affine_min_norm(S)
            if all(a > 0 for a in alpha):
                lam = alpha
                break
            theta = min(qdiv(c, c - a) for c, a in zip(lam, alpha) if a <= 0)
            lam = [exact(theta * a + (1 - theta) * c) for c, a in zip(lam, alpha)]
            S = [s for s, c in zip(S, lam) if c > 0]
            lam = [c for c in lam if c > 0]
    d = den * n
    return tuple([qdiv(x, d) for x in xi]), qdiv(xx, d * d)


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


def _seed_points(n: int, seed: int) -> list[list[float]]:
    seeds = [centered_ap_direction(n),
             [-x for x in centered_ap_direction(n)]]
    for i in range(n - 1):
        raw = [0.0] * n
        raw[i], raw[i + 1] = 1.0, -1.0
        seeds.append(_project_point(raw))
    rng = random.Random(seed)
    while len(seeds) < N_STARTS:
        seeds.append(_project_point([rng.gauss(0.0, 1.0) for _ in range(n)]))
    return seeds[:N_STARTS]


@dataclass
class KempfResult:
    ell: list[float]
    f_value: float
    mu_value: float
    converged: bool
    iterations: int
    max_residual: float
    min_norm_point: tuple                  # p of `kempf_optimum`, rationals
    mu_star_squared: int | Fraction        # |p|^2; v is unstable iff it is > 0


def kempf_descent(support: WeightSupport, t: float, *, seed: int = 0) -> KempfResult:
    """Minimize f(t, .) on O_{n-2} by projected gradient descent on log f.

    Computes the exact optimum p first.  If p != 0 (v unstable) it makes
    one start, at p/|p|, which the module docstring certifies; otherwise
    it makes a deterministic multi-start (centered arithmetic progressions,
    adjacent coordinate differences, then a Gaussian fill seeded by
    `seed`).  It descends on log f, a log-sum-exp.  Each iteration tries the
    Barzilai-Borwein step first (at most 1), then halves it until an Armijo
    condition on log f holds, so f decreases at every accepted step; every
    iterate is re-projected so the constraint residuals stay at machine
    precision.  The projected gradient of log f is compared with
    GTOL * ln t, the scale of that gradient; an absolute test on grad f
    (GTOL / f on grad log f) would stop where f is tiny, with f still well
    above its minimum.  `f_value` reports f; where even the best f found
    passes the float range it raises OverflowError.  Non-convergence is
    reported through the `converged` flag with the best iterate.
    """
    if t <= 1:
        raise ValueError("need t > 1")
    n = support.n
    p_star, p2 = support.optimum
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
        starts = _seed_points(n, seed)
    best = None
    for p0 in starts:
        p = list(p0)
        lf, g = logf_and_grad(p)
        converged = False
        it = 0
        gn = math.inf
        max_res = _residual(p)
        p_prev = pg_prev = None
        for it in range(1, MAX_ITER + 1):
            pg = _project_gradient(g, p)
            gn2 = sum(x * x for x in pg)
            gn = math.sqrt(gn2)
            if gn < GTOL * lt:
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
                    p, lf, g = cand, lc, gc
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            max_res = max(max_res, _residual(p))
        if not converged:
            converged = gn < 1e-6 * lt
        try:
            f_value = math.exp(lf)
        except OverflowError:
            f_value = math.inf
        res = KempfResult(ell=p, f_value=f_value, mu_value=float(mu(p, support)),
                          converged=converged, iterations=it,
                          max_residual=max_res,
                          min_norm_point=p_star, mu_star_squared=p2)
        if best is None or res.f_value < best.f_value:
            best = res
    if best.f_value == math.inf:
        raise OverflowError(f"f exceeds the float range at t = {t!r}")
    return best


def _residual(p: list[float]) -> float:
    return max(abs(sum(p)),
               abs(math.sqrt(sum(x * x for x in p)) - 1.0))


class _GridBound:
    """The grid points that can still beat a bound value B on f.

    By AM-GM over the m terms, f(q) >= m G t^(-<q, s>/(m |q|)), with G the
    geometric mean of the |v_chi|^2 and s = sum chi.  That lower bound is at
    most B (1 + GRID_MARGIN) only where <q, s> >= gamma |q|, with
    gamma = m (ln(m G) - ln B - GRID_MARGIN) / ln t.  For gamma > 0 this is a
    convex cone, and it meets each line of the grid in one interval.

    `window(B)` rounds gamma down to g / 2^40 and returns the test of the
    lines, or None where nothing can be ruled out.  The test is exact: a
    point survives when <q, s> >= 0 and 2^80 <q, s>^2 >= g^2 |q|^2 in
    integers.  The margin exceeds the float rounding of f (at most about
    1e-15 (m + (n + 2) ln t max|chi|), added to the margin) and of the
    logarithms (1e-11), and B > 1e-300 (sum |v_chi|^2 + m) keeps the
    terms that underflow negligible, so every ruled-out point has a float f
    above B.
    """

    def __init__(self, support: WeightSupport, t: float):
        n, comps = support.n, support.components
        m = len(comps)
        s = [sum(c.chi[i] for c in comps) for i in range(n)]
        # <q, s> = <head, ds> + b x with ds_i = s_i - s_{n-1}
        self.ds, self.b = [c - s[-1] for c in s], s[n - 2] - s[n - 1]
        self.m = m
        self.lt = math.log(t) if t > 1 else 0.0
        self.ln_mg = math.log(m) + math.fsum(map(math.log, support.float_norms)) / m
        chi_max = max(math.sqrt(pairing(c.chi, c.chi)) for c in comps)
        self.slack = GRID_MARGIN + 1e-11 + 1e-15 * (m + (n + 2) * self.lt * chi_max)
        # a term w t^(-<p, chi>) loses up to about 5e-324 (w + 1) where its
        # power or product underflows; below this B, that could exceed B 1e-10
        self.least_bound = 1e-300 * (sum(support.float_norms) + m)

    def window(self, bound: float):
        """A function (head, h, hsq, lo, hi) -> (lo', hi'): the x in
        [lo, hi] for which q = head + (x, -(h + x)) lies in the cone of
        `bound`, h = sum head and hsq = |head|^2; None where no cone rules
        out a point."""
        if not (self.lt > 0 and self.least_bound < bound < math.inf):
            return None
        # the factor 1 - 1e-15 covers the rounding of the division and product
        gamma = (self.m * (self.ln_mg - math.log(bound) - self.slack) / self.lt
                 * (1 - 1e-15))
        g = math.floor(gamma * 2.0 ** 40) if gamma > 0 else 0
        if not g:
            return None
        P, M, b, ds = 1 << 80, g * g, self.b, self.ds
        # |q|^2 is quadratic in x with leading coefficient 2, so A is the
        # leading coefficient of 2^80 <q, s>^2 - g^2 |q|^2; it is not 0, as
        # 2^80 b^2 = 2 g^2 has no solution in integers with g > 0
        A = P * b * b - 2 * M

        def window(head, h, hsq, lo, hi):
            a0 = sum(map(mul, head, ds))
            q0 = hsq + h * h

            def inside(x):
                a = a0 + b * x
                return a >= 0 and P * a * a >= M * (q0 + 2 * x * (x + h))

            # a point of the line in the cone: near the vertex of the concave
            # quadratic when A < 0 (the interval on the line is bounded), and
            # the end of [lo, hi] the cone's ray runs to when A > 0
            if A < 0:
                k = (M * h - P * a0 * b) // A
                if not inside(k):
                    k += 1
                    if not inside(k):
                        return lo, lo - 1
                if not lo <= k <= hi:
                    k = min(max(k, lo), hi)
                    if not inside(k):
                        return lo, lo - 1
            else:
                k = hi if b > 0 else lo
                if not inside(k):
                    return lo, lo - 1
            # the points in the cone are consecutive: walk out from k
            first = last = k
            while first > lo and inside(first - 1):
                first -= 1
            while last < hi and inside(last + 1):
                last += 1
            return first, last

        return window


def _grid_seed(support: WeightSupport):
    """The grid point nearest Kempf's direction p: p scaled to
    max |q_i| = GRID_RESOLUTION and rounded, the last coordinate fixed so
    that sum q = 0; None where p = 0 or that point leaves the grid."""
    p, p2 = support.optimum
    if not p2:
        return None
    R = GRID_RESOLUTION
    top = max(abs(x) for x in p)
    q = [round(qdiv(x * R, top)) for x in p[:-1]]
    q.append(-sum(q))
    return q if abs(q[-1]) <= R and any(q) else None


def grid_minimize(support: WeightSupport, t: float) -> tuple[list[float], float]:
    """Grid oracle: the best direction p = q/|q| on f(t, .), over the
    nonzero integer q with sum q = 0 and every |q_i| <= GRID_RESOLUTION
    (40, 1,260 and 45,960 points for n = 2, 3, 4).  Intended for small n.

    Returns (p, f(t, p)) for the first q, in lexicographic order, whose f is
    least: a later point replaces the best only with a strictly smaller f.
    Each f is `kempf_f`'s, bit for bit: the same products, the same term
    expression and the same left-to-right sums.  A point stops being summed
    once its partial sum reaches the best f, since the terms are >= 0 and
    float addition is monotone; a term that overflows makes f +inf.  Where
    every point's f is +inf, or n < 2 leaves no point, the result is
    (None, inf).

    The scan skips the points where the AM-GM bound of `_GridBound` rules
    out f <= B, for B the least of f at `_grid_seed` and the best f so far;
    on each line q = head + (x, -(h + x)) they lie outside one interval of
    x.  That cannot change the result: the returned point q_min is the
    first with the least f, so its f is at most B, and the bound skips only
    points whose f exceeds B.
    """
    n = support.n
    R = GRID_RESOLUTION
    best_p, best_f = None, math.inf
    if n < 2:
        return best_p, best_f
    # per component, |v_chi|^2 with the nonzero (index, entry) pairs of chi;
    # a zero chi pairs to -0.0 in `kempf_f`: its whole term is a constant
    terms = []
    for nsq, c in zip(support.float_norms, support.components):
        nz = [(i, b) for i, b in enumerate(c.chi) if b]
        if nz:
            terms.append((nsq, nz[0][0], nz[0][1], nz[1:]))
        else:
            terms.append((nsq * t ** -0.0, None, None, None))
    cone = _GridBound(support, t)
    seed = _grid_seed(support)
    bound = math.inf
    if seed is not None:
        nrm = math.sqrt(sum(y * y for y in seed))
        bound = kempf_f(t, [y / nrm for y in seed], support)
    window = cone.window(bound)
    # q = head + (x, -(h + x)): x runs over the values with |h + x| <= R
    for head in itertools.product(range(-R, R + 1), repeat=n - 2):
        h = sum(head)
        hsq = sum(map(mul, head, head))
        at_origin = not any(head)
        if best_f < bound:
            bound = best_f
            window = cone.window(bound)
        lo, hi = max(-R, -R - h), min(R, R - h)
        if window is not None:
            lo, hi = window(head, h, hsq, lo, hi)
        for x in range(lo, hi + 1):
            if at_origin and not x:
                continue
            q = head + (x, -(h + x))
            nrm = math.sqrt(hsq + x * x + (h + x) * (h + x))
            f = 0.0
            for w, i, b, rest in terms:
                if i is None:
                    f += w
                else:
                    # p_i * b with p = q/|q|, as `pairing` forms it
                    s = q[i] / nrm * b
                    for j, c in rest:
                        s += q[j] / nrm * c
                    try:
                        f += w * t ** -s
                    except OverflowError:
                        break
                if f >= best_f:
                    break
            else:
                best_p, best_f = [y / nrm for y in q], f
    return best_p, best_f
