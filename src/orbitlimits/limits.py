"""Limits of forms under 1-parameter subgroups: graded expansions, the
M_N/M_S matrices, K(t) over Q[t] and its limit algebra K0, the star-action,
triple stabilizers, the A/B case classification, filtered dimensions, and
the derivation-extension feasibility test.

Conventions.  lambda(t).x_i = t^{d_i} x_i, so the monomial x^e picks up
t^{<d,e>}.  A stabilizer element k of f conjugates to a stabilizer of
f(t) = lambda(t).f whose E_ij-component scales by t^{w}, w the entry of
`rep.gl_weights(d)` at E_ij (d_j - d_i on forms); normalizing columns and
letting t -> 0 gives K0, spanned by the lowest-weight components.  gl
elements are their coordinate vectors (`lierep`), over Q[t] along K(t).
One `LimitProblem` holds everything computed for one f and lambda, and every
stage takes it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

from .exactcore import (Mat, Subspace, UniPoly, at_zero, column_normalize, kernel, lin_comb,
                        rank_qt, sparse, transpose)
from .lierep import ConjRep, Form, SymRep, bracket, stabilizer_algebra
from .localmodel import LocalModel, NotGraded, NotTransverse, build_local_model, weight_split


class OnePS:
    """A diagonal one-parameter subgroup lambda(t).x_i = t^{d_i} x_i."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[int]):
        self.weights = [int(w) for w in weights]

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def ell(self, shift: Fraction = 0) -> dict:
        """log_t of t^{-shift} lambda(t) = diag(d) - shift * I, in gl coordinates."""
        n = len(self.weights)
        return {i * (n + 1): x for i, w in enumerate(self.weights) if (x := w - shift)}

    def __repr__(self):
        return f"OnePS({self.weights})"


def decompose_form(f: Form, lam: OnePS) -> dict:
    """weight -> Form decomposition of f under lam."""
    out: dict = {}
    for e, c in f.terms.items():
        w = sum(k * d for k, d in zip(e, lam.weights))
        out.setdefault(w, {})[e] = c
    return {w: Form(f.nvars, f.degree, terms) for w, terms in sorted(out.items())}


class LimitExpansion:
    """f(t) = lam(t).f = t^a g + t^b f_b + ... + t^D f_D."""

    def __init__(self, terms: dict):
        self.terms = terms                     # exponent -> Form, ascending
        exps = sorted(terms)
        self.a = exps[0]
        self.g = terms[self.a]
        self.b = exps[1] if len(exps) > 1 else None
        self.f_b = terms[self.b] if self.b is not None else None
        self.tail = {c: terms[c] for c in exps[1:]}


def expand_orbit_curve(f: Form, lam: OnePS) -> LimitExpansion:
    """Graded expansion of lam(t).f: f split by lam-weight.  Whether the
    tail span{f_b, ..., f_D} meets the tangent space at g is decided once,
    when the local model at g takes the tail into N (`LimitProblem.model`)."""
    if not f:
        raise ValueError("f must be nonzero")
    return LimitExpansion(decompose_form(f, lam))


class LimitProblem:
    """One form f and one 1-PS lam, and what the limit stages compute from
    them, each built on first use: the representations, the expansion of
    lam(t).f, K = stab f, the local model at the limit g (its H is stab g),
    K(t), K0 with its span and structure constants, and the triple
    stabilizers.  Every stage takes a problem.

    K(t) is built once.  K0, and everything read off it, is returned only
    once K(t) has passed `_verify_limit_algebra`."""

    def __init__(self, f: Form, lam: OnePS):
        self.f = f
        self.lam = lam

    @cached_property
    def rep(self) -> SymRep:
        return SymRep(self.f.nvars, self.f.degree)

    @cached_property
    def glrep(self) -> ConjRep:
        return ConjRep(self.rep.n)

    @cached_property
    def glw(self) -> list[int]:
        return self.rep.gl_weights(self.lam.weights)

    @cached_property
    def expansion(self) -> LimitExpansion:
        return expand_orbit_curve(self.f, self.lam)

    @cached_property
    def K(self) -> list[dict]:
        return stabilizer_algebra(self.rep, self.rep.to_coords(self.f))

    @cached_property
    def model(self) -> LocalModel:
        """The local model at g with the expansion tail inside N.  H = stab g
        and S are graded, as lambda(t) scales g, so it fails only if the tail
        meets the tangent space at g."""
        exp, rep = self.expansion, self.rep
        tail = [rep.to_coords(form) for form in exp.tail.values()]
        try:
            return build_local_model(rep, rep.to_coords(exp.g), N_contains=tail,
                                     weights=self.lam.weights)
        except NotTransverse:
            raise NotTransverse("expansion tail meets the tangent space at g") from None

    @cached_property
    def h_weights(self) -> list[int]:
        """The lambda-weights of the model's weight-pure H basis."""
        return _pure_weights(self.model.H, self.glw)

    @cached_property
    def s_weights(self) -> list[int]:
        """The lambda-weights of the model's weight-pure S basis."""
        return _pure_weights(self.model.S, self.glw)

    @cached_property
    def triple(self) -> TripleStabilizers:
        return triple_stabilizers(self)

    @cached_property
    def Kt(self) -> list[KtElement]:
        """K(t) = h(t) + s(t), the stabilizers of g + f^+(t), by the exact M_N
        pipeline.  It is not checked here: `_verify_limit_algebra` checks it
        before K0 is read off it.

        The H, S and N bases of the local model at g are weight-pure and
        f^+(t) = sum t^(c-a) f_c, so g + f^+(t) is lambda(t) applied to
        g + f^+(1) up to the scalar t^a, and the slice equations along the
        curve are those at n1 = f^+(1) = f - g with t put back by the
        weights: ker M_N by `_regrade` over the H weights w_j, and
        M_S(t)_ij = M_S(1)_ij t^(sigma_i - w_j), sigma_i the weight of S's
        element i.  Only the equations at n1 are solved, over Q."""
        model = self.model
        ker, ms_cols = model.slice_equations(self.rep.to_coords(self.f - self.expansion.g))
        sw = self.s_weights
        ms_t = [{i: UniPoly.t(sw[i] - hw, x) for i, x in col.items()}
                for hw, col in zip(self.h_weights, ms_cols)]
        Kt = []
        for alpha in _regrade(ker, self.h_weights):
            # s(t) = -M_S(t) alpha and k(t) = h(t) + s(t)
            sc = lin_comb({j: -a for j, a in alpha.items()}, ms_t)
            Kt.append(KtElement(sc, model.element(alpha, sc)))
        return Kt

    @cached_property
    def _verified(self) -> tuple[list[dict], Subspace, dict]:
        """(K0_coords, K0_span, beta), kept once K(t) has passed
        `_verify_limit_algebra`."""
        return _verify_limit_algebra(self)

    @property
    def K0_coords(self) -> list[dict]:
        """K(t) at t = 0: a basis of K0, gl elements over Q."""
        return self._verified[0]

    @property
    def K0_span(self) -> Subspace:
        """The span of K0."""
        return self._verified[1]

    @property
    def beta(self) -> dict:
        """(i, j) -> coordinates of [K0_i, K0_j] over K0, for i < j: the
        structure constants of K0."""
        return self._verified[2]

    @cached_property
    def K0(self) -> list[Mat]:
        """K0 as matrices over Q, for output."""
        return [self.glrep.from_coords(k) for k in self.K0_coords]

    @property
    def graded_dims(self) -> dict:
        return graded_dims_of(self.K0_coords, self.glw)

    def closed_pairs(self) -> list[tuple]:
        """The pairs i < j whose bracket [k_i(t), k_j(t)] lies in the Q(t)-span
        of K(t), each decided by a rank over Q(t) (`rank_qt`); K(t) is
        bracket-closed when every pair is listed."""
        kt, n = [k.coords for k in self.Kt], self.rep.n
        r = rank_qt(kt)
        return [(i, j) for i in range(len(kt)) for j in range(i + 1, len(kt))
                if rank_qt(kt + [bracket(kt[i], kt[j], n)]) == r]


class KtElement:
    """A basis element k(t) = h(t) + s(t) of K(t)."""

    __slots__ = ("s_coeffs", "coords")

    def __init__(self, s_coeffs, coords):
        self.s_coeffs = s_coeffs  # UniPoly coefficients over the S-basis
        self.coords = coords      # h(t)+s(t), gl coordinates over UniPoly


def _weight_kernel(vectors: Sequence[dict], coord_weights: Sequence[int], keep) -> list[dict]:
    """The combinations of vectors whose coordinates of a weight that passes
    keep vanish: the kernel of the matrix with columns vectors cut to those
    rows."""
    return kernel(len(vectors), transpose([{i: x for i, x in v.items() if keep(coord_weights[i])}
                                           for v in vectors]))


def _pure_weights(vectors: Sequence[dict], coord_weights: Sequence[int]) -> list[int]:
    """The weight of each weight-pure vector: that of its first nonzero coordinate."""
    return [coord_weights[min(v)] for v in vectors]


def graded_dims_of(vectors: Sequence[dict], coord_weights: Sequence[int]) -> dict:
    """dim of span(vectors) ∩ (weight-w coordinate subspace), per weight: the
    number of reduced rows of weight w, which are all weight-pure exactly
    when the span is graded (`localmodel.check_graded`); else NotGraded."""
    weights = []
    for row in Subspace(len(coord_weights), vectors, combos=False).rows.values():
        ws = {coord_weights[i] for i in row}
        if len(ws) > 1:
            raise NotGraded("subspace is not graded with respect to the 1-PS")
        weights.append(ws.pop())
    return dict(sorted(Counter(weights).items()))


def graded_component(vectors: Sequence[dict], coord_weights: Sequence[int], w: int) -> list[dict]:
    """Basis of span(vectors) ∩ (weight-w coordinate subspace)."""
    return [lin_comb(alpha, vectors)
            for alpha in _weight_kernel(vectors, coord_weights, lambda x: x != w)]


def _regrade(vectors: Sequence[dict], weights: Sequence[int]) -> list[dict]:
    """Put t back into Q-vectors whose coordinate j has lambda-weight
    weights[j]: v becomes the Q[t]-column v_j t^(w_j - m), m the least weight
    on v's support.  The columns are then normalized, so that their values
    at t = 0 are independent (`column_normalize`)."""
    cols = []
    for v in vectors:
        base = min((weights[j] for j in v), default=0)
        cols.append({j: UniPoly.t(weights[j] - base, x) for j, x in v.items()})
    return column_normalize(cols)


def limit_algebra(f: Union[Form, LimitProblem], lam: Optional[OnePS] = None) -> LimitProblem:
    """The problem of f under lam, or the problem f, with K(t) built and
    verified and K0 read off it: the one stage that also takes (f, lam)."""
    problem = f if isinstance(f, LimitProblem) else LimitProblem(f, lam)
    problem._verified      # raises unless K(t) passes `_verify_limit_algebra`
    return problem


def _verify_limit_algebra(problem: LimitProblem) -> tuple[list[dict], Subspace, dict]:
    """Check K(t) and read K0 off it: (K0_coords, K0_span, beta).  K0 = K(0)
    must have dim K, be independent and bracket-closed, and lie in H; the
    s-parts of K(t) must vanish to order b - a at t = 0 (Prop K0(2)); and
    each k(t) must annihilate g + f^+(t) as a polynomial identity in t."""
    rep, Kt = problem.rep, problem.Kt
    K0 = [at_zero(kt.coords) for kt in Kt]
    if len(K0) != len(problem.K):
        raise ValueError(f"dim K0 = {len(K0)} differs from dim K = {len(problem.K)}")
    span = Subspace(problem.glrep.dim, K0)
    if len(span) != len(K0):
        raise ValueError("K0 columns are dependent")
    beta = {}
    for i in range(len(K0)):
        for j in range(i + 1, len(K0)):
            co = span.coords(bracket(K0[i], K0[j], rep.n))
            if co is None:
                raise ValueError("K0 is not bracket-closed")
            beta[(i, j)] = co
    if any(k not in problem.model.H_span for k in K0):
        raise ValueError("K0 is not contained in the stabilizer of g")
    exp = problem.expansion
    if exp.b is not None:
        d = exp.b - exp.a
        if any(c.valuation() < d for kt in Kt for c in kt.s_coeffs.values()):
            raise ValueError("s-part of k(t) is not divisible by t^(b-a)")
    # k(t) = sum t^m k_m annihilates g + f^+(t) = sum t^(c-a) f_c as a
    # polynomial in t: for each r, the sum of k_m·f_c over m + c - a = r is 0
    fc = [(c - exp.a, rep.to_coords(form)) for c, form in exp.terms.items()]
    for kt in Kt:
        coeff: dict = {}
        for m in range(max(p.degree() for p in kt.coords.values()) + 1):
            k = {i: y for i, p in kt.coords.items() if (y := p.coeff(m))}
            for e, f in fc:
                coeff.setdefault(m + e, Counter()).update(rep.act(k, f))
        if any(any(v.values()) for v in coeff.values()):
            raise ValueError("k(t) does not annihilate g + f^+(t)")
    return K0, span, beta


def limit_algebra_by_conjugation(problem: LimitProblem) -> list[dict]:
    """Independent route to a basis of K0: conjugate a basis of K = stab(f)
    by lambda(t) symbolically (the E_ij component of weight w scales by
    t^w), normalize columns, and take t=0."""
    return [at_zero(col) for col in _regrade(problem.K, problem.glw)]


def same_span(A: list[dict], B: list[dict], n: int) -> bool:
    """Whether the elements A and B of gl(n) span the same subspace: over Q
    by `Subspace`, over Q(t) by ranks (`rank_qt`) if an entry is over Q[t]."""
    if any(isinstance(x, UniPoly) for v in A + B for x in v.values()):
        return rank_qt(A) == rank_qt(B) == rank_qt(A + B)
    a = Subspace(n * n, A)
    return len(Subspace(n * n, B)) == len(a) and all(v in a for v in B)


class TripleStabilizers(NamedTuple):
    pure: list                 # weight-homogeneous elements of K (gl elements)
    Klf_dims: Optional[dict]   # weight -> dim of the graded parts of K_lf; None if not graded


def triple_stabilizers(problem: LimitProblem) -> TripleStabilizers:
    """Pure elements of K and the graded dims of the stabilizer
    K_{ell f} = {k in K : [k, ell] in K}."""
    rep, glw, K = problem.rep, problem.glw, problem.K
    ell = problem.lam.ell()

    pure = [c for w in sorted(set(glw)) for c in graded_component(K, glw, w)]

    # K_lf: alpha with sum alpha_i [k_i, ell] = 0 modulo span K
    mod_K = Subspace(problem.glrep.dim, K).residue
    Klf = [lin_comb(alpha, K) for alpha in
           kernel(len(K), transpose([mod_K(bracket(k, ell, rep.n)) for k in K]))]
    try:
        Klf_dims = graded_dims_of(Klf, glw)
    except NotGraded:
        Klf_dims = None   # K_lf = stab f ∩ stab lf need not be lambda-graded

    comps = [rep.to_coords(form) for form in problem.expansion.terms.values()]
    for p in pure:
        if any(rep.act(p, c) for c in comps):
            raise ValueError("pure element does not kill a graded component of f")
    return TripleStabilizers(pure, Klf_dims)


def filtered_dims(problem: LimitProblem) -> dict:
    """i -> dim K^{>=i} where K^{>=i} = {k in K : components of weight < i vanish}.

    Quotient dims K^{>=i}/K^{>=i+1} match the graded dims of K0.
    """
    K, glw = problem.K, problem.glw
    if not K:
        return {}
    return {i: len(_weight_kernel(K, glw, lambda w: w < i))
            for i in range(min(glw), max(glw) + 2)}


# ---------------------------------------------------------------------------
# case classification (Prop stabgeneric / stabgeneral)
# ---------------------------------------------------------------------------

def classify_case(problem: LimitProblem) -> str:
    """Decide between (A) K0 nilpotent and (B) a triple stabilizer witness.

    (B) holds when K has a weight-pure element or a non-nilpotent matrix in
    q = K ∩ p, p the gl elements of weight >= 0.  q = Lie(G_f ∩ P(lambda)) is
    algebraic (char 0), so it holds the semisimple part of each element,
    nonzero unless the element is nilpotent.  A semisimple s in q is
    conjugated into L(lambda) by some u in U(lambda), rational as the
    level-by-level equations are linear over Q; u s u^-1 is the weight-0 part
    of s, as Ad(u) only adds positive weights, and kills each weight
    component of u.f: g, still the lowest, and sum c f_c^u.  That is the
    witness of (B), found with no draw.  When q is nil, K0 is nilpotent,
    which (A) certifies; a failure there is a computation error.

    The certificate is `_is_nil` on K0, taken by conjugation, which also
    works when the expansion tail is not transversal.  For a Lie algebra L
    in gl(n), "L is nilpotent and has a basis of nilpotent matrices" is the
    same as "every element of L is nilpotent": one way is Engel's theorem;
    the other, a nilpotent L splits the space into generalized weight
    spaces with linear weights, which vanish on a nilpotent basis and so
    everywhere."""
    glrep, glw, K = problem.glrep, problem.glw, problem.K
    # (B): a pure element of K (u = 1), or a semisimple element of q
    if problem.triple.pure or not _is_nil(
            [lin_comb(alpha, K) for alpha in _weight_kernel(K, glw, lambda w: w < 0)], glrep):
        return "B"
    if _is_nil(limit_algebra_by_conjugation(problem), glrep):
        return "A"
    raise ValueError("K ∩ P(lambda) is nil but K0 is not nilpotent")


def _is_nil(L: Sequence[dict], glrep: ConjRep) -> bool:
    """Whether the Lie algebra span(L) in gl(n) consists of nilpotent
    matrices, that is whether every product of elements of L has trace 0:
    Engel's theorem gives one direction; for the other, tr(a^k) = 0 for each
    a in the associative algebra A that the products span, so a is nilpotent
    (char 0).  A is grown as one subspace closed under left multiplication by L."""
    if not L:
        return True
    n, mats = glrep.n, [glrep.from_coords(x) for x in L]
    A, todo = Subspace(glrep.dim, combos=False), list(L)
    while todo:
        a = todo.pop()
        if A.add(a):
            if sum(a.get(i * (n + 1), 0) for i in range(n)):
                return False
            todo += [glrep.to_coords(x * glrep.from_coords(a)) for x in mats]
    return True


# ---------------------------------------------------------------------------
# derivations and the epsilon-extension feasibility test
# ---------------------------------------------------------------------------

def derivation_db(problem: LimitProblem) -> tuple[list, dict]:
    """d_b(h) = {s} with s.g = h.f_b, for h in K0, and its defect on each pair
    i < j: [k_i, d(k_j)] - [k_j, d(k_i)] - d([k_i, k_j]) in gl coordinates,
    which must lie in H.  Returns (values, defects).

    A lambda-homogeneous f has no f_b; it is read as the zero form, so d_b = 0.
    """
    model, rep, K0 = problem.model, problem.rep, problem.K0_coords
    f_b = problem.expansion.f_b
    fb = rep.to_coords(f_b) if f_b is not None else {}
    values = []
    for h in K0:
        sc, nc = model.split_V(rep.act(h, fb))
        if nc:
            raise ValueError("h does not star-stabilize f_b; d_b undefined")
        values.append(model.s_vec(sc))
    defects = {}
    for (i, j), co in problem.beta.items():
        diff = lin_comb({0: 1, 1: -1} | {2 + m: -c for m, c in co.items()},
                        [bracket(K0[i], values[j], rep.n),
                         bracket(K0[j], values[i], rep.n)] + values)
        if diff not in model.H_span:
            raise ValueError("d_b fails the derivation identity")
        defects[(i, j)] = diff
    return values, defects


class FeasibilityResult:
    __slots__ = ("feasible", "epsilon_basis", "hoffman", "regular")

    def __init__(self, feasible, epsilon_basis, hoffman=None, regular=None):
        self.feasible = feasible
        self.epsilon_basis = epsilon_basis  # list of (h, s), gl elements: h + eps*s; plus eps*K0
        self.hoffman = hoffman
        self.regular = regular

    def __bool__(self):
        return bool(self.feasible)


def hoffman_case(H: Sequence[dict], K0: Sequence[dict], n: int) -> Optional[int]:
    """Hoffman's trichotomy for a codimension-1 subalgebra K0 of H inside
    gl(n): 3 = K0 is an ideal of H; 2/1 distinguished by the codimension
    inside K0 of the largest H-ideal I contained in K0 (K0/I is then D or P)."""
    if len(H) - len(K0) != 1:
        return None
    dim, cur = n * n, list(K0)
    while cur:
        # next iterate: {x in span(cur) : [h, x] in span(cur) for all h in H},
        # the kernel of x -> ([h, x] mod span(cur))_h; one column per x
        mod_cur = Subspace(dim, cur).residue
        cols = [{a * dim + k: x for a, h in enumerate(H)
                 for k, x in mod_cur(bracket(h, v, n)).items()}
                for v in cur]
        nxt = [lin_comb(alpha, cur) for alpha in kernel(len(cur), transpose(cols))]
        if len(nxt) == len(cur):
            break
        cur = nxt
    return {0: 3, 1: 2, 2: 1}.get(len(K0) - len(cur))


def extension_feasible(problem: LimitProblem) -> FeasibilityResult:
    """Linear feasibility of extending d_b : K0 -> G/H to d_bar : K0 -> G/K0
    (Prop localmain); returns the eps-extension when feasible."""
    model, rep, glrep = problem.model, problem.rep, problem.glrep
    values, defects = derivation_db(problem)
    K0, beta = problem.K0_coords, problem.beta
    K = len(K0)
    # the quotient map gl -> gl/K0, and a complement W of K0 inside H: the
    # h whose residues modulo K0 are independent
    mod_K0 = problem.K0_span.residue
    quotient = Subspace(glrep.dim)
    W = [a for a, h in enumerate(model.H) if quotient.add(mod_K0(h))]
    # [k_i, W_w] and W_w modulo K0, once each
    brW = [[mod_K0(bracket(k, model.H[a], rep.n)) for a in W] for k in K0]
    Wq = [mod_K0(model.H[a]) for a in W]
    # unknowns x_{m,w}: dbar(k_m) = d_b(k_m) + sum_w x_{m,w} W_w (cosets mod K0).
    # The derivation identity dbar([k_i,k_j]) = [k_i, dbar(k_j)] - [k_j, dbar(k_i)]
    # on each pair i < j gives x_{m,w} the coefficient
    # delta_mj [k_i, W_w] - delta_mi [k_j, W_w] - beta_ij^m W_w, and the
    # defect of d_b as constant term.  One column per unknown, m major; pair
    # number p fills the rows p * dim(gl) + (gl coordinate).
    nw, dim = len(W), glrep.dim
    cols = [{} for _ in range(K * nw)]
    for p, ((i, j), co) in enumerate(beta.items()):
        for m in {i, j} | co.keys():
            coeffs = sparse([1 if m == j else 0, -1 if m == i else 0, -co.get(m, 0)])
            for w in range(nw):
                for k, x in lin_comb(coeffs, [brW[i][w], brW[j][w], Wq[w]]).items():
                    cols[m * nw + w][p * dim + k] = x
    rhs = {p * dim + k: -x for p, pair in enumerate(beta)
           for k, x in mod_K0(defects[pair]).items()}
    # one solution, free unknowns set to 0; None if inconsistent
    span = Subspace(len(beta) * dim)
    unknowns = [u for u, c in enumerate(cols) if span.add(c)]
    sol = span.coords(rhs)
    if sol is None:
        return FeasibilityResult(False, None)
    sol = {unknowns[g]: c for g, c in sol.items()}
    eps_basis = [(K0[m], lin_comb(
        {0: -1} | {1 + w: -sol[m * nw + w] for w in range(nw) if m * nw + w in sol},
        [values[m]] + [model.H[a] for a in W])) for m in range(K)]
    hof = hoffman_case(model.H, K0, rep.n)
    reg = None
    exp = problem.expansion
    if exp.b is not None:
        d = exp.b - exp.a
        cond_i = all((c - exp.a) % d == 0 for c in exp.terms)
        cond_ii = any(k not in model.H_span for k in problem.K)
        reg = (cond_i, cond_ii)
    return FeasibilityResult(True, eps_basis, hoffman=hof, regular=reg)


# ---------------------------------------------------------------------------
# Appendix-B graded stabilization conditions
# ---------------------------------------------------------------------------

def check_graded_conditions(problem: LimitProblem) -> list[dict]:
    """For each weight component h_w of each K0 element, check the identity
    required at leading order: an s of weight (b-a)+w with s.g = h_w.f_b
    when such a weight exists in S, else h_w.f_b = 0.  The b-a in {1, 2, >2}
    case split of the appendix is the specialization to w in {-1, 0}.  A
    lambda-homogeneous f has no f_b and so no condition: the report is empty."""
    model, rep, glw = problem.model, problem.rep, problem.glw
    exp = problem.expansion
    if exp.f_b is None:
        return []
    # the S basis is weight-pure and TO = S.g, so h_w.f_b lies in S_(b-a+w).g
    # exactly when lambda_N of it vanishes and lambda_S of it has no
    # coordinate on an S basis element of another weight
    s_weights = problem.s_weights
    fb = rep.to_coords(exp.f_b)
    d = exp.b - exp.a
    case = "b-a=1" if d == 1 else ("b-a=2" if d == 2 else "b-a>2")
    report = []
    for ki, k in enumerate(problem.K0_coords):
        for w, hw in sorted(weight_split(k, glw).items()):
            target = rep.act(hw, fb)
            needed = d + w
            entry = {"element": ki, "weight": w, "s_weight": needed, "case": case}
            if not target:
                entry["status"] = "zero"
            elif needed in s_weights:
                sc, nc = model.split_V(target)
                solvable = not nc and all(s_weights[i] == needed for i in sc)
                entry["status"] = "solved" if solvable else "unsolvable"
            else:
                entry["status"] = "nonzero-no-s"
            report.append(entry)
    return report
