"""Local model at a base point x: V = TO ⊕ N, gl = H ⊕ S, the θ-map,
exact (1+θ(n))^{-1} and slice stabilizers (S-completion).

The solve for (1+θ(n))^{-1} uses the factorization θ(n) = B ∘ λ_S with
B(s-coeffs) = s·n, so only the dim(S) system C = I + λ_S∘B is ever
eliminated, once per call: `LocalModel.slice_equations`, the one
construction of the slice matrices M_N and M_S at x + n, makes one call for
all of H.  A 1-PS grades gl by `rep.gl_weights`.  V-vectors, gl elements
(as their coordinates) and coefficient vectors over the H, S and N bases are
sparse dicts.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Optional, Sequence

from .exactcore import (Mat, SingularMatrix, Subspace, UniPoly, dense, det_bareiss, kernel,
                        lin_comb, transpose)
from .lierep import Representation, stabilizer_algebra


def weight_split(v: dict, coord_weights: Sequence[int]) -> dict:
    """w -> the weight-w part of v, for each weight v touches, in the order
    of their first coordinates."""
    out: dict = {}
    for i in sorted(v):
        out.setdefault(coord_weights[i], {})[i] = v[i]
    return out


class NotGraded(ValueError):
    """A span that should be graded under a 1-PS is not: at a point that is
    homogeneous under the 1-PS, H, S and N always are."""


def check_graded(basis: Sequence[dict], coord_weights) -> None:
    """Raise unless span(basis) is weight-graded, for a basis that is the
    identity on some set of columns, as `kernel` returns.  That basis is
    unique, and a graded span's is the union of its weight parts' ones, so
    the span is graded exactly when each basis vector is weight-pure."""
    if any(len({coord_weights[i] for i in v}) > 1 for v in basis):
        raise NotGraded("subspace is not weight-graded")


class LocalModel:
    """gl ⊇ H ⊕ S with H = stab x, and V = TO ⊕ N with TO = S.x.  N is an
    explicit part followed by the unit vectors at the `units` columns.  V
    spans TO + the explicit part, in that generator order (build_local_model
    grows and checks it); an explicit part not yet in V enters it on the
    first split_V.  H_span, the span of H, is the one whose orthogonal
    complement gave S, or is built on first use."""

    def __init__(self, rep: Representation, x: dict, H, S, TO, N, V: Subspace,
                 H_span: Optional[Subspace] = None, units: Sequence[int] = ()):
        self.rep = rep
        self.x = dict(x)
        self.H = H                    # list of gl elements
        self.S = S                    # list of gl elements
        self.TO = TO                  # list of V-coordinate vectors, TO[i] = S[i].x
        self.N = N                    # list of V-coordinate vectors
        self.V = V                    # span of TO + the explicit part of N
        if H_span is not None:
            self.H_span = H_span
        self._units = units           # increasing columns of N's unit vectors, which end N

    @cached_property
    def H_span(self) -> Subspace:
        """The span of H, for membership (it keeps no coordinates)."""
        return Subspace(self.rep.n ** 2, self.H, combos=False)

    # -- projections --------------------------------------------------
    def split_V(self, v: dict) -> tuple[dict, dict]:
        """(λ_S v, λ_N v): the coefficients of v over S.x = TO and over N; v's
        residue modulo V, zero at V's pivots, gives those of the unit vectors."""
        k, units = len(self.TO), self._units
        first_unit = len(self.N) - len(units)
        for w in self.N[len(self.V) - k:first_unit]:
            self.V.add(w)
        r, A = self.V.split(v)
        n = {g - k: c for g, c in A.items() if g >= k}
        n.update((first_unit + bisect_left(units, j), c) for j, c in r.items())
        return {g: c for g, c in A.items() if g < k}, n

    def lamS(self, v: dict) -> dict:
        """s-coefficients of the TO-component (lambda_S: V -> S-coeffs)."""
        return self.split_V(v)[0]

    def lamN(self, v: dict) -> dict:
        return self.split_V(v)[1]

    def n_vec(self, ncoeffs: dict) -> dict:
        """N-coefficients -> V-coordinate vector."""
        return lin_comb(ncoeffs, self.N)

    def element(self, hcoeffs: dict, scoeffs: dict) -> dict:
        """H- and S-coefficients -> the gl element h + s."""
        nh = len(self.H)
        return lin_comb(hcoeffs | {nh + i: c for i, c in scoeffs.items()}, self.H + self.S)

    def s_vec(self, scoeffs: dict) -> dict:
        """S-coefficients -> gl element."""
        return lin_comb(scoeffs, self.S)

    # -- theta --------------------------------------------------------
    def theta_columns(self, n: dict) -> list[dict]:
        """The sparse columns θ(n)(e_k), k < dim V, of θ(n)(dv) = λ_S(dv)·n:
        B ∘ λ_S, where B has the columns s·n over the S basis."""
        bcols = [self.rep.act(s, n) for s in self.S]
        return [lin_comb(self.lamS({k: 1}), bcols) for k in range(self.rep.dim)]

    def theta_matrix(self, n: dict) -> Mat:
        """θ(n) as a matrix (`theta_columns`)."""
        dim = self.rep.dim
        return Mat.from_cols([dense(c, dim) for c in self.theta_columns(n)])

    def delta(self, n: dict):
        """det(1 + θ(n)) = det C, for n over Q or Q[t].  Over Q[t], n is the
        sum of t^e n_e with each n_e over Q, and λ_S is Q-linear, so column j
        of λ_S ∘ B is the sum of t^e λ_S(s_j·n_e).  The limit pipeline does
        not need Δ: along f^+(t) at a limit's weight-graded model it is 1.
        Tests read it."""
        parts = [(1, n)]                     # (t^e, n_e)
        if any(isinstance(x, UniPoly) for x in n.values()):
            by_e: dict = {}
            for i, p in n.items():
                for e, c in UniPoly.coerce(p).c.items():
                    by_e.setdefault(e, {})[i] = c
            parts = [(UniPoly.t(e), ne) for e, ne in by_e.items()]
        coeffs = {0: 1} | {k: te for k, (te, _) in enumerate(parts, 1)}
        ccols = [lin_comb(coeffs, [{j: 1}] + [self.lamS(self.rep.act(s, ne)) for _, ne in parts])
                 for j, s in enumerate(self.S)]
        return det_bareiss(Mat.from_cols([dense(c, len(ccols)) for c in ccols]))

    def inv_one_plus_theta(self, n: dict, dvs: Sequence[dict]) -> list[dict]:
        """(1+θ(n))^{-1} applied to each V-vector dv in dvs, for n over Q:
        dv - B u with C u = λ_S dv, u read off as coordinates over the columns
        of C = I_S + λ_S ∘ B on S-coefficients (B has the columns s·n).  B and
        C are built on each call."""
        bcols = [self.rep.act(s, n) for s in self.S]
        C = Subspace(len(bcols), [lin_comb({0: 1, 1: 1}, [{j: 1}, self.lamS(b)])
                                  for j, b in enumerate(bcols)])
        if len(C) < len(self.S):
            raise SingularMatrix("1+theta(n) is singular")
        return [lin_comb({0: 1} | {j + 1: -x for j, x in C.coords(self.lamS(dv)).items()},
                         [dv] + bcols) for dv in dvs]

    # -- slice formulas -----------------------------------------------
    def solve_decomposition(self, n: dict, dv: dict):
        """The unique (s, n') with s·(x+n) + n' = dv.

        Returns (s-coefficients, n'-coefficients over the N-basis).
        """
        return self.split_V(self.inv_one_plus_theta(n, [dv])[0])

    def slice_equations(self, n: dict) -> tuple[list, list]:
        """The slice equations at x + n, for n over Q: (ker M_N, the columns
        of M_S).  Column j of M_N and of M_S is λ_N and λ_S of
        (1+θ(n))^{-1}(h_j·n); h + s with h = Σ α_j h_j kills x + n exactly
        when α is in ker M_N and s = -M_S α."""
        ws = self.inv_one_plus_theta(n, [self.rep.act(h, n) for h in self.H])
        splits = [self.split_V(w) for w in ws]
        return (kernel(len(self.H), transpose([nc for _, nc in splits])),
                [sc for sc, _ in splits])

    def slice_stabilizer(self, n: dict) -> list[dict]:
        """Stabilizer of x+n: the elements h + s with α in ker M_N and
        s = -M_S α (`slice_equations`)."""
        ker, ms_cols = self.slice_equations(n)
        return [self.element(alpha, lin_comb({j: -a for j, a in alpha.items()}, ms_cols))
                for alpha in ker]

    def star(self, h: dict, n: dict) -> dict:
        """h ⋆ n = λ_N(h·n), the induced H-action on N ≅ V/TO."""
        return self.lamN(self.rep.act(h, n))


class NotTransverse(ValueError):
    pass


def build_local_model(rep: Representation, x: dict,
                      S: Optional[Sequence[dict]] = None,
                      N: Optional[Sequence[dict]] = None,
                      N_contains: Optional[Sequence[dict]] = None,
                      weights=None,
                      ambient: Optional[Sequence[dict]] = None) -> LocalModel:
    """Build the local model at x; S and ambient are lists of gl elements.

    A supplied S or N is validated as a complement; a complement not
    supplied is coefficientwise-orthogonal (the positive-definite trace
    pairing Tr(a b^T) on gl, the coefficient inner product on V), hence
    transversal, and N is read off V's reduced rows.  N_contains lists
    vectors that must lie inside N (a limit's expansion tail); N is then
    completed by the unit vectors at the free columns of TO + N_contains,
    which never enter V.  ambient restricts the acting algebra to a
    subalgebra of gl (e.g. sl via its trace-zero basis).  weights (a 1-PS,
    not with ambient) require H and a computed S and N to be graded.  So
    H + S fills the acting algebra, TO + N fills V and TO = S.x as built.
    """
    if ambient is not None and weights is not None:
        raise ValueError("weights and ambient cannot both be given")
    if not x:
        raise ValueError("base point x must be nonzero")
    gl_dim = rep.n ** 2
    glw = rep.gl_weights(weights) if weights is not None else None

    H_span = None
    if ambient is None:
        H = stabilizer_algebra(rep, x)
        ambient_dim = gl_dim
        if glw is not None:
            check_graded(H, glw)
    else:
        # stabilizer within the span of the ambient basis
        H = [lin_comb(co, ambient) for co in
             kernel(len(ambient), transpose([rep.act(a, x) for a in ambient]))]
        ambient_dim = len(ambient)

    if S is not None:
        Sb = list(S)
        if not len(Subspace(gl_dim, H + Sb)) == len(H) + len(Sb) == ambient_dim:
            raise NotTransverse("supplied S is not a complement of the stabilizer")
    elif ambient is not None:
        # complement of H inside the ambient span, orthogonal in ambient coords
        amb_span = Subspace(gl_dim, ambient)
        Sb = [lin_comb(co, ambient) for co in
              kernel(len(ambient), [amb_span.coords(v) for v in H])]
    else:
        H_span = Subspace(gl_dim, H, combos=False)
        Sb = H_span.orthogonal()
        if glw is not None:
            check_graded(Sb, glw)

    TO = [rep.act(s, x) for s in Sb]
    V = Subspace(rep.dim, TO)
    if len(V) != len(TO):
        raise NotTransverse("S does not inject into the tangent space")

    units: list = []
    if N is not None:
        Nb = [dict(v) for v in N]
        for v in Nb:
            V.add(v)
        if not len(V) == len(TO) + len(Nb) == rep.dim:
            raise NotTransverse("supplied N is not a complement of the tangent space")
    elif N_contains:
        Nb = [dict(v) for v in N_contains if V.add(v)]
        if len(Nb) != len(Subspace(rep.dim, N_contains, combos=False)):
            raise NotTransverse("N_contains meets the tangent space")
        units = V.free_columns()
        Nb += [{j: 1} for j in units]
    else:
        Nb = V.orthogonal()
        if weights is not None:
            check_graded(Nb, rep.coord_weights(weights))

    return LocalModel(rep, x, H, Sb, TO, Nb, V, H_span, units=units)
