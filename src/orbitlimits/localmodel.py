"""Local model at a base point x: V = TO ⊕ N, gl = H ⊕ S, the θ-map,
exact (1+θ(n))^{-1} and slice stabilizers (S-completion).

The solve for (1+θ(n))^{-1} uses the factorization θ(n) = B ∘ λ_S with
B(s-coeffs) = s·n, so only the dim(S) system C = I + λ_S∘B is ever
eliminated.  `LocalModel.slice_equations` is the one construction of the
slice matrices M_N and M_S at x + n.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactcore import (Mat, Q0, Q1, SingularMatrix, Subspace, _zero_like, det_bareiss,
                        lin_indep_subset, nullspace, solve)
from .lierep import ConjRep, Representation, lin_comb, stabilizer_algebra


def gl_act_weights(rep: Representation, weights: Sequence[int]) -> list[int]:
    """act_weight of each E_ij, indexed like ConjRep(n).basis (row-major)."""
    return [rep.act_weight(i, j, weights) for i in range(rep.n) for j in range(rep.n)]


def weight_split(v: Sequence, coord_weights: Sequence[int]) -> dict:
    """w -> the weight-w part of v, for each weight v touches, in the order
    of their first coordinates."""
    out: dict = {}
    for i, x in enumerate(v):
        if x:
            out.setdefault(coord_weights[i], [Q0] * len(v))[i] = x
    return out


def graded_basis(vectors: Sequence[Sequence], coord_weights) -> list[list]:
    """Replace a basis of a weight-graded subspace by a weight-pure one.  The
    span is graded exactly when the weight parts of the basis span no more."""
    comps = [part for v in vectors for part in weight_split(v, coord_weights).values()]
    idx = lin_indep_subset(comps)
    if len(idx) != len(vectors):
        raise ValueError("subspace is not weight-graded")
    return [comps[k] for k in idx]


class LocalModel:
    """gl ⊇ H ⊕ S with H = stab x, and V = TO ⊕ N with TO = S.x.  V and HS
    span TO + N and H + S in that generator order, so their coords split a
    vector in two; build_local_model grows and checks them, and supplies them."""

    def __init__(self, rep: Representation, x: Sequence, H, S, TO, N, V: Subspace,
                 HS: Subspace, ambient=None):
        self.rep = rep
        self.x = list(x)
        self.H = H                    # list of Mat (gl elements)
        self.S = S                    # list of Mat
        self.TO = TO                  # list of V-coordinate vectors, TO[i] = S[i].x
        self.N = N                    # list of V-coordinate vectors
        self.V = V                    # span of TO + N
        self.HS = HS                  # span of H + S in gl coordinates
        self.ambient = ambient        # optional basis of a subalgebra containing H+S
        self._theta_cache = None

    # -- projections --------------------------------------------------
    def split_V(self, v: Sequence):
        c = self.V.coords(v)          # TO + N is a basis of V
        k = len(self.TO)
        return c[:k], c[k:]

    def lamS(self, v: Sequence) -> list:
        """s-coefficients of the TO-component (lambda_S: V -> S-coeffs)."""
        return self.split_V(v)[0]

    def lamN(self, v: Sequence) -> list:
        return self.split_V(v)[1]

    def n_vec(self, ncoeffs: Sequence) -> list:
        """N-coefficients -> V-coordinate vector."""
        return lin_comb(ncoeffs, self.N, [Q0] * self.rep.dim)

    def s_mat(self, scoeffs: Sequence) -> Mat:
        return lin_comb(scoeffs, self.S, Mat.zeros(self.rep.n, self.rep.n))

    def h_mat(self, hcoeffs: Sequence) -> Mat:
        return lin_comb(hcoeffs, self.H, Mat.zeros(self.rep.n, self.rep.n))

    # -- theta --------------------------------------------------------
    def theta_matrix(self, n: Sequence) -> Mat:
        """θ(n)(dv) = λ_S(dv)·n as a matrix: B ∘ λ_S, where B has the columns
        s·n over the S basis."""
        dim = self.rep.dim
        bcols = [self.rep.act(s, list(n)) for s in self.S]
        units = ([Q1 if i == k else Q0 for i in range(dim)] for k in range(dim))
        return Mat.from_cols([lin_comb(self.lamS(e), bcols, [Q0] * dim) for e in units])

    def _theta_system(self, n: Sequence):
        """The columns s·n of B, as (index, entry) lists of their nonzeros, and
        C = I_S + λ_S ∘ B on S-coefficients.  Both are built once for each n
        and kept for the next call with the same n."""
        key = tuple(n)
        if self._theta_cache is None or self._theta_cache[0] != key:
            bcols = [self.rep.act(s, key) for s in self.S]
            lam = [self.lamS(b) for b in bcols]
            k = len(self.S)
            C = Mat([[lam[j][i] + (1 if i == j else 0) for j in range(k)] for i in range(k)], k)
            bnz = [[(i, x) for i, x in enumerate(b) if x] for b in bcols]
            self._theta_cache = (key, bnz, C)
        return self._theta_cache[1:]

    def delta(self, n: Sequence):
        """det(1 + θ(n)).  The limit pipeline does not need it: along f^+(t)
        at a limit's weight-graded model it is 1.  Tests read it."""
        return det_bareiss(self._theta_system(n)[1])

    def inv_one_plus_theta(self, n: Sequence, dvs: Sequence[Sequence]) -> list[list]:
        """(1+θ(n))^{-1} applied to each V-vector in dvs."""
        bnz, C = self._theta_system(n)
        rhs = [self.lamS(dv) for dv in dvs]
        try:
            us = solve(C, rhs)
        except ValueError as e:
            raise SingularMatrix(f"1+theta(n) is singular: {e}") from e
        out = []
        for dv, u in zip(dvs, us):
            terms = [(uj, b) for uj, b in zip(u, bnz) if uj]
            w = list(dv)
            if terms:
                # every entry takes the type of dv - u·B, as a dense update leaves it
                zero = _zero_like(terms[0][0] * w[0])
                w = [a + zero if a else zero for a in w]
            for uj, b in terms:
                for i, x in b:
                    w[i] = w[i] - uj * x
            out.append(w)
        return out

    # -- slice formulas -----------------------------------------------
    def solve_decomposition(self, n: Sequence, dv: Sequence):
        """The unique (s, n') with s·(x+n) + n' = dv.

        Returns (s-coefficients, n'-coefficients over the N-basis).
        """
        return self.split_V(self.inv_one_plus_theta(n, [dv])[0])

    def slice_equations(self, n: Sequence) -> tuple[list, list]:
        """The slice equations at x + n, for n over Q or Q[t]: (ker M_N, the
        columns of M_S).  Column j of M_N and of M_S is λ_N and λ_S of
        (1+θ(n))^{-1}(h_j·n); h + s with h = Σ α_j h_j kills x + n exactly
        when α is in ker M_N and s = -M_S α."""
        ws = self.inv_one_plus_theta(n, [self.rep.act(h, list(n)) for h in self.H])
        splits = [self.split_V(w) for w in ws]
        return nullspace(Mat.from_cols([nc for _, nc in splits])), [sc for sc, _ in splits]

    def slice_stabilizer(self, n: Sequence) -> list[Mat]:
        """Stabilizer of x+n: the elements h + s with α in ker M_N and
        s = -M_S α (`slice_equations`)."""
        ker, ms_cols = self.slice_equations(n)
        return [self.h_mat(alpha) + self.s_mat(lin_comb([-a for a in alpha], ms_cols,
                                                        [Q0] * len(self.S)))
                for alpha in ker]

    def star(self, h: Mat, n: Sequence) -> list:
        """h ⋆ n = λ_N(h·n), the induced H-action on N ≅ V/TO."""
        return self.lamN(self.rep.act(h, list(n)))

    def verify(self):
        ambient_dim = self.rep.n ** 2 if self.ambient is None else len(self.ambient)
        if not len(self.HS) == len(self.H) + len(self.S) == ambient_dim:
            raise ValueError("H + S does not fill the ambient algebra")
        if not len(self.V) == len(self.TO) + len(self.N) == self.rep.dim:
            raise ValueError("TO + N does not fill V")
        for s, to in zip(self.S, self.TO):
            if self.rep.act(s, self.x) != list(to):
                raise ValueError("TO basis is not S.x")
        return True


class NotTransverse(ValueError):
    pass


def build_local_model(rep: Representation, x: Sequence,
                      S: Optional[Sequence[Mat]] = None,
                      N: Optional[Sequence[Sequence]] = None,
                      N_contains: Optional[Sequence[Sequence]] = None,
                      weights=None,
                      ambient: Optional[Sequence[Mat]] = None) -> LocalModel:
    """Build the local model at x.

    A supplied S or N is validated as a complement; a complement not
    supplied is coefficientwise-orthogonal (the positive-definite trace
    pairing Tr(a b^T) on gl, the coefficient inner product on V).
    N_contains lists vectors that must lie inside N (the expansion tail of a
    limit pipeline); N is then completed with coordinate vectors.  ambient
    restricts the acting algebra to a subalgebra of gl (e.g. sl via its
    trace-zero basis).
    """
    x = list(x)
    if not any(x):
        raise ValueError("base point x must be nonzero")
    glrep = ConjRep(rep.n)
    cw = [rep.coord_weight(i, weights) for i in range(rep.dim)] if weights is not None else None
    glw = gl_act_weights(rep, weights) if weights is not None else None

    if ambient is None:
        H = stabilizer_algebra(rep, x)
        ambient_dim = glrep.dim
    else:
        # stabilizer within the span of the ambient basis
        cols = Mat.from_cols([rep.act(a, x) for a in ambient])
        H = [lin_comb(co, ambient, Mat.zeros(rep.n, rep.n)) for co in nullspace(cols)]
        ambient_dim = len(ambient)
    if cw is not None:
        H = [glrep.from_coords(v) for v in
             graded_basis([glrep.to_coords(h) for h in H], glw)]
    h_coords = [glrep.to_coords(h) for h in H]

    if S is not None:
        Sb = list(S)
    elif ambient is not None:
        # complement of H inside the ambient span, orthogonal in ambient coords
        amb = Subspace(glrep.dim, [glrep.to_coords(a) for a in ambient])
        comp = nullspace(Mat([amb.coords(v) for v in h_coords], len(ambient)))
        Sb = [lin_comb(co, ambient, Mat.zeros(rep.n, rep.n)) for co in comp]
    else:
        comp = nullspace(Mat(h_coords, glrep.dim))
        if glw is not None:
            comp = graded_basis(comp, glw)
        Sb = [glrep.from_coords(v) for v in comp]
    HS = Subspace(glrep.dim, h_coords + [glrep.to_coords(m) for m in Sb])
    if S is not None and not len(HS) == len(H) + len(Sb) == ambient_dim:
        raise NotTransverse("supplied S is not a complement of the stabilizer")

    TO = [rep.act(s, x) for s in Sb]
    V = Subspace(rep.dim, TO)
    if len(V) != len(TO):
        raise NotTransverse("S does not inject into the tangent space")

    if N is None and N_contains:
        contained = [list(v) for v in N_contains]
        Nb = [v for v in contained if V.add(v)]
        if len(Nb) != len(lin_indep_subset(contained)):
            raise NotTransverse("N_contains meets the tangent space")
        Nb += [[Q1 if i == j else Q0 for i in range(rep.dim)]
               for j in V.complete_with_units()]
    else:
        if N is not None:
            Nb = [list(v) for v in N]
        else:
            Nb = nullspace(Mat(TO, rep.dim))
            if cw is not None:
                Nb = graded_basis(Nb, cw)
        for v in Nb:
            V.add(v)
    if len(V) != rep.dim or len(TO) + len(Nb) != rep.dim:
        raise NotTransverse("supplied N is not a complement of the tangent space")

    model = LocalModel(rep, x, H, Sb, TO, Nb, V, HS,
                       ambient=list(ambient) if ambient is not None else None)
    model.verify()
    return model
