"""gl(X), its bracket, and its actions on forms and on matrices.

Conventions (pinned by the Sym^2 worked example):
  * a matrix g acts on polynomials as the derivation
        g . f = sum_{i,j} g[i][j] * x_j * d f / d x_i
    so E_ij sends x_i to x_j and the action of [[a,b],[c,-a]] on x^2 is
    2a x^2 + 2b xy;
  * on matrices g acts by commutator, g . y = g y - y g;
  * monomial bases are ordered graded-lexicographically in the given
    variable order, matrix-entry bases row-major;
  * coordinate vectors are sparse dicts {basis index: value} with no stored
    zeros, in V and in gl alike, an integer value an `int` and any other a
    `Fraction` (`exactcore.exact`).  An element g of gl(n) is its coordinate
    vector {i*n + j: g_ij}, from the action maps through the limit algebra;
    `Mat` is for matrix products, group elements and input and output, and
    `ConjRep.to_coords`/`from_coords` convert at those edges.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Sequence

from .exactcore import Mat, _as_q, dense, exact, kernel, transpose


class Form:
    """Homogeneous polynomial over Q: dict {exponent tuple: coefficient}, integers as `int`s."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: dict):
        self.nvars = nvars
        self.degree = degree
        t = {}
        for e, c in terms.items():
            e = tuple([int(x) for x in e])
            if len(e) != nvars or sum(e) != degree:
                raise ValueError(f"exponent {e} not of degree {degree} in {nvars} vars")
            if c:
                c = t[e] = exact(t[e] + c if e in t else c)
                if not c:
                    del t[e]
        self.terms = t

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Form) and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

    def __add__(self, other: "Form") -> "Form":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t[e] + c if e in t else c
        return Form(self.nvars, self.degree, t)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, s) -> "Form":
        return Form(self.nvars, self.degree, {e: c * s for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                            for i, k in enumerate(e) if k)
            parts.append(f"({self.terms[e]})*{mono}" if mono else f"({self.terms[e]})")
        return " + ".join(parts)


def monomial_basis(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree, graded-lex order
    (descending lexicographic).  Each tuple follows from the one before it:
    the last nonzero entry before the final one gives up 1, and the entry
    after it takes that 1 together with the final entry."""
    e = [degree] + [0] * (nvars - 1)
    out = [tuple(e)]
    last = nvars - 1
    while e[last] != degree:
        i = last - 1
        while not e[i]:
            i -= 1
        e[i] -= 1
        rest = e[last] + 1
        e[last] = 0
        e[i + 1] = rest
        out.append(tuple(e))
    return out


class SymRep:
    """gl(nvars) acting on Sym^degree by derivations."""

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.basis = monomial_basis(nvars, degree)
        self.index = {e: i for i, e in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.n = nvars
        self._move: dict = {}    # monomial index -> `_moves(index)`, filled on first touch

    def to_coords(self, f: Form) -> dict:
        return {self.index[e]: c for e, c in f.terms.items()}

    def from_coords(self, v: dict) -> Form:
        return Form(self.nvars, self.degree, {self.basis[k]: c for k, c in v.items()})

    def _moves(self, k: int) -> tuple:
        """The move table's entry for the monomial x^e with index k, made and
        kept: entry i is None if e_i = 0, else (e_i, targets) with targets[j]
        the index of x^(e - e_i + e_j), as x_j d/dx_i sends x^e to
        e_i x^(e - e_i + e_j).  The actions call it only for a k not yet in
        the table, so the table grows with the support acted on."""
        e, index, n = self.basis[k], self.index, self.n
        moves = []
        for i in range(n):
            if e[i]:
                low = e[:i] + (e[i] - 1,) + e[i + 1:]
                moves.append((e[i], [index[low[:j] + (low[j] + 1,) + low[j + 1:]]
                                     for j in range(n)]))
            else:
                moves.append(None)
        moves = self._move[k] = tuple(moves)
        return moves

    def act_elementary(self, i: int, j: int, v: dict) -> dict:
        """E_ij . v  =  x_j d/dx_i applied coordinatewise.  It sends distinct
        monomials to distinct ones, so no two terms meet."""
        out, table = {}, self._move
        for k, c in v.items():
            if m := (table.get(k) or self._moves(k))[i]:
                out[m[1][j]] = m[0] * c
        return out

    def act(self, g: dict, v: dict) -> dict:
        """g . v, one coordinate g_ij of g at a time on the nonzero coordinates
        of v."""
        out: dict = {}
        table = self._move
        nz = [(table.get(k) or self._moves(k), c) for k, c in v.items()]
        for i, gi in _rows(g, self.n).items():
            lowered = [(m[1], m[0] * c) for moves, c in nz if (m := moves[i])]
            for j, gij in gi:
                for targets, mc in lowered:
                    tgt = targets[j]
                    p = gij * mc
                    out[tgt] = out[tgt] + p if tgt in out else p
        return {k: x if type(x) is int else exact(x) for k, x in out.items() if x}

    def coord_weights(self, weights: Sequence[int]) -> list[int]:
        """The basis monomials' weights: `combinations_with_replacement` lists
        their factors in basis order."""
        return [sum(c) for c in combinations_with_replacement(weights, self.degree)]

    def gl_weights(self, weights: Sequence[int]) -> list[int]:
        """The weight w of each E_ij as an operator, row-major like
        `ConjRep(n).basis`: E_ij moves V_chi to V_{chi+w}.

        E_ij = x_j d/dx_i trades one x_i for one x_j, so w = d_j - d_i.
        This is also the grading of gl under conjugation by the 1-PS
        (Hom(Z,Y) sits in degree -1 when Z scales by t and Y is fixed).
        """
        return [wj - wi for wi in weights for wj in weights]


class ConjRep:
    """gl(n) acting on n x n matrices by commutator."""

    def __init__(self, n: int):
        self.n = n
        self.basis = [(i, j) for i in range(n) for j in range(n)]
        self.index = {p: k for k, p in enumerate(self.basis)}
        self.dim = n * n
        self.nvars = n

    def to_coords(self, m: Mat) -> dict:
        n = self.n
        return {i * n + j: exact(x) for i, r in enumerate(m.a) for j, x in enumerate(r) if x}

    def from_coords(self, v: dict) -> Mat:
        """The matrix with coordinates v."""
        n = self.n
        flat = dense(v, self.dim)
        return Mat([flat[i * n:(i + 1) * n] for i in range(n)], n)

    def act_elementary(self, i: int, j: int, v: dict) -> dict:
        # E_ij . Y = E_ij Y - Y E_ij: (E_ij Y)[i,k] = Y[j,k], (Y E_ij)[k,j] = Y[k,i]
        n = self.n
        out: dict = {}
        for idx, x in v.items():
            r, c = divmod(idx, n)
            if r == j:
                k = i * n + c
                out[k] = out[k] + x if k in out else x
            if c == i:
                k = r * n + j
                out[k] = out[k] - x if k in out else -x
        return {k: x for k, x in out.items() if x}

    def act(self, g: dict, v: dict) -> dict:
        return bracket(g, v, self.n)

    def coord_weights(self, weights: Sequence[int]) -> list[int]:
        """The weight d_i - d_j of each basis matrix E_ij, in basis order:
        lam E_ij lam^{-1} = t^{d_i-d_j} E_ij.  It is also E_ij's weight
        acting by commutator, so it is the grading of gl (`gl_weights`)."""
        return [wi - wj for wi in weights for wj in weights]

    gl_weights = coord_weights


Representation = SymRep | ConjRep


def _rows(g: dict, n: int) -> dict:
    """i -> [(j, g_ij)] over the coordinates of the gl(n) element g."""
    rows: dict = {}
    for k, x in g.items():
        rows.setdefault(k // n, []).append((k % n, x))
    return rows


def bracket(a: dict, b: dict, n: int) -> dict:
    """[a, b] = ab - ba for elements of gl(n) in coordinates, over the
    nonzero entries of each row of a and b."""
    ra, rb = _rows(a, n), _rows(b, n)
    acc: dict = {}
    for i, row in ra.items():
        for j, x in row:
            for k, y in rb.get(j, ()):
                c, p = i * n + k, x * y
                acc[c] = acc[c] + p if c in acc else p
    for i, row in rb.items():
        for j, y in row:
            for k, x in ra.get(j, ()):
                c, p = i * n + k, y * x
                acc[c] = acc[c] - p if c in acc else -p
    return {k: x if type(x) is int else exact(x) for k, x in acc.items() if x}


def substitute_linear(f: Form, rows: Sequence[Sequence]) -> dict:
    """Exponent->coefficient mapping of f after x_i -> sum_j rows[i][j]*x_j.

    The entries of rows are rationals, and so are the result's coefficients.
    """
    nv = f.nvars
    zero_exp = (0,) * nv

    def mul_linear(poly: dict, row) -> dict:
        out = {}
        for e, c in poly.items():
            for j, a in enumerate(row):
                if not a:
                    continue
                ee = list(e)
                ee[j] += 1
                key = tuple(ee)
                prev = out.get(key)
                out[key] = a * c if prev is None else prev + a * c
        return {e: c for e, c in out.items() if c}

    total: dict = {}
    for e, coef in f.terms.items():
        poly = {zero_exp: coef}
        for i, k in enumerate(e):
            for _ in range(k):
                poly = mul_linear(poly, rows[i])
        for ee, c in poly.items():
            prev = total.get(ee)
            total[ee] = c if prev is None else prev + c
    return {e: c for e, c in total.items() if c}


def group_act_form(A: Mat, f: Form) -> Form:
    """The group action consistent with the derivation action: substitution
    x_i -> sum_j A[i][j] x_j (so A = I + eps*g perturbs f by eps * g.f)."""
    return Form(f.nvars, f.degree, substitute_linear(f, A.a))


def elementary(n: int, i: int, j: int, coef=1) -> Mat:
    m = Mat.zeros(n, n)
    m.a[i][j] = _as_q(coef)
    return m


def _action_map_cols(rep: Representation, v: dict) -> list[dict]:
    """The columns of g |-> rho(g).v : gl -> V, indexed by E_ij row-major."""
    return [rep.act_elementary(i, j, v) for i in range(rep.n) for j in range(rep.n)]


def stabilizer_algebra(rep: Representation, v: dict) -> list[dict]:
    """Basis of {g in gl : rho(g).v = 0} in gl coordinates, deterministic order."""
    return kernel(rep.n ** 2, transpose(_action_map_cols(rep, v)))

