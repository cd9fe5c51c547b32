"""Exact scalars (Q, Q[t]) and exact linear algebra.

Everything downstream (stabilizers, local models, limit algebras) reduces to
kernels, solves and determinants over the rationals.  Polynomials in t
(`UniPoly`, sparse dict rep) are eliminated only by the fraction-free
`_bareiss`, for determinants and ranks.  Sparse columns over Q[t], such as
the stabilizer curve K(t), are normalized through their values at t = 0
(`at_zero`, `column_normalize`) by kernels over Q.

One scalar rule holds throughout: a rational value that is an integer is an
`int` and any other is a `Fraction` (`exact`), in sparse vectors, dense
vectors, `Mat` entries and `UniPoly` coefficients alike, and no quotient is
`int / int`: every division over Q goes through `qdiv`.

A vector is a sparse dict {index: value} with no stored zeros; `Mat` is
a dense row-major matrix, and `sparse` and `dense` convert at the edges.  All
row reduction over Q goes through one sparse incremental `Subspace` echelon.
It answers questions about one subspace -- independence, the residue of a
vector modulo the span (the quotient map), membership, coordinates, free
columns, the orthogonal complement -- and `kernel`, `rref`, `nullspace`,
`rank` and `solve` read their answers off it.  Inside, its rows are
primitive integer vectors, eliminated fraction-free with the content divided
out.  Fraction-free Bareiss elimination on sparse rows gives determinants
over Q, in `int`s for an integer matrix, and determinants and ranks over
Q(t) without a rational function, at a cost in proportion to the nonzeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def exact(x):
    """x as an `int` if it is an integer `Fraction`, else x itself."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def qdiv(a, b):
    """a / b over Q by the scalar rule: `a // b` where the integer b divides
    the integer a, `Fraction(a, b)` for other integers, and `exact(a / b)`
    when an operand is a `Fraction`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(a / b)


def as_strings(x):
    """A rational, or nested lists or tuples of them, with each rational as
    its string, as the JSON output writes it: an integer value is an `int`,
    which would otherwise be written as a JSON number, like a count."""
    return [as_strings(y) for y in x] if isinstance(x, (list, tuple)) else str(x)


def _as_q(x):
    """x as a scalar of Q under the rule: an `int` or a non-integer `Fraction`."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return exact(x)
    if isinstance(x, (int, str)):
        return exact(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _poly(c: dict) -> "UniPoly":
    """The UniPoly with the coefficient dict c, which it takes over; c holds
    no zero and follows the scalar rule."""
    out = UniPoly.__new__(UniPoly)
    out.c = c
    return out


class UniPoly:
    """Sparse polynomial in t over Q: {exponent: coefficient}, each
    coefficient nonzero, an `int` if it is an integer and a `Fraction`
    otherwise.  Immutable."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _as_q(v)
                if v:
                    c[int(e)] = v
        self.c = c

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(v) -> "UniPoly":
        return UniPoly({0: v})

    @staticmethod
    def t(e: int = 1, coef=1) -> "UniPoly":
        return UniPoly({e: coef})

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def coerce(x) -> "UniPoly":
        if isinstance(x, UniPoly):
            return x
        return UniPoly.const(x)

    # -- structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.c)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient; -1 for zero."""
        return min(self.c) if self.c else -1

    def lc(self):
        return self.c[self.degree()] if self.c else 0

    def coeff(self, e: int):
        return self.c.get(e, 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.c == other.c

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        other = UniPoly.coerce(other)
        c = dict(self.c)
        for e, v in other.c.items():
            w = exact(c[e] + v) if e in c else v
            if w:
                c[e] = w
            else:
                del c[e]
        return _poly(c)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return UniPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, _POLY_OPERANDS):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            v = _as_q(other)
            if not v:
                return UniPoly.zero()
            return _poly({e: exact(w * v) for e, w in self.c.items()})
        other = UniPoly.coerce(other)
        c: dict = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e, p = e1 + e2, v1 * v2
                c[e] = c[e] + p if e in c else p
        return _poly({e: exact(w) for e, w in c.items() if w})

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t**k (k may be negative if the valuation allows)."""
        if k < 0 and self.c and min(self.c) + k < 0:
            raise ValueError("negative exponent in shift")
        return _poly({e + k: v for e, v in self.c.items()})

    def divmod(self, other: "UniPoly"):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        r = dict(self.c)
        q: dict = {}
        dlc = other.lc()
        dd = other.degree()
        while r:
            e = max(r)
            if e < dd:
                break
            f = qdiv(r[e], dlc)
            q[e - dd] = f
            for e2, v2 in other.c.items():
                ee = e - dd + e2
                w = exact(r.get(ee, 0) - f * v2)
                if w:
                    r[ee] = w
                else:
                    del r[ee]
        return _poly(q), _poly(r)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def __call__(self, x):
        x = _as_q(x)
        r = 0
        for e, v in self.c.items():
            r += v * x**e
        return exact(r)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(str(v))
            elif e == 1:
                parts.append(f"{v}*t" if v != 1 else "t")
            else:
                parts.append(f"{v}*t^{e}" if v != 1 else f"t^{e}")
        return " + ".join(parts).replace("+ -", "- ")


_POLY_OPERANDS = (UniPoly, int, Fraction)   # other types get their reflected operator


class RationalFn:
    """Not a scalar of the library: no library value is one.  The class
    exists only for the `isinstance` test in the rref hook of
    `perfbench/tracing.py`, which imports it."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Dense row-major matrix over Q, by the scalar rule (an `int` for an
    integer entry, else a `Fraction`).  The arithmetic keeps the rule: an
    integer result is an `int`.  The library gives a `Mat` `UniPoly` entries
    only for `det_bareiss` and `ConjRep.to_coords` to read."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows_of_entries: Sequence[Sequence], cols: int = 0):
        """cols is read only when there are no rows: a 0 x cols matrix."""
        self.a = [list(r) for r in rows_of_entries]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else cols
        for r in self.a:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat([[0] * c for _ in range(r)], c)

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat.zeros(n, n)
        for i in range(n):
            m.a[i][i] = 1
        return m

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        return Mat([list(r) for r in zip(*cols)], len(cols))

    @staticmethod
    def rational(rows) -> "Mat":
        return Mat([[_as_q(x) for x in r] for r in rows])

    # -- access -------------------------------------------------------
    def __getitem__(self, ij):
        return self.a[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.a == other.a)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        return Mat([[exact(x + y) for x, y in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[exact(x - y) for x, y in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def scale(self, s) -> "Mat":
        return Mat([[exact(x * s) for x in r] for r in self.a])

    def __mul__(self, other: "Mat") -> "Mat":
        """Row-by-row sparse product (Gustavson 1978): row i of the result
        accumulates A[i][k] * B[k][j] over the nonzeros of A's row i and of
        B's row k only, in increasing k.  An entry that gets no term is 0."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        b_rows = [[(j, y) for j, y in enumerate(r) if y] for r in other.a]
        m = other.cols
        out = []
        for r in self.a:
            acc = {}
            for x, bk in zip(r, b_rows):
                if not x:
                    continue
                for j, y in bk:
                    p = x * y
                    s = acc.get(j)
                    acc[j] = p if s is None else s + p
            out.append([0 if (x := acc.get(j)) is None else exact(x) for j in range(m)])
        return Mat(out, m)

    def __repr__(self):
        return "Mat(" + ",\n    ".join(repr(r) for r in self.a) + ")"


def rref(m: Mat):
    """Reduced row echelon form over Q, read off `Subspace`.

    Returns (rows, pivot_column_indices): the nonzero rows in pivot order,
    then zero rows up to m.rows.  The form is unique, so it does not depend
    on the order in which `Subspace` eliminates.
    """
    ech = Subspace(m.cols, map(sparse, m.a), combos=False).rows
    pivots = sorted(ech)
    out = [dense(ech[p], m.cols) for p in pivots]
    out += [[0] * m.cols for _ in range(m.rows - len(pivots))]
    return out, pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel(ncols: int, rows: Iterable[dict]) -> list[dict]:
    """Basis of {v : r·v = 0 for every sparse row r} in Q^ncols (`Subspace.orthogonal`)."""
    return Subspace(ncols, rows, combos=False).orthogonal()


def nullspace(m: Mat) -> list[list]:
    """Basis of the right kernel over Q, as dense column vectors (`kernel`)."""
    return [dense(v, m.cols) for v in kernel(m.cols, map(sparse, m.a))]


def transpose(vectors: Sequence[dict]) -> list[dict]:
    """The nonzero rows of the matrix whose columns are the sparse vectors."""
    rows: dict = {}
    for j, v in enumerate(vectors):
        for i, x in v.items():
            rows.setdefault(i, {})[j] = x
    return list(rows.values())


def solve(m: Mat, rhs_cols: Sequence[Sequence]) -> list[list]:
    """Solve m·x = b for each column b; m must be square invertible."""
    n = m.rows
    if m.cols != n:
        raise ValueError("solve requires a square matrix")
    k = len(rhs_cols)
    aug_rows = [list(m.a[i]) + [col[i] for col in rhs_cols] for i in range(n)]
    rows, pivots = rref(Mat(aug_rows))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[rows[i][n + j] for i in range(n)] for j in range(k)]


def _ring(entries: Iterable):
    """(coerce, one, exact division) of Q[t] if any entry is a UniPoly, else of Q."""
    if any(isinstance(x, UniPoly) for x in entries):
        return UniPoly.coerce, UniPoly.const(1), UniPoly.exact_div
    return _as_q, 1, qdiv


def _bareiss(rows: list[dict], cols: Iterable[int], one, div):
    """Fraction-free forward elimination (Bareiss 1968) of sparse rows, in
    place, over the given columns in order, until every row is a pivot row.

    For each column it yields (pivot, swapped), the pivot brought up by a row
    swap if swapped, or (None, False) if no row left has a nonzero there.  A
    later row is updated only on the union of its columns with the pivot
    row's, or, with a zero in the pivot column, only rescaled by pivot/prev,
    and not even that when pivot == prev.  Every division is exact.
    """
    n, k, prev = len(rows), 0, one
    for col in cols:
        if k == n:
            return
        p = next((i for i in range(k, n) if col in rows[i]), None)
        if p is None:
            yield None, False
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pr = rows[k]
        piv = pr.pop(col)
        rescale, scale, divide = piv != prev, piv != one, prev != one
        for i in range(k + 1, n):
            r = rows[i]
            c = r.pop(col, None)
            if c is None:
                if rescale:
                    rows[i] = {j: div(piv * x, prev) for j, x in r.items()}
                continue
            if scale:
                for j, x in r.items():
                    r[j] = piv * x
            _sub_scaled(r, c, pr)
            if divide:
                for j, x in r.items():
                    r[j] = div(x, prev)
        prev = piv
        k += 1
        yield piv, p != k - 1


def det_bareiss(m: Mat):
    """Fraction-free determinant (`_bareiss`) over Q or Q[t], on sparse rows.
    Returns a UniPoly if any entry is one, else a rational by the scalar rule:
    an `int` for an integer determinant, eliminated in `int`s when every entry
    is an `int`."""
    n = m.rows
    if m.cols != n:
        raise ValueError("determinant of non-square matrix")
    coerce, one, div = _ring(x for r in m.a for x in r)
    rows = [{j: y for j, x in enumerate(r) if x and (y := coerce(x))} for r in m.a]
    sign, d = 1, one
    for d, swapped in _bareiss(rows, range(n), one, div):
        if d is None:
            return coerce(0)
        if swapped:
            sign = -sign
    return exact(-d if sign < 0 else d)


def rank_qt(vectors: Sequence[dict]) -> int:
    """The rank over Q(t) of sparse vectors over Q or Q[t], by fraction-free
    elimination (`_bareiss`) inside Q[t]: no rational function is formed."""
    coerce, one, div = _ring(x for v in vectors for x in v.values())
    rows = [{j: y for j, x in v.items() if x and (y := coerce(x))} for v in vectors]
    cols = sorted({j for r in rows for j in r})
    return sum(piv is not None for piv, _ in _bareiss(rows, cols, one, div))


class SingularMatrix(ValueError):
    pass


def column_normalize(cols: Sequence[dict]) -> list[dict]:
    """Normalize sparse Q[t]-columns {row: UniPoly} so that their values at
    t = 0 (`at_zero`) are independent over Q.

    Preserves the Q(t)-column span: strip common t-powers, then repeatedly
    replace the last column that a relation among the values at 0 involves
    by the combination, divided by its t-valuation.
    """
    def strip(c):
        v = min((p.valuation() for p in c.values()), default=0)
        return {i: p.shift(-v) for i, p in c.items()} if v > 0 else c

    cols = [strip(c) for c in cols]
    for _ in range(10000):
        ker = kernel(len(cols), transpose([at_zero(c) for c in cols]))
        if not ker:
            return cols
        comb = lin_comb(ker[0], cols)
        if not comb:
            raise ValueError("columns are linearly dependent over Q(t)")
        cols[max(ker[0])] = strip(comb)
    raise RuntimeError("column_normalize failed to terminate")


# ---------------------------------------------------------------------------
# subspaces


def sparse(v: Sequence) -> dict:
    """The nonzero entries {index: value} of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


def dense(v: dict, dim: int) -> list:
    """v as a dense list of length dim, 0 elsewhere."""
    return [v.get(i, 0) for i in range(dim)]


def lin_comb(coeffs: dict, terms: Sequence[dict]) -> dict:
    """sum over coeffs' items (k, c) of c * terms[k], for sparse vectors over
    Q or Q[t], by the scalar rule."""
    acc: dict = {}
    for k, c in coeffs.items():
        for i, x in terms[k].items():
            p = c * x
            acc[i] = acc[i] + p if i in acc else p
    return {i: exact(x) for i, x in acc.items() if x}


def at_zero(v: dict) -> dict:
    """The value at t = 0 of a sparse vector over Q[t]: its constant coefficients."""
    return {j: y for j, x in v.items() if (y := x.coeff(0))}


def _sub_scaled(d: dict, c, s: dict) -> None:
    """d -= c * s for sparse vectors, in place, dropping zeros."""
    for j, x in s.items():
        y = d[j] - c * x if j in d else -(c * x)
        if y:
            d[j] = y
        else:
            del d[j]


def _integral(v: dict) -> tuple:
    """(W, D) with v = W/D: D the lcm of the denominators of v's entries and W
    the integer vector of its nonzero entries times D."""
    D = lcm(*[x.denominator for x in v.values()])
    if D == 1:
        return {j: x.numerator for j, x in v.items() if x}, 1
    return {j: x.numerator * (D // x.denominator) for j, x in v.items() if x}, D


def _over(W: dict, D: int) -> dict:
    """The rational vector W/D as a new dict, an `int` wherever D divides."""
    if D == 1:
        return dict(W)
    return {j: x // D if not x % D else Fraction(x, D) for j, x in W.items()}


def _primitive(R: dict, C: dict) -> None:
    """Divide the integer vectors R and C, in place, by the gcd of all their
    entries."""
    g = gcd(*R.values(), *C.values())
    if g > 1:
        for v in (R, C):
            for j, x in v.items():
                v[j] = x // g


class Subspace:
    """A subspace of Q^dim grown one generator at a time; vectors are sparse.

    The span is kept in reduced row echelon form, eliminated fraction-free
    over the integers.  The row with pivot p is a primitive integer dict R
    with R[p] > 0 that stands for the rational row R/R[p]: 1 at p, 0 at every
    other row's pivot.  The combination {generator: coefficient} of the
    accepted generators that equals the row is an integer dict C over the
    same denominator R[p], and R and C together have content 1.

    A vector v enters as W/D, W an integer vector and D the lcm of v's
    denominators.  Because the rows are fully reduced, v's part along the
    row with pivot p is v[p] R/R[p], so the residue, membership and
    coordinates of v cost one pass over the rows that v meets: W is scaled
    by the lcm L of their pivot entries R[p], which divide a common minor,
    so that each W[p]/R[p] is an integer, then the rows are subtracted and
    the content of W, its combination and D L is divided out.  A new row W
    with pivot p clears column p of each row R that meets it by
    R <- W[p] R - R[p] W, divided by its content with its combination; an
    index {column: pivots of the rows that may meet it} names those R, and
    `add` still checks R[p], since a row loses an entry when it is cleared.
    `rows`, `split`, `residue`, `coords` and `orthogonal` give an `int` for
    each integer value.
    """

    __slots__ = ("dim", "_rows", "_combos", "_cols")

    def __init__(self, dim: int, gens: Iterable[dict] = (), combos: bool = True):
        """combos=False skips the generator combinations, and `coords` with them."""
        self.dim = dim
        self._rows: dict = {}                # pivot -> primitive integer row
        self._combos: Optional[dict] = {} if combos else None   # pivot -> combination
        self._cols: dict = {}                # column -> pivots of rows that may meet it
        for v in gens:
            self.add(v)

    @property
    def rows(self) -> dict:
        """The reduced rows {pivot: row} over Q, in the order of acceptance."""
        return {p: _over(r, r[p]) for p, r in self._rows.items()}

    def __len__(self) -> int:
        """Dimension of the span, which is the number of accepted generators."""
        return len(self._rows)

    def _reduce(self, W: dict, D: int, combo: bool) -> tuple:
        """(W', D', A) for v = W/D over Q: W'/D' is v minus its part in the
        span, and A/D' that part as a combination of the accepted generators
        (empty unless combo).  W may be changed in place."""
        A: dict = {}
        rows, combos = self._rows, self._combos
        met = [p for p in W if p in rows]
        if not met:
            return W, D, A
        # scaled by the lcm L of the pivot entries, v's part along the row
        # R/R[p] is the integer multiple (W[p]/R[p]) R
        L = lcm(*[rows[p][p] for p in met])
        if L != 1:
            W = {j: L * x for j, x in W.items()}
            D *= L
        for p in met:
            R = rows[p]
            c = W[p] // R[p]
            _sub_scaled(W, c, R)
            if combo:
                _sub_scaled(A, -c, combos[p])
        if D != 1:
            g = gcd(D, *W.values(), *A.values())
            if g != 1:
                W = {j: x // g for j, x in W.items()}
                A = {k: x // g for k, x in A.items()}
                D //= g
        return W, D, A

    def split(self, v: dict, combo: bool = True) -> tuple:
        """(residue, A): v minus its part in the span, and that part as a
        combination of the accepted generators (empty unless combo)."""
        W, D, A = self._reduce(*_integral(v), combo)
        return _over(W, D), _over(A, D)

    def add(self, v: dict) -> bool:
        """Add v to the span; True if v was independent of it (then v is the
        next accepted generator)."""
        combos = self._combos
        W, D, A = self._reduce(*_integral(v), combos is not None)
        if not W:
            return False
        p = min(W)
        # W/D = v - (A/D).gens: the new row W/W[p] is (D v - A.gens)/W[p],
        # kept with W[p] > 0
        if W[p] > 0:
            C = {g: -x for g, x in A.items()}
            k = D
        else:
            W = {j: -x for j, x in W.items()}
            C, k = A, -D
        rows, cols = self._rows, self._cols
        if combos is not None:
            C[len(rows)] = k
        _primitive(W, C)
        d = W[p]
        touched = [q for q in cols.get(p, ()) if rows[q].get(p)]
        for q in touched:
            # R/R[q] - (e/R[q]) W/d, over the denominator d R[q]
            R = rows[q]
            e = R[p]
            Cq = combos[q] if combos is not None else {}
            if d != 1:
                for j, x in R.items():
                    R[j] = d * x
                for g, x in Cq.items():
                    Cq[g] = d * x
            _sub_scaled(R, e, W)
            _sub_scaled(Cq, e, C)
            _primitive(R, Cq)
        touched.append(p)
        for j in W:
            cols.setdefault(j, set()).update(touched)
        del cols[p]                  # every later vector is 0 at column p
        rows[p] = W
        if combos is not None:
            combos[p] = C
        return True

    def residue(self, v: dict) -> dict:
        """v minus its part in the span.  This is the quotient map
        K^dim -> K^dim / span: it is linear and its kernel is the span."""
        return self.split(v, False)[0]

    def __contains__(self, v: dict) -> bool:
        return not self.residue(v)

    def coords(self, v: dict) -> Optional[dict]:
        """Coefficients {generator: coefficient} of v over the accepted
        generators, numbered in the order they were accepted; None if v is
        not in the span."""
        w, A = self.split(v)
        return None if w else A

    def free_columns(self) -> list[int]:
        """The columns that are no row's pivot, in increasing order."""
        return [j for j in range(self.dim) if j not in self._rows]

    def orthogonal(self) -> list[dict]:
        """Basis of {v : r·v = 0 for r in the span}, one vector per free column
        f: e_f - sum over pivots p of (reduced row p)[f] e_p."""
        by_col: dict = {}
        for p, R in self._rows.items():
            for j, x in _over({j: -x for j, x in R.items() if j != p}, R[p]).items():
                by_col.setdefault(j, {})[p] = x
        return [{f: 1, **by_col.get(f, {})} for f in self.free_columns()]


def lin_indep_subset(cols: Sequence[Sequence]) -> list[int]:
    """Indices of a maximal linearly independent subset of dense columns,
    greedy from the left."""
    if not cols:
        return []
    sp = Subspace(len(cols[0]))
    return [i for i, v in enumerate(cols) if sp.add(sparse(v))]


def coords_in_basis(basis_cols: Sequence[Sequence], v: Sequence):
    """Express the dense v over the given dense columns, densely; None if
    not in their span.  A column that depends on the columns before it gets
    coefficient 0.
    """
    sp = Subspace(len(v))
    accepted = [i for i, b in enumerate(basis_cols) if sp.add(sparse(b))]
    co = sp.coords(sparse(v))
    return None if co is None else dense({accepted[g]: c for g, c in co.items()}, len(basis_cols))
