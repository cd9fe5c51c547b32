"""Exact scalars (Q, Q[t], Q(t)) and exact linear algebra.

Everything downstream (stabilizers, local models, limit algebras) reduces to
kernels, solves and determinants over one of three scalar rings:

  * Fraction        -- the rationals,
  * UniPoly         -- univariate polynomials in t over Q, sparse dict rep,
  * RationalFn      -- reduced fractions of UniPoly (den monic).

Matrices are dense row-major lists.  All row reduction goes through one
sparse incremental `Subspace` echelon, generic over the three scalar types
(UniPoly pivots are promoted to RationalFn).  It answers questions about one
subspace -- independence, the residue of a vector modulo the span (the
quotient map), membership, coordinates, completion by unit vectors -- and
`rref`, `nullspace`, `rank` and `solve` read their answers off it.
Determinants use fraction-free Bareiss instead, on sparse {column: value}
rows, so that a sparse matrix such as I + λ_S∘B costs in proportion to its
nonzeros.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


class UniPoly:
    """Sparse polynomial in t over Q.  Immutable."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _as_fraction(v)
                if v:
                    c[int(e)] = v
        self.c = c

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(v) -> "UniPoly":
        return UniPoly({0: _as_fraction(v)})

    @staticmethod
    def t(e: int = 1, coef=1) -> "UniPoly":
        return UniPoly({e: _as_fraction(coef)})

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def coerce(x) -> "UniPoly":
        if isinstance(x, UniPoly):
            return x
        return UniPoly.const(_as_fraction(x))

    # -- structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.c)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient; -1 for zero."""
        return min(self.c) if self.c else -1

    def lc(self) -> Fraction:
        return self.c[self.degree()] if self.c else Q0

    def coeff(self, e: int) -> Fraction:
        return self.c.get(e, Q0)

    def is_const(self) -> bool:
        return not self.c or set(self.c) == {0}

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.c.get(0, Q0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, RationalFn):
            return NotImplemented
        other = UniPoly.coerce(other)
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, Q0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = UniPoly.__new__(UniPoly)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = UniPoly.__new__(UniPoly)
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, RationalFn):
            return NotImplemented
        return self + (-UniPoly.coerce(other))

    def __rsub__(self, other):
        return UniPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            v = _as_fraction(other)
            if not v:
                return UniPoly.zero()
            out = UniPoly.__new__(UniPoly)
            out.c = {e: w * v for e, w in self.c.items()}
            return out
        other = UniPoly.coerce(other)
        c: dict[int, Fraction] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = c.get(e, Q0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = UniPoly.__new__(UniPoly)
        out.c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        r = UniPoly.const(1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t**k (k may be negative if the valuation allows)."""
        if k < 0 and self.c and min(self.c) + k < 0:
            raise ValueError("negative exponent in shift")
        out = UniPoly.__new__(UniPoly)
        out.c = {e + k: v for e, v in self.c.items()}
        return out

    def divmod(self, other: "UniPoly"):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        r = dict(self.c)
        q: dict[int, Fraction] = {}
        dlc = other.lc()
        dd = other.degree()
        while r:
            e = max(r)
            if e < dd:
                break
            f = r[e] / dlc
            q[e - dd] = f
            for e2, v2 in other.c.items():
                ee = e - dd + e2
                w = r.get(ee, Q0) - f * v2
                if w:
                    r[ee] = w
                else:
                    r.pop(ee, None)
        qq = UniPoly.__new__(UniPoly)
        qq.c = q
        rr = UniPoly.__new__(UniPoly)
        rr.c = r
        return qq, rr

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        if not a:
            return a
        return a * (1 / a.lc())

    def monic(self) -> "UniPoly":
        if not self:
            return self
        return self * (1 / self.lc())

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        r = Q0
        for e, v in self.c.items():
            r += v * x**e
        return r

    def derivative(self) -> "UniPoly":
        return UniPoly({e - 1: v * e for e, v in self.c.items() if e})

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


class RationalFn:
    """Reduced fraction num/den in Q(t); den monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = UniPoly.coerce(num)
        den = UniPoly.const(1) if den is None else UniPoly.coerce(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = UniPoly.const(1)
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lcinv = 1 / den.lc()
            if lcinv != 1:
                num = num * lcinv
                den = den * lcinv
        self.num = num
        self.den = den

    @staticmethod
    def coerce(x) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        return RationalFn(UniPoly.coerce(x))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            other = RationalFn.coerce(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = RationalFn.coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RationalFn.__new__(RationalFn)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        return self + (-RationalFn.coerce(other))

    def __rsub__(self, other):
        return RationalFn.coerce(other) + (-self)

    def __mul__(self, other):
        other = RationalFn.coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFn.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFn.coerce(other) / self

    def is_poly(self) -> bool:
        return self.den.is_const()

    def as_poly(self) -> UniPoly:
        if not self.is_poly():
            raise ValueError("not a polynomial")
        return self.num * (1 / self.den.const_value())

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        d = self.den(x)
        if not d:
            raise ZeroDivisionError(f"pole at t={x}")
        return self.num(x) / d

    def __repr__(self):
        if self.den.is_const():
            return repr(self.as_poly())
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Dense row-major matrix over Fraction / UniPoly / RationalFn."""

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
    def zeros(r: int, c: int, zero=Q0) -> "Mat":
        return Mat([[zero] * c for _ in range(r)], c)

    @staticmethod
    def identity(n: int, one=Q1, zero=Q0) -> "Mat":
        m = Mat.zeros(n, n, zero)
        for i in range(n):
            m.a[i][i] = one
        return m

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        return Mat([list(r) for r in zip(*cols)], len(cols))

    @staticmethod
    def rational(rows) -> "Mat":
        return Mat([[_as_fraction(x) for x in r] for r in rows])

    # -- access -------------------------------------------------------
    def __getitem__(self, ij):
        return self.a[ij[0]][ij[1]]

    def col(self, j: int) -> list:
        return [self.a[i][j] for i in range(self.rows)]

    def columns(self) -> list[list]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        if not self.a:
            return Mat([[] for _ in range(self.cols)])
        return Mat([list(r) for r in zip(*self.a)], self.rows)

    def map(self, f: Callable) -> "Mat":
        return Mat([[f(x) for x in r] for r in self.a])

    def eval_at(self, x) -> "Mat":
        """Evaluate polynomial / rational-function entries at t=x; their zeros
        become Q0 without evaluation."""
        return self.map(lambda e: (e(x) if e else Q0) if isinstance(e, (UniPoly, RationalFn)) else e)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.a == other.a)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        return Mat([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def __neg__(self) -> "Mat":
        return self.map(lambda x: -x)

    def scale(self, s) -> "Mat":
        return self.map(lambda x: x * s)

    def __mul__(self, other: "Mat") -> "Mat":
        """Row-by-row sparse product (Gustavson 1978): row i of the result
        accumulates A[i][k] * B[k][j] over the nonzeros of A's row i and of
        B's row k only, in increasing k.  An entry that gets no term is a
        fresh zero of the type of A's row."""
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
            r0 = r[0] if r else Q0
            out.append([acc[j] if j in acc else _zero_like(r0) for j in range(m)])
        return Mat(out, m)

    def apply(self, v: Sequence) -> list:
        """Matrix times column vector."""
        out = []
        for r in self.a:
            s = None
            for x, y in zip(r, v):
                if not x or not y:
                    continue
                p = x * y
                s = p if s is None else s + p
            out.append(s if s is not None else Q0)
        return out

    def trace(self):
        s = self.a[0][0]
        for i in range(1, self.rows):
            s = s + self.a[i][i]
        return s

    def __repr__(self):
        return "Mat(" + ",\n    ".join(repr(r) for r in self.a) + ")"


def _zero_like(x):
    if isinstance(x, UniPoly):
        return UniPoly.zero()
    if isinstance(x, RationalFn):
        return RationalFn(0)
    return Q0


def _field_promote(rows):
    """Promote UniPoly entries to RationalFn so division is available;
    returns the promoted rows and the zero of their field, which stands in
    for every zero entry."""
    if any(isinstance(x, (UniPoly, RationalFn)) for r in rows for x in r):
        coerce, zero = RationalFn.coerce, RationalFn(0)
    else:
        coerce, zero = _as_fraction, Q0
    return [[coerce(x) if x else zero for x in r] for r in rows], zero


def rref(m: Mat):
    """Reduced row echelon form over the fraction field, read off `Subspace`.

    Returns (rows, pivot_column_indices): the nonzero rows in pivot order,
    then zero rows up to m.rows.  The form is unique, so it does not depend
    on the order in which `Subspace` eliminates.
    """
    rows, zero = _field_promote(m.a)
    sp = Subspace(m.cols, rows)
    pivots = sorted(sp.rows)
    out = [[sp.rows[p][0].get(j, zero) for j in range(m.cols)] for p in pivots]
    out += [[zero] * m.cols for _ in range(m.rows - len(pivots))]
    return out, pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def nullspace(m: Mat) -> list[list]:
    """Basis of the right kernel, as column vectors over the fraction field.

    Deterministic: free columns in increasing order, free coordinate set to 1.
    """
    rows, pivots = rref(m)
    nc = m.cols
    one = RationalFn(1) if rows and nc and isinstance(rows[0][0], RationalFn) else Q1
    zero = _zero_like(one)
    pivset = set(pivots)
    basis = []
    for free in range(nc):
        if free in pivset:
            continue
        v = [zero] * nc
        v[free] = one
        for r, pc in zip(rows, pivots):
            if r[free]:
                v[pc] = -r[free]
        basis.append(v)
    return basis


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


def det_bareiss(m: Mat):
    """Fraction-free determinant (Bareiss 1968) over Fraction or UniPoly entries.

    Rows are sparse {column: value} dicts.  Step k updates a row below that
    has a nonzero in column k only on the union of its columns with the
    pivot row's; a row with a zero there is only rescaled by pivot/prev on
    its own nonzeros, and not even that when pivot == prev.  Every division
    is exact.  Returns a UniPoly if any entry is one, else a Fraction.
    """
    n = m.rows
    if m.cols != n:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Q1
    if any(isinstance(x, UniPoly) for r in m.a for x in r):
        coerce, one, div = UniPoly.coerce, UniPoly.const(1), UniPoly.exact_div
    else:
        coerce, one, div = _as_fraction, Q1, operator.truediv
    rows = [{j: y for j, x in enumerate(r) if x and (y := coerce(x))} for r in m.a]
    sign = 1
    prev = one
    for k in range(n - 1):
        p = next((i for i in range(k, n) if k in rows[i]), None)
        if p is None:
            return _zero_like(one)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pr = rows[k]
        piv = pr.pop(k)
        rescale, scale, divide = piv != prev, piv != one, prev != one
        for i in range(k + 1, n):
            r = rows[i]
            c = r.pop(k, None)
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
    d = rows[n - 1].get(n - 1, _zero_like(one))
    return -d if sign < 0 else d


class SingularMatrix(ValueError):
    pass


def clear_denominators(col: Sequence) -> list[UniPoly]:
    """Scale a Q(t)-column by the lcm of denominators to get a Q[t]-column."""
    col = [RationalFn.coerce(x) for x in col]
    lcm = UniPoly.const(1)
    for x in col:
        g = lcm.gcd(x.den)
        lcm = lcm * x.den.exact_div(g)
    return [(x.num * lcm.exact_div(x.den)) for x in col]


def column_normalize(m: Mat) -> Mat:
    """Normalize Q(t)-columns so that evaluation at t=0 has full column rank.

    Preserves the Q(t)-column span: clear denominators, strip common t-powers,
    then repeatedly replace any column whose value at 0 depends on the others
    by the reduced combination divided by its t-valuation.
    """
    cols = [clear_denominators(c) for c in m.columns()]

    def strip(c):
        v = min((p.valuation() for p in c if p), default=0)
        return [p.shift(-v) if p else p for p in c] if v > 0 else c

    cols = [strip(c) for c in cols]
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise RuntimeError("column_normalize failed to terminate")
        at0 = Mat([[c[i](0) for c in cols] for i in range(m.rows)])
        ker = nullspace(at0)
        if not ker:
            break
        v = ker[0]
        j = max(i for i, x in enumerate(v) if x)
        comb = [UniPoly.zero() for _ in range(m.rows)]
        for i, x in enumerate(v):
            if x:
                comb = [a + x * b for a, b in zip(comb, cols[i])]
        if not any(comb):
            raise ValueError("columns are linearly dependent over Q(t)")
        cols[j] = strip(comb)
    return Mat.from_cols(cols)


# ---------------------------------------------------------------------------
# subspaces


def _sub_scaled(d: dict, c, s: dict) -> None:
    """d -= c * s for sparse vectors, in place, dropping zeros."""
    for j, x in s.items():
        y = d[j] - c * x if j in d else -(c * x)
        if y:
            d[j] = y
        else:
            del d[j]


class Subspace:
    """A subspace of K^dim grown one generator at a time.

    The span is kept in reduced row echelon form: each row is a sparse
    {coordinate: value} dict with a 1 at its pivot and a 0 at every other
    row's pivot, and it carries the combination {generator: coefficient}
    of the accepted generators that equals it.  Because the rows are fully
    reduced, the coefficient of a vector v on the row with pivot p is v[p]
    itself, so the residue, membership and coordinates of v cost one pass
    over the rows that v meets.  Entries may be Fraction, UniPoly or
    RationalFn; a UniPoly pivot is promoted to RationalFn before division.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, gens: Iterable[Sequence] = ()):
        self.dim = dim
        self.rows: dict = {}            # pivot -> (row, combination)
        for v in gens:
            self.add(v)

    def __len__(self) -> int:
        """Dimension of the span, which is the number of accepted generators."""
        return len(self.rows)

    def _reduce(self, w: dict, combo: Optional[dict] = None) -> None:
        """Subtract from w, in place, its part in the span; add that part, as
        a combination of the accepted generators, to combo if one is given."""
        for p, c in [(p, c) for p, c in w.items() if p in self.rows]:
            row, rc = self.rows[p]
            _sub_scaled(w, c, row)
            if combo is not None:
                _sub_scaled(combo, -c, rc)

    def add(self, v: Sequence) -> bool:
        """Add v to the span; True if v was independent of it (then v is the
        next accepted generator)."""
        return self._add({i: x for i, x in enumerate(v) if x})

    def _add(self, w: dict) -> bool:
        combo: dict = {}
        self._reduce(w, combo)
        if not w:
            return False
        p = min(w)
        piv = w[p]
        inv = Q1 / (RationalFn.coerce(piv) if isinstance(piv, UniPoly) else piv)
        rc = {g: -x * inv for g, x in combo.items()}
        rc[len(self.rows)] = inv
        row = {j: x * inv for j, x in w.items()}
        for r, qc in self.rows.values():
            c = r.get(p)
            if c:
                _sub_scaled(r, c, row)
                _sub_scaled(qc, c, rc)
        self.rows[p] = (row, rc)
        return True

    def residue(self, v: Sequence) -> list:
        """v minus its part in the span.  This is the quotient map
        K^dim -> K^dim / span: it is linear and its kernel is the span."""
        w = {i: x for i, x in enumerate(v) if x}
        self._reduce(w)
        return [w.get(i, Q0) for i in range(self.dim)]

    def __contains__(self, v: Sequence) -> bool:
        return not any(self.residue(v))

    def coords(self, v: Sequence):
        """Coefficients of v over the accepted generators, in the order they
        were accepted; None if v is not in the span."""
        w, combo = {i: x for i, x in enumerate(v) if x}, {}
        self._reduce(w, combo)
        if w:
            return None
        return [combo.get(g, Q0) for g in range(len(self.rows))]

    def complete_with_units(self) -> list[int]:
        """Add the unit vectors e_0, e_1, ... that are independent of the span
        until it fills K^dim; return their indices."""
        units = []
        for j in range(self.dim):
            if len(self.rows) == self.dim:
                break
            if self._add({j: Q1}):
                units.append(j)
        return units


def lin_indep_subset(cols: Sequence[Sequence]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy from the left."""
    if not cols:
        return []
    sp = Subspace(len(cols[0]))
    return [i for i, v in enumerate(cols) if sp.add(v)]


def coords_in_basis(basis_cols: Sequence[Sequence], v: Sequence):
    """Express v over the given columns; None if not in their span.

    A column that depends on the columns before it gets coefficient 0.
    """
    sp = Subspace(len(v))
    accepted = [sp.add(b) for b in basis_cols]
    co = sp.coords(v)
    if co is None:
        return None
    it = iter(co)
    return [next(it) if a else Q0 for a in accepted]
