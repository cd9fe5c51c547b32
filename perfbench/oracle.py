"""Exact computations made apart from orbitlimits, for checking its answers.

Nothing here imports the program.  Forms are dicts {exponent tuple:
Fraction}; gl(n) elements are n x n lists of Fractions, flattened row-major
when treated as vectors.  The derivation convention is the program's
documented one: E_ij acts on forms as x_j d/dx_i, so under the one-parameter
subgroup lambda(t).x_i = t^{d_i} x_i the E_ij-component of a stabilizer
element scales by t^{d_j - d_i}.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# sparse Gauss-Jordan elimination over Q


class Echelon:
    """Incrementally reduced row space: pivot column -> reduced sparse row.

    Every stored row has a 1 at its pivot and a 0 at every other pivot, so
    reducing a new row needs one pass over the pivots it touches.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def reduce(self, row) -> dict:
        r = {j: Fraction(x) for j, x in _items(row) if x}
        for p in [j for j in r if j in self.rows]:
            c = r.get(p)
            if c:
                for j, x in self.rows[p].items():
                    y = r.get(j, 0) - c * x
                    if y:
                        r[j] = y
                    else:
                        r.pop(j, None)
        return r

    def add(self, row) -> bool:
        """Add a row; True when it was independent of the rows so far."""
        r = self.reduce(row)
        if not r:
            return False
        p = min(r)
        inv = 1 / r[p]
        r = {j: x * inv for j, x in r.items()}
        for q, other in self.rows.items():
            c = other.get(p)
            if c:
                for j, x in r.items():
                    y = other.get(j, 0) - c * x
                    if y:
                        other[j] = y
                    else:
                        other.pop(j, None)
        self.rows[p] = r
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def nullspace(self, ncols: int) -> list[list[Fraction]]:
        """Right kernel of the stored rows, one vector per free column."""
        out = []
        for f in range(ncols):
            if f in self.rows:
                continue
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for p, r in self.rows.items():
                c = r.get(f)
                if c:
                    v[p] = -c
            out.append(v)
        return out


def _items(row):
    return row.items() if isinstance(row, dict) else enumerate(row)


def rank(rows) -> int:
    e = Echelon()
    for r in rows:
        e.add(r)
    return e.rank


def same_span(a, b) -> bool:
    ea, eb = Echelon(), Echelon()
    for r in a:
        ea.add(r)
    for r in b:
        eb.add(r)
    return ea.rank == eb.rank and all(ea.contains(r) for r in b)


# ---------------------------------------------------------------------------
# forms and the gl(n) action


def monomials(nvars: int, degree: int) -> list[tuple]:
    if nvars == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree, -1, -1)
            for rest in monomials(nvars - 1, degree - k)]


def act(x, f: dict) -> dict:
    """x . f = sum_ij x[i][j] x_j df/dx_i."""
    n = len(x)
    out: dict = {}
    for e, c in f.items():
        for i in range(n):
            if not e[i]:
                continue
            for j in range(n):
                if x[i][j]:
                    ee = list(e)
                    ee[i] -= 1
                    ee[j] += 1
                    ee = tuple(ee)
                    out[ee] = out.get(ee, 0) + x[i][j] * e[i] * c
    return {e: c for e, c in out.items() if c}


def action_columns(f: dict, n: int) -> list[dict]:
    """E_ij . f for (i, j) row-major, as sparse monomial-coefficient dicts."""
    cols = []
    for i in range(n):
        for j in range(n):
            x = [[0] * n for _ in range(n)]
            x[i][j] = 1
            cols.append(act(x, f))
    return cols


def stabilizer(f: dict, n: int) -> list[list[Fraction]]:
    """Basis of {x in gl(n) : x . f = 0}, as flattened n*n vectors."""
    rows: dict = {}
    for k, col in enumerate(action_columns(f, n)):
        for mono, c in col.items():
            rows.setdefault(mono, {})[k] = c
    e = Echelon()
    for r in rows.values():
        e.add(r)
    return e.nullspace(n * n)


def weight_split(f: dict, lam) -> dict:
    """lambda-weight -> component form, with weight <d, e> on x^e."""
    out: dict = {}
    for e, c in f.items():
        out.setdefault(sum(k * d for k, d in zip(e, lam)), {})[e] = c
    return out


def transversal(f: dict, lam) -> bool:
    """The tail f_b, ..., f_D meets T_g O(g) only in 0 (g the lowest part)."""
    parts = weight_split(f, lam)
    ws = sorted(parts)
    tangent = action_columns(parts[ws[0]], len(lam))
    tail = [parts[w] for w in ws[1:]]
    return rank(tangent + tail) == rank(tangent) + rank(tail)


def gl_weights(lam) -> list[int]:
    """Weight d_j - d_i of E_ij, row-major."""
    n = len(lam)
    return [lam[j] - lam[i] for i in range(n) for j in range(n)]


def initial_subspace(vectors, weights) -> tuple[dict, list[dict]]:
    """Lowest-weight initial subspace of span(vectors).

    Eliminating with the coordinates ordered by ascending weight leaves one
    reduced row per pivot; the row's lowest-weight part is its initial
    term, and these initial terms form a basis.  Returns (weight -> dim,
    the basis as sparse dicts in the original coordinates).
    """
    order = sorted(range(len(weights)), key=lambda i: (weights[i], i))
    e = Echelon()
    for v in vectors:
        e.add({pos: v[i] for pos, i in enumerate(order) if v[i]})
    dims: dict = {}
    basis = []
    for p, r in e.rows.items():
        w = weights[order[p]]
        dims[w] = dims.get(w, 0) + 1
        basis.append({order[j]: x for j, x in r.items() if weights[order[j]] == w})
    return dims, basis


def graded_dims(vectors, weights) -> dict | None:
    """weight -> dim of span(vectors) inside each weight space, or None when
    the span is not the sum of those intersections."""
    e = Echelon()
    for v in vectors:
        e.add(v)
    dims, basis = initial_subspace(vectors, weights)
    if not all(e.contains(b) for b in basis):
        return None
    return dims


def bracket(x, y):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def flat(x) -> list:
    return [c for row in x for c in row]


def unflat(v, n: int):
    return [list(v[i * n:(i + 1) * n]) for i in range(n)]


def bracket_closed(mats) -> bool:
    e = Echelon()
    for m in mats:
        e.add(flat(m))
    return all(e.contains(flat(bracket(a, b)))
               for i, a in enumerate(mats) for b in mats[i + 1:])


def klf_graded(f: dict, lam) -> bool:
    """Is K_lf = {k in stab(f) : [k, diag(lam)] in stab(f)} weight-graded?"""
    n = len(lam)
    K = stabilizer(f, n)
    if not K:
        return True
    ell = [[Fraction(lam[i]) if i == j else 0 for j in range(n)] for i in range(n)]
    # alpha with sum alpha_k [k, ell] = sum beta_k k: kernel of [brackets | -K]
    cols = [flat(bracket(unflat(k, n), ell)) for k in K] + [[-x for x in k] for k in K]
    e = Echelon()
    for r in range(n * n):
        e.add({c: col[r] for c, col in enumerate(cols) if col[r]})
    klf = []
    for sol in e.nullspace(len(cols)):
        alpha = sol[:len(K)]
        klf.append([sum(a * k[r] for a, k in zip(alpha, K)) for r in range(n * n)])
    return graded_dims([v for v in klf if any(v)], gl_weights(lam)) is not None


# ---------------------------------------------------------------------------
# partitions and Jordan data


def block_spectrum(spec) -> list[int]:
    """chi_j = sum over eigenvalues of the j-th largest block size."""
    depth = max(len(sizes) for _, sizes in spec)
    return [sum(sorted(sizes, reverse=True)[j] for _, sizes in spec if j < len(sizes))
            for j in range(depth)]


def dominated(theta, chi) -> bool:
    """theta <= chi in the dominance order (partitions of the same n)."""
    sa = sb = 0
    for j in range(max(len(theta), len(chi))):
        sa += theta[j] if j < len(theta) else 0
        sb += chi[j] if j < len(chi) else 0
        if sa > sb:
            return False
    return True


def jordan_matrix(blocks) -> list[list[Fraction]]:
    """Direct sum of Jordan blocks (eigenvalue, size), ones above the diagonal."""
    n = sum(s for _, s in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for ev, s in blocks:
        for i in range(s):
            m[off + i][off + i] = Fraction(ev)
            if i + 1 < s:
                m[off + i][off + i + 1] = Fraction(1)
        off += s
    return m


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k) if a[i][t]) for j in range(m)]
            for i in range(n)]


def shifted_power_ranks(x, mu, kmax: int) -> list[int]:
    """rank((x - mu I)^k) for k = 0..kmax, by exact elimination."""
    n = len(x)
    y = [[x[i][j] - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [n]
    for _ in range(kmax):
        p = matmul(p, y)
        out.append(rank(p))
    return out
