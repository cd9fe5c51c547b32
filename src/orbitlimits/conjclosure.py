"""Projective orbit closures of matrices under conjugation.

Combinatorics of partitions and Jordan data, the X_k^r separating
varieties, the dominance test "theta trianglelefteq chi" deciding which
nilpotent signatures occur in a projective orbit closure, constructive
witness families, and the slice analyses at J_n and J_{a,b}.

Conventions:
  * companion matrices follow the layout with -c_{m-1},...,-c_0 down the
    first column and 1s on the superdiagonal, so the characteristic (and
    minimal) polynomial of companion(c) is X^m + c_{m-1}X^{m-1} + ... + c_0;
  * the witness 1-PS A(t) = diag(t, t^2, ..., t^n) acts by conjugation,
    (A x A^{-1})[i][j] = t^{i-j} x[i][j], and the lowest t-power of the
    conjugated block-companion matrix is t^{-1} J_chi.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .exactcore import Mat, Subspace, UniPoly, _as_q, lin_comb, qdiv, rank, sparse
from .lierep import ConjRep, bracket, elementary
from .limits import same_span
from .localmodel import LocalModel, build_local_model


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

class Partition:
    """A partition of n: weakly decreasing positive parts.  `Partition(parts)`
    checks parts that come from outside the library; the partitions the
    library builds itself go through the unchecked `_of`."""

    __slots__ = ("parts", "n")

    def __init__(self, parts: Sequence[int]):
        parts = [int(p) for p in parts]
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        while parts and not parts[-1]:      # in order, a zero part can only trail
            parts.pop()
        self.parts = tuple(parts)
        self.n = sum(parts)

    @classmethod
    def _of(cls, parts: tuple) -> "Partition":
        """The partition with these parts, unchecked: a tuple of positive
        ints, weakly decreasing, as the library's own constructions give."""
        p = object.__new__(cls)
        p.parts = parts
        p.n = sum(parts)
        return p

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        """Equal to the same partition or a list or tuple of its parts."""
        if isinstance(other, (list, tuple)):
            try:
                other = Partition(other)
            except (TypeError, ValueError):
                return False
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def part(self, j: int) -> int:
        """The j-th part (1-indexed), 0 beyond the end."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0


def transpose(p: Partition) -> Partition:
    """gamma_i = #{j : p_j >= i}; an involution preserving n."""
    if not p.parts:
        return Partition._of(())
    return Partition._of(tuple([sum(1 for a in p.parts if a >= i)
                                for i in range(1, p.parts[0] + 1)]))


def dominates(a: Partition, b: Partition) -> bool:
    """All prefix sums of a are >= those of b (partitions of the same n)."""
    if a.n != b.n:
        raise ValueError(f"partitions of different sizes: {a.n} vs {b.n}")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a.part(i + 1)
        sb += b.part(i + 1)
        if sa < sb:
            return False
    return True


# ---------------------------------------------------------------------------
# Jordan data
# ---------------------------------------------------------------------------

class JordanSpec:
    """Eigenvalue -> Jordan-block-size partition data of a matrix.

    Eigenvalues may be rationals (an `int` or a `Fraction`, kept by the
    scalar rule) or hashable symbolic labels (strings, even those that read
    like numbers); only the multiplicity structure enters the closure
    theorem, but witness families require rational eigenvalues.  A spec has
    at least one eigenvalue, each with at least one block.  `chi`, the
    transpose block spectrum, is computed once, at construction.
    """

    __slots__ = ("blocks", "n", "chi")

    def __init__(self, blocks: Sequence[tuple]):
        seen = set()
        bl = []
        for ev, sizes in blocks:
            ev = _as_q(ev) if _is_rational(ev) else ev
            if ev in seen:
                raise ValueError(f"repeated eigenvalue {ev!r}")
            seen.add(ev)
            sizes = sizes if isinstance(sizes, Partition) else Partition(sizes)
            if not sizes.n:
                raise ValueError(f"eigenvalue {ev!r} has no Jordan block")
            bl.append((ev, sizes))
        if not bl:
            raise ValueError("a Jordan spec needs at least one eigenvalue")
        self.blocks = bl
        self.n = sum(p.n for _, p in bl)
        self.chi = transpose_block_spectrum(self)

    def __repr__(self):
        return f"JordanSpec({self.blocks!r})"

    @classmethod
    def diagonalizable(cls, multiplicities: dict) -> "JordanSpec":
        """Spec of a diagonalizable matrix: eigenvalue -> multiplicity."""
        return cls([(ev, Partition._of((1,) * m)) for ev, m in multiplicities.items()])


def _rational_roots(p: UniPoly) -> list[tuple]:
    """[(root, multiplicity)] of the rational roots of a nonzero p, over Q."""
    coeffs = {e: c for e, c in p.c.items() if c}
    den = lcm(*[c.denominator for c in coeffs.values()])
    ic = {e: int(c * den) for e, c in coeffs.items()}
    v = min(ic)
    lead = ic[max(ic)]
    # candidate roots a/b with a | constant term (of p / X^v), b | leading
    c0 = ic[v]
    cands = {0} if v > 0 else set()
    for a in _divisors(abs(c0)):
        for b in _divisors(abs(lead)):
            cands.add(qdiv(a, b))
            cands.add(qdiv(-a, b))
    out = []
    for r in sorted(cands):
        mult = 0
        q = p
        while q.degree() >= 1 and not q(r):
            q = q.exact_div(UniPoly({1: 1, 0: -r}))
            mult += 1
        if mult:
            out.append((r, mult))
    return out


def _divisors(m: int) -> list[int]:
    """The divisors of m > 0."""
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            out.append(m // d)
        d += 1
    return sorted(set(out))


def _is_rational(ev) -> bool:
    return isinstance(ev, (int, Fraction))


def transpose_block_spectrum(spec: JordanSpec) -> Partition:
    """chi_j = sum over eigenvalues of the j-th largest block size."""
    depth = max(len(sizes) for _, sizes in spec.blocks)
    return Partition._of(tuple([sum(sizes.part(j) for _, sizes in spec.blocks)
                                for j in range(1, depth + 1)]))


def nilpotent_signature(m: Mat) -> Partition:
    """Block-size partition of a nilpotent matrix, from ranks of powers.  The
    ranks fall until they reach 0, or stall at a nonzero rank exactly when m
    is not nilpotent."""
    tparts = []
    prev = m.rows
    power = Mat.identity(m.rows)
    while prev:
        power = power * m
        r = rank(power)
        if r == prev:
            raise ValueError("matrix is not nilpotent")
        tparts.append(prev - r)
        prev = r
    return transpose(Partition(tparts))


def _poly_of_matrix(p: UniPoly, m: Mat) -> Mat:
    """p(m), by Horner's rule."""
    out = Mat.zeros(m.rows, m.rows)
    for e in range(p.degree(), -1, -1):
        out = out * m + Mat.identity(m.rows).scale(p.coeff(e))
    return out


# ---------------------------------------------------------------------------
# the X_k^r membership predicate
# ---------------------------------------------------------------------------

def in_Xkr(spec, k: int, r: int) -> bool:
    """Membership in X_k^r = {x : rank((x-l_1 I)...(x-l_k I)) <= r for some
    eigenvalues l_i of x}, decided combinatorially.

    The minimal achievable rank is n minus the sum of the k largest entries
    of the concatenated transpose partitions (each extra factor (x - mu)
    drops the rank by the number of mu-blocks not yet exhausted).
    """
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    if isinstance(spec, JordanSpec):
        entries = [e for _, sizes in spec.blocks for e in transpose(sizes)]
        n = spec.n
    else:
        entries = list(transpose(spec))
        n = spec.n
    entries.sort(reverse=True)
    drop = sum(entries[:k])
    return n - drop <= r


# ---------------------------------------------------------------------------
# the closure decision
# ---------------------------------------------------------------------------

class ClosureDecision:
    __slots__ = ("contains", "chi", "theta", "separating", "family")

    def __init__(self, contains, chi, theta, separating=None, family=None):
        self.contains = contains
        self.chi = chi
        self.theta = theta
        self.separating = separating  # (k, r) with x in X_k^r, theta not
        self.family = family          # WitnessFamily when contains and rational

    def __bool__(self):
        return bool(self.contains)


def closure_contains_nilpotent(spec: JordanSpec, theta) -> ClosureDecision:
    """Does the projective conjugation-orbit closure of spec contain
    nilpotents of signature theta?  True iff theta is dominated by the
    transpose block-spectrum chi; returns the separating (k, r) pair on
    failure and the constructive witness family on success."""
    if theta.n != spec.n:
        raise ValueError(f"size mismatch: partition of {theta.n} vs spec of size {spec.n}")
    chi = spec.chi
    if dominates(chi, theta):
        family = None
        if all(_is_rational(ev) for ev, _ in spec.blocks):
            family = witness_family(spec)
        return ClosureDecision(True, chi, theta, family=family)
    # least prefix where theta overtakes chi
    sa = sb = 0
    ell = None
    for i in range(1, max(len(chi), len(theta)) + 1):
        sa += chi.part(i)
        sb += theta.part(i)
        if sb > sa:
            ell = i
            break
    k = chi.part(ell + 1)
    r = sum(chi.part(i) - k for i in range(1, ell + 1))
    if not in_Xkr(spec, k, r) or in_Xkr(theta, k, r):
        raise AssertionError("separating witness failed its own certificate")
    return ClosureDecision(False, chi, theta, separating=(k, r))


# ---------------------------------------------------------------------------
# constructive witness families
# ---------------------------------------------------------------------------

def jordan_block(size: int, ev=0) -> Mat:
    m = Mat.zeros(size, size)
    ev = _as_q(ev)
    for i in range(size):
        m.a[i][i] = ev
        if i + 1 < size:
            m.a[i][i + 1] = 1
    return m


def direct_sum(mats: Sequence[Mat]) -> Mat:
    n = sum(m.rows for m in mats)
    out = Mat.zeros(n, n)
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out.a[off + i][off + j] = m.a[i][j]
        off += m.rows
    return out


def companion(coeffs: Sequence) -> Mat:
    """Companion matrix of X^m + c_{m-1}X^{m-1} + ... + c_0 for
    coeffs = [c_0, ..., c_{m-1}]: -c down the first column (top entry
    -c_{m-1}), 1s on the superdiagonal."""
    m = len(coeffs)
    out = Mat.zeros(m, m)
    for i in range(m):
        out.a[i][0] = -_as_q(coeffs[m - 1 - i])
        if i + 1 < m:
            out.a[i][i + 1] = 1
    return out


class WitnessFamily:
    """x' = direct sum of companion blocks; A(t) = diag(t, ..., t^n)
    conjugates it so the lowest t-power term is t^{leading_power} J_chi."""

    __slots__ = ("x_prime", "weights", "chi", "leading_power")

    def __init__(self, x_prime, weights, chi, leading_power):
        self.x_prime = x_prime
        self.weights = weights
        self.chi = chi
        self.leading_power = leading_power


def witness_family(spec: JordanSpec) -> WitnessFamily:
    """The constructive family driving spec to J_chi: group one Jordan block
    per eigenvalue into each x_j (so its minimal polynomial equals its
    characteristic polynomial), replace x_j by its companion form, and
    conjugate the direct sum by A(t) = diag(t, ..., t^n).  x' is written
    straight into its rows: block j is the companion matrix of
    prod (x - p/q)^e = prod (qx - p)^e / D, D = prod q^e, whose integer
    coefficients c_i give the entries -c_i / D down its first column."""
    if not all(_is_rational(ev) for ev, _ in spec.blocks):
        raise ValueError("witness families need rational eigenvalues")
    n, chi = spec.n, spec.chi
    rows = [[0] * n for _ in range(n)]
    off = 0
    for j, m in enumerate(chi, 1):
        c, den = [1], 1               # c[i]: the coefficient of x^i
        for ev, sizes in spec.blocks:
            p, q = ev.numerator, ev.denominator
            for _ in range(sizes.part(j)):
                c = [q * a - p * b for a, b in zip([0] + c, c + [0])]
                den *= q
        for i in range(m):
            rows[off + i][off] = qdiv(-c[m - 1 - i], den)
            if i + 1 < m:
                rows[off + i][off + i + 1] = 1
        off += m
    x_prime = Mat(rows)
    certify_witness(x_prime, chi)
    return WitnessFamily(x_prime, list(range(1, n + 1)), chi, -1)


def certify_witness(x_prime: Mat, chi: Partition) -> None:
    """Raise unless the lowest power of t in A(t) x' A(t)^{-1}, whose entry
    (i, j) scales by t^{i-j}, is t^{-1} with coefficient J_chi: the nonzero
    entries have i - j >= -1, and the superdiagonal is that of J_chi, a 1
    inside each block of chi and 0 where a block starts."""
    a = x_prime.a
    low = min(i - j for i, row in enumerate(a) for j, c in enumerate(row) if c)
    starts, off = set(), 0
    for m in chi:
        off += m
        starts.add(off)
    if low != -1 or any(a[i][i + 1] != (0 if i + 1 in starts else 1) for i in range(len(a) - 1)):
        raise AssertionError("witness family leading term is not J_chi")


# ---------------------------------------------------------------------------
# the slice at J_n
# ---------------------------------------------------------------------------

def Z_shift(n: int, k: int) -> Mat:
    """Z_k: ones on the k-th superdiagonal (k may be negative)."""
    m = Mat.zeros(n, n)
    for i in range(n):
        j = i + k
        if 0 <= j < n:
            m.a[i][j] = 1
    return m


def companion_slice_basis(n: int) -> list[dict]:
    """V-coordinate basis of C_n: the units E_i1 of the first column."""
    return [{i * n: 1} for i in range(n)]


def jn_local_model(n: int) -> LocalModel:
    """The local model at J_n with S spanned by the E_ij off the first row."""
    rep = ConjRep(n)
    S = [{k: 1} for k in range(n, n * n)]
    return build_local_model(rep, rep.to_coords(Z_shift(n, 1)), S=S, N=companion_slice_basis(n))


def minimal_polynomial(m: Mat) -> UniPoly:
    """Monic minimal polynomial over Q: the first power m^d that depends on
    I, m, ..., m^(d-1) gives m^d = sum c_i m^i, so p = t^d - sum c_i t^i."""
    glrep = ConjRep(m.rows)
    powers, power = Subspace(glrep.dim), Mat.identity(m.rows)
    while powers.add(glrep.to_coords(power)):
        power = power * m
    co = powers.coords(glrep.to_coords(power))
    return UniPoly({i: -c for i, c in co.items()} | {len(powers): 1})


def jn_slice_report(n: int, seed: int = 0) -> dict:
    """Local-model analysis at J_n: the normal slice is the space of
    companion matrices, theta(n)^2 vanishes identically, the minimal
    polynomial on the slice is the companion polynomial, and every slice
    point has an n-dimensional stabilizer."""
    if n < 2:
        raise ValueError("n must be at least 2")
    model = jn_local_model(n)
    report = {"n": n, "dim_H": len(model.H), "dim_S": len(model.S),
              "dim_N": len(model.N)}
    # H is spanned by the nonnegative shifts Z_0..Z_{n-1}
    report["H_is_span_Z"] = same_span([model.rep.to_coords(Z_shift(n, k)) for k in range(n)],
                                      model.H, n)
    # theta(n1) theta(n2) = 0 on basis pairs => theta(n)^2 = 0 for all n in N;
    # column k of theta(n1) theta(n2) is theta(n1) applied to column k of theta(n2)
    cols = [model.theta_columns(nv) for nv in model.N]
    report["theta_squared_zero"] = all(not lin_comb(c, c1)
                                       for c1 in cols for c2 in cols for c in c2)
    rng = random.Random(seed)
    samples = []
    for _ in range(3):
        c = [qdiv(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        comp = companion(c)
        p = minimal_polynomial(comp)
        expected = UniPoly({n: 1, **{i: c[i] for i in range(n)}})
        # N basis is E_{i,0}; companion's first column entries are -c reversed
        nvec = model.n_vec(sparse([-ci for ci in reversed(c)]))
        stab = model.slice_stabilizer(nvec)
        samples.append({
            "c": c,
            "min_poly_is_companion": p == expected,
            "stabilizer_dim": len(stab),
        })
    report["samples"] = samples
    report["stabilizer_dim_always_n"] = all(s["stabilizer_dim"] == n for s in samples)
    report["min_poly_always_companion"] = all(s["min_poly_is_companion"] for s in samples)
    return report


def z4_example() -> dict:
    """The explicit S-completion stabilizing Z_4 = J_4 + E_41: starting from
    h = J_4^3, the completion s = E_21 + E_32 + E_43 satisfies
    [s, J_4] = -[h, C_4] and s + h stabilizes Z_4."""
    glrep, j4 = ConjRep(4), Z_shift(4, 1)
    jc, c4 = glrep.to_coords(j4), glrep.to_coords(elementary(4, 3, 0))
    h = glrep.to_coords(j4 * j4 * j4)
    s = glrep.to_coords(elementary(4, 1, 0) + elementary(4, 2, 1) + elementary(4, 3, 2))
    s_plus_h = lin_comb({0: 1, 1: 1}, [s, h])
    ok_completion = bracket(s, jc, 4) == lin_comb({0: -1}, [bracket(h, c4, 4)])
    ok_stab = not bracket(s_plus_h, lin_comb({0: 1, 1: 1}, [jc, c4]), 4)
    stab = jn_local_model(4).slice_stabilizer(c4)
    return {"completion_identity": ok_completion, "stabilizes": ok_stab,
            "s_plus_h": s_plus_h, "slice_stabilizer_dim": len(stab)}


# ---------------------------------------------------------------------------
# the slice at J_{a,b}
# ---------------------------------------------------------------------------

def jab_matrix(a: int, b: int) -> Mat:
    return direct_sum([Z_shift(a, 1), Z_shift(b, 1)])


def jab_normal_basis(a: int, b: int) -> list[Mat]:
    """Basis of the normal slice C at J_{a,b}: first-column vectors of both
    companion blocks (c's and d's), the alpha row coupling the top block's
    last row into the second block's columns, and the beta column coupling
    the second block's rows into the first column."""
    n = a + b
    out = [elementary(n, i, 0) for i in range(a)]                     # c's
    out += [elementary(n, a + i, a) for i in range(b)]                # d's
    out += [elementary(n, a - 1, a + i) for i in range(b)]            # alpha's
    out += [elementary(n, a + i, 0) for i in range(b)]                # beta's
    return out


def jab_slice_point(a: int, b: int, c, d, alpha, beta) -> Mat:
    """J_{a,b} + C(c, d, alpha, beta) with the companion sign convention
    (first columns carry -c_{a-1}..-c_0 and -d_{b-1}..-d_0)."""
    n = a + b
    m = jab_matrix(a, b)
    for i in range(a):
        m.a[i][0] = m.a[i][0] - _as_q(c[a - 1 - i])
    for i in range(b):
        m.a[a + i][a] = m.a[a + i][a] - _as_q(d[b - 1 - i])
    for i in range(b):
        m.a[a - 1][a + i] = m.a[a - 1][a + i] + _as_q(alpha[i])
    for i in range(b):
        m.a[a + i][0] = m.a[a + i][0] + _as_q(beta[i])
    return m


def jab_slice_report(a: int, b: int, seed: int = 0, nsamples: int = 5) -> dict:
    """Slice analysis at J_{a,b} (a >= b >= 1): dim H = dim C = a + 3b; on
    the slice the minimal polynomial has degree >= a and eigenspaces have
    dimension <= 2; the nilpotent one-parameter members J_i(t) have
    signatures (a+b-i+1, i-1); and when the minimal polynomial has degree
    exactly a it equals that of the top companion block T_a while that of
    T_b divides it."""
    if not (a >= b >= 1):
        raise ValueError("need a >= b >= 1")
    n = a + b
    rep = ConjRep(n)
    C = jab_normal_basis(a, b)
    model = build_local_model(rep, rep.to_coords(jab_matrix(a, b)),
                              N=[rep.to_coords(m) for m in C])
    dim_H = len(model.H)
    report = {"a": a, "b": b, "dim_H": dim_H, "dim_C": len(C),
              "dims_equal_a_plus_3b": dim_H == len(C) == a + 3 * b}
    rng = random.Random(seed)
    deg_ok = ker_ok = True
    for _ in range(nsamples):
        c = [rng.randint(-4, 4) for _ in range(a)]
        d = [rng.randint(-4, 4) for _ in range(b)]
        al = [rng.randint(-4, 4) for _ in range(b)]
        be = [rng.randint(-4, 4) for _ in range(b)]
        T = jab_slice_point(a, b, c, d, al, be)
        p = minimal_polynomial(T)
        if p.degree() < a:
            deg_ok = False
        for ev, _ in _rational_roots(p):
            shifted = T - Mat.identity(n).scale(ev)
            if n - rank(shifted) > 2:
                ker_ok = False
    report["min_poly_degree_at_least_a"] = deg_ok
    report["eigenspace_dim_at_most_2"] = ker_ok
    # the nilpotent family: alpha_i = t, everything else zero
    family = []
    for i in range(1, b + 1):
        al = [0] * b
        al[i - 1] = 1
        Ji = jab_slice_point(a, b, [0] * a, [0] * b, al, [0] * b)
        sig = nilpotent_signature(Ji)
        expected = Partition([p for p in (a + b - i + 1, i - 1) if p])
        family.append({"i": i, "signature": sig, "expected": expected,
                       "matches": sig == expected})
    report["nilpotent_family"] = family
    report["nilpotent_family_ok"] = all(f["matches"] for f in family)
    # degree-a minimal polynomial: p = min poly of T_a; min poly of T_b | p.
    # c and d are the lower coefficients of (x - 1)...(x - a) and (x - 1)...(x - b)
    c, d = [], []
    for m, coeffs in ((a, c), (b, d)):
        p = prod([UniPoly({1: 1, 0: -i}) for i in range(1, m + 1)], start=UniPoly.const(1))
        coeffs += [p.coeff(i) for i in range(m)]
    # the couplings must vanish for the minimal polynomial to drop to degree a
    T = jab_slice_point(a, b, c, d, [0] * b, [0] * b)
    p = minimal_polynomial(T)
    Ta = companion(c)
    Tb = companion(d)
    report["divisibility_sample"] = {
        "min_poly_degree": p.degree(),
        "equals_min_poly_Ta": p == minimal_polynomial(Ta),
        "Tb_divides": not p.divmod(minimal_polynomial(Tb))[1] if p.degree() == a else None,
        "p_of_Tb_vanishes": all(not x for row in _poly_of_matrix(p, Tb).a for x in row),
    }
    return report
