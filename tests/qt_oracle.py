"""A Q(t) oracle for the tests, on sympy: the local model's (1 + θ(n))^-1
and slice equations at a point n over Q[t], solved in QQ(t) by sympy's
DomainMatrix.  Only the projections λ_S and λ_N, which are over Q, come from
the model itself."""

from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from orbitlimits.exactcore import UniPoly

T = sympy.Symbol("t")
QT = sympy.QQ.frac_field(T)


def to_qt(x):
    """A Fraction or a UniPoly as an element of QQ(t)."""
    if isinstance(x, UniPoly):
        return QT.from_sympy(sum((sympy.Rational(c.numerator, c.denominator) * T**e
                                  for e, c in x.c.items()), sympy.Integer(0)))
    x = Fraction(x)
    return QT.from_sympy(sympy.Rational(x.numerator, x.denominator))


def _unipoly(p) -> UniPoly:
    return UniPoly({e: Fraction(int(c.numerator), int(c.denominator)) for (e,), c in p.terms()})


def poly_parts(x) -> tuple[UniPoly, UniPoly]:
    """(numerator, denominator) of an element of QQ(t), the denominator monic."""
    num, den = _unipoly(x.numer), _unipoly(x.denom)
    inv = Fraction(1) / den.lc()
    return num * inv, den * inv


def as_poly(x) -> UniPoly:
    """An element of QQ(t) that is a polynomial, as a UniPoly."""
    num, den = poly_parts(x)
    assert den == 1, f"{x} is not a polynomial"
    return num


def columns(vectors, nrows: int) -> DomainMatrix:
    """The matrix over QQ(t) whose columns are the sparse vectors."""
    rows: dict = {}
    for j, v in enumerate(vectors):
        for i, x in v.items():
            rows.setdefault(i, {})[j] = to_qt(x)
    return DomainMatrix(rows, (nrows, len(vectors)), QT)


def projections(model) -> tuple[DomainMatrix, DomainMatrix]:
    """λ_S and λ_N of the model as matrices on V-coordinates."""
    splits = [model.split_V({k: 1}) for k in range(model.rep.dim)]
    return (columns([s for s, _ in splits], len(model.S)),
            columns([n for _, n in splits], len(model.N)))


def inv_one_plus_theta(model, n, dvs):
    """(1 + θ(n))^-1 applied to the V-vectors dvs, as the columns of a matrix
    over QQ(t): dv - B u with (I + λ_S B) u = λ_S dv, B the columns s·n.
    None if I + λ_S B is singular."""
    dim = model.rep.dim
    lam_s, _ = projections(model)
    B = columns([model.rep.act(s, n) for s in model.S], dim)
    dv = columns(dvs, dim)
    C = DomainMatrix.eye(len(model.S), QT) + lam_s * B
    if C.rank() < len(model.S):
        return None
    return dv - B * C.lu_solve(lam_s * dv)


def slice_equations(model, n):
    """(ker M_N, M_S) at x + n over QQ(t): the kernel basis has one vector per
    free column, with 1 there and 0 at the other free columns, as lists of
    elements of QQ(t); M_S is a matrix."""
    lam_s, lam_n = projections(model)
    w = inv_one_plus_theta(model, n, [model.rep.act(h, n) for h in model.H])
    m_n = lam_n * w
    reduced, pivots = m_n.rref()
    reduced = reduced.to_list()
    ker = []
    for f in range(m_n.shape[1]):
        if f in pivots:
            continue
        v = [QT.zero] * m_n.shape[1]
        v[f] = QT.one
        for row, p in enumerate(pivots):
            v[p] = -reduced[row][f]
        ker.append(v)
    return ker, lam_s * w
