"""Exact rational/polynomial linear algebra kernel."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sympy

from test_subspace import exact_types
from orbitlimits import exactcore
from orbitlimits.exactcore import (Mat, Q0, Q1, Subspace, UniPoly, at_zero, column_normalize,
                                   coords_in_basis, det_bareiss, lin_comb,
                                   lin_indep_subset, nullspace, rank, rank_qt, rref,
                                   solve, sparse)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def rand_mat(draw, n, m):
    return Mat([[draw(rationals) for _ in range(m)] for _ in range(n)])


# ---------------------------------------------------------------------------
# UniPoly


def test_unipoly_basic():
    p = UniPoly({2: Fraction(1), 0: Fraction(-1)})      # t^2 - 1
    q = UniPoly({1: Fraction(1), 0: Fraction(1)})       # t + 1
    quo, rem = p.divmod(q)
    assert quo == UniPoly({1: Q1, 0: -Q1})
    assert not any(rem.c.values())
    assert p.degree() == 2 and p.valuation() == 0
    assert p(Fraction(3)) == 8


def test_unipoly_is_unhashable_as_it_equals_scalars():
    # UniPoly.const(1) == 1, so no hash could agree with both 1's and t^2's
    assert UniPoly.const(1) == 1
    with pytest.raises(TypeError):
        hash(UniPoly.const(1))


def test_unipoly_exact_div_raises_on_remainder():
    p = UniPoly({1: Q1, 0: Q1})
    with pytest.raises(ValueError):
        p.exact_div(UniPoly({1: Q1}))


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
def test_unipoly_mul_evaluates(a, b):
    p = UniPoly({i: c for i, c in enumerate(a)})
    q = UniPoly({i: c for i, c in enumerate(b)})
    t0 = Fraction(3, 2)
    assert (p * q)(t0) == p(t0) * q(t0)


# ---------------------------------------------------------------------------
# matrices


def test_solve_and_inverse():
    m = Mat.rational([[2, 1], [1, 1]])
    cols = solve(m, [[Q1, Q0], [Q0, Q1]])
    inv = Mat.from_cols(cols)
    assert m * inv == Mat.identity(2)
    assert inv.a == sympy.Matrix(m.a).inv().tolist()


def test_rank_nullspace():
    m = Mat.rational([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    assert m * Mat.from_cols(ns) == Mat.zeros(3, 1)


def test_rref_pivots():
    rows, pivots = rref(Mat.rational([[0, 1], [1, 0]]))
    assert pivots == [0, 1]


def test_det_bareiss_vs_adjugate():
    m = Mat.rational([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    d = det_bareiss(m)
    assert d == 1 + 70
    assert d == sympy.Matrix(m.a).det()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nullspace_vectors_are_in_kernel(data):
    n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    mat = rand_mat(data.draw, n, m)
    for v in nullspace(mat):
        assert mat * Mat.from_cols([v]) == Mat.zeros(n, 1)
    assert rank(mat) + len(nullspace(mat)) == m


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_det_multiplicative(data):
    n = data.draw(st.integers(2, 3))
    a, b = rand_mat(data.draw, n, n), rand_mat(data.draw, n, n)
    assert det_bareiss(a * b) == det_bareiss(a) * det_bareiss(b)


# the sparse product against independent oracles


def _entries(draw, entry, zero, n, m):
    """An n x m matrix of `entry` draws, sparse or dense: each entry is
    `zero` with a drawn probability of 0, 1/2 or 9/10."""
    level = draw(st.sampled_from([0, 5, 9]))
    return Mat([[zero if draw(st.integers(0, 9)) < level else draw(entry)
                 for _ in range(m)] for _ in range(n)], m)


@st.composite
def product_pairs(draw, entry, zero):
    k, n, m = (draw(st.integers(0, 5)) for _ in range(3))
    return _entries(draw, entry, zero, k, n), _entries(draw, entry, zero, n, m)


def _sympy(a):
    return sympy.Matrix(a.rows, a.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in a.a for x in row])


def _check_product(a, b):
    c = a * b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    # an entry that gets no term is the int 0
    for i, row in enumerate(c.a):
        for j, x in enumerate(row):
            if not any(a.a[i][k] and b.a[k][j] for k in range(a.cols)):
                assert type(x) is int and not x
    return c


@settings(max_examples=80, deadline=None)
@given(product_pairs(rationals.filter(bool), Q0))
def test_product_matches_sympy(ab):
    a, b = ab
    c = _check_product(a, b)
    want = _sympy(a) * _sympy(b)
    assert c.a == [[Fraction(int(x.p), int(x.q)) for x in want.row(i)]
                   for i in range(want.rows)]
    assert all(exact_types(r) for r in c.a)


def test_product_of_empty_shapes():
    k0, m0 = Mat([[], [], []], 0), Mat([], 4)                # 3 x 0 and 0 x 4
    c = k0 * m0
    assert (c.rows, c.cols) == (3, 4) and c == Mat.zeros(3, 4)
    c = m0 * Mat.zeros(4, 2)                                 # 0 x 4 times 4 x 2
    assert (c.rows, c.cols) == (0, 2)
    c = Mat.zeros(2, 3) * Mat([[], [], []], 0)               # 2 x 3 times 3 x 0
    assert (c.rows, c.cols) == (2, 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(2, 3) * Mat.zeros(2, 3)


def test_coords_in_basis():
    basis = [[Q1, Q0, Q0], [Q0, Q1, Q0]]
    assert coords_in_basis(basis, [Fraction(2), Fraction(3), Q0]) == \
        [Fraction(2), Fraction(3)]
    assert coords_in_basis(basis, [Q0, Q0, Q1]) is None


def test_lin_indep_subset():
    vs = [[Q1, Q0], [Fraction(2), Q0], [Q0, Q1]]
    assert lin_indep_subset(vs) == [0, 2]


def test_column_normalize():
    t, one = UniPoly.t(1, 1), UniPoly.const(1)
    (col0,) = column_normalize([{0: t, 1: t * t}])
    assert min(p.valuation() for p in col0.values()) == 0
    assert col0 == {0: one, 1: t} and at_zero(col0) == {0: 1}
    # (1, 0) and (1 + t, t^2) agree at t = 0; the second becomes (0, t) and then (0, 1)
    assert column_normalize([{0: one}, {0: one + t, 1: t * t}]) == [{0: one}, {1: one}]


# Q[t] entries t^e (a + b t), half of them zero
t_cells = st.one_of(st.just(0), st.builds(lambda e, a, b: UniPoly({e: a, e + 1: b}),
                                          st.integers(0, 2), st.integers(-2, 2),
                                          st.integers(-2, 2)))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_column_normalize_keeps_the_qt_span(data):
    """Sparse Q[t]-columns that are independent over Q(t) become columns of
    the same Q(t)-span whose values at t = 0 are independent over Q; with a
    Q[t]-combination of them as one more column, they raise."""
    nrows = data.draw(st.integers(1, 4))
    cols = [sparse([data.draw(t_cells) for _ in range(nrows)])
            for _ in range(data.draw(st.integers(1, nrows)))]
    k = len(cols)
    assume(rank_qt(cols) == k)
    out = column_normalize(cols)
    assert len(out) == k and rank_qt(out) == rank_qt(cols + out) == k
    assert len(Subspace(nrows, [at_zero(c) for c in out])) == k
    dependent = lin_comb(sparse([data.draw(t_cells) for _ in cols]), cols)
    with pytest.raises(ValueError, match=r"linearly dependent over Q\(t\)"):
        column_normalize(cols + [dependent])


# ---------------------------------------------------------------------------
# the division guard

# Every true division in the package, by module, enclosing function and
# source: float code, or the one exact division, inside `qdiv`.  Over Q an
# `int / int` would give a float without notice, so a new `/` (or
# `truediv`) fails this test until it is pinned here.
DIVISIONS = [
    ("exactcore", "qdiv", "a / b", "exact, through the helper"),
    ("conjclosure", "probe_family", "abs(float(pc.coeff(n - k))) / fro ** k", "float code"),
    ("conjclosure", "probe_family", "1.0 / k", "float code"),
    ("kempf", "_project_point", "sum(p) / len(p)", "float code"),
    ("kempf", "_project_point", "x / nrm", "float code"),
    ("kempf", "_project_gradient", "sum(g) / len(g)", "float code"),
    ("kempf", "centered_ap_direction", "(n + 1) / 2.0", "float code"),
    ("kempf", "kempf_descent.logf_and_grad", "x / sw", "float code"),
    ("kempf", "kempf_descent", "sum(a * a for a in s) / sy", "float code"),
    ("kempf", "grid_minimize", "q[i] / nrm", "float code"),
    ("kempf", "grid_minimize", "q[j] / nrm", "float code"),
    ("kempf", "grid_minimize", "y / nrm", "float code"),
    ("kempf", "grid_minimize", "y / nrm", "float code"),
    ("kempf", "_GridBound.__init__", "math.fsum(map(math.log, support.float_norms)) / m",
     "float code"),
    ("kempf", "_GridBound.window",
     "self.m * (self.ln_mg - math.log(bound) - self.slack) / self.lt", "float code"),
]


def _divisions(path: Path) -> list:
    """(module, enclosing function, source) of each `/`, `/=` and `truediv`."""
    src = path.read_text()
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div)
                    or isinstance(child, ast.Name) and child.id == "truediv"
                    or isinstance(child, ast.Attribute) and child.attr in ("truediv",
                                                                           "__truediv__")):
                out.append((path.stem, ".".join(inner), ast.get_source_segment(src, child)))
            walk(child, inner)

    walk(ast.parse(src), [])
    return out


def test_every_division_is_pinned():
    package = Path(exactcore.__file__).parent
    found = [d for path in sorted(package.glob("*.py")) for d in _divisions(path)]
    assert sorted(found) == sorted(d[:3] for d in DIVISIONS)
    assert {d[3] for d in DIVISIONS} == {"float code", "exact, through the helper"}
    assert all(d[0] in ("kempf", "conjclosure") for d in DIVISIONS if d[3] == "float code")
