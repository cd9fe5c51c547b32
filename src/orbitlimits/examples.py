"""Shared worked-example inputs: the small binary/ternary quartic limits,
the 3x3 determinant with its one-parameter subgroups, and the expected
limits that the reproduction harness and the tests pin down.

Variable conventions:
  * quartic O2: variables (z, y), f = (y^2 + z^2)^2, lambda scales z;
  * quartic O3: variables (z, y1, y2), f = (y1^2 + y2^2 + z^2)^2;
  * det3: the determinant of [[x1,x2,x3],[x4,x5,x6],[x7,x8,x9]];
  * the z-adapted coordinates for the first codimension-1 limit rename
    z = x1 + x5 + x9 into the ninth slot, so the (3,3) entry reads
    x9 - x1 - x5 and the scaling subgroup is diagonal;
  * the skew/symmetric reordering splits the generic matrix into a skew
    part on (x1, x2, x3) and a symmetric part on (x4, ..., x9); its
    determinant det3' generates the same orbit closure as det3.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import Mat, Q0, Q1, UniPoly
from .lierep import Form
from .limits import OnePS


def _det3_of(rows) -> dict:
    """Exponent->coefficient terms of the determinant of a 3x3 matrix whose
    entries are linear forms given as coefficient vectors over x1..x9."""
    n = 9
    terms: dict = {}

    def add(vecs, sign):
        # product of three linear forms
        poly = {(0,) * n: Fraction(sign)}
        for vec in vecs:
            new: dict = {}
            for e, c in poly.items():
                for i, a in enumerate(vec):
                    if not a:
                        continue
                    ee = list(e)
                    ee[i] += 1
                    key = tuple(ee)
                    new[key] = new.get(key, Q0) + c * a
            poly = new
        for e, c in poly.items():
            terms[e] = terms.get(e, Q0) + c

    perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
             ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)]
    for p, sign in perms:
        add([rows[i][p[i]] for i in range(3)], sign)
    return {e: c for e, c in terms.items() if c}


def _unit(i: int, coef=1) -> list:
    v = [Q0] * 9
    v[i] = Fraction(coef)
    return v


def _lin(*pairs) -> list:
    v = [Q0] * 9
    for i, c in pairs:
        v[i] = v[i] + Fraction(c)
    return v


def det3_form() -> Form:
    rows = [[_unit(0), _unit(1), _unit(2)],
            [_unit(3), _unit(4), _unit(5)],
            [_unit(6), _unit(7), _unit(8)]]
    return Form(9, 3, _det3_of(rows))


def det3_z_adapted_form() -> Form:
    """det3 after renaming z = x1 + x5 + x9 into the ninth coordinate."""
    rows = [[_unit(0), _unit(1), _unit(2)],
            [_unit(3), _unit(4), _unit(5)],
            [_unit(6), _unit(7), _lin((8, 1), (0, -1), (4, -1))]]
    return Form(9, 3, _det3_of(rows))


def det3_skew_sym_form() -> Form:
    """Determinant of the skew (x1..x3) plus symmetric (x4..x9) split."""
    rows = [[_unit(5, 2), _lin((0, 1), (7, 1)), _lin((1, -1), (8, 1))],
            [_lin((0, -1), (7, 1)), _unit(4, 2), _lin((2, 1), (6, 1))],
            [_lin((1, 1), (8, 1)), _lin((2, -1), (6, 1)), _unit(3, 2)]]
    return Form(9, 3, _det3_of(rows))


def q1_prime_form() -> Form:
    """z (x1 x5 - x2 x4) in the z-adapted coordinates (z is the ninth)."""
    terms: dict = {}
    for pair, cp in (((0, 4), 1), ((1, 3), -1)):
        e = [0] * 9
        e[8] += 1
        e[pair[0]] += 1
        e[pair[1]] += 1
        terms[tuple(e)] = Fraction(cp)
    return Form(9, 3, terms)


def q2_form() -> Form:
    """x4 x1^2 + x5 x2^2 + x6 x3^2 + x7 x1 x2 + x8 x2 x3 + x9 x1 x3."""
    data = [((0, 0, 3), 1), ((1, 1, 4), 1), ((2, 2, 5), 1),
            ((0, 1, 6), 1), ((1, 2, 7), 1), ((0, 2, 8), 1)]
    terms: dict = {}
    for (i, j, k), c in data:
        e = [0] * 9
        e[i] += 1
        e[j] += 1
        e[k] += 1
        terms[tuple(e)] = Fraction(c)
    return Form(9, 3, terms)


def q3_form() -> Form:
    """8 x4 x5 x6 - 2 x6 x7^2 - 2 x4 x8^2 - 2 x5 x9^2 + 2 x7 x8 x9."""
    data = [((3, 4, 5), 8), ((5, 6, 6), -2), ((3, 7, 7), -2),
            ((4, 8, 8), -2), ((6, 7, 8), 2)]
    terms: dict = {}
    for (i, j, k), c in data:
        e = [0] * 9
        e[i] += 1
        e[j] += 1
        e[k] += 1
        terms[tuple(e)] = Fraction(c)
    return Form(9, 3, terms)


def q4_form() -> Form:
    """x1 (x5 x9 - x6 x8) + x7 (x2 x6 - x3 x5)."""
    data = [((0, 4, 8), 1), ((0, 5, 7), -1), ((6, 1, 5), 1), ((6, 2, 4), -1)]
    terms: dict = {}
    for (i, j, k), c in data:
        e = [0] * 9
        e[i] += 1
        e[j] += 1
        e[k] += 1
        terms[tuple(e)] = Fraction(c)
    return Form(9, 3, terms)


def q4_prime_form() -> Form:
    """-x4 (x2 x9 - x3 x8)."""
    data = [((3, 1, 8), -1), ((3, 2, 7), 1)]
    terms: dict = {}
    for (i, j, k), c in data:
        e = [0] * 9
        e[i] += 1
        e[j] += 1
        e[k] += 1
        terms[tuple(e)] = Fraction(c)
    return Form(9, 3, terms)


LAM1 = OnePS([0] * 8 + [1])                      # on det3_z_adapted_form
LAM2 = OnePS([0, 0, 0, 1, 1, 1, 1, 1, 1])        # on det3_skew_sym_form
LAM4 = OnePS([1, 1, 1, 1, 0, 0, 0, 0, 0])        # on det3_form


# ---------------------------------------------------------------------------
# the small quartic examples


def o2_form() -> Form:
    """(y^2 + z^2)^2 in variables (z, y)."""
    return Form(2, 4, {(0, 4): 1, (2, 2): 2, (4, 0): 1})


O2_LAM = OnePS([1, 0])


def o3_form() -> Form:
    """(y1^2 + y2^2 + z^2)^2 in variables (z, y1, y2)."""
    terms: dict = {}
    sq = [(0, (2, 0, 0)), (1, (0, 2, 0)), (2, (0, 0, 2))]
    for _, e1 in sq:
        for _, e2 in sq:
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, Q0) + Q1
    return Form(3, 4, terms)


O3_LAM = OnePS([1, 0, 0])


def o3_reference_kt() -> list[Mat]:
    """The printed K(t) basis k1, k2, k3 over Q[t]."""
    z, o, t2 = UniPoly.zero(), UniPoly.const(1), UniPoly.t(2, -1)
    k1 = Mat([[z, o, z], [t2, z, z], [z, z, z]])
    k2 = Mat([[z, z, o], [z, z, z], [t2, z, z]])
    k3 = Mat([[z, z, z], [z, z, o], [z, -o, z]])
    return [k1, k2, k3]


# (i, j) -> coefficients of [k_i, k_j] on (k1, k2, k3): the printed table
O3_STRUCTURE = {
    (0, 1): [UniPoly.zero(), UniPoly.zero(), UniPoly.t(2, -1)],
    (0, 2): [UniPoly.zero(), UniPoly.const(1), UniPoly.zero()],
    (1, 2): [UniPoly.const(-1), UniPoly.zero(), UniPoly.zero()],
}
