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

from .exactcore import Mat, UniPoly
from .lierep import Form, group_act_form
from .limits import OnePS


def _cubic(*terms) -> Form:
    """The cubic in x1..x9 with the given ((i, j, k), coefficient) terms,
    variables 0-indexed."""
    out: dict = {}
    for idx, c in terms:
        e = [0] * 9
        for i in idx:
            e[i] += 1
        out[tuple(e)] = c
    return Form(9, 3, out)


def _det3_of(*entries) -> Form:
    """det3 with matrix entry k (row-major) replaced by the linear form
    entries[k], given as {variable index: coefficient}."""
    A = Mat([[e.get(j, 0) for j in range(9)] for e in entries])
    return group_act_form(A, det3_form())


def det3_form() -> Form:
    return _cubic(((0, 4, 8), 1), ((1, 5, 6), 1), ((2, 3, 7), 1),
                  ((0, 5, 7), -1), ((1, 3, 8), -1), ((2, 4, 6), -1))


def det3_z_adapted_form() -> Form:
    """det3 after renaming z = x1 + x5 + x9 into the ninth coordinate."""
    return _det3_of(*({k: 1} for k in range(8)), {8: 1, 0: -1, 4: -1})


def det3_skew_sym_form() -> Form:
    """Determinant of the skew (x1..x3) plus symmetric (x4..x9) split."""
    return _det3_of({5: 2}, {0: 1, 7: 1}, {1: -1, 8: 1},
                    {0: -1, 7: 1}, {4: 2}, {2: 1, 6: 1},
                    {1: 1, 8: 1}, {2: -1, 6: 1}, {3: 2})


def q1_prime_form() -> Form:
    """z (x1 x5 - x2 x4) in the z-adapted coordinates (z is the ninth)."""
    return _cubic(((0, 4, 8), 1), ((1, 3, 8), -1))


def q2_form() -> Form:
    """x4 x1^2 + x5 x2^2 + x6 x3^2 + x7 x1 x2 + x8 x2 x3 + x9 x1 x3."""
    return _cubic(((0, 0, 3), 1), ((1, 1, 4), 1), ((2, 2, 5), 1),
                  ((0, 1, 6), 1), ((1, 2, 7), 1), ((0, 2, 8), 1))


def q3_form() -> Form:
    """8 x4 x5 x6 - 2 x6 x7^2 - 2 x4 x8^2 - 2 x5 x9^2 + 2 x7 x8 x9."""
    return _cubic(((3, 4, 5), 8), ((5, 6, 6), -2), ((3, 7, 7), -2),
                  ((4, 8, 8), -2), ((6, 7, 8), 2))


def q4_form() -> Form:
    """x1 (x5 x9 - x6 x8) + x7 (x2 x6 - x3 x5)."""
    return _cubic(((0, 4, 8), 1), ((0, 5, 7), -1), ((6, 1, 5), 1), ((6, 2, 4), -1))


def q4_prime_form() -> Form:
    """-x4 (x2 x9 - x3 x8)."""
    return _cubic(((3, 1, 8), -1), ((3, 2, 7), 1))


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
            terms[key] = terms.get(key, 0) + 1
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
