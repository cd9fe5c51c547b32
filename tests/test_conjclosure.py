"""Projective conjugation-orbit closures: dominance, witnesses, slices."""

import itertools
import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import all_partitions, j_chi

from orbitlimits.cli import EXIT_INPUT, EXIT_OK, main
from orbitlimits.conjclosure import (JordanSpec, Partition, certify_witness,
                                     closure_contains_nilpotent, companion, direct_sum,
                                     dominates, in_Xkr, jab_slice_report,
                                     jn_slice_report, jordan_block,
                                     minimal_polynomial, nilpotent_signature, transpose,
                                     transpose_block_spectrum, witness_family,
                                     z4_example)
from orbitlimits.exactcore import Mat, UniPoly, Q1, qdiv
from orbitlimits.lierep import elementary


# ---------------------------------------------------------------------------
# dominance order


def test_dominance_axioms_up_to_8():
    for n in range(1, 9):
        parts = all_partitions(n)
        for a in parts:
            assert dominates(a, a)
        for a, b in itertools.combinations(parts, 2):
            if dominates(a, b) and dominates(b, a):
                assert a == b
        for a in parts:
            for b in parts:
                if not dominates(a, b):
                    continue
                for c in parts:
                    if dominates(b, c):
                        assert dominates(a, c)


def test_partition_equality_with_other_values():
    p = Partition([2, 1])
    assert p == Partition([2, 1]) and p == [2, 1] and p == (2, 1)
    assert p != Partition([3]) and p != [3]
    for other in (None, [1, 2], [2, -1], ["a"], 3, "21", {2: 1}):
        assert not p == other and p != other
    assert None not in [p] and [1, 2] not in [p]
    assert p in [None, [1, 2], (2, 1)]


def test_transpose_is_antitone_up_to_6():
    for n in range(1, 7):
        parts = all_partitions(n)
        for a in parts:
            assert transpose(transpose(a)) == a
        for a in parts:
            for b in parts:
                if dominates(a, b):
                    assert dominates(transpose(b), transpose(a))


# ---------------------------------------------------------------------------
# the closure decision procedure


def _diag_specs(n):
    """All diagonalizable multiplicity structures of size n (labels mu_i)."""
    for p in all_partitions(n):
        yield JordanSpec([(f"mu{i}", [1] * m) for i, m in enumerate(p)])


def _all_specs(n):
    """All eigenvalue-multiplicity block structures of size n."""
    for p in all_partitions(n):
        pools = [all_partitions(m) for m in p]
        for combo in itertools.product(*pools):
            yield JordanSpec([(f"mu{i}", sizes)
                              for i, sizes in enumerate(combo)])


def test_verdict_equals_dominance_up_to_6():
    for n in range(2, 7):
        thetas = all_partitions(n)
        for spec in _all_specs(n):
            chi = transpose_block_spectrum(spec)
            for theta in thetas:
                d = closure_contains_nilpotent(spec, theta)
                assert d.contains == dominates(chi, theta)


def test_separation_soundness_up_to_6():
    # whenever the verdict is negative, the separating invariant (k, r)
    # holds for the source spec but fails for the target partition
    for n in range(2, 7):
        for spec in _all_specs(n):
            for theta in all_partitions(n):
                d = closure_contains_nilpotent(spec, theta)
                if not d.contains:
                    k, r = d.separating
                    assert in_Xkr(spec, k, r)
                    assert not in_Xkr(theta, k, r)


def test_xkr_membership_via_rank_on_matrices():
    # in_Xkr on a spec agrees with the rank of (m - ev)^k on its matrix
    spec = JordanSpec([(Fraction(2), [3, 1]), (Fraction(-1), [2])])
    m = direct_sum([jordan_block(s, ev) for ev, sizes in spec.blocks for s in sizes])
    n = m.rows
    for k in range(1, 4):
        for r in range(0, n):
            expected = in_Xkr(spec, k, r)
            best = min(
                _rank_power(m, ev, k)
                for ev, _ in spec.blocks)
            assert expected == (best <= r)


def _rank_power(m, ev, k):
    from orbitlimits.exactcore import rank
    n = m.rows
    shifted = m - Mat.identity(n).scale(ev)
    p = Mat.identity(n)
    for _ in range(k):
        p = p * shifted
    return rank(p)


def test_final_example():
    x1 = JordanSpec.diagonalizable({Fraction(1): 2, Fraction(-1): 1})
    x2 = JordanSpec([(Fraction(1), [2]), (Fraction(-1), [1])])
    assert list(transpose_block_spectrum(x1)) == [2, 1]
    assert list(transpose_block_spectrum(x2)) == [3]
    d = closure_contains_nilpotent(x1, Partition([3]))
    assert not d.contains and d.separating == (1, 1)
    assert closure_contains_nilpotent(x1, Partition([2, 1])).contains
    assert closure_contains_nilpotent(x2, Partition([3])).contains
    assert closure_contains_nilpotent(x2, Partition([2, 1])).contains


# ---------------------------------------------------------------------------
# witness families


def test_witness_family_symbolic_identity():
    # the conjugated family's leading term realizes J_chi exactly
    spec = JordanSpec([(Fraction(1), [2]), (Fraction(-1), [1])])
    fam = witness_family(spec)
    chi = transpose_block_spectrum(spec)
    assert list(fam.chi) == list(chi)


def _companion_witness(spec):
    """x' and its leading term by the direct-sum construction: one companion
    matrix per part of chi, of the product over UniPolys of (x - p/q)^e."""
    chi = transpose_block_spectrum(spec)
    blocks = []
    for j in range(1, len(chi) + 1):
        p, den = UniPoly.const(1), 1
        for ev, sizes in spec.blocks:
            for _ in range(sizes.part(j)):
                p, den = p * UniPoly({1: ev.denominator, 0: -ev.numerator}), den * ev.denominator
        blocks.append(companion([qdiv(p.coeff(i), den) for i in range(p.degree())]))
    x_prime = direct_sum(blocks)
    n = spec.n
    low = min(i - j for i in range(n) for j in range(n) if x_prime.a[i][j])
    lead = Mat([[x if i - j == low else 0 for j, x in enumerate(row)]
                for i, row in enumerate(x_prime.a)])
    return x_prime, low, lead, chi


@st.composite
def _rational_specs(draw, max_n=12):
    """A JordanSpec of size at most max_n with distinct rational eigenvalues
    p/q in [-20, 20], q <= 9, 0 and negatives included."""
    n = draw(st.integers(1, max_n))
    evs = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9),
                        min_size=1, max_size=n, unique=True))
    blocks, left = [], n
    for k, ev in enumerate(evs):
        size = left if k == len(evs) - 1 else draw(st.integers(0, left))
        parts, rest = [], size
        while rest:
            parts.append(draw(st.integers(1, rest)))
            rest -= parts[-1]
        if parts:
            blocks.append((ev, sorted(parts, reverse=True)))
            left -= size
    return JordanSpec(blocks)


@st.composite
def _partitions(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    parts = []
    while n:
        parts.append(draw(st.integers(1, n)))
        n -= parts[-1]
    return Partition(sorted(parts, reverse=True))


def _checked(p: Partition) -> Partition:
    """p rebuilt through the checked constructor, which must accept it as it is."""
    q = Partition(list(p))
    assert (p.parts, p.n) == (q.parts, q.n) and all(type(a) is int for a in p.parts)
    return q


@settings(max_examples=200, deadline=None)
@given(_partitions(), _rational_specs(),
       st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_library_built_partitions_pass_the_input_checks(p, spec, mults):
    # the partitions the library builds unchecked are partitions by construction
    t = _checked(transpose(p))
    assert transpose(t) == p and t.n == p.n
    _checked(transpose_block_spectrum(spec))
    _checked(spec.chi)
    for _, sizes in JordanSpec.diagonalizable(dict(enumerate(mults))).blocks:
        _checked(sizes)


def test_all_partitions_pass_the_input_checks():
    for n in range(9):
        assert len({_checked(p) for p in all_partitions(n)}) == len(all_partitions(n))


def test_partition_input_errors_keep_their_messages(tmp_path, capsys):
    with pytest.raises(ValueError, match="^partition parts must be weakly decreasing$"):
        Partition([1, 2])
    with pytest.raises(ValueError, match="^partition parts must be positive$"):
        Partition([-1])
    # the order is checked before zeros are dropped: only trailing zeros pass
    with pytest.raises(ValueError, match="^partition parts must be weakly decreasing$"):
        Partition([2, 0, 1])
    assert Partition([2, 1, 0, 0]).parts == (2, 1)
    with pytest.raises(ValueError, match="^eigenvalue 0 has no Jordan block$"):
        JordanSpec([(1, [1]), (0, [0])])
    with pytest.raises(ValueError, match="^eigenvalue 0 has no Jordan block$"):
        JordanSpec.diagonalizable({0: 0})
    with pytest.raises(ValueError, match="^a Jordan spec needs at least one eigenvalue$"):
        JordanSpec([])
    for doc, err in [
            ({"spec": [{"eig": "1", "sizes": [2]}, {"eig": "0", "sizes": [1]}],
              "partition": [1, 2]},
             "input error: bad partition: partition parts must be weakly decreasing\n"),
            ({"spec": [{"eig": "1", "sizes": [1, 2]}], "partition": [3]},
             "input error: partition parts must be weakly decreasing\n"),
            ({"spec": [{"eig": "1", "sizes": [2]}, {"eig": "0", "sizes": [1]}],
              "partition": [2, 0, 1]},
             "input error: bad partition: partition parts must be weakly decreasing\n"),
            ({"spec": [{"eig": "1", "sizes": [2, 0, 1]}], "partition": [3]},
             "input error: partition parts must be weakly decreasing\n"),
            ({"spec": [{"eig": "1", "sizes": [2]}, {"eig": "0", "sizes": [0]}],
              "partition": [2]},
             "input error: eigenvalue 0 has no Jordan block\n"),
            ({"spec": [{"eig": {"label": "mu"}, "sizes": []}], "partition": []},
             "input error: eigenvalue 'mu' has no Jordan block\n"),
            ({"spec": [], "partition": []},
             "input error: a Jordan spec needs at least one eigenvalue\n")]:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["closure", "--input", str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", err)
    # trailing zeros stay accepted, in the spec and in the partition
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"spec": [{"eig": "1", "sizes": [2, 0]}, {"eig": "0", "sizes": [1]}],
                                "partition": [2, 1, 0]}))
    assert main(["closure", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["partition"] == [2, 1]


@settings(max_examples=150, deadline=None)
@given(_rational_specs())
@example(JordanSpec([(Fraction(1), [2]), (Fraction(-1), [1])]))
@example(JordanSpec([(Fraction(0), [2]), (Fraction(3), [2])]))
@example(JordanSpec([(Fraction(2), [1]), (Fraction(5), [1]), (Fraction(-1), [1]),
                     (Fraction(7), [1])]))
def test_witness_family_matches_the_companion_construction(spec):
    # the rows written in place equal the direct sum of companion matrices,
    # entry for entry and type for type, and both certificates agree
    try:
        x_prime, low, lead, chi = _companion_witness(spec)
    except ValueError:                  # x' = 0, which has no lowest power of t
        with pytest.raises(ValueError):
            witness_family(spec)
        return
    try:
        fam = witness_family(spec)
    except AssertionError:
        assert low != -1 or lead != j_chi(chi)
        return
    assert fam.x_prime == x_prime and low == -1 and lead == j_chi(chi)
    assert [[type(x) for x in r] for r in fam.x_prime.a] == [[type(x) for x in r]
                                                             for r in x_prime.a]
    assert (list(fam.chi), fam.weights, fam.leading_power) == (list(chi),
                                                                list(range(1, spec.n + 1)), -1)


def test_witness_certificate_refuses_a_corrupted_x_prime():
    spec = JordanSpec([(Fraction(-2, 3), [3, 1]), (Fraction(0), [2]), (Fraction(5), [1])])
    fam = witness_family(spec)              # chi = (6, 1)
    certify_witness(fam.x_prime, fam.chi)
    for i, j, x in [(0, 2, 1),             # a t^-2 term
                    (2, 3, 0),             # a 1 of J_chi missing
                    (5, 6, 1),             # a 1 across the blocks
                    (1, 2, 2)]:            # a 2 in place of a 1
        bad = Mat(fam.x_prime.a)
        bad.a[i][j] = x
        with pytest.raises(AssertionError, match="not J_chi"):
            certify_witness(bad, fam.chi)
    # a scalar spec has no t^-1 term at all
    with pytest.raises(AssertionError, match="not J_chi"):
        witness_family(JordanSpec([(Fraction(3), [1, 1])]))


# ---------------------------------------------------------------------------
# slices at nilpotent base points


@pytest.mark.parametrize("n", range(2, 7))
def test_jn_slice_report(n):
    rep = jn_slice_report(n)
    assert rep["dim_H"] == n
    assert rep["dim_N"] == n
    assert rep["H_is_span_Z"]
    assert rep["theta_squared_zero"]
    assert rep["stabilizer_dim_always_n"]
    assert rep["min_poly_always_companion"]


def test_companion_minimal_polynomial_symbolic():
    c = [Fraction(2), Fraction(-1), Fraction(3)]
    m = companion(c)
    p = minimal_polynomial(m)
    assert p == UniPoly({3: Q1, 0: c[0], 1: c[1], 2: c[2]})


def _matrix_with_repeats(data, n):
    """An n x n integer matrix: sparse random, scalar, or a block repeated down
    the diagonal (derogatory) conjugated by a unit upper-triangular matrix."""
    cell = st.sampled_from([0, 0, 0, 1, -1, 2])
    kind = data.draw(st.sampled_from(["random", "scalar", "repeated-block"]))
    if kind == "random":
        return sympy.Matrix(n, n, lambda i, j: data.draw(cell))
    if kind == "scalar":
        return sympy.eye(n) * data.draw(st.integers(-2, 2))
    b = data.draw(st.integers(1, max(1, n // 2)))
    block = sympy.Matrix(b, b, lambda i, j: data.draw(cell))
    rest = n - b * (n // b)
    d = sympy.diag(*([block] * (n // b) + [sympy.Matrix(rest, rest, lambda i, j: data.draw(cell))]))
    p = sympy.Matrix(n, n, lambda i, j: 1 if i == j else (data.draw(cell) if j > i else 0))
    return p * d * p.inv()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimal_polynomial_against_sympy(data):
    n = data.draw(st.integers(1, 5))
    m = _matrix_with_repeats(data, n)
    p = minimal_polynomial(Mat([[Fraction(int(x.p), int(x.q)) for x in m.row(i)]
                                for i in range(n)]))
    d = p.degree()
    assert 1 <= d <= n and p.lc() == 1
    coeff = lambda e: sympy.Rational(p.coeff(e).numerator, p.coeff(e).denominator)
    assert sum((coeff(e) * m**e for e in range(d + 1)), sympy.zeros(n, n)) == sympy.zeros(n, n)
    # no polynomial of lower degree annihilates m
    assert sympy.Matrix([list(m**e) for e in range(d)]).rank() == d


def test_z4_stabilizer_element():
    z4 = z4_example()
    assert z4["completion_identity"]
    assert z4["stabilizes"]
    assert z4["slice_stabilizer_dim"] == 4


@pytest.mark.parametrize("ab", [(2, 1), (3, 2), (4, 3)])
def test_jab_slice_report(ab):
    a, b = ab
    rep = jab_slice_report(a, b, nsamples=5)
    assert rep["dims_equal_a_plus_3b"]
    assert rep["min_poly_degree_at_least_a"]
    assert rep["eigenspace_dim_at_most_2"]
    assert rep["nilpotent_family_ok"]
    div = rep["divisibility_sample"]
    assert div["min_poly_degree"] == a and div["equals_min_poly_Ta"]
    assert div["Tb_divides"] is True and div["p_of_Tb_vanishes"]


def test_nilpotent_signature():
    m = jordan_block(3) + Mat.zeros(3, 3)
    assert list(nilpotent_signature(m)) == [3]
    # J_3 + E_00: the ranks of its powers fall from 3 to 2 and stall at 1
    with pytest.raises(ValueError, match="matrix is not nilpotent"):
        nilpotent_signature(m + elementary(3, 0, 0))
