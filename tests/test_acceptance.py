"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single
"ACCEPTANCE k: PASS/FAIL" line (directly to the terminal, bypassing
capture) and then asserts.  Each worked-example runner runs once: its
checks are compared with `reproduce --format json`'s pinned output
(tests/data/reproduce_golden.json) where a criterion runs it, and the last
test renders the whole document from those checks and compares it byte for
byte.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlimits import cli
from orbitlimits.conjclosure import (JordanSpec, Partition, all_partitions,
                                     charpoly, closure_contains_nilpotent,
                                     companion, dominates, in_Xkr,
                                     jab_slice_report, jn_local_model,
                                     jn_slice_report, minimal_polynomial,
                                     transpose_block_spectrum, witness_family,
                                     z4_example)
from orbitlimits.curvature import cyclic_shift_suite
from orbitlimits.exactcore import Q1, Subspace, UniPoly, lin_comb, sparse
from orbitlimits.lierep import ConjRep, Form, monomial_basis
from orbitlimits.limits import (LimitProblem, OnePS, limit_algebra,
                                limit_algebra_by_conjugation, same_span)
from orbitlimits.localmodel import NotTransverse
from orbitlimits.reproduce import RUNNERS


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _criterion(num: int, desc: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


GOLDEN = Path(__file__).resolve().parent / "data" / "reproduce_golden.json"
_REPORTS: dict = {}     # runner id -> its checks


def _report(ident: str) -> list:
    if ident not in _REPORTS:
        _REPORTS[ident] = RUNNERS[ident]()
    return _REPORTS[ident]


def _render(entry) -> str:
    return json.dumps(entry, sort_keys=True, indent=2)


def _runner_ok(ident: str):
    rows = _report(ident)
    bad = [r["label"] for r in rows if not r["ok"]]
    entry = {"ok": not bad, "checks": cli.to_jsonable(rows)}
    if _render(entry) != _render(json.loads(GOLDEN.read_text())["examples"][ident]):
        bad.append("output differs from reproduce_golden.json")
    return not bad, bad


def test_acceptance_1_o2():
    ok, bad = _runner_ok("o2")
    _criterion(1, "O2: K(t) = alpha (e12 - t^2 e21), K0 = span{e12}, "
                  "feasible with A(eps) = e12 - eps e21 mod K0"
                  + (f"; failed: {bad}" if bad else ""), ok)


def test_acceptance_2_o3():
    ok, bad = _runner_ok("o3")
    _criterion(2, "O3: structure constants over Q(t) match the reference "
                  "table exactly" + (f"; failed: {bad}" if bad else ""), ok)


def test_acceptance_3_sl2_sym2():
    ok, bad = _runner_ok("sl2-sym2")
    _criterion(3, "sl(2) on Sym^2: theta, (1+theta)^-1 and the S-completion "
                  "g(0,0,1) -> g(0,-1,1) exact"
                  + (f"; failed: {bad}" if bad else ""), ok)


def test_acceptance_4_det3_suite():
    bad = []
    for ident in ("det3-table", "det3-q1", "det3-q2", "det3-q4"):
        ok_i, bad_i = _runner_ok(ident)
        bad += [f"{ident}: {b}" for b in bad_i]
    _criterion(4, "det3 suite: dim K = 16; dim H = 17/17/21; K0 graded dims "
                  "(0,8,8)/(0,8,8)/(1,10,5); H(Q4) graded (1,13,7); "
                  "triple-stabilizer dims 0+4+0/0+8+0/1+6+1"
                  + (f"; failed: {bad}" if bad else ""), not bad)


def _all_specs(n):
    for p in all_partitions(n):
        pools = [all_partitions(m) for m in p]
        for combo in itertools.product(*pools):
            yield JordanSpec([(f"mu{i}", sizes)
                              for i, sizes in enumerate(combo)])


def _witness_residual_below(blocks, bound: Fraction) -> bool:
    """Exact-rational check that the scale-invariant characteristic
    residuals max_k |e_k(v)| / ||v||_F^k of the family at t = 1/1000 lie
    strictly below the bound."""
    t = Fraction(1, 1000)
    fam = witness_family(JordanSpec(blocks))
    v = fam.at(t).scale(t)
    n = v.rows
    fro2 = sum(x * x for row in v.a for x in row)
    pc = charpoly(v)
    return all(pc.coeff(n - k) ** 2 < bound ** 2 * fro2 ** k
               for k in range(1, n + 1))


def test_acceptance_5_conjugation_theorem():
    ok, bad = _runner_ok("conj-final")

    consistent = True
    for n in range(2, 7):
        thetas = all_partitions(n)
        for spec in _all_specs(n):
            chi = transpose_block_spectrum(spec)
            for theta in thetas:
                d = closure_contains_nilpotent(spec, theta)
                if d.contains != dominates(chi, theta):
                    consistent = False
                if not d.contains:
                    k, r = d.separating
                    if not in_Xkr(spec, k, r) or in_Xkr(theta, k, r):
                        consistent = False

    # witness families at n <= 4: traceless spectra in {-1, 0, 1}, where
    # e_1 vanishes exactly and the higher residuals are O(t^k)
    probes = [
        [(Fraction(1), [1]), (Fraction(-1), [1])],
        [(Fraction(1), [1]), (Fraction(0), [1]), (Fraction(-1), [1])],
        [(Fraction(1), [2]), (Fraction(-1), [2])],
        [(Fraction(1), [1]), (Fraction(0), [2]), (Fraction(-1), [1])],
    ]
    close = all(_witness_residual_below(b, Fraction(1, 10 ** 6))
                for b in probes)

    _criterion(5, "conjugation closures: final-example verdicts; exhaustive "
                  "verdict = dominance = separation for n <= 6; witness "
                  "invariant-distance < 1e-6 at t = 1e-3"
                  + (f"; failed: {bad}" if bad else ""),
               ok and consistent and close)


def test_acceptance_6_jn_slice():
    ok = True
    for n in range(2, 7):
        samples = 0
        for seed in range(4):                     # 4 x 3 = 12 >= 10 samples
            rep = jn_slice_report(n, seed=seed)
            ok = ok and rep["theta_squared_zero"]
            ok = ok and rep["stabilizer_dim_always_n"]
            ok = ok and rep["min_poly_always_companion"]
            samples += len(rep["samples"])
        ok = ok and samples >= 10
    c = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1)]
    ok = ok and minimal_polynomial(companion(c)) == UniPoly(
        {4: Q1, **{i: c[i] for i in range(4)}})
    z4 = z4_example()
    ok = ok and z4["completion_identity"] and z4["stabilizes"] \
        and z4["slice_stabilizer_dim"] == 4
    _criterion(6, "J_n slice (n <= 6): theta^2 = 0, companion minimal "
                  "polynomial, stabilizer dim n on >= 10 random slice points "
                  "per n, Z_4 completion s + h", ok)


def test_acceptance_7_jab_slice():
    ok = True
    for a, b in ((2, 1), (3, 2), (4, 3)):
        rep = jab_slice_report(a, b, nsamples=20)
        ok = ok and rep["dims_equal_a_plus_3b"]
        ok = ok and rep["nilpotent_family_ok"]
        ok = ok and rep["min_poly_degree_at_least_a"]
        ok = ok and rep["eigenspace_dim_at_most_2"]
    _criterion(7, "J_{a,b} slice: dim H = dim C = a + 3b; nilpotent "
                  "signatures (a+b-i+1, i-1); min-poly degree >= a and "
                  "kernel <= 2 on 20 random slice points each", ok)


def test_acceptance_8_curvature():
    bad = []
    for ident in ("sphere-ricci", "adjoint-pi", "cyclic-shift-5"):
        ok_i, bad_i = _runner_ok(ident)
        bad += [f"{ident}: {b}" for b in bad_i]
    trace_ok = all(cyclic_shift_suite(n)["closed_form_matches_trace"]
                   for n in range(3, 8))
    _criterion(8, "curvature: sphere Ricci = (n-1)/r^2 for n in {3,4,5}; "
                  "adjoint d_pq table; cyclic-shift P^1..P^4 at n = 5 "
                  "byte-identical; closed form = trace formula for n in 3..7"
                  + (f"; failed: {bad}" if bad else ""),
               not bad and trace_ok)


def test_acceptance_9_kempf():
    ok, bad = _runner_ok("kempf-prop")
    _criterion(9, "instability optimizer: descent f within 1e-3 of the grid "
                  "optimum with mu >= grid mu - 1e-3 at t = 1000, and the "
                  "minimizer destabilizes (mu > 0) for t in {10, 100, 1000}"
                  + (f"; failed: {bad}" if bad else ""), ok)


def _random_limit_instances(count, seed=2024):
    rng = random.Random(seed)
    basis3 = monomial_basis(2, 3)
    basis4 = monomial_basis(2, 4)
    made = 0
    while made < count:
        basis = basis3 if rng.random() < 0.5 else basis4
        terms = {e: Fraction(rng.randint(-3, 3)) for e in basis}
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            continue
        w = [rng.randint(0, 3) for _ in range(2)]
        if len(set(w)) < 2:
            continue
        f = Form(2, sum(next(iter(terms))), terms)
        lam = OnePS(w)
        try:
            d1 = limit_algebra(f, lam)
            d2 = limit_algebra_by_conjugation(LimitProblem(f, lam))
        except (NotTransverse, ValueError):
            continue
        made += 1
        yield f, lam, d1, d2


def test_acceptance_10_property_suites():
    ok = True
    glrep = ConjRep(2)
    for f, lam, d1, d2 in _random_limit_instances(25):
        # dual-pipeline agreement
        ok = ok and same_span(d1.K0_coords, d2, 2)
        # K0 bracket closure, with brackets as matrix products
        K0 = d1.K0
        k0_span = Subspace(glrep.dim, [glrep.to_coords(m) for m in K0])
        for i in range(len(K0)):
            for j in range(i + 1, len(K0)):
                br = glrep.to_coords(K0[i] * K0[j] - K0[j] * K0[i])
                ok = ok and k0_span.coords(br) is not None
        # K0 lies in H and star-annihilates f_b
        h_span = Subspace(glrep.dim, d1.model.H)
        fb = (d1.rep.to_coords(d1.expansion.f_b)
              if d1.expansion.f_b is not None else None)
        for k in map(glrep.to_coords, K0):
            ok = ok and h_span.coords(k) is not None
            if fb is not None:
                ok = ok and not d1.model.star(k, fb)

    # reconstruction identity on 100 random (n, dv) pairs
    model = jn_local_model(3)
    rep = model.rep
    rng = random.Random(11)
    done = 0
    while done < 100:
        nc = sparse([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(len(model.N))])
        n = model.n_vec(nc)
        dv = sparse([Fraction(rng.randint(-4, 4)) for _ in range(rep.dim)])
        try:
            sc, nprime = model.solve_decomposition(n, dv)
        except Exception:
            continue
        recon = rep.act(model.s_vec(sc), lin_comb({0: Q1, 1: Q1}, [model.x, n]))
        recon = lin_comb({0: Q1, 1: Q1}, [recon, model.n_vec(nprime)])
        ok = ok and recon == dv
        done += 1

    # dominance-order axioms, exhaustive to n = 8
    for n in range(1, 9):
        parts = all_partitions(n)
        for a in parts:
            ok = ok and dominates(a, a)
        for a, b in itertools.combinations(parts, 2):
            if dominates(a, b) and dominates(b, a):
                ok = ok and a == b
        for a in parts:
            for b in parts:
                if not dominates(a, b):
                    continue
                for c in parts:
                    if dominates(b, c):
                        ok = ok and dominates(a, c)

    _criterion(10, "property suites: dual-pipeline K0 agreement, bracket "
                   "closure and star-annihilation on 25 random instances; "
                   "reconstruction identity on 100 random pairs; dominance "
                   "axioms exhaustive to n = 8", ok)


def test_reproduce_json_is_byte_identical_to_golden(monkeypatch, capsys):
    # the runners that no criterion runs are compared here
    for ident in ("jn-slice", "jab-slice"):
        ok, bad = _runner_ok(ident)
        assert ok, bad
    monkeypatch.setattr(cli, "run_ids", lambda ids: {i: _report(i) for i in ids})
    assert cli.main(["reproduce", "--format", "json"]) == cli.EXIT_OK
    assert capsys.readouterr().out == GOLDEN.read_text()
