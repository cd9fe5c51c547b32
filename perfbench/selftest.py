"""Tests of the benchmark's own code: the oracle, the screens and the checks.

Each answer check is fed one right answer and one deliberately wrong one.
Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

O2 = ({(0, 4): 1, (2, 2): 2, (4, 0): 1}, [1, 0])        # (y^2 + z^2)^2 in (z, y)
O3 = ({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): 2, (2, 0, 2): 2,
       (0, 2, 2): 2}, [1, 0, 0])                      # (y1^2 + y2^2 + z^2)^2


def program_answer(cmd: str, doc: dict) -> str:
    from orbitlimits import cli
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main([cmd]) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


def corrupt(text: str, edit) -> str:
    out = copy.deepcopy(json.loads(text))
    edit(out)
    return json.dumps(out)


def test_echelon_matches_sympy():
    import random
    import sympy
    rng = random.Random(7)
    for _ in range(30):
        r, c = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3)) for _ in range(c)]
                for _ in range(r)]
        m = sympy.Matrix(r, c, [sympy.Rational(x.numerator, x.denominator)
                                for row in rows for x in row])
        e = oracle.Echelon()
        for row in rows:
            e.add(row)
        assert e.rank == (m.rank() if r else 0)
        for v in e.nullspace(c):
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        assert len(e.nullspace(c)) == c - e.rank


def test_initial_subspace_on_paper_rows():
    # O2: K0 = span{e12}; O3: K0 = span{e12, e13, e23 - e32}
    for (f, lam), want in ((O2, {-1: 1}), (O3, {-1: 2, 0: 1})):
        f = {e: Fraction(c) for e, c in f.items()}
        K = oracle.stabilizer(f, len(lam))
        assert oracle.initial_subspace(K, oracle.gl_weights(lam))[0] == want
    from orbitlimits import examples
    for make, lam, want in ((examples.det3_skew_sym_form, examples.LAM2, (0, 8, 8)),
                            (examples.det3_form, examples.LAM4, (1, 10, 5))):
        f = {e: Fraction(c) for e, c in make().terms.items()}
        K = oracle.stabilizer(f, 9)
        dims, _ = oracle.initial_subspace(K, oracle.gl_weights(lam.weights))
        assert len(K) == 16 and checks._weight_tuple(dims) == want


def test_screen():
    x2 = {(2, 0): Fraction(1)}
    assert not inputs.usable_limit_input(x2, [1, 0])                  # one weight
    assert not inputs.usable_limit_input({(2, 0): 1, (1, 1): 1}, [0, 1])  # xy in T(x^2)
    fault = inputs.form_of_doc(inputs.KLF_FAULT[0])
    assert oracle.transversal(fault, inputs.KLF_FAULT[1])
    assert not inputs.usable_limit_input(fault, inputs.KLF_FAULT[1])  # K_lf not graded
    assert inputs.usable_limit_input({e: Fraction(c) for e, c in O2[0].items()}, O2[1])


def test_inputs_follow_the_seed():
    for make in inputs.WORKLOADS.values():
        assert make(3) == make(3)
    assert inputs.limit_mix(3) != inputs.limit_mix(4)
    assert inputs.matrix_mix(3) != inputs.matrix_mix(4)
    specs = [doc["spec"] for cmd, doc in inputs.matrix_mix(3) if cmd == "closure"]
    assert all(len(s) > 1 or any(p > 1 for p in s[0]["sizes"]) for s in specs)
    # the seeded sign changes keep every limit-mix input through the screen
    for cmd, doc in inputs.limit_mix(3):
        if doc["oneps"] != inputs.KLF_FAULT[1]:
            assert inputs.usable_limit_input(inputs.form_of_doc(doc["form"]), doc["oneps"])


def test_speed_probe_clock_leaves_out_probe_time():
    probe = worker.SpeedProbe()
    start, wall = probe.clock(), time.perf_counter()
    probe.start()
    try:
        while time.perf_counter() - wall < 0.3:
            oracle.rank(worker.PROBE_MATRIX)
    finally:
        probe.stop()
    assert len(probe.samples) >= 3 and probe.spent == sum(probe.samples)
    took = probe.clock() - start
    assert abs(time.perf_counter() - wall - probe.spent - took) < 1e-3


def det3_answer(row: str) -> str:
    """The right det3 answer, made by the oracle: K0 is the initial subspace."""
    from orbitlimits import examples
    make, lam = {"l2": (examples.det3_skew_sym_form, examples.LAM2),
                 "l4": (examples.det3_form, examples.LAM4)}[row]
    f = {e: Fraction(c) for e, c in make().terms.items()}
    parts = oracle.weight_split(f, lam.weights)
    a, b = sorted(parts)[:2]
    _, basis = oracle.initial_subspace(oracle.stabilizer(f, 9), oracle.gl_weights(lam.weights))
    k0 = [oracle.unflat([str(v.get(i, 0)) for i in range(81)], 9) for v in basis]
    return json.dumps({"a": a, "b": b, "g": [[list(e), str(c)] for e, c in parts[a].items()],
                       "K0": k0})


def test_det3_check():
    for row in ("l2", "l4"):
        right = det3_answer(row)
        assert checks.check("det3", row, right) is None
        wrong = corrupt(right, lambda o: o["K0"][0][0].__setitem__(0, "7"))
        assert checks.check("det3", row, wrong) is not None


def test_limit_check():
    doc = {"form": inputs.form_doc(2, 4, O2[0]), "oneps": O2[1]}
    right = program_answer("limit", doc)
    assert checks.check("limit", doc, right) is None
    for edit in (lambda o: o.__setitem__("a", o["a"] + 1),
                 lambda o: o["K0_basis"][0][1].__setitem__(0, "1"),
                 lambda o: o.__setitem__("K0_graded_dims", {"0": 1})):
        assert checks.check("limit", doc, corrupt(right, edit)) is not None


def test_closure_check():
    yes = {"spec": [{"eig": "1", "sizes": [2, 1]}, {"eig": "-1", "sizes": [1]}],
           "partition": [3, 1]}
    no = {"spec": [{"eig": "1", "sizes": [1, 1]}, {"eig": "-1", "sizes": [1]}],
          "partition": [3]}
    for doc in (yes, no):
        assert checks.check("closure", doc, program_answer("closure", doc)) is None
    right = program_answer("closure", yes)
    for edit in (lambda o: o.__setitem__("contains", False),
                 lambda o: o["witness"]["x_prime"][3].__setitem__(3, "2"),
                 lambda o: o["witness"]["x_prime"][0].__setitem__(1, "2")):
        assert checks.check("closure", yes, corrupt(right, edit)) is not None
    right = program_answer("closure", no)
    for edit in (lambda o: o["separating"].__setitem__("r", 0),
                 lambda o: o["separating"].__setitem__("r", 2)):
        assert checks.check("closure", no, corrupt(right, edit)) is not None


def test_slice_kempf_curvature_checks():
    for cmd, doc, edit in (
            ("slice", {"kind": "jn", "n": 4}, lambda o: o.__setitem__("dim_N", 5)),
            ("slice", {"kind": "jab", "a": 2, "b": 1}, lambda o: o.__setitem__("dim_H", 6)),
            ("kempf", {"matrix": inputs.jordan_nilpotent(3), "t": 1000, "grid": True},
             lambda o: o.__setitem__("mu", o["mu"] * 1.01)),
            ("kempf", {"matrix": inputs.jordan_nilpotent(3), "t": 1000, "grid": True},
             lambda o: o.__setitem__("agrees_with_grid", False)),
            ("curvature", {"kind": "sphere", "dim": 3, "r": "2"},
             lambda o: o["ricci"][0].__setitem__(0, "1")),
            ("curvature", {"kind": "adjoint", "lams": ["1", "2", "4"]},
             lambda o: o["d"]["0,1"].reverse()),
            ("curvature", {"kind": "cyclic", "n": 3},
             lambda o: o.__setitem__("gamma_squared", "4"))):
        right = program_answer(cmd, doc)
        assert checks.check(cmd, doc, right) is None, (cmd, doc)
        assert checks.check(cmd, doc, corrupt(right, edit)) is not None, (cmd, doc)


def test_harrell_davis_quantile():
    for x in (0.01, 0.3, 0.77, 0.999):
        assert math.isclose(run.beta_cdf(1, 1, x), x)
        assert math.isclose(run.beta_cdf(3.5, 1, x), x ** 3.5)
        assert math.isclose(run.beta_cdf(1, 2.5, x), 1 - (1 - x) ** 2.5)
    assert math.isclose(run.beta_cdf(40.2, 61.8, 0.4), 1 - run.beta_cdf(61.8, 40.2, 0.6))
    assert math.isclose(run.hd_quantile([3, 5], 0.5), 4)
    assert math.isclose(run.hd_quantile([7.0] * 50, 0.9), 7.0)
    values = [i / 100 for i in range(101)]
    assert abs(run.hd_quantile(values, 0.9) - 0.9) < 0.01
    assert abs(run.hd_quantile(values, 0.5) - 0.5) < 1e-9


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} tests passed")
