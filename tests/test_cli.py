"""CLI contract: JSON in/out, exit codes, determinism."""

import argparse
import gc
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlimits import (cli, conjclosure, curvature, exactcore, kempf, lierep, limits,
                         localmodel, reproduce)
from orbitlimits.cli import (EXIT_COMPUTE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK,
                             form_from_doc, main)
from orbitlimits.conjclosure import Partition
from orbitlimits.exactcore import Mat, UniPoly, as_strings
from orbitlimits.lierep import SymRep, stabilizer_algebra


def _run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, doc):
    """Write doc as JSON; a str is written as it is."""
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(p)


XYZ = {"schema": 1,
       "form": {"nvars": 3, "degree": 3,
                "terms": [{"exp": [1, 1, 1], "coef": "1"}]}}


def test_stabilizer_of_xyz(tmp_path, capsys):
    path = _write(tmp_path, "in.json", XYZ)
    code, out, _ = _run(capsys, ["stabilizer", "--input", path])
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["schema"] == 1
    assert doc["dimension"] == 2
    assert doc["verified"] is True


def test_stabilizer_reads_stdin(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["stabilizer"],
                        stdin=json.dumps(XYZ), monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert json.loads(out)["dimension"] == 2


def test_stabilizer_of_matrix(tmp_path, capsys):
    doc = {"matrix": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["stabilizer", "--input", path])
    assert code == EXIT_OK
    assert json.loads(out)["dimension"] == 3        # centralizer of J_3


def test_local_model_on_x_squared(tmp_path, capsys):
    doc = {"form": {"nvars": 2, "degree": 2,
                    "terms": [{"exp": [2, 0], "coef": "1"}]}}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["local-model", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert (res["dim_H"], res["dim_S"], res["dim_N"]) == (2, 2, 1)


def test_limit_o2(tmp_path, capsys):
    doc = {"form": {"nvars": 2, "degree": 4,
                    "terms": [{"exp": [4, 0], "coef": "1"},
                              {"exp": [2, 2], "coef": "2"},
                              {"exp": [0, 4], "coef": "1"}]},
           "oneps": [1, 0]}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["limit", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert (res["a"], res["b"]) == (0, 2)
    assert res["dim_K"] == 1
    assert res["case"] == "A"
    assert res["extension_feasible"] is True


def _limit_answer(tmp_path, capsys, form, oneps):
    path = _write(tmp_path, "in.json", {"form": form, "oneps": oneps})
    code, out, err = _run(capsys, ["limit", "--input", path])
    assert code == EXIT_OK, err
    res = json.loads(out)
    f = form_from_doc(form)
    rep = SymRep(f.nvars, f.degree)
    assert res["dim_K"] == len(stabilizer_algebra(rep, rep.to_coords(f)))
    assert sum(res["K0_graded_dims"].values()) == res["dim_K"]
    return res


@pytest.mark.parametrize("nvars,exps,oneps", [
    (2, [[2, 0]], [1, 0]),            # x^2
    (2, [[1, 1]], [1, -1]),           # xy: lambda fixes f, N = 0
    (3, [[1, 1, 1]], [0, 0, 0]),      # xyz under the trivial subgroup
])
def test_limit_of_lambda_homogeneous_form(tmp_path, capsys, nvars, exps, oneps):
    form = {"nvars": nvars, "degree": sum(exps[0]),
            "terms": [{"exp": e, "coef": "1"} for e in exps]}
    res = _limit_answer(tmp_path, capsys, form, oneps)
    assert res["b"] is None and res["f_b"] is None
    assert res["extension_feasible"] is True


def test_limit_with_ungraded_klf(tmp_path, capsys):
    # -2zw + y^2 + 3w^2 - 3xw: transversal, but K_lf is not lambda-graded
    form = {"nvars": 4, "degree": 2,
            "terms": [{"exp": [0, 0, 1, 1], "coef": "-2"},
                      {"exp": [0, 2, 0, 0], "coef": "1"},
                      {"exp": [0, 0, 0, 2], "coef": "3"},
                      {"exp": [1, 0, 0, 1], "coef": "-3"}]}
    res = _limit_answer(tmp_path, capsys, form, [0, -2, 2, 0])
    assert res["Klf_graded_dims"] is None
    assert (res["a"], res["b"]) == (-4, 0)


# Whole `limit` outputs, json and table, pinned on the O2 and O3 quartics, two
# lambda-homogeneous forms, an input whose K_lf is not graded, and
# 3x^2 + 3yz + z^2 ("semisimple-b"), which has no weight-pure stabilizer: its
# case B comes from a non-nilpotent element of K ∩ P(lambda), the nil test.
LIMIT_GOLDEN = json.loads((Path(__file__).parent / "data" / "limit_golden.json").read_text())


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", sorted(LIMIT_GOLDEN))
def test_limit_output_is_pinned(tmp_path, capsys, name, fmt):
    case = LIMIT_GOLDEN[name]
    path = _write(tmp_path, "in.json", case["input"])
    code, out, err = _run(capsys, ["limit", "--input", path, "--format", fmt])
    assert code == EXIT_OK, err
    assert out == case[fmt]


# Whole `closure` outputs, json and table: witnesses for n = 2..10 with
# eigenvalues 0, negative and p/q, separating pairs, and symbolic labels
CLOSURE_GOLDEN = json.loads((Path(__file__).parent / "data" / "closure_golden.json")
                            .read_text())


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", sorted(CLOSURE_GOLDEN))
def test_closure_output_is_pinned(tmp_path, capsys, name, fmt):
    case = CLOSURE_GOLDEN[name]
    path = _write(tmp_path, "in.json", case["input"])
    code, out, err = _run(capsys, ["closure", "--input", path, "--format", fmt])
    assert code == EXIT_OK, err
    assert out == case[fmt]


def _scaled_limit_docs():
    """The limit-mix documents of the benchmark (seed 1), then 40 random
    (f, lambda): 2-3 variables, degree 2-4, 2-5 monomials, weights in [-2, 2]."""
    import random
    import sys
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import inputs
        docs = [doc for _, doc in inputs.limit_mix(1)]
    finally:
        sys.path.remove(perfbench)
    rng = random.Random(41)
    for _ in range(40):
        nvars, degree = rng.randint(2, 3), rng.randint(2, 4)
        basis = lierep.monomial_basis(nvars, degree)
        terms = [{"exp": list(e), "coef": str(rng.choice([-3, -2, -1, 1, 2, 3]))}
                 for e in rng.sample(basis, rng.randint(2, min(5, len(basis))))]
        docs.append({"form": {"nvars": nvars, "degree": degree, "terms": terms},
                     "oneps": [rng.randint(-2, 2) for _ in range(nvars)]})
    return docs


def _rescaled_limit(out: str, k: int) -> dict:
    """A limit output with a, b and the graded-dims weights multiplied by k."""
    res = json.loads(out)
    res["a"] *= k
    res["b"] = res["b"] * k if res["b"] is not None else None
    for key in ("K0_graded_dims", "Klf_graded_dims"):
        if res[key] is not None:
            res[key] = {str(int(w) * k): d for w, d in res[key].items()}
    return res


def test_limit_answer_scales_with_the_weights(capsys, monkeypatch):
    # lambda^k has the limit of lambda, with every weight times k
    for doc in _scaled_limit_docs():
        code1, out1, err1 = _run(capsys, ["limit"], json.dumps(doc), monkeypatch)
        for k in (7, 1000):
            scaled = dict(doc, oneps=[w * k for w in doc["oneps"]])
            code, out, err = _run(capsys, ["limit"], json.dumps(scaled), monkeypatch)
            assert (code, err) == (code1, err1)
            if code == EXIT_OK:
                assert json.loads(out) == _rescaled_limit(out1, k)


# the dense binary form of degree 499 (every monomial but x y^498): the
# largest form the CLI's size bound admits
DENSE_BINARY_499 = {"nvars": 2, "degree": 499,
                    "terms": [{"exp": [499 - k, k], "coef": "1"} for k in range(500) if k != 498]}


def _k0_or_error(f, weights):
    """(K0, its graded dims) of limit_algebra under the weights, or the error
    it raises as (type, message)."""
    try:
        data = limits.limit_algebra(f, limits.OnePS(weights))
        return [m.a for m in data.K0], data.graded_dims
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)


def test_limit_algebra_under_multiplied_weights():
    # limit_algebra itself, with lambda not divided by its gcd: under
    # k lambda, K0 is the same and its graded dims sit at the weights times k
    k = 1000
    cases = [(form_from_doc(doc["form"]), doc["oneps"]) for doc in _scaled_limit_docs()]
    cases.append((form_from_doc(DENSE_BINARY_499), [2500, -2499]))
    for f, lam in cases:
        base, scaled = _k0_or_error(f, lam), _k0_or_error(f, [w * k for w in lam])
        if isinstance(base[0], type):
            assert scaled == base
        else:
            assert scaled == (base[0], {w * k: d for w, d in base[1].items()})


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.<name>, made through any orbitlimits module."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (cli, conjclosure, curvature, kempf, lierep, limits, localmodel, reproduce):
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_limit_builds_each_stage_input_once(tmp_path, capsys, monkeypatch):
    # stab f and stab g once each, one expansion, one triple-stabilizer run;
    # of the 23 subspaces built, 2 lie in V = Sym^4 of dim 5: the tangent space
    # at g with the tail (the model's V) and the span of the tail, and none
    # is a second elimination of the tangent space
    stab = _count_calls(monkeypatch, lierep, "stabilizer_algebra")
    expand = _count_calls(monkeypatch, limits, "expand_orbit_curve")
    triple = _count_calls(monkeypatch, limits, "triple_stabilizers")
    dims = []
    init = exactcore.Subspace.__init__

    def counted(self, dim, *args, **kwargs):
        dims.append(dim)
        init(self, dim, *args, **kwargs)

    monkeypatch.setattr(exactcore.Subspace, "__init__", counted)
    path = _write(tmp_path, "in.json", LIMIT_GOLDEN["o2"]["input"])
    code, _, err = _run(capsys, ["limit", "--input", path])
    assert code == EXIT_OK, err
    assert (len(stab), len(expand), len(triple)) == (2, 1, 1)
    assert (len(dims), dims.count(5)) == (23, 2)


def test_closure_verdicts(tmp_path, capsys):
    doc = {"spec": [{"eig": "1", "sizes": [1, 1]},
                    {"eig": "-1", "sizes": [1]}],
           "partition": [3]}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["closure", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert res["contains"] is False
    assert res["transpose_block_spectrum"] == [2, 1]
    assert res["separating"] == {"k": 1, "r": 1}


def test_closure_positive_with_witness(tmp_path, capsys):
    doc = {"spec": [{"eig": "1", "sizes": [2]}, {"eig": "-1", "sizes": [1]}],
           "partition": [3]}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["closure", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert res["contains"] is True and "witness" in res


def test_closure_labels_are_symbols(tmp_path, capsys):
    # {"label": "2"} is a symbol, not the rational 2, so it is no repeat of it
    outs = []
    for label in ("2", "mu"):
        doc = {"spec": [{"eig": {"label": label}, "sizes": [1]}, {"eig": "2", "sizes": [1]}],
               "partition": [1, 1]}
        code, out, err = _run(capsys, ["closure", "--input", _write(tmp_path, "in.json", doc)])
        assert code == EXIT_OK, err
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("eig", ["-1", "0"])
def test_closure_rejects_scalar_spec(tmp_path, capsys, eig):
    # chi = (1^n): a one-point projective orbit, or none for the zero matrix
    doc = {"spec": [{"eig": eig, "sizes": [1, 1]}], "partition": [1, 1]}
    path = _write(tmp_path, "in.json", doc)
    code, out, err = _run(capsys, ["closure", "--input", path])
    assert code == EXIT_INPUT and out == "" and "scalar spec" in err


@pytest.mark.parametrize("eig, code", [(10 ** 43 - 1, EXIT_OK), (10 ** 43, EXIT_INPUT)])
def test_closure_witness_digits_at_the_bound(tmp_path, capsys, eig, code):
    # the witness of J_100(c) is the companion matrix of (x - c)^100, whose
    # coefficients are at most (|c| + 1)^100: 10^4300 for c = 10^43 - 1, whose
    # constant term has 4300 digits, and above it for c = 10^43, whose
    # constant term 10^4300 has 4301
    doc = {"spec": [{"eig": str(eig), "sizes": [100]}], "partition": [100]}
    got, out, err = _run(capsys, ["closure", "--input", _write(tmp_path, "in.json", doc)])
    assert got == code, err
    if code == EXIT_OK:
        entries = [x for row in json.loads(out)["witness"]["x_prime"] for x in row]
        assert max(len(x.lstrip("-")) for x in entries) == cli.RATIONAL_MAX_DIGITS
    else:
        assert out == "" and f"more than {cli.RATIONAL_MAX_DIGITS} digits" in err


def test_slice_jn(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"kind": "jn", "n": 3})
    code, out, _ = _run(capsys, ["slice", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert res["dim_H"] == 3 and res["theta_squared_zero"] is True


def test_curvature_sphere(tmp_path, capsys):
    path = _write(tmp_path, "in.json",
                  {"kind": "sphere", "dim": 3, "r": "2"})
    code, out, _ = _run(capsys, ["curvature", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert res["ricci"][0][0] == "1/2"


J3 = [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]


def test_kempf_on_j3(tmp_path, capsys):
    doc = {"matrix": J3, "t": 1000}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["kempf", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert res["mu"] > 0
    assert res["converged"] is True
    assert res["agrees_with_grid"] is True
    assert res["unstable"] is True
    assert res["min_norm_point"] == ["1/2", "0", "-1/2"]
    assert res["mu_star_squared"] == "1/2"


def test_kempf_grid_survives_overflow(tmp_path, capsys):
    # at t = 1e300, t^(-<l, chi>) overflows at some grid points; f is +inf there
    path = _write(tmp_path, "in.json", {"matrix": J3, "t": 1e300})
    code, out, err = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_OK, err
    res = json.loads(out)
    assert res["agrees_with_grid"] is True and res["unstable"] is True


@pytest.mark.parametrize("extra", [{}, {"grid": False}])
def test_kempf_f_past_the_float_range_is_computation_error(tmp_path, capsys, extra):
    # the trace-zero unit circle of rank 2 is two points, and f = 2 + t^sqrt2 + t^-sqrt2,
    # about 1e424, at both
    path = _write(tmp_path, "in.json", {"matrix": [["1", "1"], ["1", "1"]], "t": 1e300, **extra})
    code, out, err = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_COMPUTE and out == ""
    assert err == "computation error: f exceeds the float range at t = 1e+300\n"


# A squared component norm outside the normal floats: the matrix is
# projectively J_2, but |1/10^200|^2 underflows to 0.0; |10^200|^2 overflows
TINY_J2 = {"matrix": [["0", "1/1" + "0" * 200], ["0", "0"]]}
HUGE_FORM = {"form": {"nvars": 2, "degree": 2,
                      "terms": [{"exp": [2, 0], "coef": "1" + "0" * 200},
                                {"exp": [0, 2], "coef": "1"}]}}


@pytest.mark.parametrize("extra", [{}, {"grid": False}])
@pytest.mark.parametrize("doc, chi", [(TINY_J2, "(1, -1)"), (HUGE_FORM, "(2, 0)")])
def test_kempf_norm_past_the_float_range_is_input_error(tmp_path, capsys, doc, chi, extra):
    path = _write(tmp_path, "in.json", {**doc, "t": 10, **extra})
    code, out, err = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_INPUT and out == ""
    assert err == (f"input error: the squared norm of the weight-{chi} component is outside "
                   "the float range [2.225e-308, 1.798e+308]\n")


def test_kempf_exact_optimum_of_semistable_monomial(tmp_path, capsys):
    path = _write(tmp_path, "in.json", dict(XYZ, t=10))
    code, out, _ = _run(capsys, ["kempf", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK
    assert res["unstable"] is False
    assert res["min_norm_point"] == ["0", "0", "0"]
    assert res["mu_star_squared"] == "0"


def test_kempf_agrees_with_grid_on_semistable_input(tmp_path, capsys):
    # mu at a finite-t minimizer of a semistable matrix is no optimality
    # measure: here the descent's f and mu are both below the grid point's
    A = [["4", "5", "2", "7"], ["8", "3", "2", "2"], ["1", "7", "9", "5"], ["1", "4", "9", "9"]]
    path = _write(tmp_path, "in.json", {"matrix": A, "t": 100})
    code, out, _ = _run(capsys, ["kempf", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK and res["unstable"] is False
    assert res["f"] < res["grid_f"] and res["mu"] < res["grid_mu"] - 1e-3
    assert res["agrees_with_grid"] is True


def test_kempf_agreement_is_judged_by_f_on_unstable_input(tmp_path, capsys):
    # J_4 at the default t = 100: the descent's f is below the grid's, its mu
    # 3.5e-3 under the grid point's; a finite-t minimizer of f need not
    # maximize mu
    path = _write(tmp_path, "in.json", {"matrix": _jordan_nilpotent(4)})
    code, out, _ = _run(capsys, ["kempf", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK and res["unstable"] is True and res["converged"] is True
    assert res["f"] < res["grid_f"] and res["mu"] < res["grid_mu"] - 1e-3
    assert res["agrees_with_grid"] is True


# Whole `kempf --format json` outputs, pinned on J_3 and J_4 at t = 1000 and
# t = 1e300, the semistable dense 4x4 above at t = 100, a semistable
# ternary cubic and the unstable x^3 + 2xyz + 5y^2z in 4 variables at t = 2
# (unequal norms, small ln t), all with the grid cross-check
KEMPF_GOLDEN = json.loads((Path(__file__).parent / "data" / "kempf_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(KEMPF_GOLDEN))
def test_kempf_output_is_pinned(tmp_path, capsys, name):
    case = KEMPF_GOLDEN[name]
    path = _write(tmp_path, "in.json", case["input"])
    code, out, err = _run(capsys, ["kempf", "--input", path, "--format", "json"])
    assert code == EXIT_OK, err
    assert out == case["json"]


# Whole `--format json` outputs of the subcommands that print gl elements or
# build on them: stabilizer and local-model on xyz, J_4 and the dense 5x5 and
# 6x6 integer matrices (entries drawn row by row from [-3, 3] by
# random.Random(3); the 6x6 shows real coefficient growth), local-model under
# weights and on the dense cubic in 7 variables (coefficients 1-9 drawn by
# random.Random(3) in monomial-basis order), the slice reports at J_4 and
# J_{3,2}, and the cyclic and adjoint curvature suites
CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_is_pinned(tmp_path, capsys, name):
    # a case without "exit" succeeds; one with it pins the exit code and stderr
    case = CLI_GOLDEN[name]
    path = _write(tmp_path, "in.json", case["input"])
    code, out, err = _run(capsys, [case["command"], "--input", path, "--format", "json"])
    assert code == case.get("exit", EXIT_OK), err
    assert out == case["json"]
    if "exit" in case:
        assert err == case["stderr"]


def _quadric(nvars, *exps):
    return {"nvars": nvars, "degree": 2, "terms": [{"exp": e, "coef": "1"} for e in exps]}


# Points that are not homogeneous under the weights, decided on the point's
# own coordinates whether or not its H, S and N are graded; the pinned
# local-model-xyz-weights output above is a homogeneous point at exit 0
@pytest.mark.parametrize("doc", [
    {"form": _quadric(2, [2, 0], [0, 2]), "weights": [1, 0]},        # x^2 + y^2
    {"form": _quadric(2, [2, 0], [1, 1]), "weights": [1, 0]},        # x^2 + xy
    {"form": _quadric(3, [2, 0, 0], [0, 1, 1]), "weights": [1, 0, 0]},   # x^2 + yz
    {"matrix": [["1", "1"], ["0", "2"]], "weights": [1, 0]},
    # x^3 + y^3 (weights 3 and 0) under [1, 0, -1]: its H, S and N are graded
    {"form": {"nvars": 3, "degree": 3, "terms": [{"exp": [3, 0, 0], "coef": "1"},
                                                 {"exp": [0, 3, 0], "coef": "1"}]},
     "weights": [1, 0, -1]},
])
def test_local_model_at_a_point_not_homogeneous_under_the_weights(tmp_path, capsys, doc):
    code, out, err = _run(capsys, ["local-model", "--input", _write(tmp_path, "in.json", doc)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: the point is not homogeneous under the weights\n"


# 2 x^2 z - 3 y^2 z + 5 z^3, coefficients as JSON integers and strings: the
# library holds its integer values as ints, its outputs mix integers and
# proper fractions
INT_FORM = {"nvars": 3, "degree": 3,
            "terms": [{"exp": [2, 0, 1], "coef": 2}, {"exp": [0, 2, 1], "coef": "-3"},
                      {"exp": [0, 0, 3], "coef": 5}]}


def _rational_fields(cmd, doc):
    """The values of a stabilizer, local-model or limit document that are
    rationals."""
    if cmd == "stabilizer":
        mats = doc["basis"]
    elif cmd == "local-model":
        mats = doc["H"] + doc["S"] + [doc["N"]]
    else:
        mats = doc["K0_basis"] + [[[t["coef"] for t in doc[k]["terms"]]] for k in ("g", "f_b")]
    return [x for m in mats for row in m for x in row]


@pytest.mark.parametrize("cmd,counts", [("stabilizer", ["dimension"]),
                                        ("local-model", ["dim_H", "dim_S", "dim_N"]),
                                        ("limit", ["dim_K", "a", "b"])])
def test_rationals_of_an_integer_form_are_json_strings(tmp_path, capsys, cmd, counts):
    # local-model reads "weights", under which INT_FORM must be homogeneous
    path = _write(tmp_path, "in.json", {"form": INT_FORM, "oneps": [0, 0, 1],
                                        "weights": [1, 1, 1]})
    code, out, err = _run(capsys, [cmd, "--input", path, "--format", "json"])
    assert code == EXIT_OK, err
    doc = json.loads(out)
    values = _rational_fields(cmd, doc)
    assert values and all(isinstance(x, str) for x in values)
    assert any("/" in x for x in values) and any(x not in ("0", "1") for x in values)
    assert all(type(doc[k]) is int for k in counts)


def _at(doc, path):
    """The values of doc at a path of keys, where "*" runs over a list."""
    if not path:
        return [doc]
    key, rest = path[0], path[1:]
    return [v for x in (doc if key == "*" else [doc[key]]) for v in _at(x, rest)]


def _leaves(x):
    if isinstance(x, (list, dict)):
        return [y for v in (x.values() if isinstance(x, dict) else x) for y in _leaves(v)]
    return [x]


# (command, input, the paths of its rationals, the paths of its counts); a
# path is a key sequence, "*" for every element of a list
OUTPUT_TYPES = {
    "curvature-sphere": ("curvature", {"kind": "sphere", "dim": 3, "r": "1"}, [["ricci"]], []),
    "curvature-adjoint": ("curvature", {"kind": "adjoint", "lams": ["1", "2", "4"]},
                          [["d"]], []),
    "curvature-cyclic": ("curvature", {"kind": "cyclic", "n": 5},
                         [["p_tables"], ["gamma_squared"], ["ricci"]],
                         [["n"], ["chart_vanishing_L"]]),
    "slice-jn": ("slice", {"kind": "jn", "n": 4}, [["samples", "*", "c"]],
                 [["n"], ["dim_H"], ["dim_S"], ["dim_N"], ["samples", "*", "stabilizer_dim"]]),
    "slice-jab": ("slice", {"kind": "jab", "a": 3, "b": 2}, [],
                  [["a"], ["b"], ["dim_H"], ["dim_C"], ["nilpotent_family", "*", "i"],
                   ["nilpotent_family", "*", "signature"], ["nilpotent_family", "*", "expected"],
                   ["divisibility_sample", "min_poly_degree"]]),
    "closure-witness": ("closure", {"spec": [{"eig": "1", "sizes": [2]},
                                             {"eig": "-1/2", "sizes": [1]}],
                                    "partition": [2, 1]},
                        [["witness", "x_prime"]],
                        [["transpose_block_spectrum"], ["partition"], ["witness", "weights"],
                         ["witness", "leading_power"]]),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_TYPES))
def test_every_rational_is_a_json_string_and_every_count_an_integer(tmp_path, capsys, name):
    cmd, doc, rationals, counts = OUTPUT_TYPES[name]
    code, out, err = _run(capsys, [cmd, "--input", _write(tmp_path, "in.json", doc)])
    assert code == EXIT_OK, err
    doc = json.loads(out)
    values = [x for p in rationals for v in _at(doc, p) for x in _leaves(v)]
    assert all(isinstance(x, str) and Fraction(x) is not None for x in values)
    # integer rationals are what an int would leak as a JSON number
    assert not rationals or any("/" not in x for x in values)
    ints = [x for p in counts + [["schema"]] for v in _at(doc, p) for x in _leaves(v)]
    assert ints and all(type(x) is int for x in ints)
    # every other value is a flag
    assert len(_leaves(doc)) == len(values) + len(ints) + sum(
        type(x) is bool for x in _leaves(doc))


# the reproduce checks whose values are rationals; every other check's are
# counts or flags
REPRODUCE_RATIONAL_CHECKS = ("P^", "gamma(ell_bar)^2", "Ricci of", "adjoint d_pq", "theta(y^2)",
                             "(1 + theta(y^2))^-1", "lambda_S(", "S-completion")


def test_reproduce_json_writes_rationals_as_strings(capsys):
    code, out, _ = _run(capsys, ["reproduce", "--format", "json"])
    assert code == EXIT_OK
    checks = [c for e in json.loads(out)["examples"].values() for c in e["checks"]]
    rational = [c for c in checks if c["label"].startswith(REPRODUCE_RATIONAL_CHECKS)]
    assert len(rational) == 13
    for c in checks:
        leaves = _leaves([c["got"], c["expected"]])
        if c in rational:
            assert all(isinstance(x, str) and Fraction(x) is not None for x in leaves)
        else:
            assert all(type(x) in (int, bool) for x in leaves)


def test_to_jsonable_keeps_ints_as_numbers_and_refuses_unconverted_values():
    """Rationals are written as strings by `as_strings` and `mat_to_doc`
    before `to_jsonable`; a library value that reaches it unconverted is a
    TypeError that names its type, not a repr in the output."""
    assert cli.to_jsonable(3) == 3 and cli.to_jsonable(True) is True
    assert cli.to_jsonable({(0, 1): (2, [None, 1.5])}) == {"(0, 1)": [2, [None, 1.5]]}
    assert cli.to_jsonable(as_strings([3, Fraction(-1, 2)])) == ["3", "-1/2"]
    assert cli.mat_to_doc(Mat([[1, Fraction(2, 3)]])) == [["1", "2/3"]]
    for value in (Fraction(-1, 2), Mat([[1]]), UniPoly.t()):
        with pytest.raises(TypeError, match=type(value).__name__):
            cli.to_jsonable({"x": [value]})


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1.5]
_json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 400, 10 ** 400)
                | st.floats() | st.sampled_from(_SPECIAL_FLOATS) | st.text())
# str and int keys that collide once an int is written as its repr
_json_keys = st.text(max_size=3) | st.integers(-3, 12) | st.tuples(st.integers(0, 2))
_json_docs = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.lists(st.integers(1, 4), max_size=4).map(
                      lambda ps: Partition(sorted(ps, reverse=True)))
                  | st.dictionaries(_json_keys, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_json_docs)
def test_json_text_is_the_stdlib_text(doc):
    """The writer against json.dumps on to_jsonable, indented and on one line."""
    assert cli.json_text(doc) == json.dumps(cli.to_jsonable(doc), sort_keys=True, indent=2)
    assert cli.json_text(doc, indent=False) == json.dumps(cli.to_jsonable(doc),
                                                          sort_keys=True)


def test_json_text_refuses_unconverted_values():
    for value in (Fraction(-1, 2), Mat([[1]]), UniPoly.t()):
        with pytest.raises(TypeError, match=type(value).__name__):
            cli.json_text({"x": [value]})
    assert cli.json_text({"a": [], "b": {}, "c": ()}) == '{\n  "a": [],\n  "b": {},\n  "c": []\n}'


def test_requests_leave_no_cyclic_garbage(tmp_path, capsys):
    # each request's objects are freed by reference counting alone: the
    # collector finds nothing after a limit, a closure and a stabilizer
    docs = [("limit", LIMIT_GOLDEN["o2"]["input"]),
            ("closure", CLOSURE_GOLDEN["witness-n7"]["input"]),
            ("stabilizer", XYZ)]
    paths = [(cmd, _write(tmp_path, f"{cmd}.json", doc)) for cmd, doc in docs]
    for cmd, path in paths:                        # warm-up: parser, caches
        assert main([cmd, "--input", path]) == EXIT_OK
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        for cmd, path in paths:
            assert main([cmd, "--input", path]) == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("t", ["x", float("nan"), "inf", float("inf"), True, 1, "1000"])
def test_kempf_rejects_bad_t(tmp_path, capsys, t):
    path = _write(tmp_path, "in.json", {"matrix": J3, "t": t})
    code, out, err = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_INPUT and out == "" and "'t' must be" in err


@pytest.mark.parametrize("grid", ["yes", 1, None])
def test_kempf_grid_must_be_boolean(tmp_path, capsys, grid):
    path = _write(tmp_path, "in.json", {"matrix": J3, "grid": grid})
    code, out, err = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_INPUT and out == "" and "'grid' must be" in err


def test_kempf_grid_is_bounded_by_torus_rank(tmp_path, capsys):
    j5 = [["1" if j == i + 1 else "0" for j in range(5)] for i in range(5)]
    path = _write(tmp_path, "in.json", {"matrix": j5, "t": 1000, "grid": True})
    code, out, err = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_INPUT and out == "" and "torus rank <= 4" in err
    path = _write(tmp_path, "in.json", {"matrix": j5, "t": 1000})
    code, out, _ = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_OK and "grid_f" not in json.loads(out)


def test_reproduce_fast_ids(capsys):
    code, out, _ = _run(capsys, ["reproduce", "--format", "table",
                                 "sl2-sym2", "conj-final"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS  2 example(s)")


def test_reproduce_unknown_id(capsys):
    code, _, err = _run(capsys, ["reproduce", "no-such-example"])
    assert code == EXIT_INPUT
    assert "unknown example id" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = _run(capsys, ["stabilizer", "--input", str(p)])
    assert code == EXIT_INPUT and "input error" in err


def test_bad_exponent_is_input_error(tmp_path, capsys):
    doc = {"form": {"nvars": 2, "degree": 2,
                    "terms": [{"exp": [3, 0], "coef": "1"}]}}
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["stabilizer", "--input", path])
    assert code == EXIT_INPUT and "input error" in err


@pytest.mark.parametrize("nvars,degree", [(0, 2), (2, -1)])
def test_form_without_variables_or_with_negative_degree_is_input_error(
        tmp_path, capsys, nvars, degree):
    doc = {"form": {"nvars": nvars, "degree": degree, "terms": []}}
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["stabilizer", "--input", path])
    assert code == EXIT_INPUT and "nvars >= 1" in err


def _power_sum(nvars, degree):
    """x_1^d + x_2^d (just x_1^d in one variable) with the weight e_1."""
    terms = [{"exp": [degree if j == i else 0 for j in range(nvars)], "coef": "1"}
             for i in range(min(nvars, 2))]
    return {"form": {"nvars": nvars, "degree": degree, "terms": terms},
            "oneps": [1] + [0] * (nvars - 1)}


@pytest.mark.parametrize("cmd", ["stabilizer", "local-model", "limit"])
@pytest.mark.parametrize("nvars,degree,message", [
    (12, 6, f"dim 12376 > {cli.FORM_MAX_DIM}"),
    (2, cli.FORM_MAX_DIM, f"dim {cli.FORM_MAX_DIM + 1} > {cli.FORM_MAX_DIM}"),
    (cli.FORM_MAX_VARS + 1, 1, f"at most {cli.FORM_MAX_VARS} variables")])
def test_form_size_is_bounded(tmp_path, capsys, cmd, nvars, degree, message):
    path = _write(tmp_path, "in.json", _power_sum(nvars, degree))
    code, out, err = _run(capsys, [cmd, "--input", path])
    assert code == EXIT_INPUT and out == "" and message in err


def test_form_at_the_size_bounds_is_accepted(tmp_path, capsys):
    for nvars, degree in [(2, cli.FORM_MAX_DIM - 1), (cli.FORM_MAX_VARS, 1)]:
        path = _write(tmp_path, "in.json", _power_sum(nvars, degree))
        code, out, _ = _run(capsys, ["stabilizer", "--input", path])
        assert code == EXIT_OK and json.loads(out)["verified"] is True


def _jordan_nilpotent(n):
    return [["1" if j == i + 1 else "0" for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("cmd", ["stabilizer", "local-model", "kempf"])
def test_matrix_size_is_bounded(tmp_path, capsys, cmd):
    n = cli.MATRIX_MAX_N + 1
    path = _write(tmp_path, "in.json", {"matrix": _jordan_nilpotent(n)})
    code, out, err = _run(capsys, [cmd, "--input", path])
    assert code == EXIT_INPUT and out == ""
    assert f"at most {cli.MATRIX_MAX_N}x{cli.MATRIX_MAX_N}, got {n}x{n}" in err


def test_matrix_at_the_size_bound_is_accepted(tmp_path, capsys):
    n = cli.MATRIX_MAX_N
    path = _write(tmp_path, "in.json", {"matrix": _jordan_nilpotent(n)})
    code, out, _ = _run(capsys, ["stabilizer", "--input", path])
    res = json.loads(out)
    assert code == EXIT_OK and res["verified"] is True
    assert res["dimension"] == n        # the centralizer of J_n


def test_flags_are_registered_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stabilizer", "--tol", "1"])
    assert exc.value.code == 2
    # `limit` is deterministic: its case test draws nothing
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    seen = []
    read_input = cli.read_input
    monkeypatch.setattr(cli, "read_input",
                        lambda args: seen.append((args.tol, args.seed)) or read_input(args))
    path = _write(tmp_path, "in.json", {"matrix": J3, "t": 1000})
    code, _, _ = _run(capsys, ["kempf", "--tol", "1", "--seed", "3", "--input", path])
    assert code == EXIT_OK
    code, second, _ = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_OK
    assert seen == [(1.0, 3), (1e-3, 0)]
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kempf", "--help"])
    assert exc.value.code == 0 and "usage: orbitlimits kempf" in capsys.readouterr().out
    code, third, _ = _run(capsys, ["kempf", "--input", path])
    assert code == EXIT_OK and third == second
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, code", [(["no-such-command"], 2),
                                        (["closure", "--bogus"], 2),
                                        (["kempf", "--help"], 0)])
def test_argparse_exits_alike_on_a_repeated_argv(capsys, argv, code):
    # argparse's exits are never memoized: each call prints its text again
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        seen.append((exc.value.code, captured.out, captured.err))
    assert seen[0] == seen[1] and seen[0][0] == code
    assert (seen[0][1] if code == 0 else seen[0][2]).startswith("usage: orbitlimits")


def test_repeated_argv_is_parsed_once(tmp_path, capsys, monkeypatch):
    parses = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: parses.append(a) or parse_args(self, *a, **k))
    seen = []
    read_input = cli.read_input

    def read_and_mutate(args):
        # a command that sets and changes attributes of its args
        seen.append((hasattr(args, "mark"), args.format))
        args.mark, args.format = 1, "table"
        return read_input(args)

    monkeypatch.setattr(cli, "read_input", read_and_mutate)
    cli._parse.cache_clear()
    path = _write(tmp_path, "in.json", {"spec": [{"eig": "1", "sizes": [2]},
                                                 {"eig": "-1", "sizes": [1]}],
                                        "partition": [3]})
    outs = [_run(capsys, ["closure", "--input", path]) for _ in range(3)]
    assert len(parses) == 1
    assert seen == [(False, "json")] * 3
    assert outs[0][0] == EXIT_OK and outs[0] == outs[1] == outs[2]


def test_wrong_schema_rejected(tmp_path, capsys):
    doc = dict(XYZ, schema=99)
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["stabilizer", "--input", path])
    assert code == EXIT_INPUT and "schema" in err


@pytest.mark.parametrize("cmd,doc", [
    ("slice", {"kind": "jn"}),
    ("slice", {"kind": "jn", "n": "x"}),
    ("slice", {"kind": "jn", "n": 1}),
    ("slice", {"kind": "jab", "a": 1, "b": 2}),
    ("curvature", {"kind": "sphere"}),
    ("curvature", {"kind": "sphere", "dim": -1}),
    ("curvature", {"kind": "adjoint", "lams": 5}),
    ("curvature", {"kind": "cyclic", "n": 2}),
    # one past each size bound
    ("slice", {"kind": "jn", "n": cli.SLICE_MAX_N + 1}),
    ("slice", {"kind": "jab", "a": cli.SLICE_MAX_N // 2 + 1, "b": cli.SLICE_MAX_N // 2}),
    ("curvature", {"kind": "sphere", "dim": cli.SPHERE_MAX_DIM + 1}),
    ("curvature", {"kind": "adjoint", "lams": [str(k) for k in range(cli.ADJOINT_MAX_EIGS + 1)]}),
    ("curvature", {"kind": "cyclic", "n": cli.CYCLIC_MAX_N + 1}),
    ("slice", {"kind": "jab", "a": 1, "b": 1}),     # J_{1,1} = 0
])
def test_bad_slice_and_curvature_documents_are_input_errors(tmp_path, capsys, cmd, doc):
    path = _write(tmp_path, "in.json", doc)
    code, out, err = _run(capsys, [cmd, "--input", path])
    assert code == EXIT_INPUT and out == "" and "input error" in err


@pytest.mark.parametrize("cmd,doc", [
    ("local-model", {"form": {"nvars": "x", "degree": 2, "terms": []}}),
    ("local-model", {"form": {"nvars": 2, "degree": 2,
                              "terms": [{"exp": ["a", 2], "coef": "1"}]}}),
    ("local-model", dict(XYZ, weights=["q", 1, 0])),
    ("local-model", dict(XYZ, weights=[1])),
    ("closure", {"spec": [{"eig": "1", "sizes": ["x"]}], "partition": [1]}),
    ("closure", {"spec": [{"eig": "1", "sizes": [cli.CLOSURE_MAX_N + 1]}],
                 "partition": [cli.CLOSURE_MAX_N + 1]}),
    # integer fields take JSON integers only, never a float, string or boolean
    ("limit", {"form": {"nvars": 2, "degree": 2, "terms": [{"exp": [2.7, 0], "coef": "1"}]},
               "oneps": [1, 0]}),
    ("limit", {"form": {"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0], "coef": "1"}]},
               "oneps": [1.9, 0]}),
    ("local-model", {"form": {"nvars": 2.9, "degree": 2, "terms": []}}),
    ("local-model", {"form": {"nvars": 2, "degree": "2", "terms": []}}),
    ("local-model", {"form": {"nvars": 2, "degree": 2, "terms": [{"exp": [True, 1], "coef": "1"}]}}),
    ("closure", {"spec": [{"eig": "1", "sizes": [2.5]}], "partition": [2]}),
    ("closure", {"spec": [{"eig": "1", "sizes": [2]}], "partition": [2.0]}),
    # an eigenvalue label is a JSON string, never a list, an object or a number
    ("closure", {"spec": [{"eig": {"label": [1]}, "sizes": [2]}], "partition": [2]}),
    ("closure", {"spec": [{"eig": {"label": {"a": 1}}, "sizes": [2]}], "partition": [2]}),
    ("closure", {"spec": [{"eig": {"label": 1}, "sizes": [1]}, {"eig": "1", "sizes": [1]}],
                 "partition": [2]}),
    # a JSON integer literal longer than the interpreter converts (4,300 digits)
    ("stabilizer", '{"matrix": [[' + "9" * 5000 + ', 1], [0, 1]]}'),
])
def test_ill_typed_fields_are_input_errors(tmp_path, capsys, cmd, doc):
    path = _write(tmp_path, "in.json", doc)
    code, out, err = _run(capsys, [cmd, "--input", path])
    assert code == EXIT_INPUT and out == "" and "input error" in err


@pytest.mark.parametrize("x", ["1e100000", "1e1000000"])
def test_rational_exponents_are_bounded(tmp_path, capsys, x):
    # each string would become an integer of more than 4,300 digits
    path = _write(tmp_path, "in.json", {"matrix": [[x, "0"], ["0", "1"]]})
    code, out, err = _run(capsys, ["stabilizer", "--input", path])
    assert code == EXIT_INPUT and out == "" and "digits written out" in err


@pytest.mark.parametrize("cmd", ["limit", "local-model"])
def test_oneps_weights_are_bounded(tmp_path, capsys, cmd):
    doc = {"form": {"nvars": 2, "degree": 2, "terms": [{"exp": [1, 1], "coef": "1"}]}}
    for w in (cli.ONEPS_MAX_WEIGHT + 1, -cli.ONEPS_MAX_WEIGHT - 1):
        doc["oneps"] = doc["weights"] = [w, 0]
        code, out, err = _run(capsys, [cmd, "--input", _write(tmp_path, "in.json", doc)])
        assert code == EXIT_INPUT and out == ""
        assert f"weights may be at most {cli.ONEPS_MAX_WEIGHT}" in err
    doc["oneps"] = doc["weights"] = [cli.ONEPS_MAX_WEIGHT, -cli.ONEPS_MAX_WEIGHT]
    code, _, _ = _run(capsys, [cmd, "--input", _write(tmp_path, "in.json", doc)])
    assert code == EXIT_OK


@pytest.mark.parametrize("doc", [
    {"matrix": [["2"]]},
    {"form": {"nvars": 1, "degree": 3, "terms": [{"exp": [3], "coef": "1"}]}},
])
def test_kempf_needs_torus_rank_two(tmp_path, capsys, doc):
    code, out, err = _run(capsys, ["kempf", "--input", _write(tmp_path, "in.json", doc)])
    assert code == EXIT_INPUT and out == "" and "torus rank >= 2" in err


@pytest.mark.parametrize("exc", [AssertionError, RuntimeError])
def test_library_assertion_and_runtime_errors_are_compute_errors(
        tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("internal check failed")
    monkeypatch.setattr(cli, "closure_contains_nilpotent", fail)
    doc = {"spec": [{"eig": "1", "sizes": [2]}], "partition": [2]}
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["closure", "--input", path])
    assert code == EXIT_COMPUTE and "internal check failed" in err


def test_limit_with_tail_in_the_tangent_space_is_compute_error(tmp_path, capsys):
    # y^2 + xy under [1, 0]: g = y^2, and the tail xy = (x d/dy) y^2 / 2 is tangent
    form = {"nvars": 2, "degree": 2,
            "terms": [{"exp": [0, 2], "coef": "1"}, {"exp": [1, 1], "coef": "1"}]}
    path = _write(tmp_path, "in.json", {"form": form, "oneps": [1, 0]})
    code, out, err = _run(capsys, ["limit", "--input", path])
    assert (code, out) == (EXIT_COMPUTE, "")
    assert err == "computation error: expansion tail meets the tangent space at g\n"


ZERO_FORM = {"nvars": 2, "degree": 2, "terms": [{"exp": [1, 1], "coef": "0"}]}
ZERO_MATRIX = [[0, 0], [0, 0]]


@pytest.mark.parametrize("cmd, doc", [
    ("local-model", {"form": {"nvars": 2, "degree": 2, "terms": []}}),
    ("local-model", {"form": ZERO_FORM}),
    ("local-model", {"matrix": ZERO_MATRIX}),
    ("limit", {"form": ZERO_FORM, "oneps": [1, 0]}),
    ("kempf", {"form": ZERO_FORM}),
    ("kempf", {"matrix": ZERO_MATRIX}),
], ids=["local-model-empty-form", "local-model-form", "local-model-matrix", "limit-form",
        "kempf-form", "kempf-matrix"])
def test_zero_input_is_input_error(tmp_path, capsys, cmd, doc):
    code, out, err = _run(capsys, [cmd, "--input", _write(tmp_path, "in.json", doc)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: ") and "must be nonzero" in err


def test_json_output_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "in.json", XYZ)
    _, out1, _ = _run(capsys, ["stabilizer", "--input", path])
    _, out2, _ = _run(capsys, ["stabilizer", "--input", path])
    assert out1 == out2


def _golden_requests():
    """(subcommand, input) of each of the 49 pinned CLI outputs."""
    return ([("limit", c["input"]) for c in LIMIT_GOLDEN.values()]
            + [("closure", c["input"]) for c in CLOSURE_GOLDEN.values()]
            + [("kempf", c["input"]) for c in KEMPF_GOLDEN.values()]
            + [(c["command"], c["input"]) for c in CLI_GOLDEN.values()])


def _mutate(doc, rng):
    """A copy of doc with one value replaced by null, a bool, a number, a
    string, [] or {}, or with one key dropped.  A number put in place of a
    number is never the larger, so no size field grows."""
    doc = json.loads(json.dumps(doc))
    slots = []                        # (container, key) of every value below the root

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in list(items):
            slots.append((node, k))
            if isinstance(v, (dict, list)):
                walk(v)

    walk(doc)
    dicts = [node for node, _ in slots if isinstance(node, dict)]
    if dicts and rng.random() < 0.2:
        node = rng.choice(dicts)
        del node[rng.choice(sorted(node))]
        return doc
    node, k = rng.choice(slots)
    old = node[k]
    new = rng.choice([None, True, False, 0, -1, 0.5, "", "x", "1/0", "-3/2", [], {}])
    if isinstance(new, (int, float)) and not isinstance(new, bool) \
            and isinstance(old, (int, float)) and not isinstance(old, bool):
        new = min(new, old)
    node[k] = new
    return doc


def test_mutated_golden_inputs_exit_cleanly(capsys, monkeypatch):
    # 600 seeded one-value mutations of the pinned inputs, run in process:
    # each exits 0, 2 or 3, and none raises out of main
    import io
    import random
    import sys
    rng = random.Random(5)
    requests = _golden_requests()
    assert len(requests) == 49
    for _ in range(600):
        cmd, doc = rng.choice(requests)
        text = json.dumps(_mutate(doc, rng))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main([cmd, "--format", "json"])
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_COMPUTE), (cmd, text)
