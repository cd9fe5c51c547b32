"""CLI contract: JSON in/out, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from orbitlimits import (cli, conjclosure, curvature, kempf, lierep, limits, localmodel,
                         reproduce)
from orbitlimits.cli import (EXIT_COMPUTE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK,
                             form_from_doc, main)
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
    p = tmp_path / name
    p.write_text(json.dumps(doc))
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
# lambda-homogeneous forms and an input whose K_lf is not graded.
LIMIT_GOLDEN = json.loads((Path(__file__).parent / "data" / "limit_golden.json").read_text())


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", sorted(LIMIT_GOLDEN))
def test_limit_output_is_pinned(tmp_path, capsys, name, fmt):
    case = LIMIT_GOLDEN[name]
    path = _write(tmp_path, "in.json", case["input"])
    code, out, err = _run(capsys, ["limit", "--input", path, "--format", fmt])
    assert code == EXIT_OK, err
    assert out == case[fmt]


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
    # stab f and stab g once each, one expansion, one triple-stabilizer run
    stab = _count_calls(monkeypatch, lierep, "stabilizer_algebra")
    expand = _count_calls(monkeypatch, limits, "expand_orbit_curve")
    triple = _count_calls(monkeypatch, limits, "triple_stabilizers")
    path = _write(tmp_path, "in.json", LIMIT_GOLDEN["o2"]["input"])
    code, _, err = _run(capsys, ["limit", "--input", path])
    assert code == EXIT_OK, err
    assert (len(stab), len(expand), len(triple)) == (2, 1, 1)


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


@pytest.mark.parametrize("eig", ["-1", "0"])
def test_closure_rejects_scalar_spec(tmp_path, capsys, eig):
    # chi = (1^n): a one-point projective orbit, or none for the zero matrix
    doc = {"spec": [{"eig": eig, "sizes": [1, 1]}], "partition": [1, 1]}
    path = _write(tmp_path, "in.json", doc)
    code, out, err = _run(capsys, ["closure", "--input", path])
    assert code == EXIT_INPUT and out == "" and "scalar spec" in err


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


def test_flags_are_registered_only_where_read():
    with pytest.raises(SystemExit) as exc:
        main(["stabilizer", "--tol", "1"])
    assert exc.value.code == 2


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
])
def test_ill_typed_fields_are_input_errors(tmp_path, capsys, cmd, doc):
    path = _write(tmp_path, "in.json", doc)
    code, out, err = _run(capsys, [cmd, "--input", path])
    assert code == EXIT_INPUT and out == "" and "input error" in err


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


def test_zero_form_is_compute_error(tmp_path, capsys):
    doc = {"form": {"nvars": 2, "degree": 2, "terms": []}}
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["local-model", "--input", path])
    assert code == EXIT_COMPUTE


def test_json_output_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "in.json", XYZ)
    _, out1, _ = _run(capsys, ["stabilizer", "--input", path])
    _, out2, _ = _run(capsys, ["stabilizer", "--input", path])
    assert out1 == out2
