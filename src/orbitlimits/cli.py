"""Command-line front end.

Subcommands wrap the library modules and speak JSON: forms are
{"nvars": n, "degree": d, "terms": [{"exp": [...], "coef": "p/q"}]},
matrices are row-major arrays of rational strings, one-parameter subgroups
are integer weight arrays, and Jordan data is
[{"eig": "p/q" | {"label": "mu1"}, "sizes": [...]}].  All documents carry
"schema": 1.  Exit codes: 0 success, 2 input error, 3 computation error,
4 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .conjclosure import (JordanSpec, Partition, closure_contains_nilpotent,
                          jab_slice_report, jn_slice_report, transpose_block_spectrum)
from .curvature import (CurvatureData, adjoint_offdiagonal_vanishing,
                        adjoint_pi, cyclic_shift_suite, sphere_ricci)
from .exactcore import Mat, UniPoly, RationalFn
from .kempf import grid_minimize, kempf_descent, kempf_support, mu
from .lierep import ConjRep, Form, SymRep, stabilizer_algebra
from .limits import (LimitProblem, OnePS, classify_case, extension_feasible,
                     limit_algebra)
from .localmodel import build_local_model
from .reproduce import RUNNERS, run_ids

SCHEMA = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_MISMATCH = 4

GRID_MAX_RANK = 4   # kempf's grid cross-check makes 41^(n-1) evaluations
# A form's space Sym^d(Q^n) has dim C(n+d-1, d) and gl(n) has n^2 elements;
# det3 (9 variables, dim 165) is the largest pinned example.
FORM_MAX_VARS = 12
FORM_MAX_DIM = 500
# A matrix input of size n acts through gl(n), whose action map is n^2 x n^2:
# the stabilizer of a dense 9x9 integer matrix takes about 2 s, of a dense
# 11x11 one 10 s (Python 3.11 on a 2-core Xeon).
MATRIX_MAX_N = 9
# The other size fields, each bounded where one document costs about 2 s on
# the same machine: a closure spec of size 500 with a witness family takes up
# to 2.1 s, the slice report at J_8 2.9 s, the sphere in dim 24 2.2 s, the
# adjoint orbit with 6 eigenvalues 2.5 s and the cyclic-shift suite at
# n = 10 1.9 s.
CLOSURE_MAX_N = 500
SLICE_MAX_N = 8           # the size n of J_n, a + b of J_{a,b}
SPHERE_MAX_DIM = 24
ADJOINT_MAX_EIGS = 6
CYCLIC_MAX_N = 10
# The exact pipeline evaluates lambda(t0).f at a rational t0, and t0^(c-a) has
# about c - a bits; a dense binary form of degree 499 under the weights
# [2500, -2500] takes about 2 s in `limit` on the same machine.
ONEPS_MAX_WEIGHT = 2500


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON (de)serialization


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational {s!r}: {e}") from None
    raise InputError(f"not a rational: {s!r}")


def rational_str(x: Fraction) -> str:
    return str(Fraction(x))


def form_from_doc(doc) -> Form:
    try:
        nvars, degree = json_int(doc["nvars"], "'nvars'"), json_int(doc["degree"], "'degree'")
        if nvars < 1 or degree < 0:
            raise InputError(f"a form needs nvars >= 1 and degree >= 0, got {nvars}, {degree}")
        if nvars > FORM_MAX_VARS:
            raise InputError(f"a form may have at most {FORM_MAX_VARS} variables, got {nvars}")
        dim = math.comb(nvars + degree - 1, nvars - 1)
        if dim > FORM_MAX_DIM:
            raise InputError(f"forms of degree {degree} in {nvars} variables span dim {dim} "
                             f"> {FORM_MAX_DIM}")
        terms = {}
        for t in doc["terms"]:
            e = tuple(json_int(x, "an exponent") for x in t["exp"])
            if len(e) != nvars or any(x < 0 for x in e) or sum(e) != degree:
                raise InputError(f"bad exponent {list(e)} for a degree-{degree} "
                                 f"form in {nvars} variables")
            terms[e] = terms.get(e, Fraction(0)) + parse_rational(t["coef"])
        return Form(nvars, degree, {e: c for e, c in terms.items() if c})
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad form document: {e}") from None


def form_to_doc(f: Form) -> dict:
    return {"nvars": f.nvars, "degree": f.degree,
            "terms": [{"exp": list(e), "coef": rational_str(c)}
                      for e, c in sorted(f.terms.items())]}


def mat_from_doc(rows) -> Mat:
    try:
        m = [[parse_rational(x) for x in row] for row in rows]
    except TypeError as e:
        raise InputError(f"bad matrix document: {e}") from None
    if not m or any(len(row) != len(m[0]) for row in m):
        raise InputError("matrix rows must be non-empty and equal length")
    return Mat(m)


def mat_to_doc(m: Mat):
    return [[rational_str(x) for x in row] for row in m.a]


def json_int(v, what: str) -> int:
    """v, which must be a JSON integer: not a float, string or boolean."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{what} must be an integer, got {v!r}")
    return v


def int_field(doc: dict, key: str, least: int, most: Optional[int] = None) -> int:
    """The integer field doc[key]; it must be at least `least`, and at most
    `most` when that is given."""
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise InputError(f"{key!r} must be an integer >= {least}, got {v!r}")
    if most is not None and v > most:
        raise InputError(f"{key!r} may be at most {most}, got {v}")
    return v


def oneps_from_doc(doc) -> OnePS:
    try:
        weights = [json_int(w, "a one-parameter subgroup weight") for w in doc]
    except TypeError as e:
        raise InputError(f"bad one-parameter subgroup: {e}") from None
    if any(abs(w) > ONEPS_MAX_WEIGHT for w in weights):
        raise InputError(f"one-parameter subgroup weights may be at most {ONEPS_MAX_WEIGHT} "
                         f"in absolute value, got {weights}")
    return OnePS(weights)


def jordanspec_from_doc(doc) -> JordanSpec:
    blocks = []
    try:
        for b in doc:
            ev = b["eig"]
            ev = ev["label"] if isinstance(ev, dict) else parse_rational(ev)
            blocks.append((ev, [json_int(s, "a block size") for s in b["sizes"]]))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad Jordan spec: {e}") from None
    try:
        return JordanSpec(blocks)
    except ValueError as e:
        raise InputError(str(e)) from None


def to_jsonable(obj):
    """Recursively convert library objects to JSON-friendly structures."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, (UniPoly, RationalFn)):
        return str(obj)
    if isinstance(obj, Mat):
        return [[to_jsonable(x) for x in row] for row in obj.a]
    if isinstance(obj, Form):
        return form_to_doc(obj)
    if isinstance(obj, Partition):
        return list(obj)
    if isinstance(obj, CurvatureData):
        obj = {k: getattr(obj, k) for k in
               ("pi", "skew", "beta_is_minus_alpha", "normal_gram",
                "ricci", "osculates", "chart_matches_projection")}
    if isinstance(obj, dict):
        return {(k if isinstance(k, str) else repr(k)): to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return repr(obj)


def read_input(args) -> dict:
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read input: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise InputError(f"unsupported schema {doc.get('schema')!r}")
    return doc


def _vector_input(doc):
    """(rep, coords) from a document carrying 'form' or 'matrix'."""
    if "form" in doc:
        f = form_from_doc(doc["form"])
        rep = SymRep(f.nvars, f.degree)
        return rep, rep.to_coords(f)
    if "matrix" in doc:
        m = mat_from_doc(doc["matrix"])
        if m.rows != m.cols:
            raise InputError("conjugation input must be a square matrix")
        if m.rows > MATRIX_MAX_N:
            raise InputError(f"a matrix may be at most {MATRIX_MAX_N}x{MATRIX_MAX_N}, "
                             f"got {m.rows}x{m.cols}")
        rep = ConjRep(m.rows)
        return rep, rep.to_coords(m)
    raise InputError("input needs a 'form' or 'matrix' field")


def emit(doc: dict, fmt: str) -> None:
    doc = dict(doc)
    doc["schema"] = SCHEMA
    if fmt == "json":
        print(json.dumps(to_jsonable(doc), sort_keys=True, indent=2))
    else:
        width = max((len(k) for k in doc), default=0)
        for k in sorted(doc):
            v = to_jsonable(doc[k])
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True)
            print(f"{k.ljust(width)}  {v}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_stabilizer(args) -> int:
    doc = read_input(args)
    rep, v = _vector_input(doc)
    H = stabilizer_algebra(rep, v)
    verified = all(not any(rep.act(h, v)) for h in H)
    emit({"dimension": len(H), "basis": [mat_to_doc(h) for h in H],
          "verified": verified}, args.format)
    return EXIT_OK


def cmd_local_model(args) -> int:
    doc = read_input(args)
    rep, v = _vector_input(doc)
    weights = oneps_from_doc(doc["weights"]).weights if "weights" in doc else None
    if weights is not None and len(weights) != rep.n:
        raise InputError(f"need {rep.n} weights, got {len(weights)}")
    model = build_local_model(rep, v, weights=weights)
    emit({"dim_H": len(model.H), "dim_S": len(model.S), "dim_N": len(model.N),
          "H": [mat_to_doc(h) for h in model.H],
          "S": [mat_to_doc(s) for s in model.S],
          "N": [[rational_str(Fraction(x)) for x in nv] for nv in model.N]},
         args.format)
    return EXIT_OK


def cmd_limit(args) -> int:
    doc = read_input(args)
    if "form" not in doc or "oneps" not in doc:
        raise InputError("limit input needs 'form' and 'oneps' fields")
    f = form_from_doc(doc["form"])
    lam = oneps_from_doc(doc["oneps"])
    if lam.nvars != f.nvars:
        raise InputError("one-parameter subgroup length must match nvars")
    problem = LimitProblem(f, lam)
    data = limit_algebra(problem)
    exp = problem.expansion
    ts = problem.triple
    feas = extension_feasible(data)
    case = classify_case(problem, seed=args.seed)
    out = {
        "a": exp.a, "b": exp.b,
        "g": form_to_doc(exp.g),
        "f_b": form_to_doc(exp.f_b) if exp.f_b is not None else None,
        "dim_K": len(data.K0),
        "K0_basis": [mat_to_doc(k) for k in data.K0],
        "K0_graded_dims": {str(w): d for w, d in data.graded_dims.items()},
        "Klf_graded_dims": ({str(w): d for w, d in ts.Klf_dims.items()}
                            if ts.Klf_dims is not None else None),
        "case": case.tag,
        "extension_feasible": bool(feas.feasible),
        "subalgebra_case": feas.hoffman,
    }
    emit(out, args.format)
    return EXIT_OK


def cmd_closure(args) -> int:
    doc = read_input(args)
    if "spec" not in doc or "partition" not in doc:
        raise InputError("closure input needs 'spec' and 'partition' fields")
    spec = jordanspec_from_doc(doc["spec"])
    if spec.n > CLOSURE_MAX_N:
        raise InputError(f"a closure spec may have size at most {CLOSURE_MAX_N}, got {spec.n}")
    try:
        part = Partition([json_int(p, "a partition part") for p in doc["partition"]])
    except (TypeError, ValueError) as e:
        raise InputError(f"bad partition: {e}") from None
    if part.n != spec.n:
        raise InputError(f"partition of {part.n} vs spec of size {spec.n}")
    if all(c == 1 for c in transpose_block_spectrum(spec)):
        raise InputError("a scalar spec (chi = 1^n) is not accepted: its projective "
                         "orbit is one point, and empty for eigenvalue 0")
    d = closure_contains_nilpotent(spec, part)
    out = {"contains": bool(d.contains),
           "transpose_block_spectrum": list(d.chi),
           "partition": list(d.theta)}
    if d.separating is not None:
        out["separating"] = {"k": d.separating[0], "r": d.separating[1]}
    if d.family is not None:
        out["witness"] = {"weights": list(d.family.weights),
                          "x_prime": mat_to_doc(d.family.x_prime),
                          "leading_power": d.family.leading_power}
    emit(out, args.format)
    return EXIT_OK


def cmd_slice(args) -> int:
    doc = read_input(args)
    kind = doc.get("kind")
    if kind == "jn":
        report = jn_slice_report(int_field(doc, "n", 2, SLICE_MAX_N), seed=args.seed)
    elif kind == "jab":
        b = int_field(doc, "b", 1)
        a = int_field(doc, "a", b)
        if a + b > SLICE_MAX_N:
            raise InputError(f"a + b may be at most {SLICE_MAX_N}, got {a + b}")
        report = jab_slice_report(a, b, seed=args.seed)
    else:
        raise InputError("slice input needs kind 'jn' or 'jab'")
    emit(to_jsonable(report), args.format)
    return EXIT_OK


def cmd_curvature(args) -> int:
    doc = read_input(args)
    kind = doc.get("kind")
    if kind == "sphere":
        r = parse_rational(doc.get("r", 1))
        if r == 0:
            raise InputError("radius must be nonzero")
        out = {"ricci": sphere_ricci(int_field(doc, "dim", 1, SPHERE_MAX_DIM), r)}
    elif kind == "adjoint":
        if not isinstance(doc.get("lams"), list):
            raise InputError("'lams' must be a list of rationals")
        if len(doc["lams"]) > ADJOINT_MAX_EIGS:
            raise InputError(f"'lams' may hold at most {ADJOINT_MAX_EIGS} eigenvalues, "
                             f"got {len(doc['lams'])}")
        lams = [parse_rational(x) for x in doc["lams"]]
        if len(set(lams)) != len(lams):
            raise InputError("eigenvalues must be distinct")
        out = {"d": {f"{p},{q}": diag for (p, q), diag in adjoint_pi(lams).items()},
               "offdiagonal_vanishes": adjoint_offdiagonal_vanishing(lams)}
    elif kind == "cyclic":
        suite = cyclic_shift_suite(int_field(doc, "n", 3, CYCLIC_MAX_N))
        out = {k: v for k, v in suite.items() if k != "curvature"}
        out["ricci"] = suite["curvature"].ricci
    else:
        raise InputError("curvature input needs kind 'sphere', 'adjoint' or 'cyclic'")
    emit(to_jsonable(out), args.format)
    return EXIT_OK


def cmd_kempf(args) -> int:
    doc = read_input(args)
    rep, v = _vector_input(doc)
    if rep.n < 2:
        raise InputError("kempf needs torus rank >= 2: a form in at least 2 variables "
                         "or a matrix at least 2x2")
    t = doc.get("t", 100.0)
    if (isinstance(t, bool) or not isinstance(t, (int, float))
            or not 1 < t <= sys.float_info.max):
        raise InputError(f"'t' must be a finite number > 1, got {t!r}")
    t = float(t)
    support = kempf_support(rep, v)
    grid = doc.get("grid", support.n <= GRID_MAX_RANK)
    if not isinstance(grid, bool):
        raise InputError(f"'grid' must be true or false, got {grid!r}")
    if grid and support.n > GRID_MAX_RANK:
        raise InputError(f"'grid' needs torus rank <= {GRID_MAX_RANK}, got {support.n}")
    res = kempf_descent(support, t, seed=args.seed)
    out = {"ell": res.ell, "f": res.f_value, "mu": res.mu_value,
           "converged": res.converged, "iterations": res.iterations,
           "weights": [list(chi) for chi in support.weights],
           "unstable": res.mu_star_squared > 0,
           "min_norm_point": list(res.min_norm_point),
           "mu_star_squared": res.mu_star_squared}
    if grid:
        gp, gf = grid_minimize(support, t)
        out["grid_f"] = gf
        out["grid_mu"] = float(mu(gp, support))
        if out["unstable"]:
            out["agrees_with_grid"] = (abs(res.f_value - gf) <= args.tol * abs(gf)
                                       and res.mu_value >= out["grid_mu"] - args.tol)
        else:
            # mu at a finite-t minimizer of a semistable v measures nothing;
            # the descent agrees when its f is no worse than the grid's
            out["agrees_with_grid"] = res.f_value <= gf * (1 + args.tol)
    emit(out, args.format)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ids = args.ids or sorted(RUNNERS)
    if args.ids and "all" in args.ids:
        ids = sorted(RUNNERS)
    unknown = [i for i in ids if i not in RUNNERS]
    if unknown:
        print(f"unknown example id(s): {', '.join(unknown)}; known ids: "
              f"{', '.join(sorted(RUNNERS))}", file=sys.stderr)
        return EXIT_INPUT
    reports = run_ids(ids)
    all_ok = True
    if args.format == "json":
        out = {"schema": SCHEMA, "examples": {}}
        for i in ids:
            checks = reports[i]
            ok = all(c["ok"] for c in checks)
            all_ok = all_ok and ok
            out["examples"][i] = {"ok": ok, "checks": to_jsonable(checks)}
        out["ok"] = all_ok
        print(json.dumps(out, sort_keys=True, indent=2))
    else:
        for i in ids:
            for c in reports[i]:
                if c["ok"]:
                    print(f"PASS  {i}: {c['label']}")
                else:
                    all_ok = False
                    print(f"FAIL  {i}: {c['label']} "
                          f"(expected {to_jsonable(c['expected'])!r}, "
                          f"got {to_jsonable(c['got'])!r})")
        print(f"{'PASS' if all_ok else 'FAIL'}  "
              f"{len(ids)} example(s), "
              f"{sum(len(r) for r in reports.values())} check(s)")
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: it
    holds no state between `parse_args` calls, and building it costs more
    than a small request.  It is not built at import, which stays cheap."""
    p = argparse.ArgumentParser(
        prog="orbitlimits",
        description="Stabilizers, local models, limits of forms, "
                    "conjugation-orbit closures and orbit curvature "
                    "in exact rational arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn, help_ in (
            ("stabilizer", cmd_stabilizer,
             "Lie-algebra stabilizer of a form or matrix"),
            ("local-model", cmd_local_model,
             "local model (H, S, N) at a form or matrix"),
            ("limit", cmd_limit,
             "limit of a form under a one-parameter subgroup"),
            ("closure", cmd_closure,
             "projective conjugation-orbit closure membership"),
            ("slice", cmd_slice,
             "slice analysis at a nilpotent Jordan matrix"),
            ("curvature", cmd_curvature,
             "second fundamental form and curvature diagnostics"),
            ("kempf", cmd_kempf,
             "instability one-parameter subgroup optimizer"),
            ("reproduce", cmd_reproduce,
             "re-run the pinned worked examples and diff the results")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--input", default="-",
                        help="JSON input file ('-' for stdin)")
        sp.add_argument("--format", choices=("json", "table"), default="json")
        if name in ("limit", "slice", "kempf"):
            sp.add_argument("--seed", type=int, default=0)
        if name == "kempf":
            sp.add_argument("--tol", type=float, default=1e-3)
        sp.set_defaults(fn=fn)
        if name == "reproduce":
            sp.add_argument("ids", nargs="*",
                            help="example ids (default: all); 'all' allowed")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError, KeyError, AssertionError, RuntimeError) as e:
        print(f"computation error: {e}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
