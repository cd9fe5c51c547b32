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
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .conjclosure import (JordanSpec, Partition, closure_contains_nilpotent,
                          jab_slice_report, jn_slice_report)
from .curvature import (adjoint_offdiagonal_vanishing, adjoint_pi, cyclic_shift_suite,
                        sphere_ricci)
from .exactcore import Mat, as_strings, dense, exact
from .kempf import FloatRangeError, grid_minimize, kempf_descent, kempf_support, mu
from .lierep import ConjRep, Form, SymRep, stabilizer_algebra
from .limits import OnePS, classify_case, extension_feasible, limit_algebra
from .localmodel import build_local_model
from .reproduce import RUNNERS, run_ids

SCHEMA = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_MISMATCH = 4

# kempf's grid cross-check evaluates f at the nonzero trace-zero points of
# {-20..20}^n: 40, 1,260 and 45,960 of them for n = 2, 3, 4, 1,692,950 for n = 5
GRID_MAX_RANK = 4
# A form's space Sym^d(Q^n) has dim C(n+d-1, d) and gl(n) has n^2 elements;
# det3 (9 variables, dim 165) is the largest pinned example.
FORM_MAX_VARS = 12
FORM_MAX_DIM = 500
# A matrix input of size n acts through gl(n), whose action map is n^2 x n^2:
# the local model of a dense 9x9 integer matrix takes about 1 s, of a dense
# 11x11 one 6 s (Python 3.11 on a 2-core Xeon).
MATRIX_MAX_N = 9
# The other size fields.  Their worst measured documents, as whole processes
# on the same machine: the slice report at J_8 or J_{a,b} with a + b = 8
# 0.2 s, the sphere in dim 24 0.5 s, the adjoint orbit with 6 eigenvalues
# 0.2 s and the cyclic-shift suite at n = 10 0.4 s.  The closure witness has
# entries of at most RATIONAL_MAX_DIGITS digits (`_witness_too_long`): the
# worst accepted spec, 500 eigenvalues p/q with p, q near 1.9 * 10^8, 1.8 s.
CLOSURE_MAX_N = 500
SLICE_MAX_N = 8           # the size n of J_n, a + b of J_{a,b}
SPHERE_MAX_DIM = 24
ADJOINT_MAX_EIGS = 6
CYCLIC_MAX_N = 10
# The weights of lambda enter the exact pipeline only as exponents of t in
# sparse polynomials and as grading labels, so the cost does not follow their
# size: a dense binary form of degree 499 takes 0.12 s under [1, -1], 0.13 s
# under [2500, -2499] and 0.15 s under [10^9, 1 - 10^9] on the same machine.
# The bound keeps the weights inside the range that the tests cover.
ONEPS_MAX_WEIGHT = 2500
# A rational string has at most this many characters once its exponent is
# written out as zeros ("1e5" as "100000"): Python's default bound on the
# digits of an int converted from or to a string, which also bounds a JSON
# integer literal.  "1e1000000" would otherwise become a million-digit
# integer before any other check runs.
RATIONAL_MAX_DIGITS = 4300
# made once, at import: 10 ** 4300 takes 30-60 us, a quarter to a half of a
# whole closure request in process (a median of 90-125 us on matrix-mix's
# closure documents, Python 3.11, 2-core Xeon)
_DIGITS_LIMIT = 10 ** RATIONAL_MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON (de)serialization


def parse_rational(s):
    """The rational of a JSON integer or rational string, by the scalar rule
    (an `int` if it is an integer, else a `Fraction`)."""
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        if _written_out_length(s) > RATIONAL_MAX_DIGITS:
            raise InputError(f"rational {s[:40]!r} has more than {RATIONAL_MAX_DIGITS} "
                             "digits written out")
        try:
            return exact(Fraction(s))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational {s!r}: {e}") from None
    raise InputError(f"not a rational: {s!r}")


def _written_out_length(s: str) -> int:
    """len(s) with the decimal exponent of s, if any, written out as zeros."""
    e = _EXPONENT.search(s) if len(s) <= RATIONAL_MAX_DIGITS else None
    return len(s) + (abs(int(e[1])) if e else 0)


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
            e = tuple([json_int(x, "an exponent") for x in t["exp"]])
            if len(e) != nvars or any(x < 0 for x in e) or sum(e) != degree:
                raise InputError(f"bad exponent {list(e)} for a degree-{degree} "
                                 f"form in {nvars} variables")
            terms[e] = terms.get(e, 0) + parse_rational(t["coef"])
        return Form(nvars, degree, {e: c for e, c in terms.items() if c})
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad form document: {e}") from None


def form_to_doc(f: Form) -> dict:
    return {"nvars": f.nvars, "degree": f.degree,
            "terms": [{"exp": list(e), "coef": str(c)}
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
    return as_strings(m.a)


def gl_to_doc(g: dict, n: int):
    """The matrix document of an element of gl(n) given by its coordinates."""
    return mat_to_doc(ConjRep(n).from_coords(g))


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
            if isinstance(ev, dict):
                ev = ev["label"]
                if not isinstance(ev, str):
                    raise InputError(f"an eigenvalue label must be a string, got {ev!r}")
            else:
                ev = parse_rational(ev)
            blocks.append((ev, [json_int(s, "a block size") for s in b["sizes"]]))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad Jordan spec: {e}") from None
    try:
        return JordanSpec(blocks)
    except ValueError as e:
        raise InputError(str(e)) from None


def to_jsonable(obj):
    """Recursively convert a document of JSON values, tuples and partitions to
    JSON-friendly structures; a library value must be converted before (a
    rational by `as_strings`), and any other type raises TypeError."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Partition):
        return list(obj)
    if isinstance(obj, dict):
        return {(k if isinstance(k, str) else repr(k)): to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"no JSON form for a {type(obj).__name__}: convert it first")


def json_text(obj, indent: bool = True) -> str:
    """The text of json.dumps(to_jsonable(obj), sort_keys=True, indent=2), or
    with indent=False of json.dumps(to_jsonable(obj), sort_keys=True), in
    one pass and byte for byte: Python's json drops its C encoder whenever
    it indents, and its pure-Python one builds closures that each call
    leaves behind as cyclic garbage."""
    out: list = []
    _write_json(obj, out, "\n" if indent else None)
    return "".join(out)


def _write_json(obj, out: list, nl: Optional[str]) -> None:
    """Append the JSON text of obj to out, in json's order of type tests.
    nl is the newline and indentation before a closing bracket at obj's
    depth, or None for one line."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):              # allow_nan, as JavaScript writes them
        out.append("NaN" if obj != obj else "Infinity" if obj == math.inf
                   else "-Infinity" if obj == -math.inf else float.__repr__(obj))
    elif isinstance(obj, (list, tuple, Partition, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = None if nl is None else nl + "  "
        first, sep, last = ("", ", ", "") if nl is None else (inner, "," + inner, nl)
        if isinstance(obj, dict):
            if not all(isinstance(k, str) for k in obj):
                obj = {(k if isinstance(k, str) else repr(k)): v for k, v in obj.items()}
            out.append("{" + first)
            for k in sorted(obj):
                out.append(encode_basestring_ascii(k) + ": ")
                _write_json(obj[k], out, inner)
                out.append(sep)
            out[-1] = last + "}"            # in place of the last separator
        else:
            out.append("[" + first)
            for x in obj:
                _write_json(x, out, inner)
                out.append(sep)
            out[-1] = last + "]"
    else:
        raise TypeError(f"no JSON form for a {type(obj).__name__}: convert it first")


def read_input(args) -> dict:
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, ValueError) as e:
        # ValueError: malformed JSON, bad UTF-8, or an integer literal longer
        # than the interpreter converts (RATIONAL_MAX_DIGITS)
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


def _nonzero_vector_input(doc):
    """_vector_input, for the subcommands that need a nonzero point."""
    rep, v = _vector_input(doc)
    if not v:
        raise InputError("the form or matrix must be nonzero")
    return rep, v


def emit(doc: dict, fmt: str) -> None:
    doc = dict(doc)
    doc["schema"] = SCHEMA
    if fmt == "json":
        print(json_text(doc))
    else:
        width = max((len(k) for k in doc), default=0)
        for k in sorted(doc):
            v = doc[k]
            text = json_text(v, indent=False)      # which refuses an unconverted value
            if isinstance(v, (dict, list, tuple, Partition)):
                v = text
            print(f"{k.ljust(width)}  {v}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_stabilizer(args) -> int:
    doc = read_input(args)
    rep, v = _vector_input(doc)
    H = stabilizer_algebra(rep, v)
    verified = all(not rep.act(h, v) for h in H)
    emit({"dimension": len(H), "basis": [gl_to_doc(h, rep.n) for h in H],
          "verified": verified}, args.format)
    return EXIT_OK


def cmd_local_model(args) -> int:
    doc = read_input(args)
    rep, v = _nonzero_vector_input(doc)
    weights = oneps_from_doc(doc["weights"]).weights if "weights" in doc else None
    if weights is not None:
        if len(weights) != rep.n:
            raise InputError(f"need {rep.n} weights, got {len(weights)}")
        # at a point homogeneous under the weights, H, S and N are graded
        coord_weights = rep.coord_weights(weights)
        if len({coord_weights[i] for i in v}) > 1:
            raise InputError("the point is not homogeneous under the weights")
    model = build_local_model(rep, v, weights=weights)
    emit({"dim_H": len(model.H), "dim_S": len(model.S), "dim_N": len(model.N),
          "H": [gl_to_doc(h, rep.n) for h in model.H],
          "S": [gl_to_doc(s, rep.n) for s in model.S],
          "N": as_strings([dense(nv, rep.dim) for nv in model.N])},
         args.format)
    return EXIT_OK


def cmd_limit(args) -> int:
    doc = read_input(args)
    if "form" not in doc or "oneps" not in doc:
        raise InputError("limit input needs 'form' and 'oneps' fields")
    f = form_from_doc(doc["form"])
    if not f:
        raise InputError("the form must be nonzero")
    lam = oneps_from_doc(doc["oneps"])
    if lam.nvars != f.nvars:
        raise InputError("one-parameter subgroup length must match nvars")
    problem = limit_algebra(f, lam)
    exp = problem.expansion
    ts = problem.triple
    feas = extension_feasible(problem)
    case = classify_case(problem)
    out = {
        "a": exp.a, "b": exp.b,
        "g": form_to_doc(exp.g),
        "f_b": form_to_doc(exp.f_b) if exp.f_b is not None else None,
        "dim_K": len(problem.K0),
        "K0_basis": [mat_to_doc(k) for k in problem.K0],
        "K0_graded_dims": {str(w): d for w, d in problem.graded_dims.items()},
        "Klf_graded_dims": ({str(w): d for w, d in ts.Klf_dims.items()}
                            if ts.Klf_dims is not None else None),
        "case": case,
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
    if _witness_too_long(spec):
        raise InputError("the eigenvalues are too large: the closure witness may have "
                         f"entries of more than {RATIONAL_MAX_DIGITS} digits")
    try:
        part = Partition([json_int(p, "a partition part") for p in doc["partition"]])
    except (TypeError, ValueError) as e:
        raise InputError(f"bad partition: {e}") from None
    if part.n != spec.n:
        raise InputError(f"partition of {part.n} vs spec of size {spec.n}")
    if all(c == 1 for c in spec.chi):
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


def _witness_too_long(spec: JordanSpec) -> bool:
    """Whether the closure witness x' may have an entry of more than
    RATIONAL_MAX_DIGITS digits.  Its largest block is the companion matrix of
    the product of (x - p/q)^e over the rational eigenvalues, e the largest
    block of p/q, whose numerators and denominators are at most the product
    P of the (|p| + q)^e.  The test is P > 10^RATIONAL_MAX_DIGITS, exact."""
    prod = 1
    for ev, sizes in spec.blocks:
        for _ in range(0 if isinstance(ev, str) else sizes.part(1)):
            prod *= abs(ev.numerator) + ev.denominator
            if prod > _DIGITS_LIMIT:
                return True
    return False


def cmd_slice(args) -> int:
    doc = read_input(args)
    kind = doc.get("kind")
    if kind == "jn":
        report = jn_slice_report(int_field(doc, "n", 2, SLICE_MAX_N), seed=args.seed)
        report["samples"] = [s | {"c": as_strings(s["c"])} for s in report["samples"]]
    elif kind == "jab":
        b = int_field(doc, "b", 1)
        a = int_field(doc, "a", max(b, 2))     # J_{1,1} is the zero matrix
        if a + b > SLICE_MAX_N:
            raise InputError(f"a + b may be at most {SLICE_MAX_N}, got {a + b}")
        report = jab_slice_report(a, b, seed=args.seed)
    else:
        raise InputError("slice input needs kind 'jn' or 'jab'")
    emit(report, args.format)
    return EXIT_OK


def cmd_curvature(args) -> int:
    doc = read_input(args)
    kind = doc.get("kind")
    if kind == "sphere":
        r = parse_rational(doc.get("r", 1))
        if r == 0:
            raise InputError("radius must be nonzero")
        out = {"ricci": as_strings(sphere_ricci(int_field(doc, "dim", 1, SPHERE_MAX_DIM), r))}
    elif kind == "adjoint":
        if not isinstance(doc.get("lams"), list):
            raise InputError("'lams' must be a list of rationals")
        if len(doc["lams"]) > ADJOINT_MAX_EIGS:
            raise InputError(f"'lams' may hold at most {ADJOINT_MAX_EIGS} eigenvalues, "
                             f"got {len(doc['lams'])}")
        lams = [parse_rational(x) for x in doc["lams"]]
        if len(set(lams)) != len(lams):
            raise InputError("eigenvalues must be distinct")
        out = {"d": {f"{p},{q}": as_strings(diag) for (p, q), diag in adjoint_pi(lams).items()},
               "offdiagonal_vanishes": adjoint_offdiagonal_vanishing(lams)}
    elif kind == "cyclic":
        suite = cyclic_shift_suite(int_field(doc, "n", 3, CYCLIC_MAX_N))
        out = {k: v for k, v in suite.items() if k != "curvature"}
        for k in ("p_tables", "gamma_squared"):
            out[k] = as_strings(out[k])
        out["ricci"] = as_strings(suite["curvature"].ricci)
    else:
        raise InputError("curvature input needs kind 'sphere', 'adjoint' or 'cyclic'")
    emit(out, args.format)
    return EXIT_OK


def cmd_kempf(args) -> int:
    doc = read_input(args)
    rep, v = _nonzero_vector_input(doc)
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
    try:
        res = kempf_descent(support, t, seed=args.seed)
    except FloatRangeError as e:
        raise InputError(str(e)) from None
    out = {"ell": res.ell, "f": res.f_value, "mu": res.mu_value,
           "converged": res.converged, "iterations": res.iterations,
           "weights": [list(chi) for chi in support.weights],
           "unstable": res.mu_star_squared > 0,
           "min_norm_point": as_strings(res.min_norm_point),
           "mu_star_squared": str(res.mu_star_squared)}
    if grid:
        gp, gf = grid_minimize(support, t)
        out["grid_f"] = gf
        out["grid_mu"] = float(mu(gp, support))
        # the descent agrees when its f is no worse than the grid's; mu at a
        # finite-t minimizer of f measures nothing against a grid point, on
        # either branch (mu* = |p| is printed exactly)
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
            out["examples"][i] = {"ok": ok, "checks": checks}
        out["ok"] = all_ok
        print(json_text(out))
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
        if name in ("slice", "kempf"):
            sp.add_argument("--seed", type=int, default=0)
        if name == "kempf":
            sp.add_argument("--tol", type=float, default=1e-3)
        sp.set_defaults(fn=fn)
        if name == "reproduce":
            sp.add_argument("ids", nargs="*",
                            help="example ids (default: all); 'all' allowed")
    return p


@functools.lru_cache(maxsize=64)
def _parse(argv: tuple) -> argparse.Namespace:
    """The parsed arguments of argv, parsed once per distinct argv: a
    request's argv is almost always one of a few, and parsing it costs about
    a tenth of a small request.  argparse exits through SystemExit, which is
    never cached, so help and errors print on every call."""
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # a fresh namespace per call: a command may set attributes on its args
    args = argparse.Namespace(**vars(_parse(tuple(sys.argv[1:] if argv is None else argv))))
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
