"""Answer checks: each compares one answer with the benchmark's own computation.

`check(cmd, doc, text)` returns None when the answer is right and a short
reason otherwise.  The checks use only `oracle` and the request itself,
except that the det3 rows take their input forms from
`orbitlimits.examples`, which defines that workload.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

import oracle
from inputs import form_of_doc

# det3 row -> ((a, b), graded dims of K0 in the order (weight 1, 0, -1)),
# as printed in the paper's table
DET3_EXPECTED = {"l2": ((1, 3), (0, 8, 8)), "l4": ((1, 2), (1, 10, 5))}


def _mats(docs) -> list:
    return [[[Fraction(x) for x in row] for row in m] for m in docs]


def _weight_tuple(dims: dict) -> tuple:
    return tuple(dims.get(w, 0) for w in (1, 0, -1))


def _limit_common(f: dict, lam, a, b, g: dict, K0: list, dims: dict):
    """Checks shared by det3 and limit-mix; dims is the program's weight -> dim."""
    n = len(lam)
    parts = oracle.weight_split(f, lam)
    ws = sorted(parts)
    if (a, b) != (ws[0], ws[1]) or g != parts[ws[0]]:
        return f"(a, b, g) differs from the lambda-weight split (a, b = {ws[:2]})"
    K = oracle.stabilizer(f, n)
    if len(K0) != len(K):
        return f"dim K0 = {len(K0)}, dim stab(f) = {len(K)}"
    flat = [oracle.flat(k) for k in K0]
    if oracle.rank(flat) != len(K0):
        return "K0 basis is dependent"
    if any(oracle.act(k, g) for k in K0):
        return "a K0 element does not kill g"
    if not oracle.bracket_closed(K0):
        return "K0 is not closed under the bracket"
    weights = oracle.gl_weights(lam)
    own = oracle.graded_dims(flat, weights)
    if own is None or own != dims:
        return f"graded dims {dims} of K0, own {own}"
    init_dims, init_basis = oracle.initial_subspace(K, weights)
    if init_dims != dims or not oracle.same_span(flat, init_basis):
        return f"K0 is not the initial subspace of stab(f) (dims {init_dims})"
    return None


def check_det3(row: str, text: str):
    from orbitlimits import examples
    make, lam = {"l2": (examples.det3_skew_sym_form, examples.LAM2),
                 "l4": (examples.det3_form, examples.LAM4)}[row]
    f = {e: Fraction(c) for e, c in make().terms.items()}
    out = json.loads(text)
    ab, printed = DET3_EXPECTED[row]
    K0 = _mats(out["K0"])
    dims = oracle.graded_dims([oracle.flat(k) for k in K0], oracle.gl_weights(lam.weights))
    if (out["a"], out["b"]) != ab:
        return f"(a, b) = {(out['a'], out['b'])}, printed {ab}"
    if len(K0) != 16 or dims is None or _weight_tuple(dims) != printed:
        return f"dim K0 = {len(K0)}, graded dims {dims}"
    g = {tuple(e): Fraction(c) for e, c in out["g"]}
    return _limit_common(f, lam.weights, out["a"], out["b"], g, K0, dims)


def check_limit(doc: dict, out: dict):
    f = form_of_doc(doc["form"])
    g = form_of_doc(out["g"])
    dims = {int(w): d for w, d in out["K0_graded_dims"].items()}
    if out["dim_K"] != len(out["K0_basis"]):
        return "dim_K differs from the K0 basis size"
    return _limit_common(f, doc["oneps"], out["a"], out["b"], g, _mats(out["K0_basis"]), dims)


def _min_product_rank(x, eigs, k):
    """(min rank of prod (x - l_i) over k eigenvalues l_i with repeats, counts)."""
    n = len(x)
    # rank((x - mu)^c) restricted to the mu-part, from exact ranks on x
    part = {mu: [r - (n - m) for r in oracle.shifted_power_ranks(x, mu, k)]
            for mu, m in eigs.items()}
    best = None
    for counts in product(range(k + 1), repeat=len(eigs)):
        if sum(counts) != k:
            continue
        r = sum(part[mu][c] for mu, c in zip(eigs, counts))
        if best is None or r < best[0]:
            best = (r, counts)
    return best


def check_closure(doc: dict, out: dict):
    spec = [(Fraction(b["eig"]), b["sizes"]) for b in doc["spec"]]
    theta = doc["partition"]
    chi = oracle.block_spectrum(spec)
    if out["transpose_block_spectrum"] != chi or out["partition"] != theta:
        return f"chi {out['transpose_block_spectrum']}, own {chi}"
    contains = oracle.dominated(theta, chi)
    if out["contains"] != contains:
        return f"contains = {out['contains']}, own dominance test says {contains}"
    n = sum(theta)
    if contains:
        wit = out.get("witness")
        if wit is None:
            return "no witness family"
        x = _mats([wit["x_prime"]])[0]
        for mu, sizes in spec:
            kmax = max(sizes) + 1
            want = [n - sum(min(s, k) for s in sizes) for k in range(kmax + 1)]
            if oracle.shifted_power_ranks(x, mu, kmax) != want:
                return f"x' does not have Jordan type {sizes} at {mu}"
        w = wit["weights"]
        low = min(w[i] - w[j] for i in range(n) for j in range(n) if x[i][j])
        lead = [[x[i][j] if w[i] - w[j] == low else 0 for j in range(n)] for i in range(n)]
        if low != wit["leading_power"] or lead != oracle.jordan_matrix([(0, c) for c in chi]):
            return "lowest t-power term of the witness family is not J_chi"
        return None
    sep = out.get("separating")
    if sep is None:
        return "no separating pair"
    k, r = sep["k"], sep["r"]
    x = oracle.jordan_matrix([(mu, s) for mu, sizes in spec for s in sizes])
    best = _min_product_rank(x, {mu: sum(sizes) for mu, sizes in spec}, k)
    prod_x = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for (mu, _), c in zip(spec, best[1]):
        for _ in range(c):
            prod_x = oracle.matmul(prod_x, [[x[i][j] - (mu if i == j else 0)
                                             for j in range(n)] for i in range(n)])
    if oracle.rank(prod_x) > r:
        return f"the spec's matrix is not in X_{k}^{r}"
    jt = oracle.jordan_matrix([(0, s) for s in theta])
    if oracle.shifted_power_ranks(jt, 0, k)[k] <= r:
        return f"J_theta lies in X_{k}^{r}"
    return None


def check_slice(doc: dict, out: dict):
    if doc["kind"] == "jn":
        n = doc["n"]
        got, want = (out["dim_H"], out["dim_S"], out["dim_N"]), (n, n * n - n, n)
    else:
        got, want = out["dim_H"], doc["a"] + 3 * doc["b"]
    return None if got == want else f"dims {got}, expected {want}"


def kempf_optimum(n: int) -> float:
    """mu at the normalized Jacobson-Morozov weights (n-1, n-3, ..., 1-n) for J_n."""
    w = [n - 1 - 2 * i for i in range(n)]
    return min(w[i] - w[i + 1] for i in range(n - 1)) / math.sqrt(sum(x * x for x in w))


def check_kempf(doc: dict, out: dict):
    opt = kempf_optimum(len(doc["matrix"]))
    if not 0 < out["mu"] <= opt + 1e-9:
        return f"mu = {out['mu']} outside (0, {opt}]"
    if "grid_f" in out and out.get("agrees_with_grid") is not True:
        return "descent disagrees with the grid"
    return None


def check_curvature(doc: dict, out: dict):
    if doc["kind"] == "sphere":
        d, r = doc["dim"], Fraction(doc["r"])
        want = [[(d - 1) / r ** 2 if i == j else 0 for j in range(d)] for i in range(d)]
        return None if _mats([out["ricci"]])[0] == want else "Ricci is not (n-1)/r^2 I"
    if doc["kind"] == "adjoint":
        lams = [Fraction(x) for x in doc["lams"]]
        m = len(lams)
        want = {}
        for p in range(m):
            for q in range(m):
                if p != q:
                    c = 1 / (lams[q] - lams[p]) ** 2
                    want[f"{p},{q}"] = [-c if i == p else c if i == q else 0
                                        for i in range(m)]
        got = {key: [Fraction(x) for x in v] for key, v in out["d"].items()}
        return None if got == want else "adjoint d_pq table differs"
    want = Fraction(12, doc["n"] + 1)
    got = Fraction(out["gamma_squared"])
    return None if got == want else f"gamma^2 = {got}, expected {want}"


CHECKS = {"limit": check_limit, "closure": check_closure, "slice": check_slice,
          "kempf": check_kempf, "curvature": check_curvature}


def check(cmd: str, doc, text: str):
    if cmd == "det3":
        return check_det3(doc, text)
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return "answer is not JSON"
    if out.get("schema") != 1:
        return "answer lacks schema 1"
    try:
        return CHECKS[cmd](doc, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"malformed answer: {type(e).__name__}: {e}"
