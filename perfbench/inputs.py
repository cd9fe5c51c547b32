"""Seeded request sets for the three workloads.

A request is (subcommand, JSON document) for `orbitlimits.cli.main`, or
("det3", row name) for the det3 rows, which go through
`orbitlimits.limits.limit_algebra` directly.  The same seed always gives
the same requests; the program sees only the generated documents.  Run
this file to print a workload's request set:

    python3 perfbench/inputs.py --workload limit-mix --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

import oracle

# limit-mix: requests per (nvars, degree) stratum.  The forms and weights come
# from one fixed design draw; the seed changes the signs of the variables of
# each and shuffles the order.  A request's cost does not change
# under that map, so run time and latency percentiles do not move with the
# seed.
LIMIT_STRATA = {(2, 2): 15, (2, 3): 15, (2, 4): 15, (3, 2): 15, (3, 3): 15, (3, 4): 15,
                (4, 2): 4, (4, 3): 4, (4, 4): 4}
DESIGN_SEED = "limit-mix/design"
COEFFICIENTS = [-3, -2, -1, 1, 2, 3]

# A transversal input on which `limit` exits 3 because triple_stabilizers asks
# for the graded dims of K_lf, which is not graded here.  It does not depend
# on the seed and fails in every round, so it is counted in `failed`.
KLF_FAULT = ({"nvars": 4, "degree": 2,
              "terms": [{"exp": [0, 0, 1, 1], "coef": "-2"},
                        {"exp": [0, 2, 0, 0], "coef": "1"},
                        {"exp": [0, 0, 0, 2], "coef": "3"},
                        {"exp": [1, 0, 0, 1], "coef": "-3"}]},
             [0, -2, 2, 0])

# matrix-mix: closure requests per size n = 2..10, then the fixed heavier set
CLOSURE_SIZES = range(2, 11)
CLOSURE_PER_SIZE = 30
EIGENVALUES = sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)})


def form_doc(nvars: int, degree: int, terms: dict) -> dict:
    return {"nvars": nvars, "degree": degree,
            "terms": [{"exp": list(e), "coef": str(c)} for e, c in sorted(terms.items())]}


def form_of_doc(doc: dict) -> dict:
    return {tuple(t["exp"]): Fraction(t["coef"]) for t in doc["terms"]}


def usable_limit_input(f: dict, lam) -> bool:
    """The screen of limit-mix, made with the benchmark's own elimination.

    The form must carry at least two lambda-weights (the program fails on
    every lambda-homogeneous form) and its tail must be transversal to the
    orbit of its lowest part.  Inputs whose K_lf is not graded are left out
    here because the program fails on them; KLF_FAULT keeps that fault in
    every round at a fixed share.
    """
    return (len(oracle.weight_split(f, lam)) >= 2 and oracle.transversal(f, lam)
            and oracle.klf_graded(f, lam))


def design_input(rng: random.Random, nvars: int, degree: int):
    """A screened random (form, weights) pair of the design draw."""
    monos = oracle.monomials(nvars, degree)
    while True:
        chosen = rng.sample(monos, rng.randint(2, min(5, len(monos))))
        f = {e: Fraction(rng.choice(COEFFICIENTS)) for e in chosen}
        lam = [rng.randint(-2, 2) for _ in range(nvars)]
        if usable_limit_input(f, lam):
            return f, lam


def sign_flipped(rng: random.Random, f: dict):
    """The design form under a seeded change of signs of its variables,
    x_i -> +-x_i.  That map commutes with the one-parameter subgroup, so the
    screen's answers and the stabilizer dimensions are those of the design
    input.  A permutation of the variables would too, but it moves a single
    request's cost by up to half (the elimination order changes), and with
    it the latency percentiles."""
    signs = [rng.choice((1, -1)) for _ in next(iter(f))]
    g = {}
    for e, c in f.items():
        for s, k in zip(signs, e):
            c *= s ** k
        g[e] = c
    return g


def limit_mix(seed: int) -> list:
    design = random.Random(DESIGN_SEED)
    rng = random.Random(f"limit-mix/{seed}")
    reqs = []
    for (nvars, degree), count in LIMIT_STRATA.items():
        for _ in range(count):
            f, lam = design_input(design, nvars, degree)
            f = sign_flipped(rng, f)
            reqs.append(("limit", {"form": form_doc(nvars, degree, f), "oneps": lam}))
    reqs.append(("limit", {"form": KLF_FAULT[0], "oneps": KLF_FAULT[1]}))
    rng.shuffle(reqs)
    return reqs


def random_partition(rng: random.Random, n: int) -> list[int]:
    parts = []
    while n:
        p = rng.randint(1, n)
        parts.append(p)
        n -= p
    return sorted(parts, reverse=True)


def random_spec(rng: random.Random, n: int) -> list:
    """A non-scalar Jordan spec of size n with distinct rational eigenvalues."""
    while True:
        k = rng.randint(1, min(n, 4))
        cuts = sorted(rng.sample(range(1, n), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        eigs = rng.sample(EIGENVALUES, k)
        spec = [(ev, random_partition(rng, m)) for ev, m in zip(eigs, sizes)]
        if not (k == 1 and all(p == 1 for p in spec[0][1])):
            return spec


def spec_doc(spec) -> list:
    return [{"eig": str(ev), "sizes": sizes} for ev, sizes in spec]


def jordan_nilpotent(n: int) -> list:
    return [["1" if j == i + 1 else "0" for j in range(n)] for i in range(n)]


HEAVY = ([("slice", {"kind": "jn", "n": n}) for n in (4, 5, 6)]
         + [("slice", {"kind": "jab", "a": a, "b": b}) for a, b in ((2, 1), (3, 2), (4, 2))]
         + [("kempf", {"matrix": jordan_nilpotent(n), "t": 1000, "grid": n <= 4})
            for n in (3, 4, 5)]
         + [("curvature", {"kind": "cyclic", "n": n}) for n in (3, 4, 5)])


def closure_request(rng: random.Random, n: int, contains: bool) -> dict:
    """A random non-scalar spec of size n and a partition whose closure answer,
    by the benchmark's own dominance test, is `contains`."""
    while True:
        spec, theta = random_spec(rng, n), random_partition(rng, n)
        if oracle.dominated(theta, oracle.block_spectrum(spec)) == contains:
            return {"spec": spec_doc(spec), "partition": theta}


def matrix_mix(seed: int) -> list:
    rng = random.Random(f"matrix-mix/{seed}")
    reqs = []
    for n in CLOSURE_SIZES:
        for i in range(CLOSURE_PER_SIZE):
            # Half of each size contains the nilpotent orbit and so builds a
            # witness; every non-scalar spec of size 2 contains it.
            reqs.append(("closure", closure_request(rng, n, n == 2 or i % 2 == 0)))
    reqs += HEAVY
    reqs.append(("curvature", {"kind": "sphere", "dim": rng.randint(2, 5),
                               "r": str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))}))
    reqs.append(("curvature", {"kind": "adjoint",
                               "lams": [str(x) for x in rng.sample(EIGENVALUES, 4)]}))
    rng.shuffle(reqs)
    return reqs


def det3(seed: int) -> list:
    return [("det3", "l2"), ("det3", "l4")]


WORKLOADS = {"det3": det3, "limit-mix": limit_mix, "matrix-mix": matrix_mix}


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args()
    for cmd, doc in WORKLOADS[a.workload](a.seed):
        print(cmd, json.dumps(doc))
