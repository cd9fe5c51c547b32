"""Outside-in layer trace: wrap the public functions of each orbitlimits module.

The program is not changed.  `install` replaces each named function by a
wrapper in every loaded `orbitlimits` module that holds it (and the `act`,
`inv_one_plus_theta` and `delta` methods on their classes).  A wrapper
records a span (id, parent id, name, start, end, request index) in memory,
and per name the call count, total time and self time: total minus the
time of wrapped calls made inside it.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = {
    "exactcore": ["rref", "nullspace", "solve", "lin_indep_subset", "coords_in_basis",
                  "det_bareiss", "column_normalize"],
    "lierep": ["stabilizer_algebra"],
    "localmodel": ["build_local_model"],
    "limits": ["expand_orbit_curve", "limit_algebra", "triple_stabilizers",
               "extension_feasible", "hoffman_case", "classify_case"],
    "conjclosure": ["closure_contains_nilpotent", "jn_slice_report", "jab_slice_report"],
    "curvature": ["sphere_ricci", "adjoint_pi", "cyclic_shift_suite"],
    "kempf": ["kempf_descent", "grid_minimize"],
    "cli": ["main"],
}
# (module, class, method) -> traced name
METHODS = {("lierep", "SymRep", "act"): "lierep.act",
           ("lierep", "ConjRep", "act"): "lierep.act",
           ("localmodel", "LocalModel", "inv_one_plus_theta"): "localmodel.inv_one_plus_theta",
           ("localmodel", "LocalModel", "delta"): "localmodel.delta"}
COUNTERS = ["exactcore.rref.entries", "exactcore.rref.max_bits", "exactcore.rref_qt.total_s",
            "exactcore.lin_indep_subset.cols", "localmodel.delta.degree",
            "kempf.kempf_descent.iterations", "kempf.grid_minimize.evals"]


def metric_names() -> list[str]:
    names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
    names += sorted(set(METHODS.values()))
    return ([f"{n}.{k}" for n in names for k in ("calls", "total_s", "self_s")]
            + COUNTERS + ["trace.overhead_ratio"])


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"max_bits": "bits", "degree": "degree", "overhead_ratio": "ratio"}.get(
        name.rsplit(".", 1)[1], "count")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []        # [span id, time spent in wrapped children]
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {c: 0 for c in COUNTERS}
        self.request = None
        self.next_id = 0

    def wrap(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                spans.append((sid, parent, name, t0, t1, self.request))
            if after is not None:
                after(args, result, dur)
            return result

        return traced

    # -- counters ----------------------------------------------------
    def _after_rref(self, args, result, dur):
        from orbitlimits.exactcore import RationalFn
        m = args[0]
        c = self.counters
        c["exactcore.rref.entries"] += m.rows * m.cols
        rows, _ = result
        bits = 0
        qt = False
        for row in rows:
            for x in row:
                if isinstance(x, RationalFn):
                    qt = True
                    for p in (x.num, x.den):
                        for y in p.c.values():
                            bits = max(bits, y.numerator.bit_length(), y.denominator.bit_length())
                elif x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        c["exactcore.rref.max_bits"] = max(c["exactcore.rref.max_bits"], bits)
        if qt:  # rref promotes every entry to RationalFn when any is over Q[t]
            c["exactcore.rref_qt.total_s"] += dur

    def _after_lin_indep(self, args, result, dur):
        self.counters["exactcore.lin_indep_subset.cols"] += len(args[0])

    def _after_delta(self, args, result, dur):
        from orbitlimits.exactcore import UniPoly
        deg = result.degree() if isinstance(result, UniPoly) and result else 0
        c = self.counters
        c["localmodel.delta.degree"] = max(c["localmodel.delta.degree"], deg)

    def _after_descent(self, args, result, dur):
        self.counters["kempf.kempf_descent.iterations"] += result.iterations

    def _count_grid_eval(self, fn):
        def counted(*args, **kwargs):
            self.counters["kempf.grid_minimize.evals"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------
    def install(self) -> None:
        import orbitlimits.cli  # noqa: F401  loads every module the requests use
        after = {"exactcore.rref": self._after_rref,
                 "exactcore.lin_indep_subset": self._after_lin_indep,
                 "kempf.kempf_descent": self._after_descent}
        mods = [m for n, m in sys.modules.items() if n.startswith("orbitlimits")]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"orbitlimits.{mod_name}"]
            for f in funcs:
                orig = getattr(home, f)
                wrapped = self.wrap(f"{mod_name}.{f}", orig, after.get(f"{mod_name}.{f}"))
                for m in mods:
                    if getattr(m, f, None) is orig:
                        setattr(m, f, wrapped)
        for (mod_name, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"orbitlimits.{mod_name}"], cls_name)
            hook = self._after_delta if meth == "delta" else None
            setattr(cls, meth, self.wrap(name, getattr(cls, meth), hook))
        kempf = sys.modules["orbitlimits.kempf"]
        kempf.kempf_f = self._count_grid_eval(kempf.kempf_f)

    # -- results -----------------------------------------------------
    def metrics(self, rounds: int) -> dict:
        """Per-round call counts and times; maxima are taken over the run."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.total_s"] = total / rounds
            out[f"{name}.self_s"] = self_s / rounds
        for name, v in self.counters.items():
            out[name] = v if name.endswith((".max_bits", ".degree")) else v / rounds
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, req in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "request": req}) + "\n")
