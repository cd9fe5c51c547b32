"""The benchmark's layer tracer patches library names by string; each must exist."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_exists():
    tracing = _tracing()
    for mod_name, funcs in tracing.LAYERS.items():
        mod = importlib.import_module(f"orbitlimits.{mod_name}")
        for f in funcs:
            assert callable(getattr(mod, f, None)), f"{mod_name}.{f}"
    for mod_name, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"orbitlimits.{mod_name}"), cls_name, None)
        assert callable(getattr(cls, meth, None)), f"{mod_name}.{cls_name}.{meth}"
    assert callable(getattr(importlib.import_module("orbitlimits.kempf"), "kempf_f", None))
    # the names that the tracer's hooks import only when they first run
    lazy = [(node.module, alias.name) for node in ast.walk(ast.parse(TRACING.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("orbitlimits")
            for alias in node.names]
    assert {("orbitlimits.exactcore", "RationalFn"),
            ("orbitlimits.exactcore", "UniPoly")} <= set(lazy)
    for mod_name, name in lazy:
        assert hasattr(importlib.import_module(mod_name), name), f"{mod_name}.{name}"


def test_traced_worker_runs_a_limit_and_a_det3_row():
    # one round of a small `limit` document (O2), det3 row l4, `kempf` on J_3
    # and the slice report at J_{2,1}, traced; the last two go through the
    # tracer's rref hook
    o2 = {"form": {"nvars": 2, "degree": 4,
                   "terms": [{"exp": [4, 0], "coef": "1"}, {"exp": [2, 2], "coef": "2"},
                             {"exp": [0, 4], "coef": "1"}]},
          "oneps": [1, 0]}
    j3 = [["1" if j == i + 1 else "0" for j in range(3)] for i in range(3)]
    job = {"requests": [["limit", o2], ["det3", "l4"],
                        ["kempf", {"matrix": j3, "t": 1000, "grid": True}],
                        ["slice", {"kind": "jab", "a": 2, "b": 1}]],
           "seconds": 0, "trace": 1, "probe": False}
    env = dict(os.environ, PYTHONPATH=str(TRACING.parents[1] / "src"))
    proc = subprocess.run([sys.executable, str(TRACING.parent / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [rc for rc, _ in out["answers"]] == [0, 0, 0, 0]
    layers = out["layers"]
    for name in ("limits.limit_algebra", "lierep.stabilizer_algebra",
                 "localmodel.build_local_model", "localmodel.inv_one_plus_theta"):
        assert layers[f"{name}.calls"] > 0, name
    assert {f"exactcore.rref.{k}" for k in ("calls", "total_s", "self_s", "entries",
                                            "max_bits")} <= set(layers)
    # the limit pipeline eliminates through Subspace and kernel, which are not
    # wrapped; `kempf` and the slice report call rref
    assert layers["exactcore.rref.calls"] > 0


def test_benchmark_selftest_passes():
    # the benchmark's own tests, which read `orbitlimits.examples` and the CLI
    # answers that its checks parse
    root = TRACING.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(TRACING.parent / "selftest.py")],
                          capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
