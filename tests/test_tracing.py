"""The benchmark's layer tracer patches library names by string; each must exist."""

import importlib
import importlib.util
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
