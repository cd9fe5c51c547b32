"""Benchmark of the orbitlimits exact pipeline.

    python3 perfbench/run.py --workload det3|limit-mix|matrix-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's requests are made from the
seed, then run in a fresh single-threaded interpreter (worker.py) as a
closed loop: one client, one request at a time, whole rounds until S
seconds have passed.  A speed probe in the worker times a fixed computation
of the benchmark's own every 50 ms; request and round times leave its time
out and are scaled to the reference speed PROBE_REF_S.  Every answer is
checked against the benchmark's own computation (checks.py).  The last
line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  Spans of a traced run are written
to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

# set-up is timed this many times before the requests run and as many after,
# so that its median spans the run's half minute, not a second of it
SETUP_REPEATS = 5
# The speed probe's median time (worker.SpeedProbe) on the machine of the
# reference numbers in README.md.  Request and round times are scaled by
# PROBE_REF_S / (the probe's median during their round): they read as
# seconds at the speed of that machine.
PROBE_REF_S = 0.0015
DEADLINE_S = 170.0
OUT_DIR = ".perfbench-out"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict, deadline: float, repeats: int) -> list[float]:
    """Wall times from starting a fresh interpreter to orbitlimits.cli
    imported, as the child reports the clock when its import is done."""
    times = []
    for _ in range(repeats):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-c", "import orbitlimits.cli, time; print(repr(time.time()))"],
            env=env, check=True, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout) - start)
    return times


def run_worker(job: dict, env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def round_scales(result) -> list[float]:
    """Each round's scale factor: PROBE_REF_S over the median of the probe
    samples taken during that round."""
    probe, marks = result["probe"], result["probe_marks"]
    scales = []
    for k in range(len(result["rounds"])):
        during = probe[marks[k]:marks[k + 1]] or probe  # a very short round may have none
        scales.append(PROBE_REF_S / statistics.median(during))
    print(f"probe median {statistics.median(probe):.6g} s over {len(probe)} samples; "
          f"unscaled round time {statistics.median(result['rounds']):.6g} s", file=sys.stderr)
    return scales


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of the
    order statistics, the i-th weighted by I_{i/n} - I_{(i-1)/n} of
    Beta(p(n+1), (1-p)(n+1)).  Unlike the sample quantile it does not jump
    when two neighbouring values trade places, so it is far steadier where
    the values are sparse."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def grade(requests, result) -> tuple[bool, int]:
    """(correct, failed operations per round) for one worker result."""
    correct, failed = result["repeated"], 0
    for (cmd, doc), (rc, text) in zip(requests, result["answers"]):
        if rc != 0:
            failed += 1
            print(f"failed {cmd} {json.dumps(doc)}: {rc} {text.strip()}", file=sys.stderr)
            continue
        reason = checks.check(cmd, doc, text)
        if reason is not None:
            correct = False
            failed += 1
            print(f"wrong {cmd} {json.dumps(doc)}: {reason}", file=sys.stderr)
    return correct, failed


def main() -> int:
    ap = argparse.ArgumentParser(description="orbitlimits benchmark")
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "orbitlimits", "cli.py")):
        print("run from the root of an orbitlimits checkout (src/orbitlimits is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))  # the det3 checks read its input forms

    requests = inputs.WORKLOADS[args.workload](args.seed)
    env = child_env()
    job = {"requests": requests, "seconds": args.seconds, "trace": False, "probe": False}
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.abspath(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        traced = run_worker(dict(job, trace=True, spans=spans), env, deadline)
        plain = run_worker(job, env, deadline)
        layers = {name: traced["layers"].get(name, 0) for name in tracing.metric_names()}
        layers["trace.overhead_ratio"] = (statistics.median(traced["rounds"])
                                          / statistics.median(plain["rounds"]))
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in layers.items()}
        result = traced
    else:
        setup = measure_setup(env, deadline, SETUP_REPEATS)
        result = run_worker(dict(job, probe=True), env, deadline)
        setup += measure_setup(env, deadline, SETUP_REPEATS)
        scales = round_scales(result)
        n = len(requests)
        lat = result["latencies"]
        per_request = [statistics.median(lat[k * n + i] * s for k, s in enumerate(scales))
                       for i in range(n)]
        metrics = {"setup_s": statistics.median(setup),
                   "run_s": sum(per_request),
                   "peak_rss_mb": result["peak_rss_mb"],
                   # on det3 the two rows are the only samples, so these are no tail
                   "req_p50_s": hd_quantile(per_request, 0.5),
                   "req_p90_s": hd_quantile(per_request, 0.9)}
        metrics = {name: {"value": v, "unit": "MB" if name.endswith("_mb") else "s"}
                   for name, v in metrics.items()}
    correct, failed = grade(requests, result)
    rounds = len(result["rounds"])
    print(json.dumps({"correct": correct, "attempted": rounds * len(requests),
                      "failed": rounds * failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
