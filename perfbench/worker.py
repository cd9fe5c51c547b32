"""One workload run in a fresh interpreter: a closed loop, one request at a time.

Reads a job {"requests", "seconds", "trace", "probe", "spans"} as JSON on
stdin and repeats whole rounds of the requests until `seconds` have passed
(at least one round).  Writes one JSON object to stdout: per-round wall
times, per-request latencies, the answers of the first round, whether later
rounds repeated them exactly, the peak RSS, the speed probe's samples with
the number taken by the end of each round and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import signal
import sys
import time
from fractions import Fraction

import oracle

PROBE_PERIOD_S = 0.05
_rng = random.Random("perfbench/probe")
PROBE_MATRIX = [[_rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]


class SpeedProbe:
    """The machine's speed through a run, measured apart from the program.

    Every PROBE_PERIOD_S seconds a timer signal runs one fixed exact
    elimination of the benchmark's own (`oracle.rank` of PROBE_MATRIX) and
    records how long it took.  `clock` is a wall clock that leaves out the
    time the probe took, so request and round times do not include it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        oracle.rank(PROBE_MATRIX)
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> float:
        while True:  # read again if a tick came between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent


def det3_request(row: str, clock):
    from orbitlimits import examples, limits
    f, lam = {"l2": (examples.det3_skew_sym_form, examples.LAM2),
              "l4": (examples.det3_form, examples.LAM4)}[row]
    form = f()
    start = clock()
    try:
        data = limits.limit_algebra(form, lam)
    except Exception as e:  # a failed row is counted, not fatal
        return f"{type(e).__name__}: {e}", clock() - start, ""
    elapsed = clock() - start
    exp = data.expansion
    answer = {"a": exp.a, "b": exp.b,
              "g": [[list(e), str(c)] for e, c in sorted(exp.g.terms.items())],
              "K0": [[[str(Fraction(x)) for x in row] for row in k.a] for k in data.K0]}
    return 0, elapsed, json.dumps(answer, sort_keys=True)


def cli_request(cmd: str, doc: dict, clock):
    from orbitlimits import cli
    text = json.dumps(doc)
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([cmd])
    except Exception as e:  # a traceback out of main is a failed request
        rc = f"{type(e).__name__}: {e}"
    finally:
        elapsed = clock() - start
        sys.stdin = stdin
    return rc, elapsed, out.getvalue() if rc == 0 else err.getvalue()


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        import orbitlimits.cli  # noqa: F401

    requests = job["requests"]
    probe = SpeedProbe()
    clock = probe.clock
    rounds, latencies, probe_marks, first, repeated = [], [], [0], None, True
    run_start = time.perf_counter()
    if job["probe"]:
        probe.start()
    try:
        while True:
            round_start = clock()
            results = []
            for i, (cmd, doc) in enumerate(requests):
                if tracer is not None:
                    tracer.request = i
                if cmd == "det3":
                    results.append(det3_request(doc, clock))
                else:
                    results.append(cli_request(cmd, doc, clock))
            rounds.append(clock() - round_start)
            probe_marks.append(len(probe.samples))
            latencies += [elapsed for _, elapsed, _ in results]
            answers = [[rc, text] for rc, _, text in results]
            if first is None:
                first = answers
            else:
                repeated = repeated and answers == first
            if time.perf_counter() - run_start >= job["seconds"]:
                break
    finally:
        probe.stop()

    out = {"rounds": rounds, "latencies": latencies, "answers": first,
           "repeated": repeated, "probe": probe.samples, "probe_marks": probe_marks,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.metrics(len(rounds))
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
