"""Time shares from a traced run's spans, per subcommand.

    python3 perfbench/shares.py .perfbench-out/spans-limit-mix-1.jsonl \
        --workload limit-mix --seed 1

For each subcommand of the workload, prints the share of the request time
spent inside each traced function and inside the exactcore module, counting
only the outermost span of each nested group so that no time counts twice.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict

import inputs


def shares(spans: list[dict], commands: list[str]) -> dict:
    """command -> {function or module: share of the request time}."""
    by_id = {s["id"]: s for s in spans}

    def has_ancestor(s, pred) -> bool:
        p = s["parent"]
        while p is not None:
            if pred(by_id[p]["name"]):
                return True
            p = by_id[p]["parent"]
        return False

    request_time: dict = defaultdict(float)
    inside: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        cmd = commands[s["request"]]
        dur = s["end"] - s["start"]
        if s["parent"] is None:
            request_time[cmd] += dur
        if not has_ancestor(s, lambda n: n == s["name"]):
            inside[cmd][s["name"]] += dur
        module = s["name"].split(".")[0]
        if module == "exactcore" and not has_ancestor(s, lambda n: n.startswith("exactcore.")):
            inside[cmd]["exactcore (module)"] += dur
    return {cmd: {name: t / request_time[cmd] for name, t in sorted(inside[cmd].items())}
            for cmd in request_time}


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans")
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args()
    with open(a.spans) as fh:
        spans = [json.loads(line) for line in fh]
    commands = [cmd for cmd, _ in inputs.WORKLOADS[a.workload](a.seed)]
    for cmd, table in shares(spans, commands).items():
        print(cmd)
        for name, share in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {share:7.1%}  {name}")
