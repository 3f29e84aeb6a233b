"""Per-task, per-layer self time from a traced run's span file.

    python3 perfbench/spans_report.py perfbench/runs/spans-greedy-scan-seed1.json

A span's self time is its duration (busy time for generator spans) minus
the time its child spans cover. The layer of a span is the first part of
its name.
"""

import json
import sys
from collections import defaultdict


def report(path: str) -> None:
    with open(path) as fh:
        table = json.load(fh)
    col = {name: i for i, name in enumerate(table["fields"])}
    spans = table["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[col["parent"]] is not None:
            child[s[col["parent"]]] += s[col["busy"]]
    self_s: dict = defaultdict(lambda: defaultdict(float))
    wall: dict = defaultdict(float)
    for i, s in enumerate(spans):
        task, layer = s[col["task"]], s[col["name"]].split(".", 1)[0]
        self_s[task][layer] += s[col["busy"]] - child[i]
        if s[col["parent"]] is None:
            wall[task] += s[col["busy"]]
    layers = sorted({layer for per in self_s.values() for layer in per})
    print(f"{'task':24s} {'traced_s':>9s} " + " ".join(f"{layer:>11s}" for layer in layers))
    for task in wall:
        print(f"{task:24s} {wall[task]:9.3f} " + " ".join(f"{self_s[task][layer]:11.3f}" for layer in layers))
    for name in sorted({s[col["name"]] for s in spans}):
        total = sum(s[col["busy"]] for s in spans if s[col["name"]] == name)
        count = sum(1 for s in spans if s[col["name"]] == name)
        print(f"  {name:50s} calls {count:7d}  inclusive {total:9.3f} s")


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        report(arg)
