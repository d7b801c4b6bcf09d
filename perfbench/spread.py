#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py results.jsonl [results2.jsonl]

Each file holds the result lines (the last stdout line) of runs of one
workload with different seeds. For every metric it prints the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4), next to the metric's bound in BENCHMARK.json.
With a second file it also prints how far the second median moved from the
first, in the metric's worse direction.
"""
import json
import pathlib
import statistics
import sys


def load(path):
    runs = [json.loads(l) for l in pathlib.Path(path).read_text().splitlines() if l.strip()]
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return runs, values


def main():
    spec = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs, first = load(sys.argv[1])
    second = load(sys.argv[2])[1] if len(sys.argv) > 2 else None
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"{len(runs)} runs, {len(bad)} not correct")
    for name, vals in first.items():
        m = metrics.get(name, {"bound": float("nan"), "better": "lower"})
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        line = f"{name:16} median {med:12.4f}  spread {spread:6.3f}  bound {m['bound']:.2f}"
        line += "  OK" if spread < m["bound"] / 3 else ("  within bound" if spread <= m["bound"] else "  OVER")
        if second and name in second:
            med2 = statistics.median(second[name])
            worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
            line += f"  | second median {med2:12.4f} worse by {worse:+.3f}"
        print(line)


if __name__ == "__main__":
    main()
