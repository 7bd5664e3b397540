#!/usr/bin/env python3
"""Compares two sets of benchmark runs (or summarizes one).

    python3 perfbench/compare.py <set_a> [<set_b>]

A set is a directory of run outputs named <workload>.t<trace>.s<seed>.out
(what `run.py --sweep` writes); only the last line of each, the JSON
result, is read. For every workload and end-to-end metric the tool prints
each set's median and quartiles, the quartile spread as a share of the
median, and, given two sets, the change of B's median against A's and
whether it stays within the metric's bound in BENCHMARK.json. Per-layer
medians (from --trace 1 runs) are printed side by side, without a verdict.

Exit status: 0 when every end-to-end metric of B is within its bound (or a
single set was given), 1 otherwise.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^(?P<workload>[\w.-]+)\.t(?P<trace>[01])\.s(?P<seed>\d+)\.out$")


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(path):
    """Returns {(workload, trace): {metric: [values]}} and failure notes."""
    runs, notes = {}, []
    for name in sorted(os.listdir(path)):
        m = NAME.match(name)
        if not m:
            continue
        with open(os.path.join(path, name)) as f:
            lines = f.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            notes.append("%s: no result" % name)
            continue
        if not result["correct"] or result["failed"]:
            notes.append("%s: correct=%s failed=%d of %d" % (
                name, result["correct"], result["failed"], result["attempted"]))
        key = (m.group("workload"), m.group("trace"))
        for metric, v in result["metrics"].items():
            runs.setdefault(key, {}).setdefault(metric, []).append(v["value"])
    return runs, notes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def fmt(v):
    return "%.4g" % v


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    sets = [load_set(p) for p in sys.argv[1:]]
    for path, (_, notes) in zip(sys.argv[1:], sets):
        for note in notes:
            print("%s: %s" % (path, note))
    a = sets[0][0]
    b = sets[1][0] if len(sets) == 2 else None
    workloads = sorted({w for (w, _) in a})
    ok = True

    print("end-to-end (median [q1, q3] spread)")
    for w in workloads:
        for m in spec["end_to_end"]:
            va = a.get((w, "0"), {}).get(m["name"])
            if not va:
                continue
            q1, med, q3 = quartiles(va)
            line = "  %-11s %-15s A %10s [%s, %s] %5.1f%%" % (
                w, m["name"], fmt(med), fmt(q1), fmt(q3), 100 * spread(va))
            if b is not None:
                vb = b.get((w, "0"), {}).get(m["name"])
                if not vb:
                    line += "  B missing"
                    ok = False
                else:
                    bq1, bmed, bq3 = quartiles(vb)
                    change = (bmed - med) / med if med else 0.0
                    worse = change if m["better"] == "lower" else -change
                    within = worse <= m["bound"]
                    ok &= within
                    line += "  B %10s [%s, %s] %5.1f%%  %+6.1f%% (bound %g%%) %s" % (
                        fmt(bmed), fmt(bq1), fmt(bq3), 100 * spread(vb), 100 * change,
                        100 * m["bound"], "within" if within else "WORSE")
            else:
                line += "  (bound %g%%)" % (100 * m["bound"])
            print(line)

    print("per-layer (median)")
    for w in workloads:
        for m in spec["per_layer"]:
            va = a.get((w, "1"), {}).get(m["name"])
            if not va:
                continue
            line = "  %-11s %-30s A %10s %s" % (w, m["name"], fmt(statistics.median(va)), m["unit"])
            if b is not None:
                vb = b.get((w, "1"), {}).get(m["name"])
                line += "  B %10s" % (fmt(statistics.median(vb)) if vb else "missing")
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
