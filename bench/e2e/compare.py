#!/usr/bin/env python3
"""Compares two results files written by bench/e2e/run.py.

  python3 bench/e2e/compare.py A.json B.json

A is the base (the parent commit), B the change. For every workload and
end-to-end metric it prints both medians with their quartiles, the
relative change, the bound and a verdict:

  ok          B is no worse than A by more than the bound
  regressed   B is worse than A by more than the bound
  unresolved  either side's interquartile range, as a share of its
              median, exceeds the bound, and B's runs do not all beat A's

fail_share has bound 0: any rise is a regression. Exits 1 when anything
regressed, else 0.
"""

import json
import sys


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def verdict(a, b):
    bound, lower = a["bound"], a["better"] == "lower"
    worse = (b["median"] - a["median"]) * (1 if lower else -1)
    if a["median"] == 0:
        return "regressed" if worse > 0 else "ok"
    change = worse / abs(a["median"])
    if spread(a) > bound or spread(b) > bound:
        beats = max(b["samples"]) < min(a["samples"]) if lower else \
            min(b["samples"]) > max(a["samples"])
        return "ok" if beats else "unresolved"
    return "regressed" if change > bound else "ok"


def cell(m):
    return f"{m['median']:.4g} [{m['q1']:.4g}..{m['q3']:.4g}]"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.load(open(p))["workloads"] for p in sys.argv[1:])
    regressed = False
    header = (f"{'workload':10s} {'metric':18s} {'A median [q1..q3]':>30s} "
              f"{'B median [q1..q3]':>30s} {'change':>8s} {'bound':>6s}  "
              f"verdict")
    print(header)
    print("-" * len(header))
    for name in a:
        if name not in b:
            print(f"{name:10s} missing from B")
            regressed = True
            continue
        for metric, ma in a[name]["end_to_end"].items():
            mb = b[name]["end_to_end"].get(metric)
            if mb is None:
                print(f"{name:10s} {metric:18s} missing from B")
                regressed = True
                continue
            v = verdict(ma, mb)
            regressed |= v == "regressed"
            change = (mb["median"] - ma["median"]) / ma["median"] \
                if ma["median"] else 0.0
            print(f"{name:10s} {metric:18s} {cell(ma):>30s} {cell(mb):>30s} "
                  f"{change:+8.1%} {ma['bound']:6.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
