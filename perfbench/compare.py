#!/usr/bin/env python3
"""Compare benchmark results written by `run.py --out FILE`.

    python3 perfbench/compare.py --base B1.json [B2.json ...] --head H1.json [H2.json ...]

Give several results per side, ideally from base and head runs interleaved
on one host. For every workload present on both sides and every metric,
prints the median of each side, the spread of each side (interquartile
range over median) and the relative change of the medians.

A change of the medians beyond the metric's bound in BENCHMARK.json reads:
- "cross-host" when any result's manifest differs from the others in a host
  or build field (host, compiler, flags, build type, QUORA_OBS, SIMD kernel,
  workers), because such a difference says nothing about the code;
- "exceeds bound (unresolved)" when a side has fewer than MIN_RUNS results,
  because one noisy pair cannot be told apart from the host's own drift;
- "regression" otherwise.

Exit status is 1 when a regression is found, else 0.
"""

import argparse
import json
import os
import statistics
import sys

# Manifest fields that describe the machine and build, not the code or seed.
HOST_FIELDS = ["cpu_model", "nproc", "compiler", "flags", "build_type", "quora_obs",
               "bits_kernel", "workers"]
# Results per side below which a change beyond the bound is not called a
# regression.
MIN_RUNS = 3


def load(paths):
    """workload -> list of results, one per file that has the workload."""
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for r in json.load(f):
                out.setdefault(r["workload"], []).append(r)
    return out


def bounds():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["per_layer"]}
    out.update({m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]})
    return out


def spread(values):
    """Interquartile range over median, or None for fewer than two values."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def fmt_spread(s):
    return "    -" if s is None else f"{s:5.3f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True, help="results of the base")
    ap.add_argument("--head", nargs="+", required=True, help="results of the head")
    args = ap.parse_args()
    base, head = load(args.base), load(args.head)
    limits = bounds()
    regressions = 0
    for workload in sorted(set(base) & set(head)):
        a, b = base[workload], head[workload]
        manifests = [r["manifest"] for r in a + b]
        differing = [f for f in HOST_FIELDS
                     if len({json.dumps(m.get(f)) for m in manifests}) > 1]
        resolved = min(len(a), len(b)) >= MIN_RUNS
        print(f"== {workload}  ({len(a)} base, {len(b)} head results)"
              + (f"  [cross-host: {', '.join(differing)} differ]" if differing else ""))
        print(f"  {'metric':32s} {'base':>12s} {'spread':>6s} {'head':>12s} "
              f"{'spread':>6s} {'change':>8s}")
        for name, m in a[0]["result"]["metrics"].items():
            va = [r["result"]["metrics"][name]["value"] for r in a
                  if name in r["result"]["metrics"]]
            vb = [r["result"]["metrics"][name]["value"] for r in b
                  if name in r["result"]["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            better, bound = limits.get(name, ("lower", None))
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if better == "lower" else -change
            verdict = ""
            if bound is not None and worse > bound:
                if differing:
                    verdict = "cross-host"
                elif not resolved:
                    verdict = "exceeds bound (unresolved)"
                else:
                    verdict = "regression"
                    regressions += 1
            print(f"  {name:32s} {ma:12.6g} {fmt_spread(spread(va)):>6s} "
                  f"{mb:12.6g} {fmt_spread(spread(vb)):>6s} {change:+8.2%} "
                  f"{m['unit']:8s} {verdict}")
    if not base.keys() & head.keys():
        print("no workload appears on both sides", file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
