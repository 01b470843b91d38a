#!/usr/bin/env python3
"""The repository benchmark: builds quora_perfbench, runs a workload, checks its
outputs against the recorded reference and prints the metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload figures_dense --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process
    python3 perfbench/run.py --smoke                   # all workloads, small sizes
    python3 perfbench/run.py --record [--smoke]        # re-record reference.json
    python3 perfbench/compare.py --base A*.json --head B*.json  # compare --out results

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the per-layer metrics of a separate traced pass. The exit status
is 0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["figures_dense", "figures_sparse", "msg_drift", "model_crash"]
# Parallel jobs of the build. The workloads' own worker count is a
# constant of quora_perfbench (kWorkers), reported in every manifest.
BUILD_JOBS = 4
# The workload seed selects one of this many recorded input slots.
SLOTS = {"full": 10, "smoke": 2}
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench:", message)
    sys.exit(2)


# ---------------------------------------------------------------- build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds quora_perfbench; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a quora source checkout "
             "(no CMakeLists.txt and src/ here)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", out, "--target", "quora_perfbench",
                    "-j", str(BUILD_JOBS)])
    return os.path.join(out, "quora_perfbench")


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail("build step failed: " + " ".join(cmd))


# ------------------------------------------------------------- manifest

def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(report, seed, slot, rev):
    b = report["build"]
    return {
        "git_rev": rev,
        "compiler": b["compiler"],
        "flags": b["flags"].strip(),
        "build_type": b["build_type"],
        "quora_obs": b["quora_obs"],
        "bits_kernel": b["bits_kernel"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workers": report["workers"],
        "seed": seed,
        "seed_slot": slot,
    }


# --------------------------------------------------------------- checks

class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def check_figures(out, ref, checks):
    for topo, got in out.items():
        want = ref.get(topo)
        if want is None:
            checks.add(f"{topo}: reference present", False)
            continue
        checks.add(f"{topo}: optimal q_r per alpha", got["q_opt"] == want["q_opt"],
                   f"{got['q_opt']} vs {want['q_opt']}")
        checks.add(f"{topo}: batch count", got["batches"] == want["batches"],
                   f"{got['batches']} vs {want['batches']}")
        # The reference keeps 9 significant digits.
        off = [i for i, (m, r, hw) in enumerate(zip(got["mean"], want["mean"],
                                                      got["half_width"]))
               if abs(m - r) > hw + 1e-8 * abs(r)]
        checks.add(f"{topo}: curve means within CI of reference",
                   not off and len(got["mean"]) == len(want["mean"]),
                   f"{len(off)} cells off")
        # §5.3: A(alpha, 1) = 0.96 alpha. The paper drops the write term
        # (1 - alpha) W(T) = (1 - alpha) A(0, 1), which is not negligible on
        # dense topologies (all 101 sites connected); it is kept here. The
        # tolerance is three half-widths: a 95% interval misses a true value
        # in one cell of twenty, and each seed tests 10 to 25 cells.
        nq = got["q_count"]
        w_t = got["mean"][0]
        bad = []
        for a, alpha in enumerate(got["alphas"]):
            m, hw = got["mean"][a * nq], got["half_width"][a * nq]
            if abs(m - 0.96 * alpha - (1 - alpha) * w_t) > 3 * hw + 1e-12:
                bad.append(alpha)
        checks.add(f"{topo}: A(alpha,1) = 0.96 alpha within 3 half-widths", not bad,
                   f"fails at alpha {bad}")


def check_msg(out, ref, checks):
    checks.add("msg: check_safety clean on every run", out["safe"])
    checks.add("msg: every repeat of a run matches its first", out["repeats_agree"])
    checks.add("msg: decided counts per seed", out["decided"] == ref["decided"],
               f"{out['decided']} vs {ref['decided']}")
    checks.add("msg: availability per seed", out["availability"] == ref["availability"])
    checks.add("msg: adaptive loop closed (epochs and installs)",
               out["adapt_epochs"] > 0 and out["adapt_installs"] > 0)
    checks.add("msg: adaptive tail margin >= 0.02", out["tail_margin"] >= 0.02,
               f"margin {out['tail_margin']:+.4f}")


def check_model(out, ref, checks):
    checks.add("model: no violation", not out["violation"])
    checks.add("model: state budget reached",
               out["state_capped"] and out["unique_states"] == out["max_states"] + 1,
               f"{out['unique_states']} unique, budget {out['max_states']}")
    checks.add("model: explored count", out["explored"] == ref["explored"],
               f"{out['explored']} vs {ref['explored']}")
    checks.add("model: every exploration ends the same way", out["repeats_agree"])


def run_checks(report, reference, mode, slot):
    checks = Checks()
    w = report["workload"]
    ref = reference.get(mode, {}).get(w, {})
    ref = ref.get(str(slot), ref.get("any"))
    if ref is None:
        checks.add(f"{w}: reference recorded for slot {slot}", False)
    elif w.startswith("figures"):
        check_figures(report["outputs"], ref, checks)
    elif w == "msg_drift":
        check_msg(report["outputs"], ref, checks)
    else:
        check_model(report["outputs"], ref, checks)
    for name, ok in report["fidelity"].items():
        checks.add(f"trace fidelity: {name}", ok)
    return checks


# -------------------------------------------------------------- metrics

def per_job_median_sum(values, jobs):
    """Sum over jobs of the median time of each job's runs. A workload run
    in lanes reports one value per job run, tagged in `jobs`; any other
    reports one per repetition and no tags, which is a single job."""
    by_job = {}
    for value, job in zip(values, jobs or [0] * len(values)):
        by_job.setdefault(job, []).append(value)
    return sum(statistics.median(v) for v in by_job.values())


def end_to_end(report, checks):
    run_s = per_job_median_sum(report["run_s"], report["job"])
    attempted = len(checks.results)
    return {
        "setup_s": statistics.median(report["setup_s"]),
        "run_s": run_s,
        "cpu_s": per_job_median_sum(report["cpu_s"], report["job"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "throughput_per_s": report["work"] / run_s,
        "check_pass_frac": (attempted - len(checks.failed)) / attempted,
    }


def declared_metrics(kind):
    """(name, unit) of the metrics BENCHMARK.json declares, in order."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def result_line(report, checks, trace):
    if trace:
        # A layer the workload does not exercise reads 0.
        values = report["layers"]
        metrics = {n: {"value": values.get(n, 0.0), "unit": u}
                   for n, u in declared_metrics("per_layer")}
    else:
        values = end_to_end(report, checks)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in declared_metrics("end_to_end")}
    return {"correct": not checks.failed, "attempted": len(checks.results),
            "failed": len(checks.failed), "metrics": metrics}


# ----------------------------------------------------------------- main

def drive(binary, workloads, slot, seconds, trace, smoke, spans=None):
    cmd = [binary, "--workload", workloads, "--seed", str(slot), "--seconds",
           str(seconds), "--root", "."]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"quora_perfbench exited {proc.returncode}: {' '.join(cmd)}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def record(binary, smoke):
    """Re-records the reference outputs for every seed slot."""
    mode = "smoke" if smoke else "full"
    reference = load_reference()
    reference[mode] = {w: {} for w in WORKLOADS}
    for w in WORKLOADS:
        slots = ["any"] if w == "model_crash" else range(SLOTS[mode])
        for slot in slots:
            log(f"recording {mode} {w} slot {slot}")
            (rep,) = drive(binary, w, 0 if slot == "any" else slot, 0, False, smoke)
            out = rep["outputs"]
            if w.startswith("figures"):
                out = {t: {"q_opt": o["q_opt"], "batches": o["batches"],
                           "mean": [float(f"{m:.9g}") for m in o["mean"]]}
                       for t, o in out.items()}
            elif w == "model_crash":
                out = {"explored": out["explored"]}
            reference[mode][w][str(slot)] = out
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, separators=(",", ":"))
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default=None, help=" | ".join(WORKLOADS + ["all"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured time per workload (default 20; 0 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, same code path and checks")
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json (never part of a measured run)")
    ap.add_argument("--out", help="also write the full result (manifest, checks, "
                                  "metrics) to this JSON file")
    ap.add_argument("--spans", help="traced run: write spans to "
                                    "PREFIX-<workload>.jsonl (default: "
                                    "spans-seed<n> in the build directory)")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else 20
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    workload = args.workload or ("all" if args.smoke else None)
    if workload is None and not args.record:
        fail("--workload is required")
    if workload not in WORKLOADS + ["all", None]:
        fail(f"unknown workload {workload!r}")

    binary = build()
    if args.record:
        record(binary, args.smoke)
        return 0

    mode = "smoke" if args.smoke else "full"
    slot = args.seed % SLOTS[mode]
    reference = load_reference()
    spans = args.spans
    if args.trace == 1 and not spans:
        spans = os.path.join(build_dir(), f"spans-seed{args.seed}")
    reports = drive(binary, workload, slot, args.seconds, args.trace == 1, args.smoke,
                    spans)
    rev = git_rev()
    results = []
    for report in reports:
        checks = run_checks(report, reference, mode, slot)
        line = result_line(report, checks, args.trace == 1)
        results.append({"workload": report["workload"],
                        "manifest": manifest(report, args.seed, slot, rev),
                        "checks": [{"name": n, "ok": ok, "detail": d}
                                   for n, ok, d in checks.results],
                        "result": line})
        print(f"== {report['workload']} (seed {args.seed}, slot {slot}, "
              f"{len(report['run_s'])} measured repetitions)")
        print("manifest " + json.dumps(results[-1]["manifest"], sort_keys=True))
        for name, ok, detail in checks.results:
            if not ok:
                print(f"CHECK FAILED: {name} {detail}")
        for name, m in line["metrics"].items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {"correct": all(r["result"]["correct"] for r in results),
                 "attempted": sum(r["result"]["attempted"] for r in results),
                 "failed": sum(r["result"]["failed"] for r in results),
                 "metrics": {f"{r['workload']}.{n}": m for r in results
                             for n, m in r["result"]["metrics"].items()}}
        if args.trace == 1:
            # The two figures workloads must separate the conn layer.
            key = "{}.conn.full_rebuilds_per_access"
            ratio = (final["metrics"][key.format("figures_dense")]["value"]
                     / final["metrics"][key.format("figures_sparse")]["value"])
            final["attempted"] += 1
            if ratio <= 10:
                print("CHECK FAILED: dense/sparse full rebuilds per access "
                      f"{ratio:.1f} <= 10")
                final["failed"] += 1
                final["correct"] = False
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
