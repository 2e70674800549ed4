#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --reference --seconds 30

Run from the repository root. The first form configures and builds
perfbench/ (which compiles the project's libraries from src/) into
$CARGO_TARGET_DIR (default .bench_build), runs the benchmark binary, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and the
`end_to_end` (--trace 0) or `per_layer` (--trace 1) metrics that
BENCHMARK.json declares. A per-layer metric the workload does not exercise
(see NOT_MEASURED) reads 0.

--self-check runs every workload once at reduced length, untraced and
traced, and checks that each declared metric is emitted, finite and above 0
and that the simulated metrics repeat exactly. --reference prints the
figures quoted in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["suite-oneshot", "serve-mixed", "feedback-loop"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Per-layer metrics a workload does not exercise: the layer is never
# called in its timed passes (or, for adapt.unattributed_ms, the benchmark does
# not call adaptWith itself, so nothing outside the stage timers can be told
# apart). They read 0 in that workload's traced output.
SERVE_ONLY = [
    "serve.batch_ms", "serve.hit_p50_ms", "serve.lookup_ms",
    "serve.respond_ms", "serve.request_kb_avg", "serve.miss_p50_ms",
    "serve.analysis_ms", "serve.adapt_ms", "serve.unattributed_ms",
    "serve.hits", "serve.misses", "serve.evictions", "serve.warm_builds",
]
FEEDBACK_ONLY = [
    "feedback.loop_ms", "feedback.round_ms", "feedback.rounds",
    "feedback.accepted_rounds", "feedback.decisions", "sim.stream_steps",
]
SIM = [
    "workloads.memory_ms", "ir.link_ms", "sim.exact_io_ms",
    "sim.exact_ooo_ms", "sim.exact_minst_per_s", "sim.skipped_cycle_share",
    "sim.useful_prefetch_share", "sim.spawn_drop_share",
    "sim.spec_inst_share",
]
SUITE_ONLY = [
    "ir.parse_ms", "ir.print_ms", "profile.run_ms", "adapt.unattributed_ms",
    "sim.sampled_ms", "sim.sampled_minst_per_s", "sim.sample_err_max_pct",
    "sim.sample_inst_mismatches",
]
NOT_MEASURED = {
    "suite-oneshot": SERVE_ONLY + FEEDBACK_ONLY,
    "serve-mixed": FEEDBACK_ONLY + SIM + SUITE_ONLY
    + ["analysis.build_ms", "adapt.slice_insts_avg", "codegen.added_insts"],
    "feedback-loop": SERVE_ONLY + SUITE_ONLY,
}
# Metrics that are simulated or counted, so they repeat exactly.
EXACT_UNITS = {"x", "count", "%"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "perfbench")


def run_build_step(cmd):
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True,
                       timeout=BUILD_TIMEOUT_S)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        log("error: build step failed: " + " ".join(cmd))
        sys.exit(1)


def run_bench(exe, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (its stdout lines, its result object)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log("error: perfbench exited with %d" % p.returncode)
        sys.exit(p.returncode or 1)
    return lines[:-1], json.loads(lines[-1])


def select(spec, workload, raw, trace):
    """Keeps the metrics BENCHMARK.json declares for this mode."""
    declared = spec["per_layer" if trace else "end_to_end"]
    got = raw["metrics"]
    out = {}
    for m in declared:
        name = m["name"]
        if name in got:
            out[name] = got[name]
        elif trace and name in NOT_MEASURED[workload]:
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            log("error: %s did not report %s" % (workload, name))
            sys.exit(1)
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": out}


def self_check(spec, exe):
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    all_ok = True
    for w in WORKLOADS:
        errors = []
        runs = []
        for trace in (0, 1):
            _, raw = run_bench(exe, w, 1, 1, trace)
            runs.append(raw)
            want = [m["name"] for m in spec["end_to_end"]]
            if trace:
                want += [m["name"] for m in spec["per_layer"]
                         if m["name"] not in NOT_MEASURED[w]]
            for name in want:
                m = raw["metrics"].get(name)
                if m is None or not math.isfinite(m["value"]) or m["value"] <= 0:
                    errors.append("trace=%d: %s = %r" % (trace, name, m))
                elif m["unit"] != units[name]:
                    errors.append("%s unit %s, declared %s"
                                  % (name, m["unit"], units[name]))
            if not raw["correct"]:
                errors.append("trace=%d: output checks failed" % trace)
        for name, m in runs[0]["metrics"].items():
            if m["unit"] in EXACT_UNITS and \
                    runs[1]["metrics"][name]["value"] != m["value"]:
                errors.append("%s differs between runs" % name)
        for e in errors:
            log("FAIL %s %s" % (w, e))
        log("%s %s: attempted %d, failed %d" % ("FAIL" if errors else "ok  ",
                                                w, runs[0]["attempted"],
                                                runs[0]["failed"]))
        all_ok = all_ok and not errors
    return all_ok


def reference(spec, exe, seconds):
    """Prints one untraced and one traced run per workload (seed 1)."""
    for w in WORKLOADS:
        detail, plain = run_bench(exe, w, 1, seconds, 0)
        _, traced = run_bench(exe, w, 1, seconds, 1)
        m, t = plain["metrics"], traced["metrics"]
        print("### %s (attempted %d, failed %d)\n" % (w, plain["attempted"],
                                                      plain["failed"]))
        print("| metric | untraced | traced |\n|---|---|---|")
        for d in spec["end_to_end"] + spec["per_layer"]:
            name = d["name"]
            if name in t and t[name]["value"] != 0:
                print("| `%s` | %s | %.4g %s |" % (
                    name, "%.4g" % m[name]["value"] if name in m else "",
                    t[name]["value"], d["unit"]))
        over = t["trace.pass_s"]["value"] / m["pass_s"]["value"] - 1
        print("\nTracing overhead %+.1f%% of pass_s; spans cover %.1f%% of "
              "the traced pass.\n" % (100 * over,
                                      100 * t["trace.coverage_share"]["value"]))
        for line in detail:
            print("    " + line)
        print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--reference", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build()
    spec = load_spec()
    if a.self_check:
        sys.exit(0 if self_check(spec, exe) else 1)
    if a.reference:
        reference(spec, exe, a.seconds)
        return
    if not a.workload:
        ap.error("--workload is required")
    detail, raw = run_bench(exe, a.workload, a.seed, a.seconds, a.trace)
    for line in detail:
        print(line)
    print(json.dumps(select(spec, a.workload, raw, a.trace)))


if __name__ == "__main__":
    main()
