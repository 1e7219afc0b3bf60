#!/usr/bin/env python3
"""Machine-simulator benchmark gate.

Runs the micro_components google-benchmark harness, extracts the
simulator's operator throughput (BM_MachineTokenThroughput), the
frame-store matching rate (BM_MachineMatchThroughput), the graph →
ExecProgram lowering time (BM_LowerExecProgram), the latency-bound
workload (BM_MachineIdleCycles), the context-churn workload
(BM_FrameAlloc), the four-PE issue path (BM_MachineMultiPE, arg 0 =
placed by context / 1 = by node), the fault-machinery overhead pair
(BM_MachineFaultsOff, arg 0 = legacy path / 1 = fault path engaged
with zero rates), the run-budget cost pair
(BM_MachineBudgetOverhead, arg 0 = no budget / 1 = armed but
unreachable deadline + token ceiling), the integrity-checker cost pair
(BM_MachineIntegrityOverhead, arg 0 = --check=off / 1 =
--check=integrity), the macro-op fusion pair (BM_MachineFusedChains,
arg 0 = cleanup passes only / 1 = --opt=all), the deterministic
recovery cost (BM_MachineFaultRecovery, cycles per run), and the
serve front-end's compile-once economics (BM_ServeWarmVsCold,
arg 0 = a cold server per request / 1 = a primed program cache; the
warm path must beat the cold path by --serve-warm-speedup-floor, a
within-run ratio, so it is host-independent), and writes them to a
JSON summary (BENCH_machine.json).

With --check BASELINE it additionally compares against a committed
baseline and exits non-zero on a regression beyond --tolerance
(default 25%, or a per-section override): throughput/match/context
rates lower, or lowering time / recovery cycles higher. It also
holds the engaged-but-faultless path to within --faults-overhead-floor
of the legacy path, holds the armed-but-unreachable run budget to
within --budget-overhead-floor of the unbudgeted path, and holds
--check=integrity to within --integrity-overhead-floor of the
unchecked path (the ratios are measured within one run, so they
are host-independent). Macro-op fusion must *speed up* the chain-heavy
workload by at least --fusion-speedup-floor: the fused row simulates
the same program in fewer token matches, so falling under the floor
means the fusion pass or the macro firing path lost its advantage.
The checking-off row of the integrity pair is also gated against the
baseline, which pins "off costs nothing": any tax the checker imposed
on unchecked runs would show up there.

Usage:
  scripts/bench_machine.py --bench build/bench/micro_components \
      --out BENCH_machine.json [--check BENCH_machine.json]

Regenerating the committed baseline (after an intentional perf change,
on a quiet machine, from a Release build):

  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j --target micro_components
  scripts/bench_machine.py --bench build/bench/micro_components --record

--record rewrites BENCH_machine.json in place (keys sorted, trailing
newline — byte-stable for a given set of numbers) and skips the
regression check; commit the result together with the change that
motivated it.
"""

import argparse
import json
import re
import subprocess
import sys

FILTER = "|".join(
    [
        "BM_MachineTokenThroughput",
        "BM_MachineMatchThroughput",
        "BM_MachineIdleCycles",
        "BM_MachineFaultsOff",
        "BM_MachineBudgetOverhead",
        "BM_MachineIntegrityOverhead",
        "BM_MachineFusedChains",
        "BM_MachineFaultRecovery",
        "BM_FrameAlloc",
        "BM_MachineMultiPE",
        "BM_ServeWarmVsCold",
        "BM_LowerExecProgram/",  # skip the _BigO/_RMS aggregate rows
    ]
)

# section -> (benchmark prefix, counter key, higher_is_better
#             [, tolerance override])
# BM_MachineFaultRecovery reports *simulated* cycles — a deterministic
# function of the fault seed, so any baseline drift there is a real
# semantic change, not noise; gate it tightly.
SECTIONS = {
    "machine_ops_per_s": ("BM_MachineTokenThroughput", "ops/s", True),
    "matches_per_s": ("BM_MachineMatchThroughput", "matches/s", True),
    "idle_ops_per_s": ("BM_MachineIdleCycles", "ops/s", True),
    "faults_off_ops_per_s": ("BM_MachineFaultsOff", "ops/s", True),
    "budget_ops_per_s": ("BM_MachineBudgetOverhead", "ops/s", True),
    "integrity_ops_per_s": ("BM_MachineIntegrityOverhead", "ops/s", True),
    "fused_runs_per_s": ("BM_MachineFusedChains", "runs/s", True),
    "fault_recovery_cycles": ("BM_MachineFaultRecovery", "cycles/run",
                              False, 0.05),
    "serve_req_per_s": ("BM_ServeWarmVsCold", "req/s", True),
    "frame_ctxs_per_s": ("BM_FrameAlloc", "ctxs/s", True),
    "multi_pe_ops_per_s": ("BM_MachineMultiPE", "ops/s", True),
    "lowering_ns": ("BM_LowerExecProgram", "real_time", False),
}


def run_bench(bench_path):
    cmd = [
        bench_path,
        f"--benchmark_filter={FILTER}",
        "--benchmark_format=json",
        # Shuffle repeated benchmarks (BM_MachineFaultsOff) so frequency
        # drift doesn't land entirely on one side of the overhead ratio.
        "--benchmark_enable_random_interleaving=true",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed ({proc.returncode})")
    return json.loads(proc.stdout)


def summarize(report):
    out = {section: {} for section in SECTIONS}
    for b in report.get("benchmarks", []):
        # Repeated benchmarks report aggregates only; keep the median
        # row under the plain benchmark name.
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
        name = re.sub(r"/repeats:\d+|_median", "",
                      b["name"].replace("/real_time", ""))
        for section, spec in SECTIONS.items():
            prefix, key = spec[0], spec[1]
            if name.startswith(prefix) and key in b:
                out[section][name] = b[key]
                break
    return out


def faults_overhead(summary):
    """Engaged-but-faultless over legacy-path throughput ratio on
    BM_MachineFaultsOff, or None when either row is missing. Both rows
    come from the same run, so the ratio is host-independent."""
    rows = summary.get("faults_off_ops_per_s", {})
    legacy = rows.get("BM_MachineFaultsOff/0")
    engaged = rows.get("BM_MachineFaultsOff/1")
    if not legacy or not engaged:
        return None
    return engaged / legacy


def budget_overhead(summary):
    """Armed-but-unreachable budget over no-budget throughput ratio on
    BM_MachineBudgetOverhead, or None when either row is missing. Both
    rows come from the same run, so the ratio is host-independent. The
    arg-1 row pays the strided deadline poll plus the per-firing token
    compare without ever tripping — the cost every deadline-carrying
    serve request bears."""
    rows = summary.get("budget_ops_per_s", {})
    plain = rows.get("BM_MachineBudgetOverhead/0")
    armed = rows.get("BM_MachineBudgetOverhead/1")
    if not plain or not armed:
        return None
    return armed / plain


def integrity_overhead(summary):
    """--check=integrity over --check=off throughput ratio on
    BM_MachineIntegrityOverhead, or None when either row is missing.
    Measured within one run, so host-independent. The arg-0 (checking
    off) row is separately gated against the baseline, which is what
    pins the "off costs nothing" half of the contract."""
    rows = summary.get("integrity_ops_per_s", {})
    off = rows.get("BM_MachineIntegrityOverhead/0")
    on = rows.get("BM_MachineIntegrityOverhead/1")
    if not off or not on:
        return None
    return on / off


def fusion_speedup(summary):
    """Fused over unfused simulated-run rate on BM_MachineFusedChains,
    or None when either row is missing. Both rows simulate the same
    program from the same compile options modulo the fuse pass, within
    one benchmark run, so the ratio is host-independent."""
    rows = summary.get("fused_runs_per_s", {})
    unfused = rows.get("BM_MachineFusedChains/0")
    fused = rows.get("BM_MachineFusedChains/1")
    if not unfused or not fused:
        return None
    return fused / unfused


def serve_warm_speedup(summary):
    """Warm-over-cold request rate on BM_ServeWarmVsCold, or None when
    either row is missing. Cold pays a full compile per request, warm a
    program-cache hit plus execution; both rows come from the same run,
    so the ratio is host-independent."""
    rows = summary.get("serve_req_per_s", {})
    cold = rows.get("BM_ServeWarmVsCold/0")
    warm = rows.get("BM_ServeWarmVsCold/1")
    if not cold or not warm:
        return None
    return warm / cold


def check(current, baseline, tolerance, overhead_floor, budget_floor,
          integrity_floor, fusion_floor, serve_floor):
    failures = []

    def compare(section, spec):
        key, higher = spec[1], spec[2]
        tol = spec[3] if len(spec) > 3 else tolerance
        for name, base in baseline.get(section, {}).items():
            now = current.get(section, {}).get(name)
            if now is None or base <= 0:
                continue
            ratio = now / base
            bad = ratio < 1.0 - tol if higher else ratio > 1.0 + tol
            flag = "REGRESSION" if bad else "ok"
            print(f"  {name}: {base:.3g} -> {now:.3g} "
                  f"({ratio:.1%} of baseline, {key}, "
                  f"tol {tol:.0%}) {flag}")
            if bad:
                failures.append(name)

    print("throughput (higher is better):")
    for section, spec in SECTIONS.items():
        if spec[2]:
            compare(section, spec)
    print("time / simulated cycles (lower is better):")
    for section, spec in SECTIONS.items():
        if not spec[2]:
            compare(section, spec)

    overhead = faults_overhead(current)
    if overhead is not None:
        flag = "ok" if overhead >= overhead_floor else "REGRESSION"
        print(f"fault-path overhead on BM_MachineFaultsOff: "
              f"{overhead:.1%} of legacy throughput "
              f"(floor {overhead_floor:.0%}) {flag}")
        if overhead < overhead_floor:
            failures.append("faults-off-overhead")

    budget = budget_overhead(current)
    if budget is not None:
        flag = "ok" if budget >= budget_floor else "REGRESSION"
        print(f"armed-budget overhead on BM_MachineBudgetOverhead: "
              f"{budget:.1%} of unbudgeted throughput "
              f"(floor {budget_floor:.0%}) {flag}")
        if budget < budget_floor:
            failures.append("budget-overhead")

    integ = integrity_overhead(current)
    if integ is not None:
        flag = "ok" if integ >= integrity_floor else "REGRESSION"
        print(f"integrity-checking overhead on BM_MachineIntegrityOverhead: "
              f"{integ:.1%} of unchecked throughput "
              f"(floor {integrity_floor:.0%}) {flag}")
        if integ < integrity_floor:
            failures.append("integrity-overhead")

    fusion = fusion_speedup(current)
    if fusion is not None:
        flag = "ok" if fusion >= fusion_floor else "REGRESSION"
        print(f"macro-op fusion speedup on BM_MachineFusedChains: "
              f"{fusion:.2f}x (floor {fusion_floor:.2f}x) {flag}")
        if fusion < fusion_floor:
            failures.append("fusion-speedup")

    serve = serve_warm_speedup(current)
    if serve is not None:
        flag = "ok" if serve >= serve_floor else "REGRESSION"
        print(f"serve warm-over-cold speedup on BM_ServeWarmVsCold: "
              f"{serve:.2f}x (floor {serve_floor:.2f}x) {flag}")
        if serve < serve_floor:
            failures.append("serve-warm-speedup")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", required=True,
                    help="path to the micro_components binary")
    ap.add_argument("--out", default="BENCH_machine.json",
                    help="summary JSON to write")
    ap.add_argument("--check", metavar="BASELINE",
                    help="baseline JSON to compare against")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the baseline (--out) in place and skip "
                         "the regression check; see the module docstring "
                         "for the full regeneration workflow")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative regression (default 0.25)")
    ap.add_argument("--faults-overhead-floor", type=float, default=0.95,
                    help="required engaged-but-faultless/legacy "
                         "throughput ratio on BM_MachineFaultsOff "
                         "(default 0.95, i.e. at most 5%% overhead)")
    ap.add_argument("--budget-overhead-floor", type=float, default=0.95,
                    help="required armed-but-unreachable-budget/no-budget "
                         "throughput ratio on BM_MachineBudgetOverhead "
                         "(default 0.95, i.e. at most 5%% overhead for "
                         "the strided deadline poll + token compare)")
    ap.add_argument("--integrity-overhead-floor", type=float, default=0.75,
                    help="required --check=integrity/--check=off "
                         "throughput ratio on BM_MachineIntegrityOverhead "
                         "(default 0.75, i.e. at most a 1.33x slowdown "
                         "with checking on; measured ~0.90)")
    ap.add_argument("--fusion-speedup-floor", type=float, default=1.15,
                    help="required fused/unfused run-rate ratio on the "
                         "chain-heavy workload BM_MachineFusedChains "
                         "(default 1.15)")
    ap.add_argument("--serve-warm-speedup-floor", type=float, default=5.0,
                    help="required warm/cold request-rate ratio on "
                         "BM_ServeWarmVsCold (default 5.0): a cached "
                         "serve request skips the whole compile, so the "
                         "warm path must be at least this much faster")
    args = ap.parse_args()

    summary = summarize(run_bench(args.bench))
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    if args.record:
        overhead = faults_overhead(summary)
        if overhead is not None:
            print(f"fault-path overhead on BM_MachineFaultsOff: "
                  f"{overhead:.1%} of legacy throughput")
        budget = budget_overhead(summary)
        if budget is not None:
            print(f"armed-budget overhead on BM_MachineBudgetOverhead: "
                  f"{budget:.1%} of unbudgeted throughput")
        integ = integrity_overhead(summary)
        if integ is not None:
            print(f"integrity-checking overhead on "
                  f"BM_MachineIntegrityOverhead: {integ:.1%} of "
                  f"unchecked throughput")
        fusion = fusion_speedup(summary)
        if fusion is not None:
            print(f"macro-op fusion speedup on BM_MachineFusedChains: "
                  f"{fusion:.2f}x")
        serve = serve_warm_speedup(summary)
        if serve is not None:
            print(f"serve warm-over-cold speedup on BM_ServeWarmVsCold: "
                  f"{serve:.2f}x")
        print("baseline recorded; commit it with the change that "
              "motivated the new numbers")
        return 0

    if args.check:
        with open(args.check) as f:
            baseline = json.load(f)
        failures = check(summary, baseline, args.tolerance,
                         args.faults_overhead_floor,
                         args.budget_overhead_floor,
                         args.integrity_overhead_floor,
                         args.fusion_speedup_floor,
                         args.serve_warm_speedup_floor)
        if failures:
            print(f"FAIL: {len(failures)} benchmark(s) regressed beyond "
                  f"{args.tolerance:.0%}: {', '.join(failures)}")
            return 1
        print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
