#!/usr/bin/env python3
"""End-to-end benchmark for `ctdf run` and `ctdf serve`.

    python3 perfbench/run.py --workload kernels-run|serve-warm|serve-cold \
        --seed N --seconds S --trace 0|1

Builds the repo's `ctdf` and the benchmark's own `perfbench` helper
(perfbench/CMakeLists.txt, Release) under .bench_build/perfbench, makes
the workload's inputs from --seed, measures for --seconds, checks every
output against the reference interpreter, and prints each metric by name
with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
end-to-end metrics against the real binary; --trace 1 replays the same
inputs in-process and reports the per-layer metrics. See
perfbench/README.md for the workloads, metrics and how to read a trace.

Every timed end-to-end metric is scaled to a reference host speed: the
run also times `perfbench probe`, a fixed amount of the benchmark's own
work, in gaps around each timed segment, and multiplies the segment's
times by PROBE_REF_S over the median of the probes on both sides. The
unscaled values go to stderr and the results file.

--tiny (small kernels) and --corrupt-reference (a deliberately wrong
expected store, so the run must fail) exist for perfbench/smoke_test.py.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("kernels-run", "serve-warm", "serve-cold")
# Timed blocks of a run, by concurrency (w1 = one `ctdf run` or one
# serve worker, w2 = two), alternating so both phases see the host's
# load over the whole run.
BLOCKS = (1, 2) * 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "run_wall_ms.geomean": "ms",
    "sim_cycles": "cycles",
    "req_per_s.w1": "1/s",
    "req_per_s.w2": "1/s",
    "latency_p50_us.w1": "us",
}
# The probe's wall time, spawn to reap, at a quiet moment on the 4-vCPU
# Xeon (Sapphire Rapids) VM the benchmark was set up on, so scaled
# figures read as that host's own when nothing else loads it.
PROBE_REF_S = 0.035
# Probes in each gap: before the first timed segment (set-up pass or
# block), between segments and after the last.
PROBES_PER_GAP = 4


LAYER_UNITS = (("_ns", "ns"), ("ns_per_op", "ns"), ("_pct", "%"),
               ("_bytes", "bytes"), ("_ratio", "ratio"))


def layer_unit(name):
    stem = name.removesuffix(".w2")
    for suffix, unit in LAYER_UNITS:
        if stem.endswith(suffix):
            return unit
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


# --------------------------------------------------------------------------
# Build and host fingerprint


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "ctdf.cpp"
    ).is_file():
        fail(f"no ctdf sources (src/, tools/) under {ROOT}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "ctdf", "perfbench"])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = logf.read_text(errors="replace").splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD / "ctdf_tools" / "ctdf", BUILD / "perfbench"


def fingerprint():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text(errors="replace").splitlines():
        m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    if commit is None:
        # Not a git checkout: identify the measured code by content.
        h = hashlib.sha256()
        for top in ("src", "tools", "perfbench"):
            for p in sorted((ROOT / top).rglob("*")):
                if p.is_file():
                    h.update(str(p.relative_to(ROOT)).encode())
                    h.update(p.read_bytes())
        commit = "sources-sha256:" + h.hexdigest()[:16]
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": commit,
    }


# --------------------------------------------------------------------------
# Inputs


def render_corpus(seed, size):
    """The kernel corpus with its size set and seeded input constants.
    Returns [(name, source, options, print)]; `size` is run, pool or tiny."""
    corpus = json.loads((HERE / "kernels" / "corpus.json").read_text())
    out = []
    for k in corpus["kernels"]:
        rng = random.Random(f"{seed}:{k['name']}")
        consts = {c: rng.randint(lo, hi) for c, (lo, hi) in corpus["seed_ranges"].items()}
        sets = k[size] if isinstance(k[size], list) else [k[size]]
        template = (HERE / "kernels" / k["file"]).read_text()
        for j, params in enumerate(sets):
            values = dict(consts, **params)
            src = re.sub(r"@([A-Z0-9]+)@", lambda m: str(values[m.group(1)]), template)
            name = k["name"] if len(sets) == 1 else f"{k['name']}-{j}"
            out.append((name, src, k["options"], k["print"]))
    return out


def write_programs(path, programs):
    with open(path, "w") as f:
        for name, src, options, prints in programs:
            f.write(json.dumps({"name": name, "source": src, "options": options,
                                "print": prints}) + "\n")


# --------------------------------------------------------------------------
# kernels-run: `ctdf run`, one process (w1) or two (w2) at a time


def spawn(argv):
    r, w = os.pipe()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
    os.close(w)
    return pid, r


def collect(r):
    chunks = []
    while True:
        b = os.read(r, 65536)
        if not b:
            break
        chunks.append(b)
    os.close(r)
    return b"".join(chunks).decode(errors="replace")


def run_once(argv):
    """Runs argv to completion; returns (wall_s, stdout, exit_code, maxrss_kb)."""
    t = time.perf_counter()
    pid, r = spawn(argv)
    out = collect(r)
    _, status, ru = os.wait4(pid, 0)
    return time.perf_counter() - t, out, os.waitstatus_to_exitcode(status), ru.ru_maxrss


def store_lines(text):
    return [l for l in text.splitlines() if re.match(r"^[A-Za-z_]\w* = ", l)]


def probe_gap(perfbench):
    """Runs `perfbench probe` PROBES_PER_GAP times; returns each wall time."""
    walls = []
    for _ in range(PROBES_PER_GAP):
        wall, _, code, _ = run_once([str(perfbench), "probe"])
        if code != 0:
            fail("perfbench probe failed")
        walls.append(wall)
    return walls


def kernels_run(ctdf, perfbench, work, args):
    programs = render_corpus(args.seed, "tiny" if args.tiny else "run")
    kernels = []
    for name, src, options, prints in programs:
        path = work / f"{name}.ctdf"
        path.write_text(src)
        pflag = "--print=" + ",".join(prints)
        _, out, code, _ = run_once([str(ctdf), "interp", str(path), pflag])
        if code != 0:
            fail(f"reference interpreter failed on {name}")
        kernels.append({"name": name, "run": [str(ctdf), "run", str(path)] + options + [pflag],
                        "stats": [str(ctdf), "run", str(path)] + options + ["--stats-json"],
                        "expected": store_lines(out)})
    if args.corrupt_reference:
        kernels[0]["expected"] = [l + "1" for l in kernels[0]["expected"]]

    attempted = failed = 0
    rss_kb = 0
    # Probe gaps around every timed segment (set-up pass or block).
    gaps = []
    # Set-up: untimed warm-up passes over the corpus (page cache, binary,
    # allocator); each also reads the simulated cycles from --stats-json.
    setups, cycle_sets = [], []
    for _ in range(5):
        gaps.append(probe_gap(perfbench))
        t = time.perf_counter()
        cycles = {}
        for k in kernels:
            _, out, code, rss = run_once(k["stats"])
            attempted += 1
            rss_kb = max(rss_kb, rss)
            machine = json.loads(out)["machine"] if code == 0 else {}
            if not machine.get("completed"):
                failed += 1
                log(f"perfbench: warm-up run of {k['name']} failed")
            cycles[k["name"]] = machine.get("cycles", 0)
        setups.append((len(gaps) - 1, time.perf_counter() - t))
        cycle_sets.append(cycles)
    if any(c != cycle_sets[0] for c in cycle_sets):
        failed += 1
        log("perfbench: simulated cycles differ between identical runs")

    rng = random.Random(args.seed)
    order = []

    def next_kernel():
        if not order:
            order.extend(rng.sample(range(len(kernels)), len(kernels)))
        return kernels[order.pop()]

    # Blocks of one (w1) and two (w2) processes at a time, alternating so
    # both see the host over the whole run.
    blocks = []
    for workers in BLOCKS:
        gaps.append(probe_gap(perfbench))
        samples = []
        start = time.perf_counter()
        deadline = start + args.seconds / len(BLOCKS)
        live = {}  # pid -> (kernel, start, read fd)
        while live or time.perf_counter() < deadline:
            while len(live) < workers and time.perf_counter() < deadline:
                k = next_kernel()
                t = time.perf_counter()
                pid, r = spawn(k["run"])
                live[pid] = (k, t, r)
            pid, status, ru = os.wait4(-1, 0)
            end = time.perf_counter()
            k, t, r = live.pop(pid)
            out = collect(r)
            attempted += 1
            rss_kb = max(rss_kb, ru.ru_maxrss)
            if os.waitstatus_to_exitcode(status) != 0 or store_lines(out) != k["expected"]:
                failed += 1
                log(f"perfbench: {k['name']} differs from the reference: "
                    f"{store_lines(out)} != {k['expected']}")
            samples.append((k["name"], end - t))
        blocks.append({"segment": len(gaps) - 1, "workers": workers,
                       "elapsed": time.perf_counter() - start, "samples": samples})
    gaps.append(probe_gap(perfbench))

    untimed = {"peak_rss_mb": rss_kb / 1024, "sim_cycles": sum(cycle_sets[0].values())}
    log(f"  sim_cycles over {len(kernels)} kernels")
    return untimed, setups, blocks, gaps, attempted, failed


# --------------------------------------------------------------------------
# serve-warm / serve-cold, and every traced run: the perfbench helper


def helper(perfbench, ctdf, work, args, mode):
    cmd = [str(perfbench), mode, f"--ctdf={ctdf}", f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if mode == "serve":
        cmd.append("--blocks=" + ",".join(map(str, BLOCKS)))
    if args.workload != "serve-cold":
        programs = render_corpus(args.seed, "pool" if args.workload == "serve-warm"
                                 else ("tiny" if args.tiny else "run"))
        write_programs(work / "programs.jsonl", programs)
        cmd.append(f"--programs={work / 'programs.jsonl'}")
    if mode == "trace":
        cmd += [f"--work={work}", f"--spans={work / 'spans.jsonl'}"]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"perfbench {mode} failed (exit {r.returncode})")
    return json.loads(r.stdout.strip().splitlines()[-1])


def serve_run(ctdf, perfbench, work, args):
    out = helper(perfbench, ctdf, work, args, "serve")
    setups, blocks = [], []
    for i, b in enumerate(out["blocks"]):
        setups.append((i, b["setup_ns"] / 1e9))
        blocks.append({"segment": i, "workers": int(b["workers"]), "elapsed": b["seconds"],
                       "samples": [(name, ns / 1e9) for name, v in b["by_program"].items()
                                   for ns in v]})
    hits = sum(int(b["hits"]) for b in out["blocks"])
    untimed = {"peak_rss_mb": statistics.median(b["rss_kb"] for b in out["blocks"]) / 1024,
               "sim_cycles": out["sim_cycles"]}
    log(f"  {hits} cache hits; sim_cycles over {int(out['sim_cycles_programs'])} programs; "
        f"{len(setups)} set-ups")
    gaps = [[ns / 1e9 for ns in g] for g in out["gaps"]]
    return untimed, setups, blocks, gaps, int(out["attempted"]), int(out["failed"])


# --------------------------------------------------------------------------
# Timed metrics, scaled to the reference host speed


def timed_metrics(setups, blocks, gaps, scaled):
    """The timed end-to-end metrics. A timed segment (set-up or block) i
    sits between probe gaps i and i+1; scaled, its times are multiplied by
    PROBE_REF_S over the median of the probes on both sides."""
    f = [PROBE_REF_S / statistics.median(gaps[i] + gaps[i + 1]) if scaled else 1.0
         for i in range(len(gaps) - 1)]
    done, elapsed = {1: 0, 2: 0}, {1: 0.0, 2: 0.0}
    walls, by_program = [], {}
    for b in blocks:
        w, fb = b["workers"], f[b["segment"]]
        done[w] += len(b["samples"])
        elapsed[w] += b["elapsed"] * fb
        if w == 1:
            for name, s in b["samples"]:
                walls.append(s * fb)
                by_program.setdefault(name, []).append(s * fb)
    logs = [math.log(statistics.median(v)) for v in by_program.values()]
    return {
        "setup_s": statistics.median(s * f[i] for i, s in setups),
        "run_wall_ms.geomean": 1e3 * math.exp(sum(logs) / len(logs)),
        "req_per_s.w1": done[1] / elapsed[1],
        "req_per_s.w2": done[2] / elapsed[2],
        "latency_p50_us.w1": 1e6 * statistics.median(walls),
    }


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    ctdf, perfbench = build()
    host = fingerprint()
    work = BUILD / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    log(f"perfbench: {args.workload} seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}")

    unscaled, probe_s = None, None
    if args.trace:
        out = helper(perfbench, ctdf, work, args, "trace")
        values, attempted, failed = out["metrics"], int(out["attempted"]), int(out["failed"])
        units = {name: layer_unit(name) for name in values}
        log(f"  {int(out['traced'])} traced requests, {int(out['spans'])} spans "
            f"(kept in {work / 'spans.jsonl'})")
    else:
        run = kernels_run if args.workload == "kernels-run" else serve_run
        values, setups, blocks, gaps, attempted, failed = run(ctdf, perfbench, work, args)
        values["ok_ratio"] = (attempted - failed) / attempted
        values.update(timed_metrics(setups, blocks, gaps, scaled=True))
        unscaled = timed_metrics(setups, blocks, gaps, scaled=False)
        probes = [p for g in gaps for p in g]
        probe_s = statistics.median(probes)
        for w in (1, 2):
            n = sum(len(b["samples"]) for b in blocks if b["workers"] == w)
            log(f"  w{w}: {n} timed runs or requests")
        log(f"  host-speed probe: median {probe_s * 1e3:.2f} ms over {len(probes)} probes in "
            f"{len(gaps)} gaps, reference {PROBE_REF_S * 1e3:g} ms")
        log("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
        units = END_TO_END_UNITS

    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(units)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{work.name}.json").write_text(
        json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "result": result,
                    "probe_s": probe_s, "unscaled": unscaled}, indent=1) + "\n")

    print("# host " + json.dumps(host))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed {failed} of {attempted} attempted")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
