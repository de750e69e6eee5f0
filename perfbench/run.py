#!/usr/bin/env python3
"""Repository benchmark for the redbud simulator.

Builds the harness (perfbench/CMakeLists.txt: the redbud library from src/
plus perfbench_harness) into .bench_build/perfbench, runs one workload
under a seed and prints one JSON object as the last line of stdout:

  python3 perfbench/run.py --workload meta8-t2 --seed 1 --seconds 45 --trace 0

--trace 0  end-to-end metrics from untraced runs, repeated until --seconds
           have passed (at least three); host figures are medians.
--trace 1  the per-layer profile: untraced and traced runs of the seed,
           alternating until --seconds have passed (at least two pairs),
           and the layer call costs; host figures are medians.

Every run is its own process, so peak_rss_mib belongs to that one run.
Metric names and units come from BENCHMARK.json at the repository root.
Exit status: 0 when every correctness check passed, 1 when one failed
(the result is still printed), 2 when nothing could be measured.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("xcdn32k-dc", "meta8-t2", "fleet100k-knee")
MIN_RUNS = 3
RUN_TIMEOUT_S = 150  # one harness process
MEASURE_BUDGET_S = 150  # no new run starts past this (whole command < 180 s)

# Simulated outputs that must repeat exactly for one seed.
SIM_KEYS = ("sim_ops_per_s", "sim_op_p99_ms", "attempted", "failed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    for rel in ("src/CMakeLists.txt", "bench/common.hpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die("cannot build: %s not found (run from a full checkout)" % rel)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as e:
            die("cannot run %s: %s" % (cmd[0], e))
        if rc != 0:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_harness")


def harness(exe, args):
    """Run the harness once; returns (exit code, parsed JSON or None)."""
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("harness timed out: %s" % " ".join(args))
        return 124, None
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def digest(r):
    return json.dumps({k: r[k] for k in SIM_KEYS} | {"sim": r["sim"]},
                      sort_keys=True)


def check_run(rc, r, failures):
    if r is None:
        failures.append("harness exited %d without a result" % rc)
        return False
    failures.extend("%s seed %d: %s" % (r["workload"], r["seed"], f)
                    for f in r["failures"])
    if rc != 0 and not r["failures"]:
        failures.append("harness exited %d" % rc)
    return True


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, r, runs):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": r["run"]["build_type"],
        "compiler": r["run"]["compiler"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": r["run"]["kernel"],
        "kernel_workers": r["run"]["kernel_workers"],
        "workload": args.workload,
        "seed": args.seed,
        "sim_run_s": r["run"]["sim_run_s"],
        "runs": runs,
    }


def end_to_end(exe, args, failures):
    start = time.monotonic()
    runs = []
    while True:
        rc, r = harness(exe, ["--workload", args.workload,
                              "--seed", str(args.seed)])
        if not check_run(rc, r, failures):
            return None, runs
        runs.append(r)
        log("run %d: setup %.3f s, wall %.3f s, peak %.1f MiB" %
            (len(runs), r["setup_s"], r["wall_s"], r["peak_rss_mib"]))
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed >= args.seconds:
            break
        if elapsed + elapsed / len(runs) > MEASURE_BUDGET_S:
            break
    if len({digest(r) for r in runs}) != 1:
        failures.append("simulated outputs differ between runs of one seed")
    first = runs[0]
    values = {k: first[k] for k in ("sim_ops_per_s", "sim_op_p99_ms")}
    for k in ("wall_s", "setup_s", "peak_rss_mib"):
        values[k] = statistics.median(r[k] for r in runs)
    return values, runs


# Host-time share estimate per layer: (call cost, counts it multiplies).
EST_SHARES = {
    "sim.est_host_share": [("sim.call_dispatch_ns", "sim.events")],
    "client.est_host_share": [
        ("client.page_cache_get_ns", "client.page_cache_lookups"),
        ("client.commit_cycle_ns", "client.commit_enqueued")],
    "mds.est_host_share": [("mds.btree_insert_ns", "mds.commit_entries"),
                           ("mds.alloc_free_ns", "mds.space_allocs")],
    "storage.est_host_share": [("storage.submit_dispatch_ns",
                                "storage.io_submitted")],
    "net.est_host_share": [("net.rpc_roundtrip_ns", "net.rpc_calls")],
    "obs.est_host_share": [("obs.sample_ns", "obs.samples")],
}


def layer_profile(exe, args, failures):
    """Untraced and traced runs of the seed, alternating until --seconds
    have passed (at least two pairs), then the layer call costs."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    plain, traced = [], []
    while True:
        for extra, into in (([], plain), (["--traced"], traced)):
            rc, r = harness(exe, base + extra)
            if not check_run(rc, r, failures):
                return None, plain + traced
            into.append(r)
        log("pair %d: wall %.3f s untraced, %.3f s traced" %
            (len(plain), plain[-1]["wall_s"], traced[-1]["wall_s"]))
        elapsed = time.monotonic() - start
        if len(plain) >= 2 and elapsed >= args.seconds:
            break
        if elapsed + elapsed / len(plain) > MEASURE_BUDGET_S:
            break
    rc, calls = harness(exe, ["--layer-calls"])
    if calls is None or rc != 0:
        failures.append("layer call costs exited %d" % rc)
        return None, plain + traced
    if len({digest(r) for r in plain + traced}) != 1:
        failures.append("simulated outputs differ between runs of one seed "
                        "(traced or not)")

    def median(runs, key, field=None):
        return statistics.median((r[field] if field else r)[key]
                                 for r in runs)

    values = dict(plain[0]["sim"])
    values.update(traced[0]["trace"])
    values.update({k: median(plain, k, "host") for k in plain[0]["host"]})
    values["obs.blame_analyze_s"] = median(traced, "obs.blame_analyze_s",
                                           "trace")
    values.update(calls["layer_calls"])
    wall = median(plain, "wall_s")
    values["obs.trace_wall_ratio"] = median(traced, "wall_s") / wall
    values["obs.trace_peak_rss_mib"] = median(traced, "peak_rss_mib")
    for name, terms in EST_SHARES.items():
        values[name] = sum(values[c] * values[n] for c, n in terms) / (
            wall * 1e9)
    return values, plain + traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die("cannot read %s: %s" % (spec_path, e))
    exe = build()

    failures = []
    if args.trace:
        wanted = spec["per_layer"]
        values, runs = layer_profile(exe, args, failures)
    else:
        wanted = spec["end_to_end"]
        values, runs = end_to_end(exe, args, failures)
    if values is None:
        log("\n".join(failures))
        die("no result")

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        else:
            failures.append("metric %s not produced" % m["name"])
    print(json.dumps({"provenance": provenance(args, runs[0], len(runs))}))
    for f in failures:
        log("CHECK FAILED: " + f)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
