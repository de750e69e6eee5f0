#!/usr/bin/env python3
"""A/B comparison of the benchmark harness between two git revisions.

Builds perfbench_harness for BASE and HEAD, each from its own temporary
git worktree into a clean build directory, then runs N pairs per
workload and seed, one process per run, alternating which side runs
first:

  scripts/ab.py BASE HEAD [--pairs 10] [--workload fleet100k-knee]
                [--seed 1 --seed 2] [--cpu 2] [--moves-events]

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the change of the medians, the pairs HEAD won, the
metric's bound from BENCHMARK.json and two marks. `status` compares the
change of the medians with the bound: "clears" when it is better by more
than the bound, "PAST" when it is worse by more, "within" otherwise.
`claim` is "met" when HEAD won at least 9 in 10 pairs and its median is
better than BASE's by more than BASE's interquartile range, "inside"
when HEAD's median lies within BASE's quartiles, and "better" or "WORSE"
when it lies outside them otherwise.

The simulated digest of a run is sim_ops_per_s, sim_op_p99_ms, attempted,
failed and the per-layer `sim` map. Exit status: 0 when every digest of
one workload and seed agrees across runs and revisions, 1 when one
differs (reported, not failed, with --moves-events, except a digest that
differs between runs of one revision), 2 on a build or harness error.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIM_KEYS = ("sim_ops_per_s", "sim_op_p99_ms", "attempted", "failed")
RUN_TIMEOUT_S = 300


def die(msg):
    print("ab: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args):
    p = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                       text=True)
    if p.returncode != 0:
        die("git %s: %s" % (" ".join(args), p.stderr.strip()))
    return p.stdout.strip()


def build(ref, src, bld, jobs):
    """Check `ref` out into the worktree `src`; return the harness."""
    git("worktree", "add", "--detach", src, ref)
    for cmd in (["cmake", "-S", os.path.join(src, "perfbench"), "-B", bld,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bld, "-j", str(jobs), "--target",
                 "perfbench_harness"]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            die("build of %s failed: %s" % (ref, " ".join(cmd)))
    return os.path.join(bld, "perfbench_harness")


def run(exe, cwd, workload, seed, cpu):
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    try:
        p = subprocess.run([exe, "--workload", workload, "--seed", str(seed)],
                           capture_output=True, text=True, cwd=cwd,
                           timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        die("%s %s seed %d timed out" % (exe, workload, seed))
    lines = p.stdout.strip().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die("%s %s seed %d exited %d without a result" %
            (exe, workload, seed, p.returncode))
    if p.returncode != 0 or r["failures"]:
        die("%s %s seed %d failed: %s" % (exe, workload, seed, r["failures"]))
    return r


def digest(r):
    return json.dumps({k: r[k] for k in SIM_KEYS} | {"sim": r["sim"]},
                      sort_keys=True)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def marks(m, base, head, wins):
    """The `bound` and `claim` marks of one metric (see the docstring)."""
    lower = m["better"] == "lower"
    bm, hm = statistics.median(base), statistics.median(head)
    gain = (bm - hm if lower else hm - bm) / bm if bm else 0.0
    bound = ("clears" if gain > m["bound"] else
             "PAST" if -gain > m["bound"] else "within")
    q1, q3 = quartiles(base)
    if wins * 10 >= 9 * len(base) and abs(hm - bm) > q3 - q1 and gain > 0:
        claim = "met"
    elif q1 <= hm <= q3:
        claim = "inside"
    else:
        claim = "better" if gain > 0 else "WORSE"
    return bound, claim


def report(workload, seed, metrics, base, head):
    print("\n%s, seed %d, %d pairs" % (workload, seed, len(base)))
    print("%-14s %-30s %-30s %9s %6s %6s %-7s %s" %
          ("metric", "base median [q1, q3]", "head median [q1, q3]",
           "change", "wins", "bound", "status", "claim"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        bm, hm = statistics.median(b), statistics.median(h)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        change = (hm - bm) / bm * 100 if bm else 0.0
        cell = "%.4g [%.4g, %.4g]"
        print("%-14s %-30s %-30s %+8.1f%% %3d/%-2d %5.0f%% %-7s %s" %
              ((name, cell % ((bm,) + quartiles(b)),
                cell % ((hm,) + quartiles(h)), change, wins, len(b),
                m["bound"] * 100) + marks(m, b, h, wins)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, action="append",
                    help="default: 1")
    ap.add_argument("--cpu", type=int,
                    help="pin every harness process to this core")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    ap.add_argument("--moves-events", action="store_true",
                    help="the change moves simulated events on purpose")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [1]
    refs = (git("rev-parse", "--verify", args.base + "^{commit}"),
            git("rev-parse", "--verify", args.head + "^{commit}"))
    print("base %s (%s), head %s (%s)" %
          (args.base, refs[0][:12], args.head, refs[1][:12]))

    work = tempfile.mkdtemp(prefix="ab-")
    trees = []
    try:
        sides = []
        for ref, side in zip(refs, ("base", "head")):
            src = os.path.join(work, "src-" + side)
            trees.append(src)
            exe = build(ref, src, os.path.join(work, "build-" + side),
                        args.jobs)
            sides.append((src, exe))
        status = 0
        for workload in workloads:
            for seed in seeds:
                runs = ([], [])
                for i in range(args.pairs):
                    for side in (0, 1) if i % 2 == 0 else (1, 0):
                        src, exe = sides[side]
                        runs[side].append(run(exe, src, workload, seed,
                                              args.cpu))
                    print("pair %d: wall %.3f / %.3f s, peak %.1f / %.1f MiB" %
                          (i + 1, runs[0][-1]["wall_s"], runs[1][-1]["wall_s"],
                           runs[0][-1]["peak_rss_mib"],
                           runs[1][-1]["peak_rss_mib"]), file=sys.stderr)
                report(workload, seed, spec["end_to_end"], *runs)
                digests = [{digest(r) for r in side} for side in runs]
                if any(len(d) != 1 for d in digests):
                    print("DIGEST differs between runs of one revision")
                    status = 1
                elif digests[0] != digests[1]:
                    print("DIGEST differs between base and head")
                    status = status or (0 if args.moves_events else 1)
                else:
                    print("digest identical")
        return status
    finally:
        for src in trees:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            src], capture_output=True)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
