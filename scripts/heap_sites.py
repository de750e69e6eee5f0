#!/usr/bin/env python3
"""Live heap bytes per call site at the heap's peak.

Builds scripts/heap_sites.cpp into an LD_PRELOAD library, runs COMMAND
under it, and prints the sites that held the most live operator-new
bytes at the heap's peak, each with its frames symbolized by addr2line:

  scripts/heap_sites.py [--top 25] [--out-dir DIR] -- COMMAND [ARGS...]

For example, the durable image of the metadata-bound workload:

  scripts/heap_sites.py --top 15 -- \\
      .bench_build/perfbench/perfbench_harness --workload meta8-t2 --seed 1

A site is the innermost 4 return addresses of an allocation (outside
the library). The peak is the highest live total seen; the breakdown is
a snapshot taken within 64 KiB of it. Symbols need a build with debug
info (perfbench builds RelWithDebInfo). Only operator new is counted:
malloc and the kernel's page tables are not, so the total sits below
the process's peak RSS. The library replaces operator
new for the whole process, so a program that replaces it itself (the
AllocGate test binary) cannot be measured.
"""
import argparse
import collections
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def build(out_dir):
    so = os.path.join(out_dir, "heap_sites.so")
    cmd = ["g++", "-std=c++20", "-O2", "-g", "-fPIC", "-shared", "-o", so,
           os.path.join(HERE, "heap_sites.cpp"), "-ldl"]
    if subprocess.run(cmd).returncode != 0:
        sys.exit("heap_sites: cannot build the preload library")
    return so


def symbolize(frames):
    """Map each "module+0xoff" frame to "function (file:line)"."""
    by_module = collections.defaultdict(set)
    for f in frames:
        module, _, off = f.rpartition("+")
        if module:
            by_module[module].add(off)
    names = {}
    for module, offs in by_module.items():
        offs = sorted(offs)
        out = subprocess.run(["addr2line", "-f", "-C", "-e", module] + offs,
                             capture_output=True, text=True).stdout
        lines = out.splitlines()
        for i, off in enumerate(offs):
            if 2 * i + 1 >= len(lines):
                break
            func, loc = lines[2 * i], lines[2 * i + 1]
            if func == "??":
                func = os.path.basename(module) + "+" + off
            loc = loc.split(" (discriminator")[0]
            if loc.startswith("??"):
                loc = ""
            names[module + "+" + off] = func + (" (%s)" % shorten(loc)
                                                if loc else "")
    return names


def shorten(loc):
    """Keep the source path from its repository directory on."""
    for marker in ("/src/", "/perfbench/", "/bench/", "/tests/",
                   "/include/c++/"):
        at = loc.find(marker)
        if at >= 0:
            return loc[at + 1:]
    return os.path.basename(loc)


def mib(n):
    return n / (1 << 20)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--top", type=int, default=25,
                    help="sites to print (default 25)")
    ap.add_argument("--out-dir",
                    help="where the library and raw tally go "
                         "(default: a temporary directory)")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no COMMAND given")

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="heap_sites.")
    os.makedirs(out_dir, exist_ok=True)
    so = build(out_dir)
    raw = os.path.join(out_dir, "heap_sites.raw")
    env = dict(os.environ, LD_PRELOAD=so, HEAP_SITES_OUT=raw)
    rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
    if not os.path.isfile(raw):
        sys.exit("heap_sites: the command wrote no tally (exit %d)" % rc)

    with open(raw) as f:
        head = f.readline().split()
        peak, snap = int(head[1]), int(head[3])
        sites = []
        for line in f:
            parts = line.split()
            sites.append((int(parts[0]), int(parts[1]), parts[2:]))
    sites.sort(key=lambda s: -s[0])
    shown = sites[:args.top]
    names = symbolize({fr for s in shown for fr in s[2] if fr != "?"})

    print("peak live operator-new bytes: %.2f MiB (snapshot at %.2f MiB, "
          "%d sites live)" % (mib(peak), mib(snap), len(sites)))
    print("command exit status: %d" % rc)
    for live, blocks, frames in shown:
        print("\n%8.3f MiB %5.1f %% %9d blocks" %
              (mib(live), 100.0 * live / snap if snap else 0.0, blocks))
        for fr in frames:
            print("    " + names.get(fr, fr))
    rest = sum(s[0] for s in sites[args.top:])
    print("\n%8.3f MiB in the other %d sites" % (mib(rest),
                                                 max(0, len(sites) - args.top)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
