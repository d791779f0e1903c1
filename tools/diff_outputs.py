#!/usr/bin/env python3
"""Diff every bench's and example's output between two builds.

usage: tools/diff_outputs.py PARENT_BUILD CHANGE_BUILD [--jobs N]

Runs each `bench_*` binary except `bench_micro` with `--json=FILE`, and
each `example_*` binary with no arguments, in both build directories. The
simulators run in virtual time, so a change that keeps the simulated
behaviour prints the same bytes: the script compares stdout, the exit
status and the JSON file byte for byte, lists each mismatch, and exits 1
when there is one (0 when every output is identical).
"""

import argparse
import concurrent.futures
import os
import subprocess
import sys
import tempfile


def binaries(build):
    names = []
    for name in os.listdir(build):
        path = os.path.join(build, name)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        if (name.startswith("bench_") and name != "bench_micro") or name.startswith("example_"):
            names.append(name)
    return names


def run(build, name, scratch):
    """Returns (stdout bytes, exit status, JSON bytes or None)."""
    outdir = tempfile.mkdtemp(prefix=name + ".", dir=scratch)
    json_path = os.path.join(outdir, name + ".json")
    args = [os.path.join(os.path.abspath(build), name)]
    if name.startswith("bench_"):
        args.append("--json=" + json_path)
    proc = subprocess.run(args, cwd=outdir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    payload = None
    if os.path.exists(json_path):
        with open(json_path, "rb") as f:
            payload = f.read()
    return proc.stdout, proc.returncode, payload


def first_difference(a, b):
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i in range(max(len(a_lines), len(b_lines))):
        x = a_lines[i] if i < len(a_lines) else b"<end of output>"
        y = b_lines[i] if i < len(b_lines) else b"<end of output>"
        if x != y:
            return "line %d:\n      parent: %s\n      change: %s" % (
                i + 1, x.decode(errors="replace"), y.decode(errors="replace"))
    return "same lines, different bytes"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_build")
    parser.add_argument("change_build")
    parser.add_argument("--jobs", type=int, default=2, help="binaries run at once (default 2)")
    args = parser.parse_args()

    builds = {"parent": args.parent_build, "change": args.change_build}
    found = {side: set(binaries(path)) for side, path in builds.items()}
    names = sorted(found["parent"] | found["change"])
    mismatches = []
    for name in names:
        for side in builds:
            if name not in found[side]:
                mismatches.append("%s: missing from the %s build" % (name, side))
    common = [n for n in names if n in found["parent"] and n in found["change"]]

    compared = 0
    with tempfile.TemporaryDirectory(prefix="diff_outputs.") as scratch:
        with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            futures = {(n, side): pool.submit(run, builds[side], n, scratch)
                       for n in common for side in builds}
            for name in common:
                (p_out, p_rc, p_json) = futures[(name, "parent")].result()
                (c_out, c_rc, c_json) = futures[(name, "change")].result()
                compared += 1
                if p_rc != c_rc:
                    mismatches.append("%s: exit status %d -> %d" % (name, p_rc, c_rc))
                if p_out != c_out:
                    mismatches.append("%s: stdout differs at %s" % (name, first_difference(p_out, c_out)))
                status = "" if c_rc == 0 else ", exit %d" % c_rc
                if p_json is None and c_json is None:
                    print("%-36s stdout %s%s" % (name, "ok" if p_out == c_out else "DIFFERS", status))
                    continue
                compared += 1
                if p_json is None or c_json is None:
                    mismatches.append("%s: JSON written only by the %s build" %
                                      (name, "change" if p_json is None else "parent"))
                elif p_json != c_json:
                    mismatches.append("%s: JSON differs at %s" % (name, first_difference(p_json, c_json)))
                print("%-36s stdout %s, JSON %s%s" % (name, "ok" if p_out == c_out else "DIFFERS",
                                                     "ok" if p_json == c_json else "DIFFERS", status))

    print("\n%d outputs of %d binaries compared, %d mismatches" %
          (compared, len(common), len(mismatches)))
    for m in mismatches:
        print("  MISMATCH " + m)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
