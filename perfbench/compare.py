#!/usr/bin/env python3
"""Compares the metrics of two saved benchmark runs.

    python3 perfbench/compare.py BASE.out NEW.out

Each file is the standard output of one `perfbench/run.py` run.  The
first line of each is the host fingerprint (CPU model, core count, L3
size, SIMD tier).  When the fingerprints differ the numbers come from
different machines: the script says so and exits 2 without comparing.
Otherwise it prints every metric of the final JSON line with its ratio
NEW / BASE.
"""
import json
import sys


def load(path):
    with open(path) as f:
        lines = f.read().splitlines()
    host = None
    for line in lines:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
            break
    return host, json.loads(lines[-1])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_host, base = load(sys.argv[1])
    new_host, new = load(sys.argv[2])
    if base_host != new_host:
        print("HOST MISMATCH, not comparing:")
        print("  base: %s" % json.dumps(base_host))
        print("  new:  %s" % json.dumps(new_host))
        sys.exit(2)
    print("%-28s %14s %14s %8s" % ("metric", "base", "new", "new/base"))
    for name, metric in sorted(base["metrics"].items()):
        other = new["metrics"].get(name)
        if other is None:
            print("%-28s %14.6g %14s" % (name, metric["value"], "missing"))
            continue
        ratio = (other["value"] / metric["value"]) if metric["value"] else 0
        print("%-28s %14.6g %14.6g %8.3f %s" % (
            name, metric["value"], other["value"], ratio, metric["unit"]))


if __name__ == "__main__":
    main()
