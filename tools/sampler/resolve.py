#!/usr/bin/env python3
"""Resolve a sampler.out file (see sampler.c) into self and inclusive profiles.

Each sample is the interrupted PC followed by the return addresses of its
callers. Addresses are mapped to (object file, file offset) through the
/proc/self/maps the sampler saved at exit, then named with one `addr2line`
call per object file.

  python3 tools/sampler/resolve.py sampler.out [--top N]

Prints the N functions with the most samples at the PC (self) and the N that
appear anywhere on the sampled stacks (inclusive: each function counted once
per sample), as percentages of all samples.
"""

import argparse
import bisect
import collections
import functools
import subprocess
import sys


def read(path):
    samples, maps, in_maps = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("--- maps"):
                in_maps = True
            elif in_maps:
                fields = line.split()
                if len(fields) >= 6 and "x" in fields[1] and fields[5].startswith("/"):
                    lo, hi = (int(a, 16) for a in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif line.strip():
                samples.append([int(a, 16) for a in line.split()])
    maps.sort()
    return samples, maps


@functools.lru_cache(maxsize=None)
def elf_is_exec(path):
    """True for a non-PIE executable, whose addresses are link-time ones."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return len(header) == 18 and header[:4] == b"\x7fELF" and header[16] == 2


def locate(maps, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    lo, _, offset, path = maps[i]
    return path, addr if elf_is_exec(path) else addr - lo + offset


def symbolize(by_object):
    names = {}
    for path, offsets in by_object.items():
        offsets = sorted(offsets)
        try:
            out = subprocess.run(["addr2line", "-f", "-C", "-e", path] + [hex(o) for o in offsets],
                                 capture_output=True, text=True, check=True).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            out = []
        for k, off in enumerate(offsets):
            fn = out[2 * k] if 2 * k < len(out) else "??"
            names[(path, off)] = fn if fn != "??" else "%s+%#x" % (path.rsplit("/", 1)[-1], off)
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    samples, maps = read(args.samples)
    starts = [m[0] for m in maps]
    # Return addresses point after the call: step back into it.
    stacks = [[locate(maps, starts, a if i == 0 else a - 1) for i, a in enumerate(s)]
              for s in samples]
    by_object = collections.defaultdict(set)
    for stack in stacks:
        for loc in stack:
            if loc is not None:
                by_object[loc[0]].add(loc[1])
    names = symbolize(by_object)

    def name(loc):
        return names[loc] if loc is not None else "[unknown]"

    self_counts, incl_counts = collections.Counter(), collections.Counter()
    for stack in stacks:
        self_counts[name(stack[0])] += 1
        incl_counts.update(set(name(loc) for loc in stack))

    n = max(len(stacks), 1)
    print("samples %d" % len(stacks))
    for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
        print("\n%s" % title)
        for fn, c in counts.most_common(args.top):
            print("%6.2f%%  %7d  %s" % (100.0 * c / n, c, fn))
    return 0


if __name__ == "__main__":
    sys.exit(main())
