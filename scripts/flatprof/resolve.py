#!/usr/bin/env python3
"""Resolve a flatprof dump against the profiled binary.

    resolve.py <binary> <flatprof.out> [rows]

Prints the leaf table (where the program counter was), then, for samples
whose leaf lies outside the binary (libc: the allocator, memmove, memset),
the same samples keyed by their first three callers inside the binary —
the table that says *whose* malloc and *whose* memmove it was.
"""
import bisect
import collections
import re
import subprocess
import sys


def symbols(binary):
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                         capture_output=True, text=True, check=True).stdout
    table = []
    for line in out.splitlines():
        addr, kind, name = line.split(" ", 2)
        if kind in "tTwW":
            table.append((int(addr, 16), re.sub(r"::h[0-9a-f]{16}$", "", name)))
    return [a for a, _ in table], [n for _, n in table]


def main():
    binary, dump = sys.argv[1], sys.argv[2]
    rows = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    samples, maps = [], []
    with open(dump) as f:
        for line in f:
            if line.startswith("--- maps"):
                break
            samples.append([int(a, 16) for a in line.split()])
        for line in f:
            part = line.split()
            if len(part) >= 6:
                lo, hi = (int(x, 16) for x in part[0].split("-"))
                maps.append((lo, hi, int(part[2], 16), part[5]))
    # Load base of each file: where its offset-0 mapping starts.
    base = {path: lo for lo, _, off, path in maps if off == 0}
    exe = next(p for p in base if p.endswith("/" + binary.rsplit("/", 1)[-1]))
    addrs, names = symbols(binary)

    def resolve(addr):
        """(in_binary, label) of one code address."""
        for lo, hi, _, path in maps:
            if lo <= addr < hi:
                if path != exe:
                    return False, path.rsplit("/", 1)[-1]
                i = bisect.bisect_right(addrs, addr - base[exe]) - 1
                return True, names[i] if i >= 0 else "?"
        return False, "?"

    leaves, foreign = collections.Counter(), collections.Counter()
    for stack in samples:
        if not stack:
            continue
        # Every frame but the first is a return address: step back into the call.
        frames = [resolve(a - (1 if depth else 0)) for depth, a in enumerate(stack)]
        inside, leaf = frames[0]
        leaves[leaf] += 1
        if not inside:
            callers = [name for own, name in frames[1:] if own][:3]
            foreign[(leaf, " <- ".join(callers) or "?")] += 1

    total = sum(leaves.values())
    print(f"{total} samples\n\nleaf")
    for name, n in leaves.most_common(rows):
        print(f"{100 * n / total:6.2f}%  {n:6d}  {name}")
    print("\nleaves outside the binary, by their first three callers inside it")
    for (leaf, callers), n in foreign.most_common(rows):
        print(f"{100 * n / total:6.2f}%  {n:6d}  {leaf}: {callers}")


if __name__ == "__main__":
    main()
