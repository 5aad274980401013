#!/usr/bin/env python3
"""Summarise a dilu_sampler.<pid>.txt profile written by sampler.cc.

Usage:

    python3 tools/prof/report.py dilu_sampler.<pid>.txt

Each sample is a list of PCs, innermost first. A PC is charged to the
symbol that encloses it (`nm -n -C` over the mapped file; a return
address is looked up one byte back, inside its call). A PC in a file
without a symbol table (a stripped shared library such as libc or
libm) is charged to the file by name: `nm -D` lists only exported
symbols, so it would name an exported neighbour for glibc's internal
malloc. Inlined code counts to its caller.

The report prints the TOP (25) largest shares in two tables: `self`,
the share of samples whose innermost PC lies in the symbol, and
`within FRAMES (8) frames`, the share of samples with the symbol
anywhere in their FRAMES innermost frames (counted once per sample).
Exit status 1 when the file holds no samples.
"""

import argparse
import bisect
import os
import subprocess
import sys

FRAMES = 8  # stack depth of the `within` table
TOP = 25  # rows per table


def load(path):
    """(maps, samples) from a sampler file."""
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                section = line[2:].strip() or section
                continue
            if section == "maps":
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    return maps, samples


class Symbols:
    """Address -> name for one mapped file, or None when it has no
    symbol table."""

    def __init__(self, path):
        self.addrs, self.names, self.segments = [], [], []
        try:
            out = subprocess.run(
                ["nm", "-n", "-C", "--defined-only", path],
                capture_output=True, text=True, check=False).stdout
            seg = subprocess.run(["readelf", "-lW", path],
                                 capture_output=True, text=True,
                                 check=False).stdout
        except OSError:
            return
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "TtWw":
                self.addrs.append(int(parts[0], 16))
                self.names.append(parts[2])
        for line in seg.splitlines():
            parts = line.split()
            if parts and parts[0] == "LOAD":
                self.segments.append((int(parts[1], 16), int(parts[2], 16),
                                      int(parts[4], 16)))

    def usable(self):
        return bool(self.addrs)

    def lookup(self, file_offset):
        vaddr = file_offset
        for offset, base, size in self.segments:
            if offset <= file_offset < offset + size:
                vaddr = file_offset - offset + base
                break
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    args = ap.parse_args()

    maps, samples = load(args.profile)
    if not samples:
        print(f"{args.profile}: no samples")
        return 1
    starts = [m[0] for m in maps]
    tables = {}
    names = {}

    def name_of(pc, is_return):
        if is_return:
            pc -= 1
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            return "[unknown]"
        lo, _, offset, path = maps[i]
        if path not in tables:
            tables[path] = Symbols(path) if os.path.exists(path) else None
        syms = tables[path]
        label = os.path.basename(path) if path else "[anonymous]"
        if syms is None or not syms.usable():
            return label
        key = (path, pc - lo + offset)
        if key not in names:
            names[key] = syms.lookup(pc - lo + offset) or label
        return names[key]

    self_count, within_count = {}, {}
    for pcs in samples:
        frames = [name_of(pc, i > 0) for i, pc in enumerate(pcs)]
        self_count[frames[0]] = self_count.get(frames[0], 0) + 1
        for name in set(frames[:FRAMES]):
            within_count[name] = within_count.get(name, 0) + 1

    total = len(samples)
    print(f"# {total} samples from {args.profile}")
    for title, counts in (("self", self_count),
                          (f"within {FRAMES} frames", within_count)):
        print(f"\n{title:>24}  symbol")
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, n in ranked[:TOP]:
            shown = name if len(name) <= 110 else name[:107] + "..."
            print(f"{100.0 * n / total:23.1f}%  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
