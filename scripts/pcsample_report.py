#!/usr/bin/env python3
"""Per-symbol report of the PC samples written by scripts/pcsample.c.

    python3 scripts/pcsample_report.py <binary> pcsample.<pid>.txt... [--top N]

Symbolizes the samples that fall in <binary> with `nm -C` and prints each
symbol's share of those samples and of all samples, most sampled first.
Samples in shared libraries are summed per library. --pcs SUBSTRING also
lists the sampled addresses inside the symbols whose name contains
SUBSTRING, for matching against `objdump -d`. Exits 1 when no sample falls
in <binary>. See docs/PERF.md ("Profiling workflow").
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def read_samples(paths):
    """Yields (maps, pcs) per sample file."""
    for path in paths:
        maps, pcs = [], []
        with open(path) as f:
            for line in f:
                kind, _, rest = line.partition(" ")
                if kind == "pc":
                    pcs.append(int(rest, 16))
                elif kind == "map":
                    fields = rest.split(maxsplit=5)
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    name = fields[5].strip() if len(fields) == 6 else ""
                    maps.append((start, end, int(fields[2], 16), name))
        maps.sort()
        yield maps, pcs


def text_symbols(binary):
    """Sorted (address, name) of the binary's code symbols."""
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", binary], capture_output=True,
                         text=True, check=True).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) == 3 and fields[1] in "tTwW":
            symbols.append((int(fields[0], 16), fields[2]))
    return symbols


def is_position_independent(binary):
    with open(binary, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type ET_DYN; ET_EXEC (2) is loaded at its link address.


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary")
    parser.add_argument("samples", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--pcs", metavar="SUBSTRING")
    args = parser.parse_args()

    binary = os.path.realpath(args.binary)
    symbols = text_symbols(binary)
    addresses = [a for a, _ in symbols]
    pie = is_position_independent(binary)
    counts = collections.Counter()
    pcs_in = collections.Counter()
    total = in_binary = 0
    for maps, pcs in read_samples(args.samples):
        starts = [m[0] for m in maps]
        for pc in pcs:
            total += 1
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                counts["[unmapped]"] += 1
                continue
            start, _, offset, name = maps[i]
            if name != binary:
                counts[f"[{os.path.basename(name) or 'anon'}]"] += 1
                continue
            in_binary += 1
            address = pc - start + offset if pie else pc
            j = bisect.bisect_right(addresses, address) - 1
            counts[symbols[j][1] if j >= 0 else "[unknown]"] += 1
            if args.pcs and j >= 0 and args.pcs in symbols[j][1]:
                pcs_in[address] += 1

    print(f"{total} samples, {in_binary} in {binary}")
    for name, n in counts.most_common(args.top):
        of_binary = f"{n / in_binary:6.1%}" if in_binary and not name.startswith("[") else "      "
        print(f"{n / total:6.1%} {of_binary}  {n:8d}  {name}")
    for address, n in sorted(pcs_in.items()):
        print(f"  {address:#x}  {n:6d}")
    return 0 if in_binary > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
