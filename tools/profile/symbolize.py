#!/usr/bin/env python3
"""Symbolises the samples `sampler.c` wrote and prints where the time went.

    python3 tools/profile/symbolize.py PROBE PREFIX [TOP]

PROBE is the profiled executable (built with frame pointers and debug
info), PREFIX the `$SAMPLER_OUT` it ran with. Prints the self-time and
inclusive-time tables by function (monomorphs that demangle alike are
told apart by their symbol hash), and the source lines that called into
libc.

libc is stripped: its private `memmove` has no symbol (through `nm -D` its
samples resolve to `__nss_database_lookup`), and it builds no frame, so
the rbp walk starts at its caller's caller. A sample whose instruction
pointer is in libc is therefore charged to the return address the sampler
read at the stack pointer — exact for frameless leaves such as `memmove`,
`memcpy` and `memset`, which are the bulk of libc time in this workspace.
"""

import bisect
import collections
import os
import re
import struct
import subprocess
import sys


def mappings(path):
    """(start, end, offset, file, executable) per line of a maps dump."""
    out = []
    for line in open(path):
        parts = line.split()
        if len(parts) < 6:
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        out.append((start, end, int(parts[2], 16), parts[5], "x" in parts[1]))
    return out


def functions(probe):
    """Sorted (address, name) of the probe's defined text symbols.

    Names are demangled by `c++filt`, which keeps each symbol's hash
    (`::h` and 16 hex digits; `nm -C` drops it). The hash is dropped
    unless another symbol demangles to the same name without it: the
    monomorphs of one generic function print as one name
    (`BinaryHeap<T,A>::pop` over 24-byte and over 80-byte entries), and
    merging them would add two unrelated costs into one row. Those keep
    their hash, so each is a row of its own.
    """
    nm = subprocess.run(["nm", "--defined-only", probe], capture_output=True, text=True)
    text = [p for p in (line.split(" ", 2) for line in nm.stdout.splitlines())
            if len(p) == 3 and p[1] in "tTwW"]
    filt = subprocess.run(["c++filt"], input="\n".join(p[2] for p in text),
                          capture_output=True, text=True)
    syms = sorted(zip((int(p[0], 16) for p in text), filt.stdout.splitlines()))

    def plain(n):
        return re.sub(r"::h[0-9a-f]{16}$", "", n)

    twins = collections.Counter(plain(n) for n in {n for _, n in syms})
    names = [plain(n) if twins[plain(n)] == 1 else n for _, n in syms]
    return [a for a, _ in syms], names


def samples(path):
    words = open(path, "rb").read()
    words = struct.unpack(f"<{len(words) // 8}Q", words)
    i = 0
    while i < len(words):
        depth = words[i]
        yield words[i + 1], words[i + 2], words[i + 3:i + 3 + depth]
        i += 3 + depth


def main():
    probe, prefix = sys.argv[1], sys.argv[2]
    top = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    maps = mappings(prefix + ".maps")
    real = os.path.realpath(probe)
    base = min(s for s, _, off, f, _ in maps if f == real and off == 0)
    text = [(s, e) for s, e, _, f, x in maps if f == real and x]
    libc = [(s, e) for s, e, _, f, x in maps if x and os.path.basename(f).startswith("libc")]
    addrs, names = functions(probe)

    def inside(ranges, a):
        return any(s <= a < e for s, e in ranges)

    def name(a):
        if inside(libc, a):
            return "libc"
        if not inside(text, a):
            return "?"
        i = bisect.bisect_right(addrs, a - base) - 1
        return names[i] if i >= 0 else "?"

    self_time, inclusive, libc_callers = collections.Counter(), collections.Counter(), collections.Counter()
    total = 0
    for rip, at_rsp, frames in samples(prefix + ".samples"):
        total += 1
        callers = list(frames)
        if inside(libc, rip) and inside(text, at_rsp):
            callers.insert(0, at_rsp)
            sites = tuple(a - base - 1 for a in callers[:8] if inside(text, a))
            libc_callers[sites] += 1
        self_time[name(rip)] += 1
        # libc return addresses in the walk (the process entry) are not
        # time spent in libc: only a libc leaf counts as libc.
        chain = {name(rip)} | {name(a) for a in callers if inside(text, a)}
        for n in chain:
            inclusive[n] += 1

    def table(title, counts):
        print(f"\n== {title} ({total} samples)")
        for n, c in counts.most_common(top):
            print(f"{100 * c / total:6.2f} %  {n}")

    table("self", self_time)
    table("inclusive", inclusive)
    frameless = sum(libc_callers.values())
    print(f"\nlibc: {100 * self_time['libc'] / total:.2f} % of samples, "
          f"{100 * frameless / total:.2f} % in frameless leaves (memmove, memcpy, memset)")
    table("frameless libc samples by calling line", calling_lines(probe, libc_callers))


def calling_lines(probe, counts):
    """Re-keys call-chain counts by source line: the innermost line, over
    the chain's return sites and their inlined frames, that is not in the
    Rust standard library (or its vendored `hashbrown`)."""
    sites = sorted({a for chain in counts for a in chain})
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-C", "-e", probe] + [hex(a) for a in sites],
        capture_output=True, text=True,
    ).stdout.splitlines()
    lines = []
    for line in out:
        if line.startswith("0x"):
            lines.append([])
        else:
            lines[-1].append(line)
    located = dict(zip(sites, lines))
    by_line = collections.Counter()
    for chain, c in counts.items():
        locs = [loc for a in chain for loc in located[a]]
        ours = [loc for loc in locs if not loc.startswith(("/rustc/", "/rust/deps/"))]
        by_line[(ours or locs or ["?"])[0]] += c
    return by_line


if __name__ == "__main__":
    main()
