#!/usr/bin/env python3
"""Un-instrumented host profile of a command.

    python3 scripts/hostprof.py [--top N] [--all] COMMAND [ARG...]

Builds scripts/hostprof.c into a temporary LD_PRELOAD library with the
system C compiler, runs COMMAND under it (its output passes through),
and resolves the samples of the process that took the most of them
with addr2line -C -f -i. It prints each innermost simulator function's
share of the samples: the innermost frame, inlined ones included,
whose source lies under src/ or perfbench/src/. A sample inside libc,
libstdc++ or a standard header counts against its first simulator
caller. The allocator's share (samples under malloc, free, operator
new or operator delete, whatever their caller) is printed on its own
row, as is everything inside glibc. --all adds a per-layer table
(the directory under src/ of each sample's simulator function).
Source paths are matched by their src/ component, so the command may
run a build of another checkout.
Needs gcc, binutils and python3 only; gprof needs a -pg build and
sees neither libc nor the allocator.
"""

import argparse
import collections
import functools
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOCATOR = re.compile(
    r"^(operator new|operator delete|(__libc_)?(malloc|free|calloc|"
    r"realloc|cfree)$|_int_(malloc|free|realloc)$|malloc_consolidate$|"
    r"tcache_|sysmalloc$|unlink_chunk)")


def build(tmp):
    lib = os.path.join(tmp, "libhostprof.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib,
                    os.path.join(ROOT, "scripts", "hostprof.c"), "-ldl"],
                   check=True)
    return lib


def read_samples(path):
    exe, maps, samples = None, [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if section is None and line.startswith("exe "):
                exe = line[4:]
            elif line in ("maps", "samples"):
                section = line
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    return exe, maps, samples


@functools.lru_cache(maxsize=None)
def is_dso(path):
    """ELF type ET_DYN (PIE or shared object): addresses are relative
    to the load base."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return len(header) == 18 and header[16] == 3


def locate(maps, addr):
    """@return (file, address to give addr2line) for @p addr."""
    for lo, hi, _, path in maps:
        if lo <= addr < hi:
            if not is_dso(path):
                return path, addr
            base = min(m[0] - m[2] for m in maps if m[3] == path)
            return path, addr - base
    return None, addr


def symbolize(maps, addrs):
    """@return {addr: [(function, file), ...] innermost first}."""
    by_file = collections.defaultdict(dict)
    out = {}
    for a in addrs:
        path, rel = locate(maps, a)
        if path is None:
            out[a] = [("??", "")]
        else:
            by_file[path][a] = rel
    for path, table in by_file.items():
        order = list(table)
        rels = [hex(table[a]) for a in order]
        res = subprocess.run(["addr2line", "-a", "-C", "-f", "-i", "-e",
                              path] + rels, capture_output=True,
                             text=True, check=True)
        # -a prints each address, then a (function, file:line) pair
        # per inline level.
        groups = []
        lines = res.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                groups.append([])
                i += 1
                continue
            src = lines[i + 1].rsplit(":", 1)[0] if i + 1 < len(lines) \
                else "??"
            groups[-1].append((lines[i], src if src != "??" else path))
            i += 2
        for a, g in zip(order, groups):
            out[a] = g or [("??", path)]
    return out


def layer_of(src):
    """@return the simulator layer of source file @p src (its
    directory under src/, or "perfbench"), or None outside the
    simulator. Works for a build of any checkout."""
    if src.startswith("/usr/") or "/src/" not in src:
        return None
    if "/perfbench/src/" in src:
        return "perfbench"
    return src[src.rindex("/src/") + 5:].split("/")[0]


def short(fn):
    """Drop the argument list (and cv-qualifiers) of a demangled
    name."""
    end = fn.rfind(")")
    depth = 0
    for i in range(end, -1, -1):
        depth += {")": 1, "(": -1}.get(fn[i], 0)
        if depth == 0:
            # An inlined lambda is named just "operator()".
            return fn if i == 0 or fn[:i].endswith("operator") else fn[:i]
    return fn


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--top N] [--all] COMMAND [ARG...]")
    p.add_argument("--top", type=int, default=25)
    p.add_argument("--all", action="store_true")
    p.add_argument("command", nargs=argparse.REMAINDER)
    a = p.parse_args()
    if not a.command:
        p.error("no command given")

    tmp = tempfile.mkdtemp(prefix="hostprof.")
    try:
        lib = build(tmp)
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            x for x in (lib, env.get("LD_PRELOAD")) if x)
        code = subprocess.run(a.command, env=env).returncode
        runs = [read_samples(os.path.join(tmp, f))
                for f in os.listdir(tmp) if f.endswith(".samples")]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not runs:
        sys.exit("hostprof: no samples")
    exe, maps, samples = max(runs, key=lambda r: len(r[2]))

    # Return addresses point after the call: resolve the call itself.
    addrs = set()
    for s in samples:
        addrs.add(s[0])
        addrs.update(x - 1 for x in s[1:])
    sym = symbolize(maps, addrs)

    def attribute(frames):
        """@return (innermost simulator function, its source file,
        whether an allocator frame lies inside it)."""
        in_alloc = False
        for f in frames:
            for fn, src in sym[f]:
                # Charge an inlined lambda to the function around it.
                if layer_of(src) and short(fn) != "operator()":
                    return short(fn), layer_of(src), in_alloc
                in_alloc = in_alloc or bool(ALLOCATOR.match(short(fn)))
        return "(no simulator frame)", None, in_alloc

    owner = collections.Counter()
    layer = collections.Counter()
    alloc = libc = 0
    for s in samples:
        if "/libc.so" in (locate(maps, s[0])[0] or ""):
            libc += 1
        name, where, in_alloc = attribute([s[0]] + [x - 1 for x in s[1:]])
        alloc += in_alloc
        owner[name] += 1
        layer[where or name] += 1

    n = len(samples)
    print(f"hostprof: {n} samples of {exe} (exit {code})")
    print(f"{'share':>7}  function")
    for fn, c in owner.most_common(a.top):
        print(f"{100.0 * c / n:6.1f}%  {fn}")
    print(f"{100.0 * alloc / n:6.1f}%  [allocator: malloc/free/new/delete,"
          f" all callers]")
    print(f"{100.0 * libc / n:6.1f}%  [glibc internals, all callers]")
    if a.all:
        print(f"\n{'share':>7}  layer")
        for name, c in layer.most_common():
            print(f"{100.0 * c / n:6.1f}%  {name}")
    sys.exit(code)


if __name__ == "__main__":
    main()
