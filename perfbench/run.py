#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the simulator library from src/ plus the benchmark
binary) into .bench_build/perfbench; later calls only check that the
build is current. The binary's standard output is passed through; its
last line is the JSON result. The self-test checks that a seed
reproduces the simulated-statistics digest of every workload exactly
and that another seed changes it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["polybench_matrix", "dramless_rw", "serving_cosim"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "event_queue.hh")):
        fail("simulator sources (src/) not found; run from a source checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", done.returncode or 1)


def source_identity():
    """The commit when this is a git checkout, else a hash of the tree."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return "commit=" + head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "commit=unknown tree_sha256=" + h.hexdigest()[:16]


def run_binary(args):
    """Run the benchmark binary; return (exit code, stdout text)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    return proc.returncode, out


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def digest_of(out, workload):
    for line in out.splitlines():
        if line.startswith(f"digest {workload} "):
            return line.rsplit(" ", 1)[-1]
    return None


def selftest(seed):
    ok = True
    for w in WORKLOADS:
        digests = []
        for s in (seed, seed, seed + 1):
            code, out = run_binary(["--workload", w, "--seed", str(s),
                                    "--seconds", "1", "--trace", "0",
                                    "--passes", "1"])
            result = last_json(out)
            if code != 0 or result is None or not result["correct"]:
                print(f"FAIL {w} seed {s}: run failed or output checks failed")
                ok = False
            digests.append(digest_of(out, w))
        same = digests[0] is not None and digests[0] == digests[1]
        differs = digests[2] is not None and digests[2] != digests[0]
        print(f"{'ok  ' if same else 'FAIL'} {w}: seed {seed} twice -> "
              f"{digests[0]} / {digests[1]}")
        print(f"{'ok  ' if differs else 'FAIL'} {w}: seed {seed + 1} -> "
              f"{digests[2]}")
        ok = ok and same and differs
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    build()
    if a.selftest:
        sys.exit(selftest(a.seed if a.seed is not None else 1))
    if None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    print(f"provenance: {source_identity()}")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans",
                 os.path.join(BUILD, f"spans-{a.workload}-{a.seed}.json")]
    code, out = run_binary(args)
    sys.stdout.write(out)
    if code != 0:
        fail(f"benchmark exited with {code}", code)
    if last_json(out) is None:
        fail("benchmark printed no result line", 4)


if __name__ == "__main__":
    main()
