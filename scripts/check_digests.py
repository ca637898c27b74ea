#!/usr/bin/env python3
"""Check that the simulated results match the committed digests.

    python3 scripts/check_digests.py

Builds perfbench through perfbench/run.py, runs one pass of each
workload at each seed listed in scripts/perfbench_digests.txt (one
"<workload> <seed> <digest> <events>" line per run), and compares the
statistics digest and event count the run prints with the manifest's.
A change that only speeds up the host leaves both unchanged; a change
that alters simulated results edits the manifest and says why.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
import run  # noqa: E402  (perfbench/run.py)

MANIFEST = os.path.join(ROOT, "scripts", "perfbench_digests.txt")
PASS_LINE = re.compile(r"^pass 0: .*, (\d+) events, digest [0-9a-f]+$",
                       re.MULTILINE)


def main():
    run.build()
    with open(MANIFEST) as f:
        rows = [line.split() for line in f if line.strip()]
    failed = 0
    for workload, seed, digest, events in rows:
        code, out = run.run_binary(["--workload", workload, "--seed", seed,
                                    "--seconds", "25", "--trace", "0",
                                    "--passes", "1"])
        result = run.last_json(out)
        match = PASS_LINE.search(out)
        got = (run.digest_of(out, workload), match and match.group(1))
        ok = (code == 0 and result is not None and result["correct"]
              and got == (digest, events))
        print(f"{'ok  ' if ok else 'FAIL'} {workload} seed {seed}: "
              f"digest {got[0]}, {got[1]} events "
              f"(manifest {digest}, {events})")
        failed += not ok
    if failed:
        print(f"check_digests: {failed} of {len(rows)} runs differ from "
              f"{os.path.relpath(MANIFEST, ROOT)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
