#!/usr/bin/env python3
"""Smoke gate for the repository benchmark (perfbench/run.py).

Each argument is a file holding the last line `perfbench/run.py` printed:
one JSON object {"correct", "attempted", "failed", "metrics"}. The gate
fails unless every run was correct (no oracle violation, every replay of
the simulation hashed the same) and no op failed. Host-time metrics are
not checked here; BENCHMARK.json's bounds judge those on quiet hardware.

Usage:
    check_perfbench.py perfbench.odafs_read_4k.json [more.json ...]

Exit status: 0 pass, 1 fail, 2 bad input.
"""

import json
import os
import sys


def main(paths):
    if not paths:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        name = os.path.basename(path)
        try:
            with open(path) as f:
                result = json.loads(f.read().strip().splitlines()[-1])
            correct = result["correct"]
            attempted = result["attempted"]
            bad = result["failed"]
        except (OSError, ValueError, KeyError, IndexError) as e:
            print(f"{name}: no perfbench result ({e})", file=sys.stderr)
            return 2
        ok = correct is True and bad == 0 and attempted > 0
        print(f"{'PASS' if ok else 'FAIL'} {name}: correct={correct} "
              f"failed={bad} of {attempted}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
