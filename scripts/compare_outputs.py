#!/usr/bin/env python3
"""Check that two build trees produce byte-identical outputs.

Runs the same document set in BUILD_A and BUILD_B (each a CMake build
directory holding bench/ and examples/) and compares every file the runs
write, plus every run's stdout, byte for byte:

  * --metrics, --timeseries (500 us windows) and --health documents from
    fig3_client_throughput, fig7_server_throughput, ablation_policy,
    quickstart, fault_recovery and sharing_writers;
  * each surface of quickstart on its own: --health alone (its own 1 ms
    windows), a CSV --timeseries (50 us windows) and --metrics alone;
  * tail_explain's --trace, --flight and --explain documents;
  * the --json documents of table1_attribution, ablation_read_write and
    ablation_policy.

Each tree's runs execute in a directory of their own, under the same
relative file names, so paths printed to stdout match too. A change meant
to leave every simulated output alone passes this check; one that moves
an output lists the files that differ.

Usage:
    compare_outputs.py [--workdir DIR] BUILD_A BUILD_B

--workdir keeps the outputs in DIR/a and DIR/b (default: a temporary
directory, removed afterwards).

Exit status: 0 all identical, 1 some output differs or is missing from
one side, 2 a run failed or bad usage. Stdlib only.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
import time

OBS_DOCS = [
    "bench/fig3_client_throughput",
    "bench/fig7_server_throughput",
    "bench/ablation_policy",
    "examples/quickstart",
    "examples/fault_recovery",
    "examples/sharing_writers",
]
JSON_DOCS = [
    "bench/table1_attribution",
    "bench/ablation_read_write",
    "bench/ablation_policy",
]


def runs():
    """(name, binary relative to the build tree, arguments) per run."""
    for binary in OBS_DOCS:
        n = os.path.basename(binary)
        yield n, binary, [f"--metrics={n}.metrics.json",
                          f"--timeseries={n}.timeseries.json:500us",
                          f"--health={n}.health.json"]
    yield "quickstart.health_only", "examples/quickstart", [
        "--health=quickstart.health_only.json"]
    yield "quickstart.csv", "examples/quickstart", [
        "--timeseries=quickstart.timeseries.csv:50us"]
    yield "quickstart.metrics_only", "examples/quickstart", [
        "--metrics=quickstart.metrics_only.json"]
    yield "tail_explain", "examples/tail_explain", [
        "--trace=tail_explain.trace.json",
        "--flight=tail_explain.flight.txt",
        "--explain=tail_explain.explain.json"]
    for binary in JSON_DOCS:
        n = os.path.basename(binary)
        yield n + ".json", binary, [f"--json={n}.json"]


def run_all(build, out):
    os.makedirs(out, exist_ok=True)
    for name, binary, args in runs():
        exe = os.path.join(os.path.abspath(build), binary)
        t0 = time.monotonic()
        with open(os.path.join(out, name + ".stdout"), "wb") as stdout:
            rc = subprocess.run([exe] + args, cwd=out, stdout=stdout).returncode
        print(f"  {binary} {' '.join(args)}: exit {rc}, "
              f"{time.monotonic() - t0:.1f} s", flush=True)
        if rc != 0:
            return False
    return True


def compare(a, b):
    """Names of files that differ or exist on one side only."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    bad = []
    for n in names:
        pa, pb = os.path.join(a, n), os.path.join(b, n)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            bad.append(f"{n} (only in {'A' if os.path.isfile(pa) else 'B'})")
        elif not filecmp.cmp(pa, pb, shallow=False):
            bad.append(n)
    return names, bad


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    ap.add_argument("build_a")
    ap.add_argument("build_b")
    ap.add_argument("--workdir")
    opts = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = opts.workdir or tmp
        out = {"A": os.path.join(work, "a"), "B": os.path.join(work, "b")}
        for side, build in (("A", opts.build_a), ("B", opts.build_b)):
            print(f"{side}: {build}", flush=True)
            if not run_all(build, out[side]):
                print(f"FAIL: a run in {build} exited non-zero",
                      file=sys.stderr)
                return 2
        names, bad = compare(out["A"], out["B"])
    for n in bad:
        print(f"DIFFERS {n}")
    print(f"{len(names) - len(bad)} of {len(names)} outputs identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
