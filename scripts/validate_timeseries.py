#!/usr/bin/env python3
"""Validate an ordma.timeseries.v1 file produced by --timeseries=<file>
(src/obs/timeseries.h).

Input is a JSON array of run documents (or a single document). Checked per
run:
  * schema is "ordma.timeseries.v1" and interval_ns > 0;
  * len(t_ns) == windows, and t_ns is strictly increasing on a constant
    grid: t_ns[i+1] - t_ns[i] == interval_ns exactly (entries are window
    *start* times, so the grid holds even when the final window is the
    partial one closed at end_ns);
  * start_ns == t_ns[0] and end_ns >= the last window start (the trailing
    partial window never ends before it begins);
  * every series value array has exactly `windows` entries (histograms:
    all four of count/sum_us/p50_us/p99_us do);
  * kind is one of delta / sample / hist;
  * delta-kind series are non-negative in every window (counters and
    cumulative gauges are monotone, so their per-window differences are
    rates and can never go negative);
  * histogram count/sum_us are non-negative and every value is finite;
  * the phase report's key series exists, segment labels belong to the
    known vocabulary, segments tile [0, windows) in order (each begins
    where the previous ended), and segment begin_ns/end_ns stay inside
    [start_ns, end_ns].

With --expect-runs N, additionally require at least N run documents (an
empty array "validates" trivially otherwise; binaries without a RunScope
produce one).

Usage: python3 scripts/validate_timeseries.py [--expect-runs N] <ts.json>
Exit status 0 iff all checks pass. Stdlib only.
"""
import json
import math
import sys

PHASES = {"warmup", "steady", "saturation", "low", "degraded"}
KINDS = {"delta", "sample", "hist"}


def fail(msg):
    print(f"validate_timeseries: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_values(run, name, col, values, windows, nonneg):
    if not isinstance(values, list):
        fail(f"{run}: series '{name}' {col} is not an array")
    if len(values) != windows:
        fail(f"{run}: series '{name}' {col} has {len(values)} values, "
             f"want windows={windows}")
    for i, v in enumerate(values):
        if v is None or not isinstance(v, (int, float)):
            fail(f"{run}: series '{name}' {col}[{i}] is not a finite number")
        if not math.isfinite(v):
            fail(f"{run}: series '{name}' {col}[{i}] = {v} is not finite")
        if nonneg and v < 0:
            fail(f"{run}: series '{name}' {col}[{i}] = {v} is negative")


def check_run(doc, idx):
    run = doc.get("run", f"<run {idx}>")
    if doc.get("schema") != "ordma.timeseries.v1":
        fail(f"{run}: schema is {doc.get('schema')!r}, "
             "want 'ordma.timeseries.v1'")
    interval = doc.get("interval_ns")
    if not isinstance(interval, int) or interval <= 0:
        fail(f"{run}: interval_ns {interval!r} is not a positive integer")
    windows = doc.get("windows")
    if not isinstance(windows, int) or windows < 1:
        fail(f"{run}: windows {windows!r} is not a positive integer")
    dropped = doc.get("dropped_windows", 0)
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"{run}: dropped_windows {dropped!r} is not a non-negative "
             "integer")

    t = doc.get("t_ns")
    if not isinstance(t, list) or len(t) != windows:
        fail(f"{run}: t_ns has {len(t) if isinstance(t, list) else '?'} "
             f"entries, want windows={windows}")
    for i in range(1, windows):
        if t[i] - t[i - 1] != interval:
            fail(f"{run}: t_ns[{i}] - t_ns[{i - 1}] = {t[i] - t[i - 1]}, "
                 f"want constant interval {interval}")
    if doc.get("start_ns") != t[0]:
        fail(f"{run}: start_ns {doc.get('start_ns')} != t_ns[0] {t[0]}")
    end = doc.get("end_ns")
    if not isinstance(end, int) or end < t[-1]:
        fail(f"{run}: end_ns {end!r} precedes the last window start {t[-1]}")

    series = doc.get("series")
    if not isinstance(series, dict) or not series:
        fail(f"{run}: series is missing or empty")
    for name, s in series.items():
        kind = s.get("kind")
        if kind not in KINDS:
            fail(f"{run}: series '{name}' kind {kind!r} not in {KINDS}")
        if kind == "hist":
            check_values(run, name, "count", s.get("count"), windows, True)
            check_values(run, name, "sum_us", s.get("sum_us"), windows, True)
            check_values(run, name, "p50_us", s.get("p50_us"), windows, True)
            check_values(run, name, "p99_us", s.get("p99_us"), windows, True)
        else:
            check_values(run, name, "v", s.get("v"), windows,
                         nonneg=(kind == "delta"))

    phases = doc.get("phases")
    if not isinstance(phases, dict):
        fail(f"{run}: phases report missing")
    key = phases.get("series")
    if key not in series:
        fail(f"{run}: phase key series {key!r} not among the run's series")
    segs = phases.get("segments")
    if not isinstance(segs, list) or not segs:
        fail(f"{run}: phases.segments missing or empty")
    prev_end = 0
    for i, seg in enumerate(segs):
        if seg.get("label") not in PHASES:
            fail(f"{run}: segment {i} label {seg.get('label')!r} "
                 f"not in {PHASES}")
        b, e = seg.get("begin"), seg.get("end")
        if b != prev_end:
            fail(f"{run}: segment {i} begins at {b}, want {prev_end} "
                 "(segments must tile the run)")
        if not isinstance(e, int) or e <= b:
            fail(f"{run}: segment {i} [{b}, {e}) is empty or malformed")
        prev_end = e
        if seg.get("begin_ns", t[0]) < t[0] or seg.get("end_ns", end) > end:
            fail(f"{run}: segment {i} time range escapes "
                 f"[{t[0]}, {end}]")
        m = seg.get("mean")
        if m is not None and not math.isfinite(m):
            fail(f"{run}: segment {i} mean {m} is not finite")
    if prev_end != windows:
        fail(f"{run}: segments end at {prev_end}, want windows={windows}")
    return run


def main():
    args = sys.argv[1:]
    expect_runs = 0
    if args and args[0] == "--expect-runs":
        if len(args) < 3:
            fail("--expect-runs needs a count and a file")
        expect_runs = int(args[1])
        args = args[2:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    try:
        with open(args[0]) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args[0]}: {e}")
    docs = data if isinstance(data, list) else [data]
    if len(docs) < expect_runs:
        fail(f"{len(docs)} run documents, want at least {expect_runs}")
    names = [check_run(doc, i) for i, doc in enumerate(docs)]
    print(f"validate_timeseries: OK: {len(docs)} run(s)"
          + (f" ({', '.join(names[:6])}{', ...' if len(names) > 6 else ''})"
             if names else ""))


if __name__ == "__main__":
    main()
