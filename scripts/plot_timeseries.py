#!/usr/bin/env python3
"""Render an ordma.timeseries.v1 file as a markdown report with unicode
sparklines and the run-phase annotation.

For each run document: a header with the window grid, one sparkline row per
selected series (delta/sample series plot their values; histograms plot the
per-window p99), and a phase strip aligned under the key series marking
warmup (.), steady (=), saturation (^), low (_) and degraded (!) windows;
degraded means an SLO trip overlaps the stretch, low only that the key
series fell well below its steady mean.

Usage:
  python3 scripts/plot_timeseries.py ts.json                # all runs, key
                                                            # series + top 5
  python3 scripts/plot_timeseries.py ts.json -s 'server/'   # series filter
  python3 scripts/plot_timeseries.py ts.json -r dafs.4KB    # one run
  python3 scripts/plot_timeseries.py ts.json -o report.md

Stdlib only.
"""
import argparse
import json
import sys

TICKS = " ▁▂▃▄▅▆▇█"
PHASE_MARK = {"warmup": ".", "steady": "=", "saturation": "^", "low": "_",
              "degraded": "!"}
WIDTH = 96  # sparkline columns; longer series are max-pooled into bins


def binned(values, reduce):
    if len(values) <= WIDTH:
        return list(values)
    out = []
    for c in range(WIDTH):
        lo = c * len(values) // WIDTH
        hi = max(lo + 1, (c + 1) * len(values) // WIDTH)
        out.append(reduce(values[lo:hi]))
    return out


def sparkline(values):
    values = binned(values, max)
    lo, hi = min(values), max(values)
    if hi <= lo:
        return TICKS[1] * len(values)
    span = hi - lo
    return "".join(
        TICKS[1 + int((v - lo) / span * (len(TICKS) - 2))] for v in values)


def series_values(s):
    return s["p99_us"] if s["kind"] == "hist" else s["v"]


def fmt_si(v):
    for div, suf in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(v) >= div:
            return f"{v / div:.3g}{suf}"
    return f"{v:.3g}"


def phase_strip(doc):
    marks = []
    for seg in doc["phases"]["segments"]:
        marks.extend(PHASE_MARK.get(seg["label"], "?") *
                     (seg["end"] - seg["begin"]))
    # Bin exactly like the sparklines so the strip stays column-aligned;
    # a bin takes the label of its first window.
    return "".join(binned(marks, lambda chunk: chunk[0]))


def interesting(doc, pattern, limit):
    """Key series first, then the series with the most variation."""
    names = list(doc["series"])
    if pattern:
        names = [n for n in names if pattern in n]
        return names
    key = doc["phases"]["series"]
    ranked = sorted(
        (n for n in names if n != key),
        key=lambda n: -(max(series_values(doc["series"][n])) -
                        min(series_values(doc["series"][n]))))
    picked = ([key] if key in doc["series"] else []) + ranked
    return picked[:limit]


def render_run(doc, out, pattern, limit):
    iv_us = doc["interval_ns"] / 1000.0
    dur_ms = (doc["end_ns"] - doc["start_ns"]) / 1e6
    out.append(f"### {doc['run']}")
    out.append("")
    out.append(f"{doc['windows']} windows × {iv_us:g} us "
               f"({dur_ms:.3g} ms simulated"
               + (f", {doc['dropped_windows']} oldest windows dropped"
                  if doc.get("dropped_windows") else "") + ")")
    out.append("")
    names = interesting(doc, pattern, limit)
    if not names:
        out.append("_no series match the filter_")
        out.append("")
        return
    width = max(len(n) for n in names)
    hist_note = any(doc["series"][n]["kind"] == "hist" for n in names)
    out.append("```")
    for n in names:
        s = doc["series"][n]
        vals = series_values(s)
        tag = {"delta": "Δ", "sample": "·", "hist": "⌛"}[s["kind"]]
        out.append(f"{n:<{width}} {tag} |{sparkline(vals)}| "
                   f"max {fmt_si(max(vals))}")
    key = doc["phases"]["series"]
    out.append(f"{'phases (' + key + ')':<{width}}   |{phase_strip(doc)}|")
    out.append("```")
    if hist_note:
        out.append("")
        out.append("_⌛ histogram series plot per-window p99 (us)_")
    out.append("")
    segs = doc["phases"]["segments"]
    out.append("| phase | windows | sim time (ms) | mean |")
    out.append("|---|---|---|---|")
    for seg in segs:
        out.append(
            f"| {seg['label']} | [{seg['begin']}, {seg['end']}) "
            f"| {seg['begin_ns'] / 1e6:.3g} – {seg['end_ns'] / 1e6:.3g} "
            f"| {fmt_si(seg['mean'])} |")
    out.append("")


def main():
    ap = argparse.ArgumentParser(
        description="markdown sparkline report for ordma.timeseries.v1")
    ap.add_argument("file")
    ap.add_argument("-s", "--series", default=None,
                    help="substring filter for series names")
    ap.add_argument("-r", "--run", default=None,
                    help="only runs whose label contains this substring")
    ap.add_argument("-n", "--top", type=int, default=6,
                    help="series per run when no filter is given")
    ap.add_argument("-o", "--out", default=None, help="write to file")
    args = ap.parse_args()

    with open(args.file) as f:
        data = json.load(f)
    docs = data if isinstance(data, list) else [data]
    if args.run:
        docs = [d for d in docs if args.run in d.get("run", "")]
    if not docs:
        print("plot_timeseries: no matching runs", file=sys.stderr)
        sys.exit(1)

    out = [f"## Timeseries report: {args.file}", ""]
    for doc in docs:
        render_run(doc, out, args.series, args.top)
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"plot_timeseries: wrote {args.out} ({len(docs)} run(s))")
    else:
        print(text)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
