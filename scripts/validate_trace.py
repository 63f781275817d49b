#!/usr/bin/env python3
"""Validate a Chrome trace produced by --trace=<file> (src/obs/trace.h).

Checks, beyond "it parses":
  * every slice sits on a named track (thread_name / process_name metadata);
  * slices on one track are disjoint (the recorder's overflow-lane
    invariant: a lane never holds overlapping slices);
  * each traced op (args.op > 0) has exactly one root slice (name "op/...")
    and every other slice of that op starts at or after the root starts —
    i.e. the per-I/O span tree is causally well-formed. (Slices may end
    after the root closes: asynchronous work such as read-ahead is charged
    to the op that issued it; the attributor clamps these to the root
    window. Spills are counted and reported, not errors.);
  * with --expect-roots, at least one op root exists (an empty trace
    "validates" trivially otherwise). Traces from binaries that drive
    sub-op primitives directly (e.g. ablation_capability's fetch_block
    loop) are all-ambient and carry no roots, so this is opt-in;
  * flow chains (s/t/f) have >= 2 points, in nondecreasing time order.

With --flight, the input is instead a flight-recorder postmortem dump
(src/obs/flight.h, "ordma-flight-dump v1 ..."). Checked per ring:
  * the header line parses and recorded/capacity/dropped are consistent
    (dropped == max(0, recorded - capacity));
  * the number of dumped records equals min(recorded, capacity);
  * sequence numbers are contiguous starting at `dropped`;
  * timestamps are nondecreasing (simulated time never runs backwards);
  * every event name belongs to the known vocabulary.

Usage: python3 scripts/validate_trace.py [--expect-roots] <trace.json>
       python3 scripts/validate_trace.py --flight <dump.txt>
Exit status 0 iff all checks pass. Stdlib only.
"""
import json
import re
import sys

EPS = 1e-6  # us; slack for ns -> us float rounding


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# Event vocabulary of src/obs/flight.h (ev_name()).
FLIGHT_EVENTS = {
    "none", "rpc_call", "rpc_reply", "rpc_retransmit", "rpc_timeout",
    "rpc_cksum_drop", "rpc_giveup", "srv_serve", "srv_dup_replay",
    "srv_dup_drop", "srv_cksum_drop", "nic_doorbell", "nic_dma",
    "nic_tlb_miss", "nic_ordma_fault", "nic_ordma_timeout", "nic_cap_revoke",
    "cache_hit", "cache_miss", "disk_read", "disk_write", "fault_drop",
    "fault_corrupt", "fault_duplicate", "fault_delay", "fault_stall",
    "fault_cap_revoke", "fault_tlb_inval", "fault_disk_error",
    "fault_disk_spike", "op_giveup", "put_commit", "put_reject",
    "inval_send", "inval_recv", "inval_ack", "wb_flush", "fault_put_revoke",
    "sample_keep", "sample_drop", "slo_trip", "slo_clear",
}

RING_RE = re.compile(
    r"^ring (?P<name>\S+) recorded=(?P<recorded>\d+) "
    r"capacity=(?P<capacity>\d+) dropped=(?P<dropped>\d+)$")
RECORD_RE = re.compile(
    r"^(?P<seq>\d+) (?P<t>-?\d+) (?P<ev>\S+) "
    r"a=(?P<a>\d+) b=(?P<b>\d+) aux=(?P<aux>\d+)$")


def validate_flight(path):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot load {path}: {e}")
    if not lines or not lines[0].startswith("ordma-flight-dump v1 reason="):
        fail("missing 'ordma-flight-dump v1 reason=...' header")
    if not lines[-1] == "end":
        fail("dump does not finish with 'end'")

    rings = 0
    records = 0
    ring = None       # current ring header match
    expect_seq = None
    kept = 0
    last_t = None

    def close_ring():
        if ring is None:
            return
        want = min(int(ring["recorded"]), int(ring["capacity"]))
        if kept != want:
            fail(f"ring {ring['name']!r}: dumped {kept} records, header "
                 f"implies min(recorded, capacity) = {want}")

    for i, line in enumerate(lines[1:-1], start=2):
        m = RING_RE.match(line)
        if m:
            close_ring()
            ring, rings = m, rings + 1
            recorded, capacity = int(m["recorded"]), int(m["capacity"])
            dropped = int(m["dropped"])
            if capacity < 1 or capacity & (capacity - 1):
                fail(f"ring {m['name']!r}: capacity {capacity} "
                     "is not a power of two")
            if dropped != max(0, recorded - capacity):
                fail(f"ring {m['name']!r}: dropped={dropped} inconsistent "
                     f"with recorded={recorded} capacity={capacity}")
            expect_seq, kept, last_t = dropped, 0, None
            continue
        m = RECORD_RE.match(line)
        if not m:
            fail(f"line {i}: unparseable: {line!r}")
        if ring is None:
            fail(f"line {i}: record before any ring header")
        if int(m["seq"]) != expect_seq:
            fail(f"ring {ring['name']!r}: seq {m['seq']} "
                 f"(expected {expect_seq})")
        t = int(m["t"])
        if last_t is not None and t < last_t:
            fail(f"ring {ring['name']!r}: timestamp {t} after {last_t} — "
                 "simulated time ran backwards")
        if m["ev"] not in FLIGHT_EVENTS:
            fail(f"ring {ring['name']!r}: unknown event {m['ev']!r}")
        expect_seq += 1
        kept += 1
        records += 1
        last_t = t
    close_ring()

    print(f"validate_trace: OK — flight dump with {rings} rings, "
          f"{records} records")


def main():
    args = sys.argv[1:]
    expect_roots = "--expect-roots" in args
    flight = "--flight" in args
    args = [a for a in args if a not in ("--expect-roots", "--flight")]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if flight:
        validate_flight(args[0])
        return
    try:
        with open(args[0]) as f:
            events = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args[0]}: {e}")
    if not isinstance(events, list):
        fail("top-level JSON is not an array of events")

    processes = {}  # pid -> name
    tracks = {}     # (pid, tid) -> name
    slices = []     # (pid, tid, ts, dur, name, op)
    flows = {}      # id -> [(ph, ts)]

    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e["name"] == "process_name":
                processes[e["pid"]] = e["args"]["name"]
            elif e["name"] == "thread_name":
                tracks[(e["pid"], e["tid"])] = e["args"]["name"]
        elif ph == "X":
            ts, dur = e["ts"], e["dur"]
            if dur < 0 or ts < 0:
                fail(f"event {i} ({e['name']}): negative ts/dur")
            slices.append((e["pid"], e["tid"], ts, dur, e["name"],
                           e.get("args", {}).get("op", 0)))
        elif ph in ("s", "t", "f"):
            flows.setdefault(e["id"], []).append((ph, e["ts"]))
        else:
            fail(f"event {i}: unknown phase {ph!r}")

    # Every slice on a named track inside a named process.
    for pid, tid, ts, dur, name, op in slices:
        if pid not in processes:
            fail(f"slice {name!r}: pid {pid} has no process_name metadata")
        if (pid, tid) not in tracks:
            fail(f"slice {name!r}: (pid {pid}, tid {tid}) has no thread_name")

    # Per-track disjointness.
    by_track = {}
    for pid, tid, ts, dur, name, op in slices:
        by_track.setdefault((pid, tid), []).append((ts, dur, name))
    for key, lst in by_track.items():
        lst.sort()
        for (a_ts, a_dur, a_name), (b_ts, _, b_name) in zip(lst, lst[1:]):
            if b_ts < a_ts + a_dur - EPS:
                fail(f"track {tracks[key]!r}: slices {a_name!r} and "
                     f"{b_name!r} overlap ({a_ts}+{a_dur} > {b_ts})")

    # Per-op span trees.
    roots = {}  # op -> (ts, dur, name)
    for pid, tid, ts, dur, name, op in slices:
        if name.startswith("op/"):
            if op == 0:
                fail(f"root slice {name!r} has no op id")
            if op in roots:
                fail(f"op {op}: more than one root slice")
            roots[op] = (ts, dur, name)
    if expect_roots and not roots:
        fail("no op roots (name 'op/...') found — nothing was attributed")
    spills = 0
    for pid, tid, ts, dur, name, op in slices:
        if op == 0 or name.startswith("op/"):
            continue
        if op not in roots:
            fail(f"slice {name!r} references op {op} which has no root")
        r_ts, r_dur, r_name = roots[op]
        if ts < r_ts - EPS:
            fail(f"slice {name!r} at {ts} starts before its root "
                 f"{r_name!r} at {r_ts} (op {op}) — acausal attribution")
        if ts + dur > r_ts + r_dur + EPS:
            spills += 1  # async work (e.g. read-ahead) outliving its op

    # Flow chains.
    for fid, pts in flows.items():
        if len(pts) < 2:
            fail(f"flow {fid}: single-point chain (should have been dropped)")
        phs = [p for p, _ in pts]
        if phs[0] != "s" or phs[-1] != "f" or any(p != "t" for p in phs[1:-1]):
            fail(f"flow {fid}: bad phase sequence {phs}")
        tss = [t for _, t in pts]
        if tss != sorted(tss):
            fail(f"flow {fid}: timestamps not nondecreasing")

    print(f"validate_trace: OK — {len(slices)} slices on {len(by_track)} "
          f"tracks, {len(roots)} op roots, {len(flows)} flows, "
          f"{spills} async spills past root end")


if __name__ == "__main__":
    main()
