// Generic priority sweep over each traced operation's interval.
//
// Both the Table-1 overhead attributor (obs/attribution.h) and the
// tail-latency cause explainer (obs/explain.h) answer the same question:
// given a root interval [begin, end] and a pile of possibly-overlapping
// leaf intervals each tagged with a lane, charge every instant of the root
// to exactly one lane — the highest-priority lane active at that instant —
// so the per-lane totals partition the end-to-end time exactly. This header
// is that shared machinery, from grouping a trace's spans by op to the
// per-lane totals; the two callers differ only in how they map spans to
// lanes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/trace.h"

namespace ordma::obs {

// One leaf interval: [begin, end] in simulated ns, charged to `lane`.
struct SweepInterval {
  std::int64_t begin;
  std::int64_t end;
  std::uint8_t lane;
};

// Charge every instant of [root_begin, root_end] to exactly one of N lanes:
// the active lane with the smallest `priority` value, or `fallback` when
// nothing is active. `priority[fallback]` must be the (strictly) largest
// value so any active lane beats the idle default. Leaves are clipped to the
// root interval. On return, out_ns sums exactly to root_end - root_begin
// (the partition property the ≤2% acceptance checks lean on).
template <std::size_t N>
void priority_sweep(std::int64_t root_begin, std::int64_t root_end,
                    const std::vector<SweepInterval>& leaves,
                    const std::array<int, N>& priority, std::size_t fallback,
                    std::array<std::int64_t, N>& out_ns) {
  struct Boundary {
    std::int64_t at;
    std::uint8_t lane;
    std::int8_t delta;  // +1 open, -1 close
  };
  std::vector<Boundary> bounds;
  bounds.reserve(leaves.size() * 2);
  for (const SweepInterval& iv : leaves) {
    const std::int64_t b = std::max(iv.begin, root_begin);
    const std::int64_t e = std::min(iv.end, root_end);
    if (e <= b) continue;
    bounds.push_back(Boundary{b, iv.lane, +1});
    bounds.push_back(Boundary{e, iv.lane, -1});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.at < b.at; });

  std::array<int, N> active{};
  auto charge = [&](std::int64_t from, std::int64_t to) {
    if (to <= from) return;
    std::size_t best = fallback;
    for (std::size_t i = 0; i < N; ++i) {
      if (active[i] > 0 && priority[i] < priority[best]) best = i;
    }
    out_ns[best] += to - from;
  };

  std::int64_t cursor = root_begin;
  for (const Boundary& b : bounds) {
    charge(cursor, b.at);
    cursor = std::max(cursor, b.at);
    active[b.lane] += b.delta;
  }
  charge(cursor, root_end);
}

// Fold every traced op of `rec` (ops with a root span), in op-id order.
// An op's leaves are its own spans plus the ambient (op-0) spans that
// overlap its envelope — exact for one-op-at-a-time workloads, an
// approximation under concurrency (see DESIGN.md). `lane(root, leaf)` maps
// a leaf span to its lane; `emit(op, root, us)` receives the per-lane
// totals in µs.
template <std::size_t N, typename LaneFn, typename EmitFn>
void sweep_ops(const TraceRecorder& rec, const std::array<int, N>& priority,
               std::size_t fallback, LaneFn lane, EmitFn emit) {
  using Event = TraceRecorder::Event;
  struct OpSpans {
    const Event* root = nullptr;
    std::vector<const Event*> leaves;
  };
  std::map<OpId, OpSpans> ops;
  std::vector<const Event*> ambient;  // op id 0 leaf spans

  rec.for_each_event([&](const Event& ev) {
    if (ev.kind == TraceRecorder::Kind::root) {
      auto& slot = ops[ev.op];
      if (!slot.root) slot.root = &ev;
      return;
    }
    if (ev.kind != TraceRecorder::Kind::span) return;
    if (ev.op == 0) {
      ambient.push_back(&ev);
    } else {
      ops[ev.op].leaves.push_back(&ev);
    }
  });
  // Events are recorded at their end instant, so `ambient` is ordered by
  // nondecreasing end — the binary search below relies on it.

  std::vector<SweepInterval> leaves;
  for (const auto& [op, spans] : ops) {
    if (!spans.root) continue;  // leaf spans without an envelope
    const Event& root = *spans.root;
    const auto lo = std::lower_bound(
        ambient.begin(), ambient.end(), root.begin_ns,
        [](const Event* ev, std::int64_t t) { return ev->end_ns < t; });
    leaves.clear();
    auto add = [&](const Event& ev) {
      leaves.push_back(SweepInterval{
          ev.begin_ns, ev.end_ns, static_cast<std::uint8_t>(lane(root, ev))});
    };
    for (const Event* ev : spans.leaves) add(*ev);
    for (auto it = lo; it != ambient.end(); ++it) {
      if ((*it)->begin_ns < root.end_ns) add(**it);
    }
    std::array<std::int64_t, N> ns{};
    priority_sweep(root.begin_ns, root.end_ns, leaves, priority, fallback, ns);
    std::array<double, N> us{};
    for (std::size_t i = 0; i < N; ++i) {
      us[i] = static_cast<double>(ns[i]) / 1000.0;
    }
    emit(op, root, us);
  }
}

}  // namespace ordma::obs
