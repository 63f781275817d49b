// Adaptive per-op protocol selection (ROADMAP item 4).
//
// The paper's Fig. 7 shows client-initiated ORDMA only wins while the
// client's reference directory hits in the server cache; RFP's analysis
// says the RPC-vs-remote-read crossover moves with request size and server
// load. So no static mechanism choice is right across a run — this engine
// decides *per I/O* which mechanism to issue, from a small cost model over
// the live per-client signal block (obs/signals.h) plus its own
// per-mechanism latency estimators.
//
// Design constraints, in order:
//  * Deterministic. No RNG, no scheduling, no simulated time consumed by a
//    decision: choices are pure functions of (config, observed history), so
//    golden-hash determinism holds at any worker count, and a run with the
//    engine disabled is bit-identical to one without it.
//  * No flapping. Preferences are sticky: a challenger mechanism must
//    undercut the incumbent's modeled cost by a guard band before the
//    preference flips (hysteresis), so noise near the crossover does not
//    ping-pong the client between mechanisms.
//  * Estimates stay fresh. A mechanism the policy stops using would never
//    be re-measured and could be shunned forever; a forced-exploration
//    trickle (every Nth decision, a plain op counter — no RNG) issues the
//    disfavored mechanism so its estimate tracks reality.
#pragma once

#include <cstdint>

#include "obs/signals.h"

namespace ordma::policy {

// Read mechanism for one block fetch that holds a usable remote reference
// (without a reference RPC is forced and no decision is made).
enum class ReadMech { ordma, rpc };

// Write arm for one pwrite (mirrors nas::odafs::WritePolicy).
enum class WriteArm { rpc, put, write_back };

struct PolicyConfig {
  bool enabled = false;

  // Latency priors (us) seeding the per-mechanism estimators, so the first
  // decisions are sane before any observation lands. Values are in the
  // ballpark of the simulated cost model's small-block round trips; they
  // wash out after a handful of ops.
  double prior_ordma_us = 40.0;
  double prior_rpc_read_us = 80.0;
  double prior_exception_us = 30.0;
  double prior_put_us = 50.0;
  double prior_rpc_write_us = 80.0;
  double prior_wb_us = 20.0;

  // Smoothing for the engine's own latency / fault-rate estimators.
  double alpha = 0.25;
  // Fast-release factor for the binary fault/fallback-rate estimators:
  // faults attack at `alpha`, clean observations release by this fraction.
  // Faults arrive in phases (a revoked region, a churned server cache), and
  // once a mechanism is shunned it is only re-measured every
  // `explore_every` decisions — a symmetric EWMA would need dozens of
  // probes to rehabilitate it after the phase ends.
  double fault_decay = 0.5;
  // Hysteresis: a challenger must undercut the incumbent's modeled cost by
  // this fraction before the preference flips.
  double guard_band = 0.15;
  // Forced-exploration trickle: every Nth decision issues the disfavored
  // mechanism (0 disables exploration — estimates can go stale).
  unsigned explore_every = 64;

  // Let the engine pick the write-back arm. Off by default: write-back
  // changes durability semantics (dirty data survives in the client until
  // flush/sync), so callers opt in explicitly.
  bool allow_write_back = false;

  // Server-CPU pressure term: above `server_cpu_knee` utilization, modeled
  // RPC cost is scaled by (1 + server_cpu_weight * (cpu - knee)) — the CPU
  // gauge is fresher than a stale RPC latency estimate when the policy has
  // been avoiding RPC.
  double server_cpu_knee = 0.85;
  double server_cpu_weight = 2.0;
};

class PolicyEngine {
 public:
  struct Counters {
    std::uint64_t read_decisions = 0;   // choose_read calls
    std::uint64_t read_flips = 0;       // read preference changes
    std::uint64_t read_explored = 0;    // forced-exploration reads
    std::uint64_t read_vetoes = 0;      // ref held but RPC chosen
    std::uint64_t write_decisions = 0;  // choose_write calls
    std::uint64_t write_flips = 0;      // write preference changes
    std::uint64_t write_explored = 0;   // forced-exploration writes
  };

  // `signals` is the owning client's live signal block (may be null in
  // tests); the engine reads it, never writes it.
  PolicyEngine(const PolicyConfig& cfg, const obs::OpSignals* signals);

  bool enabled() const { return cfg_.enabled; }
  // An enabled engine picks the write arm as well as the read mechanism.
  bool adapts_writes() const { return cfg_.enabled; }
  bool may_write_back() const {
    return adapts_writes() && cfg_.allow_write_back;
  }

  // Decide the mechanism for one block fetch holding a usable reference.
  ReadMech choose_read();
  // Feed back what the mechanism actually cost. A faulted ORDMA attempt's
  // latency is the wasted exception round trip (the RPC recovery that
  // follows is observed separately as an rpc read).
  void observe_read(ReadMech m, double latency_us, bool faulted);

  // Decide the arm for one pwrite.
  WriteArm choose_write();
  // `fell_back` — a put-family arm degraded to RPC (no/revoked reference).
  void observe_write(WriteArm arm, double latency_us, bool fell_back);
  // Deferred cost of the write-back arm: a dirty-block flush completed.
  void observe_flush(double latency_us);

  // Modeled costs (us) — the numbers choose_* compares; exposed for tests
  // and bench traces.
  double read_cost(ReadMech m) const;
  double write_cost(WriteArm arm) const;

  ReadMech read_pref() const { return read_pref_; }
  WriteArm write_pref() const { return write_pref_; }
  double exception_rate() const { return exc_rate_; }
  const Counters& counters() const { return n_; }

 private:
  double load_scale() const;
  // Asymmetric update for a binary rate: attack at cfg_.alpha, release by
  // cfg_.fault_decay (see PolicyConfig::fault_decay).
  void rate_update(double& rate, bool hit);

  PolicyConfig cfg_;
  const obs::OpSignals* sig_;

  // Per-mechanism latency estimators (seeded from the priors).
  obs::Ewma ordma_us_;
  obs::Ewma rpc_read_us_;
  obs::Ewma exception_us_;  // cost of a faulted ORDMA attempt
  obs::Ewma put_us_;
  obs::Ewma rpc_write_us_;
  obs::Ewma wb_us_;
  obs::Ewma flush_us_;
  // Engine-owned fault-rate estimators (asymmetric: see rate_update), kept
  // as raw doubles and updated exactly at observation sites.
  double exc_rate_ = 0.0;
  double put_fallback_rate_ = 0.0;

  ReadMech read_pref_ = ReadMech::ordma;
  WriteArm write_pref_ = WriteArm::put;
  Counters n_;
};

}  // namespace ordma::policy
