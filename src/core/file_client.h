// The uniform file-access interface every protocol client implements, so
// workloads (streaming reader, Berkeley-DB stand-in, PostMark) are
// protocol-agnostic. Reads and writes move real bytes to/from user-space
// buffers in the client host's address space.
//
// The class also owns the op envelope: pread, pwrite and getattr run their
// protocol's *_op body under a fresh op id (obs/trace.h) and record the op
// — root span, stats and signals — the same way for every protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/stats.h"
#include "common/units.h"
#include "fs/server_fs.h"
#include "host/host.h"
#include "mem/physical_memory.h"
#include "obs/sampler.h"
#include "obs/signals.h"
#include "sim/task.h"

namespace ordma::core {

struct OpenResult {
  std::uint64_t fh = 0;
  Bytes size = 0;
};

class FileClient {
 public:
  explicit FileClient(host::Host& host)
      : host_(host), trk_app_(host.name(), "app") {}
  virtual ~FileClient() = default;

  // Uniform per-client op accounting, recorded by the op envelope. The
  // cluster exports these as "<client>/io/..." — the series the health
  // engine's stock SLOs (obs/health.h) watch.
  struct OpStats {
    std::uint64_t ops = 0;      // completed file ops (any outcome)
    std::uint64_t errors = 0;   // ops that returned a failure Status
    std::uint64_t retries = 0;  // re-issues within ops (recover/recover.h)
    LatencyHistogram latency_us;
  };
  const OpStats& op_stats() const { return stats_; }

  // --- Signal plane (obs/signals.h) ----------------------------------------
  // Always-on EWMA estimators of the mechanism-selection signals (ref hit
  // rate, op size, server CPU echo, ORDMA exception rate), fed by the op
  // envelope and the protocols and exported as "<client>/signals/..."
  // gauges. ORDMA-specific series (ref_hit_rate, exception_rate) stay at
  // their unprimed zero for protocols without an ORDMA path, so the policy
  // bench can trace comparable signal blocks for every arm.
  const obs::OpSignals& signals() const { return signals_; }
  // `fn` returns the server's cumulative CPU busy time in us; the client
  // differences it against wall time between its own ops (the utilization
  // a real server would echo in replies).
  void set_server_cpu_probe(std::function<double()> fn) {
    server_cpu_probe_ = std::move(fn);
  }

  virtual sim::Task<Result<OpenResult>> open(const std::string& path) = 0;
  virtual sim::Task<Status> close(std::uint64_t fh) = 0;

  // Read/write `len` bytes at file offset `off` into/from the user buffer
  // at `user_va` (in the client host's user address space). Returns bytes
  // transferred (reads may be short at EOF).
  sim::Task<Result<Bytes>> pread(std::uint64_t fh, Bytes off,
                                 mem::Vaddr user_va, Bytes len) {
    auto r = co_await run_op("op/pread", [&](obs::OpId op) {
      return pread_op(fh, off, user_va, len, op);
    });
    update_op_signals(len);
    co_return r;
  }
  sim::Task<Result<Bytes>> pwrite(std::uint64_t fh, Bytes off,
                                  mem::Vaddr user_va, Bytes len) {
    auto r = co_await run_op("op/pwrite", [&](obs::OpId op) {
      return pwrite_op(fh, off, user_va, len, op);
    });
    update_op_signals(len);
    co_return r;
  }

  sim::Task<Result<fs::Attr>> getattr(std::uint64_t fh) {
    auto r = co_await run_op(
        "op/getattr", [&](obs::OpId op) { return getattr_op(fh, op); });
    sample_server_cpu();
    co_return r;
  }

  virtual sim::Task<Result<OpenResult>> create(const std::string& path) = 0;
  virtual sim::Task<Status> unlink(const std::string& path) = 0;

  // Push any client-side buffered writes to the server (write-back
  // caches). Write-through protocols have nothing buffered and record no
  // op; an override that flushes runs as an op through run_op.
  virtual sim::Task<Status> sync() { co_return Status::Ok(); }

  virtual const char* protocol_name() const = 0;

 protected:
  // The protocol bodies of pread, pwrite and getattr; `op` is the file
  // op's trace context.
  virtual sim::Task<Result<Bytes>> pread_op(std::uint64_t fh, Bytes off,
                                            mem::Vaddr user_va, Bytes len,
                                            obs::OpId op) = 0;
  virtual sim::Task<Result<Bytes>> pwrite_op(std::uint64_t fh, Bytes off,
                                             mem::Vaddr user_va, Bytes len,
                                             obs::OpId op) = 0;
  virtual sim::Task<Result<fs::Attr>> getattr_op(std::uint64_t fh,
                                                 obs::OpId op) = 0;

  // Run `body(op)` as one file op under a fresh op id, then mark a failed
  // op for the trace sampler, record the op's root span `name` on the
  // host's "app" track and record the op's stats, in that order: the root
  // comes first so the sampler has decided keep/drop when the latency
  // exemplar resolves. Retries and give-ups are recorded at their decision
  // site by recover::bounded. Returns the body's result.
  template <typename Body>
  auto run_op(const char* name, Body body) -> decltype(body(obs::OpId{})) {
    const obs::OpId op = obs::new_op();
    const SimTime b = host_.engine().now();
    auto r = co_await body(op);
    if (!r.ok()) obs::note_op_error(op);
    const SimTime e = host_.engine().now();
    obs::root(trk_app_, op, name, b, e);
    ++stats_.ops;
    if (!r.ok()) ++stats_.errors;
    stats_.latency_us.add(e - b, obs::exemplar_for(op));
    co_return r;
  }

  host::Host& host_;
  OpStats stats_;
  obs::OpSignals signals_;

 private:
  // Fold a data op's size and a fresh server-CPU sample into the signals.
  void update_op_signals(Bytes op_len) {
    signals_.op_bytes.update(static_cast<double>(op_len));
    sample_server_cpu();
  }
  // Difference the cumulative busy-time echo against wall time since the
  // previous sample into a utilization sample.
  void sample_server_cpu() {
    if (!server_cpu_probe_) return;
    const double wall_us =
        static_cast<double>(host_.engine().now().ns) / 1000.0;
    const double busy_us = server_cpu_probe_();
    if (probe_primed_ && wall_us > last_probe_wall_us_) {
      const double util = std::clamp(
          (busy_us - last_probe_busy_us_) / (wall_us - last_probe_wall_us_),
          0.0, 1.0);
      signals_.server_cpu.update(util);
    }
    last_probe_busy_us_ = busy_us;
    last_probe_wall_us_ = wall_us;
    probe_primed_ = true;
  }

  obs::Track trk_app_;  // root spans of this client's file ops
  std::function<double()> server_cpu_probe_;
  double last_probe_busy_us_ = 0;
  double last_probe_wall_us_ = 0;
  bool probe_primed_ = false;
};

}  // namespace ordma::core
