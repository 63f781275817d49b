// The uniform file-access interface every protocol client implements, so
// workloads (streaming reader, Berkeley-DB stand-in, PostMark) are
// protocol-agnostic. Reads and writes move real bytes to/from user-space
// buffers in the client host's address space.
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
  virtual ~FileClient() = default;

  // Uniform per-client op accounting, fed by each protocol's op wrappers
  // via record_op(). The cluster exports these as "<client>/io/..." —
  // the series the health engine's stock SLOs (obs/health.h) watch.
  struct OpStats {
    std::uint64_t ops = 0;      // completed file ops (any outcome)
    std::uint64_t errors = 0;   // ops that returned a failure Status
    std::uint64_t retries = 0;  // re-issues within ops (recover/recover.h)
    LatencyHistogram latency_us;
  };
  const OpStats& op_stats() const { return stats_; }

  // --- Signal plane (obs/signals.h) ----------------------------------------
  // Always-on EWMA estimators of the mechanism-selection signals (ref hit
  // rate, op size, server CPU echo, ORDMA exception rate), populated by
  // every protocol's op wrappers and exported as "<client>/signals/..."
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
  virtual sim::Task<Result<Bytes>> pread(std::uint64_t fh, Bytes off,
                                         mem::Vaddr user_va, Bytes len) = 0;
  virtual sim::Task<Result<Bytes>> pwrite(std::uint64_t fh, Bytes off,
                                          mem::Vaddr user_va, Bytes len) = 0;

  virtual sim::Task<Result<fs::Attr>> getattr(std::uint64_t fh) = 0;
  virtual sim::Task<Result<OpenResult>> create(const std::string& path) = 0;
  virtual sim::Task<Status> unlink(const std::string& path) = 0;

  // Push any client-side buffered writes to the server (write-back
  // caches). Write-through protocols have nothing buffered.
  virtual sim::Task<Status> sync() { co_return Status::Ok(); }

  virtual const char* protocol_name() const = 0;

 protected:
  // Called by protocol op wrappers at op completion, after the op's trace
  // root (so the sampler has decided keep/drop and the exemplar resolves).
  // Retries and give-ups are recorded at their decision site by
  // recover::bounded, which also marks the op for the trace sampler.
  void record_op(obs::OpId op, Duration d, bool ok) {
    ++stats_.ops;
    if (!ok) ++stats_.errors;
    stats_.latency_us.add(d, obs::exemplar_for(op));
  }

  // Fold a data op's size and a fresh server-CPU sample into the signal
  // block (call from pread/pwrite wrappers; `wall_us` = engine now in us).
  void update_op_signals(Bytes op_len, double wall_us) {
    signals_.op_bytes.update(static_cast<double>(op_len));
    sample_server_cpu(wall_us);
  }
  // Difference the cumulative busy-time echo into a utilization sample
  // (call alone from metadata-op wrappers, which have no op size).
  void sample_server_cpu(double wall_us) {
    if (!server_cpu_probe_) return;
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

  OpStats stats_;
  obs::OpSignals signals_;

 private:
  std::function<double()> server_cpu_probe_;
  double last_probe_busy_us_ = 0;
  double last_probe_wall_us_ = 0;
  bool probe_primed_ = false;
};

}  // namespace ordma::core
