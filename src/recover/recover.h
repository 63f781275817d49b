// The one re-issue rule for whole file operations. ODAFS treats a failed
// ORDMA or RPC as a recoverable exception (§4.2): only an exhausted budget
// reaches the application as an error. Every bounded re-issue loop in the
// protocol clients goes through bounded(), so all of them account alike:
// a retry is a re-issue, never the first attempt, and a give-up marks the
// op errored and records `op_giveup`, which writes the ORDMA_FLIGHT_DUMP
// postmortem (obs/flight.h). A re-issue starts a new request; resending
// one request is rpc::Retransmit's job.
#pragma once

#include <cstdint>

#include "common/result.h"
#include "host/host.h"
#include "obs/flight.h"
#include "obs/sampler.h"
#include "sim/task.h"

namespace ordma::recover {

// Failures worth a whole-operation re-issue: a request that gave up on
// retransmits, a transfer refused by a (spuriously) revoked capability, or
// a transient media or integrity error.
inline bool retryable(Errc e) {
  return e == Errc::timed_out || e == Errc::revoked || e == Errc::io_error;
}

// Where a bounded loop runs and what it records there.
struct Site {
  host::Host& host;        // flight ring and clock
  std::uint64_t& retries;  // the client's FileClient::OpStats::retries
  obs::OpId op;            // the file op the attempts serve
  std::uint64_t* give_ups = nullptr;  // the site's give-up counter, if any
};

// Await attempt() until it succeeds, fails with a code retryable()
// rejects, or has been made `max_attempts` times (at least once); return
// the last outcome. `attempt` returns a sim::Task of a Status or Result.
template <typename Attempt>
auto bounded(unsigned max_attempts, Site site, Attempt attempt)
    -> decltype(attempt()) {
  for (unsigned n = 1;; ++n) {
    auto r = co_await attempt();
    if (r.ok() || !retryable(r.code())) co_return r;
    if (n >= max_attempts) {
      if (site.give_ups != nullptr) ++*site.give_ups;
      // Marked here, not by the op wrapper: a give-up inside a spawned
      // prefetch never reaches the wrapper, yet its op must be retained.
      obs::note_op_error(site.op);
      obs::flight::note_giveup(site.host.flight(),
                               site.host.engine().now().ns, site.op,
                               static_cast<std::uint64_t>(r.code()));
      co_return r;
    }
    ++site.retries;
    obs::note_op_retry(site.op);
  }
}

}  // namespace ordma::recover
