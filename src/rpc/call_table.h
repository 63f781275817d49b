// The request/reply matching every request/response endpoint shares: the
// ONC RPC client (xids), the DAFS client (request ids) and the DAFS server's
// invalidation callbacks (server request ids).
//
// open() hands out the next id (from 1; ids are never reused). Each
// attempt of a request arms a fresh one-shot reply event before its send;
// the receive loop hands a matched reply to deliver(), which completes the
// request's *current* attempt. A reply for an id with no live request (late,
// or for a request already answered and closed) and a second reply within
// one attempt are dropped. A retransmission keeps the id, so a reply to an
// earlier attempt that arrives during a later attempt's wait completes that
// later attempt — the two are indistinguishable on the wire. The attempt
// loop itself (timeouts, backoff, give-up) stays with the caller.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/page_table.h"
#include "sim/engine.h"
#include "sim/event.h"

namespace ordma::rpc {

template <typename Reply>
class CallTable {
 public:
  explicit CallTable(sim::Engine& eng) : eng_(eng) {}
  CallTable(const CallTable&) = delete;
  CallTable& operator=(const CallTable&) = delete;

  // Start a request: its id, live until close().
  std::uint32_t open() {
    const std::uint32_t id = next_id_++;
    live_.try_emplace(id);
    return id;
  }

  // Arm a fresh reply event for the next attempt of live request `id`,
  // superseding the previous attempt's. The reference is good until the
  // next arm() or close() of `id`.
  sim::Event<Reply>& arm(std::uint32_t id) {
    auto* slot = live_.find(id);
    ORDMA_CHECK_MSG(slot != nullptr, "CallTable::arm on a closed request");
    *slot = std::make_unique<sim::Event<Reply>>(eng_);
    return **slot;
  }

  // Hand a reply to `id`'s current attempt. Returns false, dropping it,
  // when `id` has no live, armed and still unanswered attempt.
  template <typename... V>
  bool deliver(std::uint32_t id, V&&... reply) {
    auto* slot = live_.find(id);
    if (slot == nullptr || *slot == nullptr || (*slot)->is_set()) return false;
    (*slot)->set(std::forward<V>(reply)...);
    return true;
  }

  // End request `id`: later replies for it are dropped.
  void close(std::uint32_t id) { live_.erase(id); }

  // Requests started so far, and those still live.
  std::uint64_t issued() const { return next_id_ - 1; }
  std::size_t live() const { return live_.size(); }

 private:
  sim::Engine& eng_;
  std::uint32_t next_id_ = 1;
  PageTable<std::unique_ptr<sim::Event<Reply>>> live_;
};

}  // namespace ordma::rpc
