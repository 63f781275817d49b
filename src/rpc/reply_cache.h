// Duplicate-request suppression for the ONC RPC server and the DAFS server
// (the classic NFS xid cache). A retransmitted request must not execute
// twice: mutations are not idempotent in general, and re-executing a write
// after a later one would roll it back.
//
// The rules:
//  * a duplicate of a request still executing is dropped — the original's
//    reply will answer the retransmission too;
//  * a duplicate of an answered request replays the stored reply;
//  * a reply over kMaxReplyBytes is not kept (re-executing a large read is
//    idempotent and cheaper than pinning its reply), so its duplicates
//    execute again;
//  * at most kMaxAnswered answered replies are kept, the oldest evicted
//    first; executing entries are never evicted.
//
// Keys are the server's: (client, port, xid) packed into 64 bits for RPC,
// the per-connection request id for DAFS. Each server keeps its own
// counters, flight records and replay CPU charges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "common/assert.h"
#include "common/open_map.h"
#include "common/units.h"

namespace ordma::rpc {

template <typename Reply>
class ReplyCache {
 public:
  static constexpr std::size_t kMaxAnswered = 256;
  static constexpr Bytes kMaxReplyBytes = KiB(64);

  enum class Verdict {
    execute,  // a new request, now marked executing until answer()
    drop,     // a duplicate of a request still executing
    replay,   // a duplicate of an answered request: replay `reply`
  };
  struct Admission {
    Verdict verdict;
    // The stored reply (replay only). Good until the next admit/answer.
    const Reply* reply = nullptr;
  };

  // Classify the arrival of request `key`.
  Admission admit(std::uint64_t key) {
    auto [slot, fresh] = entries_.try_emplace(key);
    if (fresh) return {Verdict::execute};
    if (slot->value.executing) return {Verdict::drop};
    return {Verdict::replay, &slot->value.reply};
  }

  // Executing request `key` produced `reply`, `bytes` long on the wire.
  // Call before sending it, so a duplicate arriving during the send
  // already replays.
  void answer(std::uint64_t key, Reply reply, Bytes bytes) {
    if (bytes > kMaxReplyBytes) {
      entries_.erase(key);
      return;
    }
    auto* slot = entries_.find(key);
    ORDMA_CHECK_MSG(slot != nullptr, "ReplyCache::answer without admit");
    slot->value.executing = false;
    slot->value.reply = std::move(reply);
    answered_.push_back(key);
    if (answered_.size() > kMaxAnswered) {
      entries_.erase(answered_.front());
      answered_.pop_front();
    }
  }

 private:
  struct Entry {
    bool executing = true;
    Reply reply{};
  };
  struct KeyTraits {
    static std::uint64_t empty() { return ~std::uint64_t{0}; }
    static std::size_t hash(std::uint64_t k) { return mix_hash(k); }
  };

  OpenMap<std::uint64_t, Entry, KeyTraits> entries_;
  std::deque<std::uint64_t> answered_;  // oldest first
};

}  // namespace ordma::rpc
